import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import coupled_chain_stationary, make_profile, migration_chain_stationary
from mobicell.ccdf import (FieldSamples, default_levels, extract_classes,
                           macro_ccdf, small_ccdf)
from mobicell.flowsim import (MACRO, SMALL, InsufficientDataError, TrafficSpec,
                              TransitionRates, empirical_metrics,
                              estimate_transition_rates, simulate)
from mobicell.geometry import CellLayout, PolarPoint
from mobicell.hotspot import CoverageRegion, HotspotSpec
from mobicell.radio import RadioParams


def run_mm1(rho, eta=10.0, sigma0=2.0, n_arrivals=30_000, seed=0, record_flows=False):
    lam = rho * eta / sigma0
    prof = make_profile(lam_m=(lam,), lam_s=(0.0,), eta_m0=(eta,), eta_s0=(eta,))
    T = n_arrivals / lam
    return simulate(prof, None, TrafficSpec(lam, sigma0), T, seed,
                    record_flows=record_flows)


def test_mm1_ps_mean_occupancy():
    """Processor sharing with exponential sizes has the M/M/1 occupancy law
    E[N] = rho / (1 - rho)."""
    rho = 0.5
    means = []
    for seed in range(8):
        tr = run_mm1(rho, n_arrivals=20_000, seed=seed)
        means.append(tr.mean_counts()[0].sum())
    mu = float(np.mean(means))
    se = float(np.std(means, ddof=1) / math.sqrt(len(means)))
    assert mu == pytest.approx(rho / (1 - rho), abs=3 * se + 1e-9)


def test_empty_traffic_gives_empty_trace():
    prof = make_profile(lam_m=(0.0,), lam_s=(0.0,))
    tr = simulate(prof, None, TrafficSpec(0.0, 2.0), 1000.0, 1)
    assert tr.n_arrivals == 0 and tr.n_departures == 0
    assert tr.served_mbits() == 0.0


def test_departed_flows_receive_exactly_their_size():
    tr = run_mm1(0.6, n_arrivals=3000, seed=3, record_flows=True)
    done = [f for f in tr.flows if not math.isnan(f.departure)]
    assert len(done) > 2500
    for f in done:
        assert f.served == pytest.approx(f.size, rel=1e-9)
        assert f.departure > f.arrival


def test_reproducible_event_sequences():
    a = run_mm1(0.5, n_arrivals=2000, seed=9, record_flows=True)
    b = run_mm1(0.5, n_arrivals=2000, seed=9, record_flows=True)
    assert len(a.flows) == len(b.flows)
    for fa, fb in zip(a.flows, b.flows):
        assert fa.arrival == fb.arrival and fa.size == fb.size
        assert (fa.departure == fb.departure) or (math.isnan(fa.departure)
                                                  and math.isnan(fb.departure))
    assert a.served_mbits() == b.served_mbits()


def test_work_conservation_single_cell():
    """While the queue is nonempty the cell serves at full rate: served bits
    equal eta * busy_time."""
    tr = run_mm1(0.5, n_arrivals=5000, seed=5)
    assert tr.served_mbits() == pytest.approx(10.0 * tr.busy_time[MACRO], rel=1e-9)


def test_drained_trace_balances_arrivals():
    """With a generous drain window every arrival departs."""
    lam, eta, sigma0 = 0.5, 10.0, 2.0
    prof = make_profile(lam_m=(lam,), lam_s=(0.0,), eta_m0=(eta,), eta_s0=(eta,))
    # stop arrivals after t=500 by switching to a zero-rate piece
    prof2 = make_profile(t=500.0, lam_m=(0.0,), lam_s=(0.0,), eta_m0=(eta,), eta_s0=(eta,))
    tr = simulate([prof, prof2], None, TrafficSpec(lam, sigma0), 2000.0, 7)
    assert tr.n_departures == tr.n_arrivals


def test_phase_switching_against_exact_chain():
    """Coupled single-class pair against the exact CTMC stationary law
    (linear solve, independent of any product form)."""
    eta0, eta1, sigma0 = 10.0, 6.0, 2.0
    lam = 0.4 / (sigma0 * (0.4 / eta1 + 0.6 / eta0))
    prof = make_profile(lam_m=(lam,), lam_s=(lam,), eta_m0=(eta0,), eta_m1=(eta1,),
                        eta_s0=(eta0,), eta_s1=(eta1,))
    tr = simulate(prof, None, TrafficSpec(2 * lam, sigma0), 150_000.0, 13,
                  track_states=True)
    freqs = tr.state_frequencies()
    exact = coupled_chain_stationary(lam, lam, sigma0, eta0, eta1, eta0, eta1)
    sim = {(n[0], m[0]): v for (n, m), v in freqs.items()}
    keys = set(sim) | set(exact)
    tv = 0.5 * sum(abs(sim.get(k, 0.0) - exact.get(k, 0.0)) for k in keys)
    assert tv < 0.02


def test_coupling_raises_occupancy_vs_independent():
    """Cross interference slows both queues: mean occupancy must exceed the
    independent-queues value rho0/(1-rho0) built from the idle-phase rate."""
    eta0, eta1, sigma0 = 10.0, 5.0, 2.0
    lam = 1.5
    prof = make_profile(lam_m=(lam,), lam_s=(lam,), eta_m0=(eta0,), eta_m1=(eta1,),
                        eta_s0=(eta0,), eta_s1=(eta1,))
    tr = simulate(prof, None, TrafficSpec(2 * lam, sigma0), 40_000.0, 29)
    rho0 = lam * sigma0 / eta0
    mean_total = sum(tr.mean_counts()[0]) + sum(tr.mean_counts()[1])
    assert mean_total > 2 * rho0 / (1 - rho0)


def test_migrations_move_flows_between_classes():
    lam, eta = 1.0, 8.0
    prof = make_profile(lam_m=(lam, 0.0), lam_s=(0.0,), eta_m0=(4.0, eta),
                        eta_s0=(8.0,))
    rates = TransitionRates(0.0, nu_up=np.array([0.5, 0.0]), nu_down=np.zeros(2),
                            nu_tilde_up=np.zeros(1), nu_tilde_down=np.zeros(1))
    tr = simulate(prof, rates, TrafficSpec(lam, 2.0), 5000.0, 17,
                  record_flows=True)
    assert tr.n_migrations > 100
    # all arrivals enter class 1; anything served in class 2 got there by migration
    assert tr.int_n[MACRO][1] > 0.0
    moved = [f for f in tr.flows if len(f.path) > 1]
    assert moved and all(f.path[0] == (MACRO, 0) for f in moved)
    assert all(f.path[1] == (MACRO, 1) for f in moved)


def test_migration_boundary_rates_validated():
    with pytest.raises(ValueError):
        TransitionRates(0.0, nu_up=np.array([0.5]), nu_down=np.zeros(1),
                        nu_tilde_up=np.zeros(1), nu_tilde_down=np.zeros(1))
    with pytest.raises(ValueError):
        TransitionRates(0.0, nu_up=np.array([0.5, 0.0]), nu_down=np.array([0.1, 0.0]),
                        nu_tilde_up=np.zeros(1), nu_tilde_down=np.zeros(1))


def test_handover_delivers_into_first_class():
    lam = 1.0
    prof = make_profile(lam_m=(lam, lam), lam_s=(0.0, 0.0),
                        eta_m0=(5.0, 10.0), eta_s0=(5.0, 10.0))
    rates = TransitionRates(0.0, nu_up=np.zeros(2), nu_down=np.zeros(2),
                            nu_tilde_up=np.zeros(2), nu_tilde_down=np.zeros(2),
                            nu_handover_m2s=0.2)
    tr = simulate(prof, rates, TrafficSpec(2 * lam, 2.0), 3000.0, 19,
                  record_flows=True)
    assert tr.n_handovers > 50
    handed = [f for f in tr.flows if any(c == SMALL for c, _ in f.path)]
    assert handed
    for f in handed:
        first_small = next(step for step in f.path if step[0] == SMALL)
        assert first_small == (SMALL, 0)
    assert tr.int_n[SMALL][0] > 0.0 and tr.int_n[SMALL][1] == 0.0


def test_empirical_metrics_basics():
    tr = run_mm1(0.5, n_arrivals=20_000, seed=23)
    m = empirical_metrics(tr)
    assert m.P_k.sum() + m.P_tilde_l.sum() == pytest.approx(1.0)
    assert m.rho_busy == pytest.approx(0.5, abs=0.02)
    assert m.rho_tilde_busy == 0.0
    # Little's law: R = served / int N = eta (1 - rho) for M/M/1-PS
    assert m.mean_flow_throughput == pytest.approx(10.0 * 0.5, rel=0.05)
    assert abs(m.conservation_residual) / (tr.traffic.lambda_tot * 2.0) < 0.02


def test_conservation_residual_positive_when_unstable():
    tr = run_mm1(1.5, n_arrivals=3000, seed=31)
    m = empirical_metrics(tr)
    assert m.conservation_residual > 0.0


def _profiles_for_motion(positions, seed=2, n=20_000):
    layout = CellLayout(delta=1.0, rings_for_oracle=30)
    params = RadioParams.from_link_budget()
    spec = HotspotSpec(R_h=0.5, theta_h=math.pi / 3, A=0.08)
    levels = default_levels(params.eta0)
    samples = FieldSamples(spec, params, layout, n, seed)
    profs = []
    for t, Ls in positions:
        region = CoverageRegion(macro_radius=layout.R, small_center=Ls, small_reach=0.2)
        m1 = macro_ccdf(t, Ls, levels, spec, params, region, layout, samples=samples)
        m0 = macro_ccdf(t, Ls, levels, spec, params, region, layout, samples=samples,
                        include_small_interference=False)
        s1 = small_ccdf(t, Ls, levels, spec, params, region, layout, samples=samples)
        s0 = small_ccdf(t, Ls, levels, spec, params, region, layout, samples=samples,
                        include_central_macro=False)
        profs.append(extract_classes(m1, s1, m0, s0, K=4, L=4, lambda_tot=5.0))
    return profs


def test_transition_rates_zero_for_static_cell():
    c = HotspotSpec(R_h=0.5, theta_h=math.pi / 3, A=0.08).center
    profs = _profiles_for_motion([(0.0, c), (10.0, c)])
    rates = estimate_transition_rates(profs)
    assert len(rates) == 1
    r = rates[0]
    assert np.all(r.nu_up == 0) and np.all(r.nu_down == 0)
    assert np.all(r.nu_tilde_up == 0) and np.all(r.nu_tilde_down == 0)
    assert r.nu_handover_m2s == 0.0 and r.nu_handover_s2m == 0.0


def test_transition_rates_approach_drives_small_cell_upward():
    """Small cell approaching the hotspot: its users' radio conditions
    improve, so upward small-cell migration carries positive rate and the
    handover flux points macro-to-small."""
    c = HotspotSpec(R_h=0.5, theta_h=math.pi / 3, A=0.08).center
    far = PolarPoint(c.x, c.y - 0.15)
    near = PolarPoint(c.x, c.y - 0.05)
    rates = estimate_transition_rates(_profiles_for_motion([(0.0, far), (10.0, near)]))
    r = rates[0]
    assert r.nu_tilde_up.sum() > 0.0
    assert r.nu_handover_m2s > 0.0 and r.nu_handover_s2m == 0.0
    # receding reverses the handover direction
    back = estimate_transition_rates(_profiles_for_motion([(0.0, near), (10.0, far)]))[0]
    assert back.nu_handover_s2m > 0.0 and back.nu_handover_m2s == 0.0
    # all rates nonnegative by construction
    for arr in (r.nu_up, r.nu_down, r.nu_tilde_up, r.nu_tilde_down):
        assert np.all(arr >= 0.0)


def test_transition_rates_need_two_profiles():
    c = HotspotSpec(R_h=0.5, theta_h=math.pi / 3, A=0.08).center
    profs = _profiles_for_motion([(0.0, c)])
    with pytest.raises(InsufficientDataError):
        estimate_transition_rates(profs)


def test_trace_csv_exports(tmp_path):
    tr = run_mm1(0.4, n_arrivals=500, seed=1, record_flows=True)
    tr2 = simulate(make_profile(lam_m=(1.0,), lam_s=(0.0,)), None, TrafficSpec(1.0, 2.0),
                   100.0, 1, sample_dt=10.0)
    p1 = tmp_path / "trace.csv"
    p2 = tmp_path / "flows.csv"
    tr2.to_csv(p1)
    tr.flows_to_csv(p2)
    assert p1.read_text().splitlines()[0] == "t_s,cell,class,count"
    lines = p2.read_text().splitlines()
    assert lines[0] == "arrival_s,departure_s,cell_path,size_mbits"
    assert lines[1].split(",")[2].startswith("M1")


def _moving_system():
    """A 900 s horizon of 30 s pieces with drifting arrivals, migrations in
    both cells and handovers both ways."""
    T, piece_dt = 900.0, 30.0
    profs, rates = [], []
    for i in range(int(T / piece_dt)):
        lam = 0.8 + 0.6 * math.sin(i / 4.0) ** 2
        profs.append(make_profile(t=i * piece_dt, lam_m=(lam, 0.5), lam_s=(0.3, lam),
                                  eta_m0=(6.0, 12.0), eta_m1=(4.0, 9.0),
                                  eta_s0=(8.0, 16.0), eta_s1=(5.0, 11.0)))
        rates.append(TransitionRates(i * piece_dt, nu_up=np.array([0.05, 0.0]),
                                     nu_down=np.array([0.0, 0.03]),
                                     nu_tilde_up=np.array([0.04, 0.0]),
                                     nu_tilde_down=np.array([0.0, 0.02]),
                                     nu_handover_m2s=0.01 * (i % 3),
                                     nu_handover_s2m=0.01 * (i % 2)))
    return profs, rates, TrafficSpec(2.5, 2.0), T


def test_sampling_consumes_no_draws():
    """Occupancy sampling, on the piece grid or off it, leaves the
    realisation alone: same integrals, event counts and flow paths."""
    profs, rates, traffic, T = _moving_system()
    piece_dt = 30.0
    runs = {dt: simulate(profs, rates, traffic, T, 5, sample_dt=dt,
                         record_flows=True)
            for dt in (None, piece_dt, 7.0)}
    base = runs[None]
    assert base.n_migrations > 0 and base.n_handovers > 0
    assert base.sample_times == []
    for dt in (piece_dt, 7.0):
        tr = runs[dt]
        assert tr.int_n == base.int_n
        assert (tr.n_arrivals, tr.n_departures, tr.n_migrations, tr.n_handovers) == \
            (base.n_arrivals, base.n_departures, base.n_migrations, base.n_handovers)
        assert [(f.arrival, f.departure, f.path) for f in tr.flows] == \
            [(f.arrival, f.departure, f.path) for f in base.flows]
        assert len(tr.sample_times) == math.ceil(T / dt)
        assert tr.sample_times[0] == 0.0
        assert tr.sample_counts[0] == ([0, 0], [0, 0])


def _realisation(tr):
    """Everything of a trace but its flow records, as exact values."""
    return (tr.int_n, tr.int_served, tr.busy_time, tr.piece_t.tolist(),
            tr.piece_time.tolist(), tr.piece_int_n.tolist(), tr.piece_served.tolist(),
            tr.n_arrivals, tr.n_departures, tr.n_migrations, tr.n_handovers,
            tr.sample_times, tr.sample_counts, tr.states_time,
            tr.offered_mbits_drawn, tr.backlog_mbits)


def test_flow_records_consume_no_draws():
    profs, rates, traffic, T = _moving_system()
    on, off = (simulate(profs, rates, traffic, T, 5, sample_dt=7.0, track_states=True,
                        record_flows=rec) for rec in (True, False))
    assert off.flows == [] and len(on.flows) == on.n_arrivals
    assert _realisation(off) == _realisation(on)


def test_moving_system_realisation_is_pinned():
    """Event counts and integrals of one seed, pinned to the bit: a refactor
    that moves, adds or drops a draw, or reorders a sum, fails here."""
    profs, rates, traffic, T = _moving_system()
    tr = simulate(profs, rates, traffic, T, 5)
    assert (tr.n_arrivals, tr.n_departures, tr.n_migrations, tr.n_handovers) == \
        (2759, 2759, 58, 20)
    assert [[repr(float(x)) for x in c] for c in tr.int_n] == \
        [["776.0494948710838", "204.5878739739635"],
         ["138.41486080126927", "207.42978047682644"]]
    assert [[repr(float(x)) for x in c] for c in tr.int_served] == \
        [["1814.9527549099187", "1057.6524566007215"],
         ["629.4957955884588", "1954.969470718614"]]


@settings(max_examples=25, deadline=None)
@given(K=st.integers(1, 3), L=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       lam=st.floats(0.2, 3.0), nu=st.floats(0.0, 0.5), ho=st.floats(0.0, 0.3),
       etas=st.lists(st.floats(1.0, 20.0), min_size=12, max_size=12))
def test_flow_records_never_change_the_realisation(K, L, seed, lam, nu, ho, etas):
    """Records on or off, any small profile gives the same realisation, and
    the drawn work splits into served work and backlog."""
    profs = [make_profile(t=t, lam_m=[lam / K] * K, lam_s=[lam / L] * L,
                          eta_m0=etas[:K], eta_m1=[0.7 * x for x in etas[:K]],
                          eta_s0=etas[6:6 + L], eta_s1=[0.5 * x for x in etas[6:6 + L]])
             for t in (0.0, 40.0)]
    up, down = [nu] * (K - 1) + [0.0], [0.0] + [nu] * (K - 1)
    tup, tdown = [nu] * (L - 1) + [0.0], [0.0] + [nu] * (L - 1)
    rates = TransitionRates(0.0, np.array(up), np.array(down), np.array(tup),
                            np.array(tdown), ho, 2 * ho)
    traffic = TrafficSpec(2 * lam, 2.0)
    on, off = (simulate(profs, rates, traffic, 80.0, seed, sample_dt=5.0,
                        track_states=True, record_flows=rec)
               for rec in (True, False))
    assert _realisation(off) == _realisation(on)


# the migration/handover oracle's system, in migration_chain_stationary's terms
ORACLE = dict(lam_m=(0.9, 0.6), lam_s=1.2, sigma0=2.0, eta_m0=(6.0, 12.0),
              eta_m1=(4.0, 9.0), eta_s0=10.0, eta_s1=7.0, nu_up=(0.5, 0.0),
              nu_down=(0.0, 0.3), ho_m2s=0.2, ho_s2m=0.3)


def _oracle_system():
    o = ORACLE
    prof = make_profile(lam_m=o["lam_m"], lam_s=(o["lam_s"],), eta_m0=o["eta_m0"],
                        eta_m1=o["eta_m1"], eta_s0=(o["eta_s0"],), eta_s1=(o["eta_s1"],))
    rates = TransitionRates(0.0, nu_up=np.array(o["nu_up"]), nu_down=np.array(o["nu_down"]),
                            nu_tilde_up=np.zeros(1), nu_tilde_down=np.zeros(1),
                            nu_handover_m2s=o["ho_m2s"], nu_handover_s2m=o["ho_s2m"])
    return prof, rates, TrafficSpec(sum(o["lam_m"]) + o["lam_s"], o["sigma0"])


def test_drawn_work_splits_into_served_and_backlog():
    """On the migration/handover oracle's system, every drawn Mbit is served
    or still in service at T, migrations and handovers included."""
    prof, rates, traffic = _oracle_system()
    tr = simulate(prof, rates, traffic, 5000.0, 3)
    assert tr.n_migrations > 500 and tr.n_handovers > 500 and tr.backlog_mbits > 0.0
    m = empirical_metrics(tr)
    assert m.offered_mbits_drawn == pytest.approx(m.served_mbits + m.backlog_mbits,
                                                  rel=1e-9)
    assert m.drawn_z == pytest.approx(
        (m.offered_mbits_drawn - m.offered_mbits)
        / (traffic.sigma0 * math.sqrt(2.0 * traffic.lambda_tot * 5000.0)))


def test_migrations_and_handovers_against_exact_chain():
    """Two macro classes with up/down migration and one small-cell class,
    handovers both ways, against the exact chain's stationary law (TV about
    0.004).  A chain whose s->m handovers enter macro class 2 lies at TV 0.03
    from the simulation, one with nu_up x 1.5 at 0.027, one with both at 0.055."""
    prof, rates, traffic = _oracle_system()
    tr = simulate(prof, rates, traffic, 60_000.0, 0, track_states=True)
    assert tr.n_migrations > 10_000 and tr.n_handovers > 10_000
    sim = tr.state_frequencies()
    exact = migration_chain_stationary(**ORACLE)
    keys = set(sim) | set(exact)
    tv = 0.5 * sum(abs(sim.get(k, 0.0) - exact.get(k, 0.0)) for k in keys)
    assert tv < 0.02
