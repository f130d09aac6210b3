import hashlib
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mobicell.flowsim
import mobicell.mobility
from conftest import (coupled_chain_stationary, make_profile, migration_chain_piece_integrals,
                      migration_chain_stationary)
from mobicell.ccdf import (FieldSamples, default_levels, extract_classes,
                           macro_ccdf, small_ccdf)
from mobicell.flowsim import (_GAMMA, MACRO, SMALL, InsufficientDataError, TrafficSpec,
                              TransitionRates, _validate_trace, empirical_metrics,
                              estimate_transition_rates, simulate)
from mobicell.pipeline import _flows_file, _trace_file, _write
from mobicell.geometry import CellLayout, PolarPoint
from mobicell.hotspot import HotspotSpec
from mobicell.mobility import route_cruise_policy
from mobicell.radio import RadioParams


def run_mm1(rho, eta=10.0, sigma0=2.0, n_arrivals=30_000, seed=0, record_flows=False):
    lam = rho * eta / sigma0
    prof = make_profile(lam_m=(lam,), lam_s=(0.0,), eta_m0=(eta,), eta_s0=(eta,))
    T = n_arrivals / lam
    return simulate([0.0], [prof], None, TrafficSpec(lam, sigma0), T, seed,
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
    tr = simulate([0.0], [prof], None, TrafficSpec(0.0, 2.0), 1000.0, 1)
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
    prof2 = make_profile(lam_m=(0.0,), lam_s=(0.0,), eta_m0=(eta,), eta_s0=(eta,))
    tr = simulate([0.0, 500.0], [prof, prof2], None, TrafficSpec(lam, sigma0), 2000.0, 7)
    assert tr.n_departures == tr.n_arrivals


def test_phase_switching_against_exact_chain():
    """Coupled single-class pair against the exact CTMC stationary law
    (linear solve, independent of any product form)."""
    eta0, eta1, sigma0 = 10.0, 6.0, 2.0
    lam = 0.4 / (sigma0 * (0.4 / eta1 + 0.6 / eta0))
    prof = make_profile(lam_m=(lam,), lam_s=(lam,), eta_m0=(eta0,), eta_m1=(eta1,),
                        eta_s0=(eta0,), eta_s1=(eta1,))
    tr = simulate([0.0], [prof], None, TrafficSpec(2 * lam, sigma0), 150_000.0, 13,
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
    tr = simulate([0.0], [prof], None, TrafficSpec(2 * lam, sigma0), 40_000.0, 29)
    rho0 = lam * sigma0 / eta0
    mean_total = sum(tr.mean_counts()[0]) + sum(tr.mean_counts()[1])
    assert mean_total > 2 * rho0 / (1 - rho0)


def test_migrations_move_flows_between_classes():
    lam, eta = 1.0, 8.0
    prof = make_profile(lam_m=(lam, 0.0), lam_s=(0.0,), eta_m0=(4.0, eta),
                        eta_s0=(8.0,))
    rates = TransitionRates(nu_up=np.array([0.5, 0.0]), nu_down=np.zeros(2),
                            nu_tilde_up=np.zeros(1), nu_tilde_down=np.zeros(1))
    tr = simulate([0.0], [prof], [rates], TrafficSpec(lam, 2.0), 5000.0, 17,
                  record_flows=True)
    assert tr.n_migrations > 100
    # all arrivals enter class 1; anything served in class 2 got there by migration
    assert tr.int_n[MACRO][1] > 0.0
    moved = [f for f in tr.flows if len(f.path) > 1]
    assert moved and all(f.path[0] == (MACRO, 0) for f in moved)
    assert all(f.path[1] == (MACRO, 1) for f in moved)


def test_migration_boundary_rates_validated():
    with pytest.raises(ValueError):
        TransitionRates(nu_up=np.array([0.5]), nu_down=np.zeros(1),
                        nu_tilde_up=np.zeros(1), nu_tilde_down=np.zeros(1))
    with pytest.raises(ValueError):
        TransitionRates(nu_up=np.array([0.5, 0.0]), nu_down=np.array([0.1, 0.0]),
                        nu_tilde_up=np.zeros(1), nu_tilde_down=np.zeros(1))


def test_handover_delivers_into_first_class():
    lam = 1.0
    prof = make_profile(lam_m=(lam, lam), lam_s=(0.0, 0.0),
                        eta_m0=(5.0, 10.0), eta_s0=(5.0, 10.0))
    rates = TransitionRates(nu_up=np.zeros(2), nu_down=np.zeros(2),
                            nu_tilde_up=np.zeros(2), nu_tilde_down=np.zeros(2),
                            nu_handover_m2s=0.2)
    tr = simulate([0.0], [prof], [rates], TrafficSpec(2 * lam, 2.0), 3000.0, 19,
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
    for Ls in positions:
        m1 = macro_ccdf(Ls, 0.2, levels, samples)
        m0 = macro_ccdf(Ls, 0.2, levels, samples, include_small_interference=False)
        s1 = small_ccdf(Ls, 0.2, levels, samples)
        s0 = small_ccdf(Ls, 0.2, levels, samples, include_central_macro=False)
        profs.append(extract_classes(m1, s1, m0, s0, K=4, L=4, lambda_tot=5.0))
    return profs


def test_transition_rates_zero_for_static_cell():
    c = HotspotSpec(R_h=0.5, theta_h=math.pi / 3, A=0.08).center
    profs = _profiles_for_motion([c, c])
    rates = estimate_transition_rates([0.0, 10.0], profs)
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
    rates = estimate_transition_rates([0.0, 10.0], _profiles_for_motion([far, near]))
    r = rates[0]
    assert r.nu_tilde_up.sum() > 0.0
    assert r.nu_handover_m2s > 0.0 and r.nu_handover_s2m == 0.0
    # receding reverses the handover direction
    back = estimate_transition_rates([0.0, 10.0], _profiles_for_motion([near, far]))[0]
    assert back.nu_handover_s2m > 0.0 and back.nu_handover_m2s == 0.0
    # all rates nonnegative by construction
    for arr in (r.nu_up, r.nu_down, r.nu_tilde_up, r.nu_tilde_down):
        assert np.all(arr >= 0.0)


def test_transition_rates_need_two_profiles():
    c = HotspotSpec(R_h=0.5, theta_h=math.pi / 3, A=0.08).center
    profs = _profiles_for_motion([c])
    with pytest.raises(InsufficientDataError):
        estimate_transition_rates([0.0], profs)


def test_trace_csv_exports(tmp_path):
    tr = run_mm1(0.4, n_arrivals=500, seed=1, record_flows=True)
    tr2 = simulate([0.0], [make_profile(lam_m=(1.0,), lam_s=(0.0,))], None, TrafficSpec(1.0, 2.0),
                   100.0, 1)
    _write(tmp_path, "# provenance", {"trace.csv": _trace_file(tr2),
                                      "flows.csv": _flows_file(tr)})
    assert (tmp_path / "trace.csv").read_text().splitlines()[1] == "t_s,cell,class,count"
    lines = (tmp_path / "flows.csv").read_text().splitlines()
    assert lines[1] == "arrival_s,departure_s,cell_path,size_mbits"
    assert lines[2].split(",")[2].startswith("M1")


def _moving_system():
    """A 900 s horizon of 30 s pieces with drifting arrivals, migrations in
    both cells and handovers both ways."""
    T, piece_dt = 900.0, 30.0
    times = [i * piece_dt for i in range(int(T / piece_dt))]
    profs, rates = [], []
    for i in range(len(times)):
        lam = 0.8 + 0.6 * math.sin(i / 4.0) ** 2
        profs.append(make_profile(lam_m=(lam, 0.5), lam_s=(0.3, lam),
                                  eta_m0=(6.0, 12.0), eta_m1=(4.0, 9.0),
                                  eta_s0=(8.0, 16.0), eta_s1=(5.0, 11.0)))
        rates.append(TransitionRates(nu_up=np.array([0.05, 0.0]),
                                     nu_down=np.array([0.0, 0.03]),
                                     nu_tilde_up=np.array([0.04, 0.0]),
                                     nu_tilde_down=np.array([0.0, 0.02]),
                                     nu_handover_m2s=0.01 * (i % 3),
                                     nu_handover_s2m=0.01 * (i % 2)))
    return times, profs, rates, TrafficSpec(2.5, 2.0), T


# occupancy of _moving_system at seed 5 every 30 s, as a sampler on a
# free-standing 30 s grid recorded it: (macro counts, small counts)
PIECE_START_COUNTS = [
    ([0, 0], [0, 0]), ([0, 0], [0, 0]), ([0, 0], [0, 0]), ([0, 0], [0, 0]),
    ([2, 1], [1, 0]), ([0, 0], [0, 0]), ([0, 0], [0, 0]), ([0, 0], [0, 0]),
    ([0, 0], [0, 0]), ([2, 1], [0, 0]), ([0, 0], [0, 0]), ([0, 0], [0, 0]),
    ([2, 0], [0, 2]), ([3, 2], [0, 0]), ([0, 0], [0, 0]), ([2, 0], [0, 0]),
    ([1, 0], [1, 0]), ([0, 0], [2, 0]), ([0, 1], [0, 0]), ([2, 0], [1, 3]),
    ([0, 0], [0, 1]), ([1, 0], [0, 0]), ([0, 0], [0, 0]), ([4, 0], [0, 0]),
    ([1, 0], [0, 0]), ([0, 0], [0, 0]), ([2, 0], [1, 1]), ([0, 0], [0, 0]),
    ([0, 0], [0, 1]), ([0, 0], [0, 0])]


def test_piece_start_samples_are_pinned():
    """Every run samples the class counts at t = 0 and at each piece start
    before T, stamped with the piece time, as the boundary leaves them."""
    times, profs, rates, traffic, T = _moving_system()
    tr = simulate(times, profs, rates, traffic, T, 5)
    assert tr.sample_times == [30.0 * i for i in range(30)]
    assert tr.sample_counts == PIECE_START_COUNTS


def _realisation(tr):
    """Everything of a trace but its flow records, as exact values."""
    return (tr.int_n, tr.int_served, tr.busy_time, tr.piece_t.tolist(),
            tr.piece_time.tolist(), tr.piece_int_n.tolist(), tr.piece_served.tolist(),
            tr.n_arrivals, tr.n_departures, tr.n_migrations, tr.n_handovers,
            tr.sample_times, tr.sample_counts, tr.states_time,
            tr.offered_mbits_drawn, tr.backlog_mbits)


def test_flow_records_consume_no_draws():
    times, profs, rates, traffic, T = _moving_system()
    on, off = (simulate(times, profs, rates, traffic, T, 5, track_states=True,
                        record_flows=rec) for rec in (True, False))
    assert off.flows == [] and len(on.flows) == on.n_arrivals
    assert _realisation(off) == _realisation(on)


def test_moving_system_realisation_is_pinned():
    """Event counts and integrals of one seed, pinned to the bit: a refactor
    that moves, adds or drops a draw, or reorders a sum, fails here.  The
    event counts and the integrals of the per-class-clock engine, to
    rounding, show that the share-clock engine draws the same realisation."""
    times, profs, rates, traffic, T = _moving_system()
    tr = simulate(times, profs, rates, traffic, T, 5)
    assert (tr.n_arrivals, tr.n_departures, tr.n_migrations, tr.n_handovers) == \
        (2759, 2759, 58, 20)
    assert [[repr(float(x)) for x in c] for c in tr.int_n] == \
        [["776.0494948710857", "204.58787397396108"],
         ["138.41486080126867", "207.42978047682666"]]
    assert [[repr(float(x)) for x in c] for c in tr.int_served] == \
        [["1814.9527549099175", "1057.6524566007197"],
         ["629.4957955884586", "1954.9694707186165"]]
    per_class_clock = ([[776.0494948710838, 204.5878739739635],
                        [138.41486080126927, 207.42978047682644]],
                       [[1814.9527549099187, 1057.6524566007215],
                        [629.4957955884588, 1954.969470718614]])
    for got, pinned in zip((tr.int_n, tr.int_served), per_class_clock):
        for c in (MACRO, SMALL):
            assert got[c] == pytest.approx(pinned[c], rel=1e-12)


def test_a_migration_heavy_realisation_is_pinned():
    """The moving system with +2/s on every admissible migration and
    +0.05/s on both handover rates: thousands of moves, each a flow leaving
    one class with the work it has left and entering another, so a change to
    the move path shows in the event counts, the integrals or the flow
    columns, pinned to the bit."""
    times, profs, rates, traffic, T = _moving_system()
    busy = [TransitionRates(r.nu_up + [2.0, 0.0], r.nu_down + [0.0, 2.0],
                            r.nu_tilde_up + [2.0, 0.0], r.nu_tilde_down + [0.0, 2.0],
                            r.nu_handover_m2s + 0.05, r.nu_handover_s2m + 0.05)
            for r in rates]
    tr = simulate(times, profs, busy, traffic, T, 5, record_flows=True)
    assert (tr.n_arrivals, tr.n_departures, tr.n_migrations, tr.n_handovers) == \
        (2733, 2733, 2293, 82)
    assert [[repr(float(x)) for x in c] for c in tr.int_n] == \
        [["444.7253256742499", "306.5625628310021"],
         ["165.0274589666724", "195.51807371844774"]]
    assert [[repr(float(x)) for x in c] for c in tr.int_served] == \
        [["1288.4184252367447", "1655.395822502915"],
         ["718.9375804103304", "1882.7141541478102"]]
    cols = tr.flow_columns
    h = hashlib.sha256()
    for col in (cols.arrival, cols.departure, cols.size, cols.served):
        h.update(col.tobytes())
    for col in (cols.first, cols.moved_fid, cols.moved_to):
        h.update(repr(col).encode())
    assert h.hexdigest() == "e877be996e02277109f6bff9baa6d46541aad1ebccf1f6fd61fbb6c5d56c6112"


def _compensated_sum(xs, start=0):
    """A builtin ``sum`` that rounds once, as a compensated sum does."""
    return start + math.fsum(xs)


def test_no_result_depends_on_how_the_builtin_sum_rounds(monkeypatch):
    """From Python 3.12 on the builtin sum of floats is compensated: six
    classes of 0.1/s sum to 0.6000000000000001/s there, 0.6/s on 3.11, and a
    route with a 0.3 km side to 1.7999999999999998 km, not 1.8.  The engine's
    arrival rate and integrals and a route's cruise speed are summed left to
    right, so they keep their bits when the builtin sum rounds otherwise."""
    def results():
        tr = simulate([0.0], [make_profile(lam_m=(0.1,) * 6, eta_m0=(3, 5, 7, 9, 11, 13))], None,
                      TrafficSpec(0.6, 2.0), 5000.0, 3)
        bus = route_cruise_policy(((0.0, 0.0), (0.6, 0.0), (0.6, 0.3), (0.0, 0.3)), 600.0,
                                  v_max=10.0, dv=3.6, turn_probs=(0.25, 0.5, 0.25))
        return _realisation(tr), empirical_metrics(tr).mean_flow_throughput, bus.cruise_kmh

    plain = results()
    assert plain[2] == 10.8
    for module in (mobicell.flowsim, mobicell.mobility):
        monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    assert results() == plain


def _flow_values(tr):
    """Every flow record as exact values, a NaN departure as None."""
    return [(f.fid, f.arrival, None if math.isnan(f.departure) else f.departure, f.size,
             f.served, f.path) for f in tr.flows]


def test_numpy_profile_times_run_on_python_floats():
    """Piece times and T given as numpy scalars give the
    realisation and flow values of Python floats, and the records hold
    Python floats."""
    times, profs, rates, traffic, T = _moving_system()
    runs = [simulate(ts, profs, rates, traffic, horizon, 5, track_states=True,
                     record_flows=True)
            for ts, horizon in ((times, T), (np.array(times), np.float64(T)))]
    assert _realisation(runs[0]) == _realisation(runs[1])
    assert _flow_values(runs[0]) == _flow_values(runs[1])
    for tr in runs:
        assert all(type(f.arrival) is float and type(f.departure) is float
                   and type(f.served) is float for f in tr.flows)
        assert all(type(t) is float for t in tr.sample_times)


def _reference_flows_csv(tr, path, provenance):
    """flows_rep0.csv written one FlowRecord at a time."""
    labels = {}
    rows = []
    for f in tr.flows:
        key = tuple(f.path)
        pth = labels.get(key)
        if pth is None:
            pth = labels[key] = ">".join(f"{'MS'[c]}{k + 1}" for c, k in key)
        dep = "" if math.isnan(f.departure) else f"{f.departure:.6f}"
        rows.append(f"{f.arrival:.6f},{dep},{pth},{f.size:.6f}\r\n")
    with open(path, "w", newline="") as fh:
        fh.write(provenance + "\n")
        fh.write("arrival_s,departure_s,cell_path,size_mbits\r\n" + "".join(rows))


def test_flows_csv_from_columns_matches_record_writer(tmp_path):
    """The rows built from the flow columns, through the output writer, give
    the bytes of a per-record writer, on a run with multi-visit paths and
    flows still in service at T."""
    times, profs, rates, traffic, T = _moving_system()
    tr = simulate(times, profs, rates, traffic, T, 4, record_flows=True)
    assert sum(len(f.path) > 2 for f in tr.flows) > 0
    assert sum(math.isnan(f.departure) for f in tr.flows) > 0
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    _write(tmp_path, "# provenance", {"got.csv": _flows_file(tr)})
    _reference_flows_csv(tr, want, "# provenance")
    assert got.read_bytes() == want.read_bytes()


def test_validation_checks_every_departed_flow():
    """Work off by 1e-6 relative on any one departed flow fails the check,
    though the sum over all flows stays within its own tolerance."""
    times, profs, rates, traffic, T = _moving_system()
    tr = simulate(times, profs, rates, traffic, T, 4, record_flows=True)
    served = tr.flow_columns.served
    done = [fid for fid, d in enumerate(tr.flow_columns.departure) if not math.isnan(d)]
    for fid in (done[0], done[len(done) // 2], done[-1]):
        kept = served[fid]
        served[fid] = kept * (1.0 + 1e-6)
        with pytest.raises(AssertionError, match=f"flow {fid} departed"):
            _validate_trace(tr)
        served[fid] = kept
    _validate_trace(tr)


@pytest.mark.parametrize("seed", range(5))
def test_a_flow_small_against_its_class_clock_departs_within_the_check(seed):
    """A flow that enters the empty fast class while the slow class keeps
    its cell busy starts from a class base of -rate * share, about 1e8
    times its size, and its departure is read to a few ulps of that base:
    more than 1e-9 of its size, as in the smallest flows of a long busy
    period, yet within the rounding the check allows."""
    prof = make_profile(lam_m=(0.005, 0.005), eta_m0=(0.01, 1e6))
    tr = simulate([0.0], [prof], None, TrafficSpec(0.01, 1.0), 2e4, seed, record_flows=True)
    cols = tr.flow_columns
    done = [fid for fid, d in enumerate(cols.departure) if not math.isnan(d)]
    err = {fid: abs(cols.served[fid] - cols.size[fid]) for fid in done}
    assert any(err[fid] > 1e-9 * cols.size[fid] for fid in done)
    assert all(err[fid] <= 1e-9 * cols.size[fid] + _GAMMA * cols.scale[fid] for fid in done)


@pytest.mark.parametrize("record", [False, True], ids=["unrecorded", "recorded"])
def test_work_is_conserved_to_the_rounding_of_the_class_clocks(record):
    """A slow class keeps the cell busy while flows pass through a class a
    billion times faster, whose clock runs about 1e8 times a flow's size:
    each departure leaves a few ulps of that clock unserved, up to several
    times 1e-9 of the drawn work over a run.  The run-level check allows the
    departures' clock rounding, with or without records, so every seed
    runs, and its gap stays inside that allowance."""
    prof = make_profile(lam_m=(0.001, 0.05), eta_m0=(1e-3, 1e6))
    gaps = []
    for seed in range(10):
        tr = simulate([0.0], [prof], None, TrafficSpec(0.051, 1.0), 2e4, seed, record_flows=record)
        drawn = tr.offered_mbits_drawn
        gap = abs(drawn - tr.served_mbits() - tr.backlog_mbits)
        assert gap <= 1e-9 * drawn + _GAMMA * tr.departure_scale
        gaps.append(gap / (1e-9 * drawn))
    assert max(gaps) > 1.0


def test_recorded_trace_survives_pickling():
    times, profs, rates, traffic, T = _moving_system()
    tr = simulate(times, profs, rates, traffic, T, 4, record_flows=True)
    back = pickle.loads(pickle.dumps(tr))
    assert _flow_values(back) == _flow_values(tr)
    assert _realisation(back) == _realisation(tr)


@pytest.mark.parametrize("times, n_profiles", [
    ([30.0, 0.0], 2), ([0.0, 0.0], 2), ([0.0, 30.0, 60.0], 2), ([0.0], 2),
    ([5.0, 10.0], 2)],
    ids=["descending", "repeated", "more-times", "more-profiles", "late-start"])
def test_piece_times_must_ascend_one_per_profile(times, n_profiles):
    """The piece times come beside the profiles, not inside them: times that
    do not strictly ascend, or a count that differs from the profiles',
    raise instead of pairing a profile with another piece's time or rates."""
    profs = [make_profile(lam_m=(1.0,), lam_s=(0.0,))] * n_profiles
    with pytest.raises(ValueError, match="strictly ascend, one per profile"):
        simulate(times, profs, None, TrafficSpec(1.0, 2.0), 60.0, 1)
    with pytest.raises(ValueError):
        estimate_transition_rates(times, profs)


@pytest.mark.parametrize("T", [-1.0, 0.0, math.nan, math.inf, np.float64(math.nan)],
                         ids=["negative", "zero", "nan", "inf", "numpy-nan"])
def test_bad_horizon_is_rejected(T):
    prof = make_profile(lam_m=(1.0,), lam_s=(0.0,))
    with pytest.raises(ValueError, match="T must be positive and finite"):
        simulate([0.0], [prof], None, TrafficSpec(1.0, 2.0), T, 1)


@pytest.mark.parametrize("lam, sigma0", [
    (math.nan, 2.0), (math.inf, 2.0), (-1.0, 2.0),
    (1.0, math.nan), (1.0, math.inf), (1.0, 0.0), (1.0, -2.0)])
def test_bad_traffic_is_rejected(lam, sigma0):
    with pytest.raises(ValueError, match="must be finite"):
        TrafficSpec(lam, sigma0)


@st.composite
def piecewise_systems(draw):
    """Small systems with a random piece grid on [0, T) and random arrivals,
    service rates, migrations and handovers per piece."""
    K, L = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    T = draw(st.floats(20.0, 80.0))
    cuts = draw(st.lists(st.floats(0.01, 0.99), max_size=5, unique=True))
    starts = [0.0] + sorted(T * x for x in cuts)
    rate = st.floats(0.0, 1.5)
    eta = st.floats(1.0, 20.0)
    profs, rates = [], []
    for _ in starts:
        lam_m = draw(st.lists(rate, min_size=K, max_size=K))
        lam_s = draw(st.lists(rate, min_size=L, max_size=L))
        eta_m0 = draw(st.lists(eta, min_size=K, max_size=K))
        eta_s0 = draw(st.lists(eta, min_size=L, max_size=L))
        ratio = draw(st.floats(0.2, 1.0))
        profs.append(make_profile(lam_m=lam_m, lam_s=lam_s, eta_m0=eta_m0,
                                  eta_m1=[ratio * x for x in eta_m0], eta_s0=eta_s0,
                                  eta_s1=[ratio * x for x in eta_s0]))
        nu = st.floats(0.0, 0.8)
        up = draw(st.lists(nu, min_size=K, max_size=K))[:-1] + [0.0]
        down = [0.0] + draw(st.lists(nu, min_size=K, max_size=K))[1:]
        tup = draw(st.lists(nu, min_size=L, max_size=L))[:-1] + [0.0]
        tdown = [0.0] + draw(st.lists(nu, min_size=L, max_size=L))[1:]
        rates.append(TransitionRates(np.array(up), np.array(down), np.array(tup),
                                     np.array(tdown), draw(st.floats(0.0, 0.4)),
                                     draw(st.floats(0.0, 0.4))))
    lam_tot = max(float(p.lambda_macro.sum() + p.lambda_small.sum()) for p in profs)
    return starts, profs, rates, TrafficSpec(max(lam_tot, 0.1), 2.0), T


@settings(max_examples=40, deadline=None)
@given(system=piecewise_systems(), seed=st.integers(0, 2**32 - 1))
def test_lazy_integrals_match_per_event_accounting(system, seed):
    """The integrals flushed per class at count changes, boundaries and T
    agree with the per-event state record: occupancy, busy time and horizon
    from states_time, per-piece sums against the class totals, and piece
    durations against the grid."""
    times, profs, rates, traffic, T = system
    tr = simulate(times, profs, rates, traffic, T, seed, track_states=True)
    close = dict(rel=1e-9, abs=1e-12 * T)
    assert sum(tr.states_time.values()) == pytest.approx(T, **close)
    for c, n_classes in ((MACRO, tr.K), (SMALL, tr.L)):
        for k in range(n_classes):
            occupancy = sum(dt * key[c][k] for key, dt in tr.states_time.items())
            assert tr.int_n[c][k] == pytest.approx(occupancy, **close)
        busy = sum(dt for key, dt in tr.states_time.items() if any(key[c]))
        assert tr.busy_time[c] == pytest.approx(busy, **close)
        assert tr.piece_int_n[:, c].sum() == pytest.approx(sum(tr.int_n[c]), **close)
        assert tr.piece_served[:, c].sum() == pytest.approx(sum(tr.int_served[c]), **close)
    ends = np.minimum(np.append(tr.piece_t[1:], T), T)
    assert tr.piece_time.tolist() == pytest.approx((ends - tr.piece_t).tolist(), **close)


@settings(max_examples=25, deadline=None)
@given(K=st.integers(1, 3), L=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       lam=st.floats(0.2, 3.0), nu=st.floats(0.0, 0.5), ho=st.floats(0.0, 0.3),
       etas=st.lists(st.floats(1.0, 20.0), min_size=12, max_size=12))
def test_flow_records_never_change_the_realisation(K, L, seed, lam, nu, ho, etas):
    """Records on or off, any small profile gives the same realisation, and
    the drawn work splits into served work and backlog."""
    profs = [make_profile(lam_m=[lam / K] * K, lam_s=[lam / L] * L,
                          eta_m0=etas[:K], eta_m1=[0.7 * x for x in etas[:K]],
                          eta_s0=etas[6:6 + L], eta_s1=[0.5 * x for x in etas[6:6 + L]])
             for _ in range(2)]
    up, down = [nu] * (K - 1) + [0.0], [0.0] + [nu] * (K - 1)
    tup, tdown = [nu] * (L - 1) + [0.0], [0.0] + [nu] * (L - 1)
    rates = TransitionRates(np.array(up), np.array(down), np.array(tup),
                            np.array(tdown), ho, 2 * ho)
    traffic = TrafficSpec(2 * lam, 2.0)
    on, off = (simulate([0.0, 40.0], profs, [rates], traffic, 80.0, seed,
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
    rates = TransitionRates(nu_up=np.array(o["nu_up"]), nu_down=np.array(o["nu_down"]),
                            nu_tilde_up=np.zeros(1), nu_tilde_down=np.zeros(1),
                            nu_handover_m2s=o["ho_m2s"], nu_handover_s2m=o["ho_s2m"])
    return prof, rates, TrafficSpec(sum(o["lam_m"]) + o["lam_s"], o["sigma0"])


def test_drawn_work_splits_into_served_and_backlog():
    """On the migration/handover oracle's system, every drawn Mbit is served
    or still in service at T, migrations and handovers included."""
    prof, rates, traffic = _oracle_system()
    tr = simulate([0.0], [prof], [rates], traffic, 5000.0, 3)
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
    tr = simulate([0.0], [prof], [rates], traffic, 60_000.0, 0, track_states=True)
    assert tr.n_migrations > 10_000 and tr.n_handovers > 10_000
    sim = tr.state_frequencies()
    exact = migration_chain_stationary(**ORACLE)
    keys = set(sim) | set(exact)
    tv = 0.5 * sum(abs(sim.get(k, 0.0) - exact.get(k, 0.0)) for k in keys)
    assert tv < 0.02


def _transient_piece(i):
    """Piece i of the transient oracle, in migration_chain's terms: loads,
    service rates, migrations and handovers alternate between a busy and a
    quiet piece and drift slowly."""
    busy = i % 2 == 0
    drift = 1.0 + 0.4 * math.sin(i / 3.0)
    lam = (1.4 if busy else 0.25) * drift
    return dict(lam_m=(lam, 0.5 * lam), lam_s=(0.9 if busy else 0.2) * drift, sigma0=2.0,
                eta_m0=(8.0, 16.0) if busy else (16.0, 30.0),
                eta_m1=(5.0, 10.0) if busy else (10.0, 20.0),
                eta_s0=12.0 if busy else 24.0, eta_s1=8.0 if busy else 16.0,
                nu_up=(0.6 * drift, 0.0), nu_down=(0.0, 0.4 if busy else 1.2),
                ho_m2s=0.3 if busy else 0.05, ho_s2m=0.1 if busy else 0.5)


def test_piece_integrals_against_exact_transient():
    """Time-varying parameters from an empty start, against the exact
    transient of the chain: the mean per-piece occupancy integral and served
    work of 1000 runs lie within 4.4 standard errors of the expectations, a
    Bonferroni bound over the 80 comparisons at a family-wise level of 1e-3.
    Each of these engine faults gives |z| > 4.4 on some piece: the old
    piece's rates kept for the first event after a boundary (|z| up to 30),
    the interval that ends on a boundary credited to the next piece (6.6),
    and busy cells not rebased onto the new rates at a boundary (7.2)."""
    n_pieces, tau, runs = 20, 1.0, 1000
    chains = [_transient_piece(i) for i in range(n_pieces)]
    exact_n, exact_served, dropped = migration_chain_piece_integrals(
        [(tau, ch) for ch in chains], n_max=14)
    assert dropped < 1e-9   # the truncation moves no measurable mass
    profs = [make_profile(lam_m=ch["lam_m"], lam_s=(ch["lam_s"],),
                          eta_m0=ch["eta_m0"], eta_m1=ch["eta_m1"],
                          eta_s0=(ch["eta_s0"],), eta_s1=(ch["eta_s1"],))
             for ch in chains]
    rates = [TransitionRates(np.array(ch["nu_up"]), np.array(ch["nu_down"]),
                             np.zeros(1), np.zeros(1), ch["ho_m2s"], ch["ho_s2m"])
             for ch in chains]
    traffic = TrafficSpec(max(sum(ch["lam_m"]) + ch["lam_s"] for ch in chains), 2.0)
    runs_n, runs_served = [], []
    for seed in range(runs):
        tr = simulate([i * tau for i in range(n_pieces)], profs, rates, traffic,
                      n_pieces * tau, (7, seed))
        runs_n.append(tr.piece_int_n)
        runs_served.append(tr.piece_served)
    for sims, exact in ((np.array(runs_n), exact_n), (np.array(runs_served), exact_served)):
        se = sims.std(axis=0, ddof=1) / math.sqrt(runs)
        z = (sims.mean(axis=0) - exact) / se
        assert np.abs(z).max() < 4.4, np.round(z, 1)
