import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import coupled_chain_stationary, make_profile
from mobicell.analytic import (CoupledLoads, InstabilityError,
                               UndefinedChainError,
                               class_membership,
                               coupled_loads_fixed_point, effective_rate,
                               mean_flow_throughput, stationary_mobile,
                               stationary_static)
from mobicell.flowsim import TrafficSpec, TransitionRates, empirical_metrics, simulate


def rates_snapshot(nu_up=(0.0,), nu_down=(0.0,), tup=(0.0,), tdown=(0.0,),
                   m2s=1.0, s2m=1.0):
    return TransitionRates(np.asarray(nu_up, float), np.asarray(nu_down, float),
                           np.asarray(tup, float), np.asarray(tdown, float), m2s, s2m)


def test_fixed_point_decoupled_case():
    """Equal phase rates: the coupling cancels and rho is the plain sum of
    per-class loads."""
    prof = make_profile(lam_m=(1.0, 0.5), lam_s=(0.25,), eta_m0=(10.0, 20.0),
                        eta_s0=(10.0,))
    traffic = TrafficSpec(1.75, 2.0)
    loads = coupled_loads_fixed_point(prof, traffic)
    assert loads.converged and loads.iterations == 0
    assert loads.rho == pytest.approx(2.0 * (1.0 / 10.0 + 0.5 / 20.0), rel=1e-15)
    assert loads.rho_tilde == pytest.approx(2.0 * 0.25 / 10.0, rel=1e-15)


def test_fixed_point_zero_traffic():
    prof = make_profile(lam_m=(0.0,), lam_s=(0.0,))
    loads = coupled_loads_fixed_point(prof, TrafficSpec(0.0, 2.0))
    assert loads.rho == 0.0 and loads.rho_tilde == 0.0


def test_fixed_point_symmetric_toy_matches_scalar_bisection():
    """Symmetric cells: rho = rho_tilde solves the scalar equation
    rho = lam*sigma*(rho/eta1 + (1-rho)/eta0); cross-check by bisection."""
    eta0, eta1, lam, sigma0 = 10.0, 6.0, 1.6, 2.0
    prof = make_profile(lam_m=(lam,), lam_s=(lam,), eta_m0=(eta0,), eta_m1=(eta1,),
                        eta_s0=(eta0,), eta_s1=(eta1,))
    loads = coupled_loads_fixed_point(prof, TrafficSpec(2 * lam, sigma0))
    assert loads.rho == loads.rho_tilde   # the same expression for both cells
    f = lambda r: lam * sigma0 * (r / eta1 + (1 - r) / eta0) - r
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert loads.rho == pytest.approx(0.5 * (lo + hi), abs=1e-15)


def test_fixed_point_overload_clamps_for_formulas():
    prof = make_profile(lam_m=(100.0,), lam_s=(0.0,), eta_m0=(10.0,), eta_s0=(10.0,))
    loads = coupled_loads_fixed_point(prof, TrafficSpec(100.0, 2.0))
    assert loads.rho > 1.0            # overload is reported as-is
    assert loads.rho_clamped == 1.0   # formulas see the clamped value


def phase_map(prof, sigma0, rho, rho_tilde):
    """One undamped step of the coupled loads: each cell's phase-mixed load
    sum at its partner's clamped load, written out from the module docs."""
    rt, r = min(rho_tilde, 1.0), min(rho, 1.0)
    em, es = prof.eta_macro, prof.eta_small
    return (float(np.sum(prof.lambda_macro * sigma0 * (rt / em[:, 1] + (1 - rt) / em[:, 0]))),
            float(np.sum(prof.lambda_small * sigma0 * (r / es[:, 1] + (1 - r) / es[:, 0]))))


def iterate_loads(prof, sigma0, start, tol=1e-15, max_iter=100_000):
    """The fixed point that undamped iteration reaches from ``start``, run
    until both steps fall below ``tol`` (the default is a few ulps of a load
    near 1, so the iteration settles to rounding) or an iterate repeats the
    one two steps back (a rounding 2-cycle around the fixed point)."""
    prev, cur = None, tuple(start)
    for _ in range(max_iter):
        nxt = phase_map(prof, sigma0, *cur)
        if (abs(nxt[0] - cur[0]) < tol and abs(nxt[1] - cur[1]) < tol) or nxt == prev:
            return nxt
        prev, cur = cur, nxt
    raise AssertionError(f"iteration from {start} did not settle")


@st.composite
def monotone_profiles(draw):
    """Random profiles whose interfered rates do not exceed the idle ones."""
    def cell(n):
        lam = draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n))
        eta0 = draw(st.lists(st.floats(0.5, 50.0), min_size=n, max_size=n))
        ratio = draw(st.lists(st.floats(0.02, 1.0), min_size=n, max_size=n))
        return lam, eta0, [e * q for e, q in zip(eta0, ratio)]

    lam_m, eta_m0, eta_m1 = cell(draw(st.integers(1, 3)))
    lam_s, eta_s0, eta_s1 = cell(draw(st.integers(1, 3)))
    prof = make_profile(lam_m=lam_m, lam_s=lam_s, eta_m0=eta_m0, eta_m1=eta_m1,
                        eta_s0=eta_s0, eta_s1=eta_s1)
    return prof, TrafficSpec(sum(lam_m) + sum(lam_s), draw(st.floats(0.1, 4.0)))


def single_class_case(lam_m, lam_s, eta0, eta1, sigma0=2.0):
    prof = make_profile(lam_m=(lam_m,), lam_s=(lam_s,), eta_m0=(eta0,), eta_m1=(eta1,),
                        eta_s0=(eta0,), eta_s1=(eta1,))
    return prof, TrafficSpec(lam_m + lam_s, sigma0)


MACRO_CLAMPED = single_class_case(5.0, 0.5, 10.0, 4.0)
SMALL_CLAMPED = single_class_case(0.5, 5.0, 10.0, 4.0)
STRONG_COUPLING = single_class_case(0.5, 0.5, 10.0, 0.5)   # A1 * B1 >= 1
# undamped iteration from (0, 0) alternates between two loads 2.5e-15 apart
ROUNDING_2_CYCLE = (make_profile(lam_m=(4.5,), lam_s=(0.02,), eta_m0=(5.0,), eta_m1=(0.1,),
                                 eta_s0=(0.5,), eta_s1=(0.01,)),
                    TrafficSpec(4.52, 0.1))


def test_fixed_point_regime_examples():
    """The property test's explicit examples reach each regime beyond the
    both-free case."""
    lm = coupled_loads_fixed_point(*MACRO_CLAMPED)
    assert lm.rho > 1.0 > lm.rho_tilde
    ls = coupled_loads_fixed_point(*SMALL_CLAMPED)
    assert ls.rho_tilde > 1.0 > ls.rho
    prof, traffic = STRONG_COUPLING
    low, top = phase_map(prof, traffic.sigma0, 0.0, 0.0), phase_map(prof, traffic.sigma0, 1.0, 1.0)
    assert (top[0] - low[0]) * (top[1] - low[1]) >= 1.0
    ld = coupled_loads_fixed_point(prof, traffic)
    assert ld.rho > 1.0 and ld.rho_tilde > 1.0


@settings(max_examples=60, deadline=None)
@given(case=monotone_profiles())
@example(case=MACRO_CLAMPED)
@example(case=SMALL_CLAMPED)
@example(case=STRONG_COUPLING)
@example(case=ROUNDING_2_CYCLE)
def test_fixed_point_is_the_least_iterated_fixed_point(case):
    """The closed form is the limit of the undamped iteration from (0, 0) and
    lies below the fixed point reached from every other start."""
    prof, traffic = case
    s = traffic.sigma0
    loads = coupled_loads_fixed_point(prof, traffic)
    top = phase_map(prof, s, 1.0, 1.0)
    low = phase_map(prof, s, 0.0, 0.0)
    slope = math.sqrt((top[0] - low[0]) * (top[1] - low[1]))
    # both loads free: the iteration contracts by the slope; keep it settling
    assume(loads.rho > 1.0 or loads.rho_tilde > 1.0 or slope < 0.99)
    least = iterate_loads(prof, s, (0.0, 0.0))
    assert loads.rho == pytest.approx(least[0], rel=1e-12, abs=1e-12)
    assert loads.rho_tilde == pytest.approx(least[1], rel=1e-12, abs=1e-12)
    for start in ((1.0, 1.0), top, (top[0], 0.0), (0.0, top[1])):
        r, rt = iterate_loads(prof, s, start)
        assert loads.rho <= r * (1 + 1e-12) + 1e-12
        assert loads.rho_tilde <= rt * (1 + 1e-12) + 1e-12


def test_fixed_point_stays_at_zero_without_idle_load():
    """Infinite idle rates give A0 = B0 = 0: (0, 0) is a fixed point and the
    least one, although the interfered rates alone admit a larger one."""
    prof, traffic = single_class_case(1.0, 1.0, math.inf, 1.0)
    loads = coupled_loads_fixed_point(prof, traffic)
    assert (loads.rho, loads.rho_tilde) == (0.0, 0.0)
    assert iterate_loads(prof, traffic.sigma0, (1.0, 1.0)) == (2.0, 2.0)


@pytest.mark.parametrize("eta_m1, eta_s1", [(12.0, 10.0), (10.0, math.nan)])
def test_fixed_point_rejects_non_monotone_or_undefined_profiles(eta_m1, eta_s1):
    """An interfered rate above the idle rate makes the map decreasing in the
    partner load, and a NaN rate leaves it undefined: both raise."""
    prof = make_profile(lam_m=(1.0,), lam_s=(1.0,), eta_m0=(10.0,), eta_m1=(eta_m1,),
                        eta_s0=(10.0,), eta_s1=(eta_s1,))
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        coupled_loads_fixed_point(prof, TrafficSpec(2.0, 2.0))


def make_coupled_toy(rho_target=0.4, ratio=0.8, eta0=10.0, sigma0=2.0):
    eta1 = eta0 * ratio
    lam = rho_target / (sigma0 * (rho_target / eta1 + (1 - rho_target) / eta0))
    prof = make_profile(lam_m=(lam,), lam_s=(lam,), eta_m0=(eta0,), eta_m1=(eta1,),
                        eta_s0=(eta0,), eta_s1=(eta1,))
    return prof, TrafficSpec(2 * lam, sigma0), lam, eta0, eta1


def test_stationary_static_empty_state_and_reduction():
    prof, traffic, lam, eta0, eta1 = make_coupled_toy()
    loads = coupled_loads_fixed_point(prof, traffic)
    dist = stationary_static(prof, traffic, loads, n_max=40)
    # empty-state probability is the product of the idle probabilities, up
    # to rounding: the loads solve the fixed point exactly
    assert dist.raw[dist.states.index(((0,), (0,)))] == pytest.approx(
        (1 - loads.rho) * (1 - loads.rho_tilde), rel=1e-14)
    assert dist.prob((0,), (0,)) == pytest.approx(
        (1 - loads.rho) * (1 - loads.rho_tilde), rel=1e-6)


def test_stationary_static_idle_partner_reduces_to_multiclass_ps():
    """No small-cell traffic: the macro marginal is the classic multiclass PS
    product form with the idle-phase rates."""
    prof = make_profile(lam_m=(0.8, 0.4), lam_s=(0.0,), eta_m0=(8.0, 16.0),
                        eta_m1=(4.0, 8.0), eta_s0=(10.0,))
    traffic = TrafficSpec(1.2, 2.0)
    loads = coupled_loads_fixed_point(prof, traffic)
    assert loads.rho_tilde == 0.0
    dist = stationary_static(prof, traffic, loads, n_max=30)
    a = np.array([0.8 * 2.0 / 8.0, 0.4 * 2.0 / 16.0])
    rho = a.sum()
    for n in ((0, 0), (1, 0), (0, 1), (2, 1), (3, 2)):
        tot = sum(n)
        expect = (1 - rho) * math.factorial(tot) * np.prod(a ** np.array(n)) \
            / np.prod([math.factorial(x) for x in n])
        assert dist.raw[dist.states.index((n, (0,)))] == pytest.approx(expect, rel=1e-9)


def test_stationary_static_truncated_mass_reaches_one():
    """Truncation at 40 per class captures all but < 1e-6 of the mass for
    loads up to 0.6 (geometric tail)."""
    for rho_t in (0.4, 0.6):
        prof, traffic, *_ = make_coupled_toy(rho_target=rho_t)
        loads = coupled_loads_fixed_point(prof, traffic)
        dist = stationary_static(prof, traffic, loads, n_max=40)
        assert dist.raw_total == pytest.approx(1.0, abs=1e-6)
        assert dist.deficit < 1e-6


def test_stationary_static_requires_stability():
    prof, traffic, *_ = make_coupled_toy()
    with pytest.raises(InstabilityError):
        stationary_static(prof, traffic, CoupledLoads(1.0, 0.4), n_max=10)


def test_stationary_law_lookup_and_means_on_the_count_grid():
    """K = 2, L = 1: ``prob`` reads raw / raw_total at every state of the
    box and 0 outside it, and ``mean_counts`` is the weighted sum of the
    states."""
    prof = make_profile(lam_m=(0.8, 0.4), lam_s=(0.6,), eta_m0=(8.0, 16.0),
                        eta_m1=(4.0, 8.0), eta_s0=(10.0,), eta_s1=(6.0,))
    traffic = TrafficSpec(1.8, 2.0)
    n_max = 12
    dist = stationary_static(prof, traffic, coupled_loads_fixed_point(prof, traffic),
                             n_max=n_max)
    law = {s: r / dist.raw_total for s, r in zip(dist.states, dist.raw)}
    box = range(n_max + 1)
    assert set(law) == {((a, b), (c,)) for a, b, c in itertools.product(box, box, box)}
    for (n, m), p in law.items():
        assert dist.prob(n, m) == p
    for n, m in (((n_max + 1, 0), (0,)), ((0, 0), (n_max + 1,)), ((-1, 0), (0,)),
                 ((0,), (0,)), ((0, 0), (0, 0)), ((0, 0, 0), ())):
        assert dist.prob(n, m) == 0.0
    em, es = dist.mean_counts()
    assert em == pytest.approx(sum(p * np.array(n) for (n, _), p in law.items()), rel=1e-12)
    assert es == pytest.approx(sum(p * np.array(m) for (_, m), p in law.items()), rel=1e-12)


def test_stationary_static_matches_simulation_tv():
    """Flow simulation against the default stationary form on the coupled toy
    at rho = rho_tilde = 0.4: total-variation distance below 0.05."""
    prof, traffic, *_ = make_coupled_toy(rho_target=0.4, ratio=0.8)
    loads = coupled_loads_fixed_point(prof, traffic)
    assert loads.rho == pytest.approx(0.4, rel=1e-14)
    dist = stationary_static(prof, traffic, loads, n_max=60)
    tr = simulate([0.0], [prof], None, traffic, 120_000.0, 41, track_states=True)
    sim = tr.state_frequencies()
    keys = set(sim) | {(tuple(n), tuple(m)) for n, m in dist.states}
    tv = 0.5 * sum(abs(sim.get(k, 0.0) - dist.prob(*k)) for k in keys)
    assert tv < 0.05


def test_class_membership_symmetric_two_state():
    q, qt = class_membership(rates_snapshot(m2s=0.7, s2m=0.7))
    assert q[0] == pytest.approx(0.5)
    assert qt[0] == pytest.approx(0.5)


def test_class_membership_three_state_chain_oracle():
    """K=2, L=1 with constant rates: the stationary vector of the explicit
    3-state chain (small_1 <-> macro_1 <-> macro_2) matches the
    detailed-balance form."""
    nu12, nu21 = 0.6, 0.2
    m2s, s2m = 0.3, 1.5  # handover ratio differs from the migration ratio
    r = rates_snapshot(nu_up=(nu12, 0.0), nu_down=(0.0, nu21), m2s=m2s, s2m=s2m)
    # explicit chain: states (s1, m1, m2)
    Q = np.array([
        [-s2m, s2m, 0.0],
        [m2s, -m2s - nu12, nu12],
        [0.0, nu21, -nu21],
    ])
    A = np.vstack([Q.T, np.ones(3)])
    b = np.array([0.0, 0.0, 0.0, 1.0])
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    q, qt = class_membership(r)
    assert qt[0] == pytest.approx(pi[0], rel=1e-9)
    assert q[0] == pytest.approx(pi[1], rel=1e-9)
    assert q[1] == pytest.approx(pi[2], rel=1e-9)


def test_class_membership_normalization_and_errors():
    r = rates_snapshot(nu_up=(0.3, 0.0), nu_down=(0.0, 0.4), m2s=0.2, s2m=0.9)
    q, qt = class_membership(r)
    assert q.sum() + qt.sum() == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(UndefinedChainError):
        class_membership(rates_snapshot(m2s=0.0, s2m=1.0))
    with pytest.raises(UndefinedChainError):
        class_membership(rates_snapshot(nu_up=(0.3, 0.0), nu_down=(0.0, 0.0),
                                        m2s=1.0, s2m=1.0))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), k=st.integers(1, 4), l=st.integers(1, 4))
def test_class_membership_is_the_stationary_vector_of_the_class_chain(data, k, l):
    """Every ladder shape, K and L in 1..4: the detailed-balance form equals
    the stationary vector of the explicit single-user generator (macro
    classes 1..K, then small classes 1..L; each ladder moves one class up or
    down, and the first classes are joined by the two handovers), solved
    densely."""
    rate = st.floats(0.1, 10.0)

    def ladder(n):
        up = data.draw(st.lists(rate, min_size=n - 1, max_size=n - 1))
        down = data.draw(st.lists(rate, min_size=n - 1, max_size=n - 1))
        return [*up, 0.0], [0.0, *down]

    (up, down), (tup, tdown) = ladder(k), ladder(l)
    m2s, s2m = data.draw(rate), data.draw(rate)
    Q = np.zeros((k + l, k + l))
    for first, u, d in ((0, up, down), (k, tup, tdown)):
        for j in range(len(u) - 1):
            Q[first + j, first + j + 1] = u[j]
            Q[first + j + 1, first + j] = d[j + 1]
    Q[0, k], Q[k, 0] = m2s, s2m
    Q -= np.diag(Q.sum(axis=1))
    A = Q.T.copy()
    A[-1] = 1.0
    pi = np.linalg.solve(A, np.eye(k + l)[-1])
    q, qt = class_membership(rates_snapshot(nu_up=up, nu_down=down, tup=tup, tdown=tdown,
                                            m2s=m2s, s2m=s2m))
    assert q == pytest.approx(pi[:k], rel=1e-9)
    assert qt == pytest.approx(pi[k:], rel=1e-9)


def test_effective_rate_phase_limits():
    prof = make_profile(lam_m=(1.0,), lam_s=(1.0,), eta_m0=(10.0,), eta_m1=(6.0,),
                        eta_s0=(8.0,), eta_s1=(4.0,))
    traffic = TrafficSpec(2.0, 2.0)
    q, qt = np.array([0.5]), np.array([0.5])
    def rate(ld):     # a constant series over [0, 1]
        return effective_rate([0.0, 1.0], [prof, prof], [ld, ld], q, qt, traffic)

    eta_bar, rho_bar = rate(CoupledLoads(0.0, 0.0))
    assert eta_bar == pytest.approx(0.5 * 10 + 0.5 * 8)
    eta_bar1, _ = rate(CoupledLoads(1.0, 1.0))
    assert eta_bar1 == pytest.approx(0.5 * 6 + 0.5 * 4)
    eta_mid, _ = rate(CoupledLoads(0.5, 0.5))
    assert min(4.0, 6.0) <= eta_mid <= max(8.0, 10.0)
    assert rho_bar == pytest.approx(2.0 * 2.0 / eta_bar)


def test_stationary_mobile_empty_state_and_geometric_reduction():
    # all mass on one class, loads zero: plain M/M/1-PS geometric law
    q, qt = np.array([1.0]), np.array([0.0])
    rho_bar = 0.55
    dist = stationary_mobile(q, qt, CoupledLoads(0.0, 0.0), rho_bar, n_max=60)
    assert dist.prob((0,), (0,)) * dist.raw_total == pytest.approx(1 - rho_bar, rel=1e-12)
    for n in range(10):
        assert dist.raw[dist.states.index(((n,), (0,)))] == pytest.approx(
            (1 - rho_bar) * rho_bar ** n, rel=1e-10)
    assert dist.raw_total == pytest.approx(1.0, abs=1e-9)


def test_stationary_mobile_clamped_loads_match_direct_evaluation():
    """Fully clamped per-cell loads: the form is the labelled geometric
    distribution (negative-multinomial in the class labels)."""
    q, qt = np.array([0.6]), np.array([0.4])
    rho_bar = 0.5
    dist = stationary_mobile(q, qt, CoupledLoads(1.0, 1.0), rho_bar, n_max=60)
    for n, m in (((0,), (0,)), ((2,), (1,)), ((3,), (3,)), ((5,), (0,))):
        tot = n[0] + m[0]
        expect = (1 - rho_bar) * rho_bar ** tot * math.factorial(tot) \
            * q[0] ** n[0] * qt[0] ** m[0] \
            / (math.factorial(n[0]) * math.factorial(m[0]))
        assert dist.raw[dist.states.index((n, m))] == pytest.approx(expect, rel=1e-9)
    assert dist.raw_total == pytest.approx(1.0, abs=1e-6)
    assert dist.deficit < 1e-6


def test_stationary_mobile_requires_system_stability():
    with pytest.raises(InstabilityError):
        stationary_mobile(np.array([1.0]), np.array([0.0]), CoupledLoads(1.0, 1.0),
                          1.01, n_max=10)
    # per-cell loads above 1 are fine as long as rho_bar < 1
    dist = stationary_mobile(np.array([1.0]), np.array([0.0]), CoupledLoads(1.0, 1.0),
                             0.3, n_max=30)
    assert dist.raw_total == pytest.approx(1.0, abs=1e-9)


def test_mean_flow_throughput_single_always_on_flow():
    """One permanent flow: R equals that flow's service rate."""
    prof = make_profile(lam_m=(0.05,), lam_s=(0.0,), eta_m0=(10.0,), eta_s0=(10.0,))
    tr = simulate([0.0], [prof], None, TrafficSpec(0.05, 1e9), 2000.0, 3)
    # the single giant flow never finishes; occupancy is eventually 1+
    if sum(tr.mean_counts()[0]) > 0:
        R = empirical_metrics(tr).mean_flow_throughput
        assert R <= 10.0 + 1e-9


def test_mean_flow_throughput_mm1_oracle():
    """Classical PS: R -> eta (1 - rho) at rho = 0.5."""
    eta, sigma0, rho = 10.0, 2.0, 0.5
    lam = rho * eta / sigma0
    prof = make_profile(lam_m=(lam,), lam_s=(0.0,), eta_m0=(eta,), eta_s0=(eta,))
    vals = []
    for seed in range(6):
        tr = simulate([0.0], [prof], None, TrafficSpec(lam, sigma0), 30_000.0, seed)
        vals.append(empirical_metrics(tr).mean_flow_throughput)
    assert float(np.mean(vals)) == pytest.approx(eta * (1 - rho), rel=0.05)


def test_mean_flow_throughput_from_distribution():
    q, qt = np.array([1.0]), np.array([0.0])
    rho_bar = 0.5
    traffic = TrafficSpec(1.0, 2.0)
    dist = stationary_mobile(q, qt, CoupledLoads(0.0, 0.0), rho_bar, n_max=80)
    R = mean_flow_throughput(dist, traffic)
    # E[N] = rho/(1-rho) = 1 -> R = lam*sigma = eta_bar*(1-rho_bar) with
    # eta_bar = lam*sigma/rho_bar
    eta_bar = traffic.lambda_tot * traffic.sigma0 / rho_bar
    assert R == pytest.approx(eta_bar * (1 - rho_bar), rel=1e-6)


def test_mean_flow_throughput_never_exceeds_max_class_rate():
    prof, traffic, lam, eta0, eta1 = make_coupled_toy(rho_target=0.5)
    tr = simulate([0.0], [prof], None, traffic, 20_000.0, 11)
    assert empirical_metrics(tr).mean_flow_throughput <= eta0 + 1e-9


def test_conservation_residual():
    prof = make_profile(lam_m=(0.0,), lam_s=(0.0,))
    tr = simulate([0.0], [prof], None, TrafficSpec(0.0, 2.0), 100.0, 1)
    assert empirical_metrics(tr).conservation_residual == 0.0
    # stable run: residual within 2% of the offered rate
    eta, sigma0, rho = 10.0, 2.0, 0.5
    lam = rho * eta / sigma0
    prof = make_profile(lam_m=(lam,), lam_s=(0.0,), eta_m0=(eta,), eta_s0=(eta,))
    tr = simulate([0.0], [prof], None, TrafficSpec(lam, sigma0), 50_000.0, 2)
    assert abs(empirical_metrics(tr).conservation_residual) / (lam * sigma0) < 0.02
    # overload: strictly positive residual
    tr_hot = simulate([0.0], [make_profile(lam_m=(10.0,), lam_s=(0.0,), eta_m0=(10.0,),
                                    eta_s0=(10.0,))], None,
                      TrafficSpec(10.0, 2.0), 5000.0, 3)
    assert empirical_metrics(tr_hot).conservation_residual > 0.0


def test_static_stationary_tv_against_exact_chain():
    """The default stationary form against the exact chain solution (not the
    simulator): the decoupling error alone stays under 0.05 TV on the
    acceptance toy."""
    prof, traffic, lam, eta0, eta1 = make_coupled_toy(rho_target=0.4, ratio=0.8)
    loads = coupled_loads_fixed_point(prof, traffic)
    dist = stationary_static(prof, traffic, loads, n_max=80)
    exact = coupled_chain_stationary(lam, lam, traffic.sigma0, eta0, eta1, eta0, eta1)
    keys = set(exact) | {(n[0], m[0]) for n, m in dist.states}
    tv = 0.5 * sum(abs(exact.get(k, 0.0) - dist.prob((k[0],), (k[1],))) for k in keys)
    assert tv < 0.05
