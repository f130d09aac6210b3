import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import in_region_xy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import mobicell
import mobicell.ccdf as ccdf_module
from mobicell.ccdf import (CcdfCurve, Cell, FieldSamples, combined_ccdf,
                           curve_pmf, curves_to_csv, default_levels,
                           extract_classes, macro_ccdf, macro_only_ccdf,
                           small_ccdf, snapshot_curves)
from mobicell.geometry import CellLayout, PolarPoint
from mobicell.hotspot import CoverageRegion, HotspotSpec, sample_xy
from mobicell.radio import (RadioParams, _g_formula, interference_factor,
                            inverse_interference_factor, macro_association,
                            macro_associated, macro_inverse_sinr, psi, shannon_rate,
                            sinr_macro, sinr_small, small_inverse_sinr)
from mobicell.special import log_bessel_i0

LAYOUT = CellLayout(delta=1.0, rings_for_oracle=30)
PARAMS = RadioParams.from_link_budget()
SPEC = HotspotSpec(R_h=0.5, theta_h=math.pi / 3, A=0.08)
LEVELS = default_levels(PARAMS.eta0)


def region_at(Ls, reach=0.2):
    return CoverageRegion(macro_radius=LAYOUT.R, small_center=Ls, small_reach=reach)


def curves_at(Ls, n=60_000, seed=0):
    region = region_at(Ls)
    samples = FieldSamples(SPEC, PARAMS, LAYOUT, n, seed)
    mc = macro_ccdf(0.0, Ls, LEVELS, SPEC, PARAMS, region, LAYOUT, samples=samples)
    sc = small_ccdf(0.0, Ls, LEVELS, SPEC, PARAMS, region, LAYOUT, samples=samples)
    return mc, sc, samples


def assert_curve_structure(curve: CcdfCurve, eta0=PARAMS.eta0):
    assert np.all(curve.values >= 0.0) and np.all(curve.values <= 1.0)
    assert np.all(np.diff(curve.values) <= 1e-12)          # nonincreasing
    assert np.all(curve.values[curve.levels > eta0] == 0.0)


def test_curve_structure_random_positions():
    rng = np.random.default_rng(0)
    for _ in range(5):
        Ls = PolarPoint(float(rng.uniform(-0.4, 0.4)), float(rng.uniform(-0.4, 0.4)))
        mc, sc, _ = curves_at(Ls, n=20_000, seed=int(rng.integers(1e6)))
        assert_curve_structure(mc)
        assert_curve_structure(sc)
        # value at the bottom of the grid is essentially 1 (almost no user
        # falls below 0.05 Mbps)
        assert mc.values[0] > 0.99


def test_levels_validation():
    Ls = SPEC.center
    with pytest.raises(ValueError):
        macro_ccdf(0.0, Ls, [3.0, 2.0, 1.0], SPEC, PARAMS, region_at(Ls), LAYOUT, n=100)


def test_zero_above_peak_rate():
    mc, sc, _ = curves_at(SPEC.center, n=20_000)
    grid = np.array([0.5, 10.0, 97.9, 98.0, 98.1, 150.0])
    c = macro_ccdf(0.0, SPEC.center, grid, SPEC, PARAMS, region_at(SPEC.center), LAYOUT,
                   n=20_000)
    assert c.values[grid > 98.0].max() == 0.0
    assert c.values[grid <= 98.0].min() >= 0.0


def test_association_partition():
    mc, sc, samples = curves_at(SPEC.center)
    region = region_at(SPEC.center)
    _, macro_assoc, _ = samples.at(SPEC.center, region)
    m_star = float(len(macro_assoc)) / samples.n     # one entry per S* user
    assert mc.mass + sc.mass == pytest.approx(m_star, abs=1e-15)


def test_field_at_matches_a_fresh_evaluation():
    """A repeated call, a call at a new position and a call with a new reach
    return the arrays a fresh FieldSamples with the same seed computes."""
    samples = FieldSamples(SPEC, PARAMS, LAYOUT, 20_000, 4)
    other = PolarPoint(SPEC.center.x + 0.05, SPEC.center.y - 0.02)
    calls = [(SPEC.center, 0.2), (SPEC.center, 0.2), (other, 0.2), (other, 0.1),
             (SPEC.center, 0.2)]
    for Ls, reach in calls:
        got = samples.at(Ls, region_at(Ls, reach))
        want = FieldSamples(SPEC, PARAMS, LAYOUT, 20_000, 4).at(Ls, region_at(Ls, reach))
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_simplified_and_direct_indicators_agree_bitwise():
    """Counting rate >= l directly and counting 1/gamma <= psi(l) give the
    same curve on the same draws."""
    Ls = SPEC.center
    region = region_at(Ls)
    samples = FieldSamples(SPEC, PARAMS, LAYOUT, 30_000, 3)
    rim, macro_assoc, small_rx = samples.at(Ls, region)
    draws = samples.users(rim)[macro_assoc]
    inv_gamma = samples.g[draws] + small_rx[macro_assoc] * samples.r_pow[draws]
    with np.errstate(divide="ignore"):
        gamma = np.where(inv_gamma > 0, 1.0 / inv_gamma, np.inf)
    rates = shannon_rate(gamma, PARAMS)
    curve = macro_ccdf(0.0, Ls, LEVELS, SPEC, PARAMS, region, LAYOUT, samples=samples)
    direct = np.array([np.count_nonzero(rates >= l) for l in LEVELS]) / len(rates)
    direct[LEVELS > PARAMS.eta0] = 0.0
    assert np.array_equal(curve.values, direct)


def test_macro_kappa_zero_matches_closed_form():
    """Silent small cell: the sampled macro curve must match the closed
    form within Monte Carlo error at every level."""
    p0 = RadioParams(**{**PARAMS.__dict__, "kappa": 0.0})
    Ls = PolarPoint.from_polar(2.0, 0.0)  # irrelevant when kappa = 0
    region = CoverageRegion(macro_radius=LAYOUT.R, small_center=Ls, small_reach=0.0)
    mc = macro_ccdf(0.0, Ls, LEVELS, SPEC, p0, region, LAYOUT, n=200_000, seed=11)
    ref = macro_only_ccdf(LEVELS, SPEC, p0, LAYOUT)
    se = np.maximum(mc.stderr, 1e-4)
    assert np.all(np.abs(mc.values - ref.values) <= 3.0 * se)


def test_macro_only_against_sampling_oracle():
    """Independent route: draw users, keep those in the disk, threshold g(r)
    against psi(l)."""
    ref = macro_only_ccdf(LEVELS[::10], SPEC, PARAMS, LAYOUT)
    xy = sample_xy(SPEC, 1_000_000, 99)
    r = np.hypot(xy[:, 0], xy[:, 1])
    keep = r <= LAYOUT.R
    g = interference_factor(r[keep], PARAMS, LAYOUT)
    n_in = int(keep.sum())
    for l, v in zip(ref.levels, ref.values):
        if l > PARAMS.eta0:
            continue
        hit = float(np.count_nonzero(g <= psi(float(l), PARAMS))) / n_in
        se = math.sqrt(max(hit * (1 - hit), 1e-8) / n_in)
        assert v == pytest.approx(hit, abs=max(3.0 * se, 2e-3))


def bessel_quadrature_radial_mass(spec: HotspotSpec, lam: float) -> float:
    """Hotspot mass inside radius lam by adaptive quadrature of the
    offset-Gaussian radial density r/A^2 exp(-(r^2 + R_h^2)/2A^2) I0(r R_h/A^2)."""
    if lam <= 0.0:
        return 0.0
    a2, rh = spec.A ** 2, spec.R_h

    def integrand(r: float) -> float:
        return r / a2 * math.exp(-(r * r + rh * rh) / (2.0 * a2)
                                 + log_bessel_i0(r * rh / a2))

    return quad(integrand, 0.0, lam, epsabs=1e-12, epsrel=1e-11, limit=200)[0]


def test_macro_only_closed_form_matches_bessel_quadrature():
    """The noncentral chi-squared form agrees with the quadrature of the
    Bessel-I0 radial density on every level, for hotspots from the centre to
    the disk edge and from tight to wider than the cell."""
    below = LEVELS <= PARAMS.eta0
    lam = inverse_interference_factor(psi(LEVELS[below], PARAMS), PARAMS, LAYOUT)
    for r_h, a in itertools.product((0.0, 0.1, 0.3, 0.5, 0.52),
                                    (0.01, 0.03, 0.08, 0.2, 0.5, 1.0)):
        spec = HotspotSpec(R_h=r_h, theta_h=0.0, A=a)
        norm = bessel_quadrature_radial_mass(spec, LAYOUT.R)
        want = np.zeros(len(LEVELS))
        want[below] = [bessel_quadrature_radial_mass(spec, x) / norm for x in lam]
        curve = macro_only_ccdf(LEVELS, spec, PARAMS, LAYOUT)
        np.testing.assert_allclose(curve.values, want, rtol=0.0, atol=1e-12,
                                   err_msg=f"R_h={r_h} A={a}")
        assert curve.mass == pytest.approx(norm, rel=0.0, abs=1e-12)


def test_importing_mobicell_loads_no_quadrature():
    """The package and its CLI import without ``scipy.integrate``."""
    src = str(Path(mobicell.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, mobicell, mobicell.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_macro_only_centered_hotspot_rayleigh_reduction():
    """Hotspot at the origin: the offset-Gaussian radial mass collapses to the
    Rayleigh closed form (1 - exp(-Lambda^2/2A^2)) / (1 - exp(-R^2/2A^2))."""
    spec0 = HotspotSpec(R_h=0.0, theta_h=0.0, A=0.15)
    from mobicell.radio import inverse_interference_factor
    curve = macro_only_ccdf(LEVELS, spec0, PARAMS, LAYOUT)
    lam = inverse_interference_factor(psi(LEVELS, PARAMS), PARAMS, LAYOUT)
    expect = (1.0 - np.exp(-lam ** 2 / (2 * spec0.A ** 2))) \
        / (1.0 - math.exp(-LAYOUT.R ** 2 / (2 * spec0.A ** 2)))
    assert np.allclose(curve.values, expect, atol=1e-8)


def test_macro_only_limits():
    c = macro_only_ccdf(np.array([1e-4, 120.0]), SPEC, PARAMS, LAYOUT)
    assert c.values[0] == pytest.approx(1.0, abs=1e-9)   # Lambda -> R
    assert c.values[1] == 0.0
    with pytest.raises(ValueError):
        macro_only_ccdf(LEVELS, HotspotSpec(R_h=0.6, theta_h=0.0, A=0.1), PARAMS, LAYOUT)


def test_small_cell_on_hotspot_dominates_macro():
    """Small cell parked on a tight hotspot: its users' curve dominates the
    macro users' curve at every level."""
    spec = HotspotSpec(R_h=0.5, theta_h=math.pi / 3, A=0.05)
    Ls = spec.center
    region = region_at(Ls)
    samples = FieldSamples(spec, PARAMS, LAYOUT, 60_000, 21)
    mc = macro_ccdf(0.0, Ls, LEVELS, spec, PARAMS, region, LAYOUT, samples=samples)
    sc = small_ccdf(0.0, Ls, LEVELS, spec, PARAMS, region, LAYOUT, samples=samples)
    assert sc.mass > 0.3
    sel = LEVELS <= PARAMS.eta0
    assert np.all(sc.values[sel] >= mc.values[sel] - 3.0 * (mc.stderr[sel] + sc.stderr[sel]))
    assert sc.mean_throughput() > mc.mean_throughput()


def test_phase0_dominates_phase1_pointwise():
    Ls = SPEC.center
    region = region_at(Ls)
    samples = FieldSamples(SPEC, PARAMS, LAYOUT, 40_000, 8)
    m1 = macro_ccdf(0.0, Ls, LEVELS, SPEC, PARAMS, region, LAYOUT, samples=samples)
    m0 = macro_ccdf(0.0, Ls, LEVELS, SPEC, PARAMS, region, LAYOUT, samples=samples,
                    include_small_interference=False)
    s1 = small_ccdf(0.0, Ls, LEVELS, SPEC, PARAMS, region, LAYOUT, samples=samples)
    s0 = small_ccdf(0.0, Ls, LEVELS, SPEC, PARAMS, region, LAYOUT, samples=samples,
                    include_central_macro=False)
    assert np.all(m0.values >= m1.values)
    assert np.all(s0.values >= s1.values)
    assert m0.mass == m1.mass and s0.mass == s1.mass  # same association


def test_mismatched_samples_or_region_raise():
    """Draws built with other radio parameters, a region with another macro
    disk and a region centred off the small cell are refused, not mixed into
    one curve."""
    Ls = SPEC.center
    samples = FieldSamples(SPEC, PARAMS, LAYOUT, 2_000, 0)
    p0 = RadioParams(**{**PARAMS.__dict__, "kappa": 0.0})
    for curve_fn in (macro_ccdf, small_ccdf):
        with pytest.raises(ValueError):
            curve_fn(0.0, Ls, LEVELS, SPEC, p0, region_at(Ls), LAYOUT, samples=samples)
    elsewhere = PolarPoint(Ls.x + 0.1, Ls.y)
    for region in (CoverageRegion(macro_radius=0.9 * LAYOUT.R, small_center=Ls,
                                  small_reach=0.2),
                   region_at(elsewhere)):
        with pytest.raises(ValueError):
            samples.at(Ls, region)
        with pytest.raises(ValueError):
            snapshot_curves(0.0, Ls, LEVELS, region, samples)


def test_empty_small_curve_marker():
    p0 = RadioParams(**{**PARAMS.__dict__, "kappa": 0.0})
    Ls = SPEC.center
    sc = small_ccdf(0.0, Ls, LEVELS, SPEC, p0, region_at(Ls), LAYOUT, n=5000, seed=0)
    assert sc.empty and sc.mass == 0.0 and sc.values.max() == 0.0


def test_curve_pmf_sums_to_one_and_mean():
    mc, sc, _ = curves_at(SPEC.center, n=30_000)
    rates, masses = curve_pmf(mc)
    assert masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert mc.mean_throughput() == pytest.approx(float(np.dot(rates, masses)))


def synthetic_two_point_curve(lo=10.0, hi=90.0):
    levels = default_levels(98.0)
    values = np.where(levels <= lo, 1.0, np.where(levels <= hi, 0.5, 0.0))
    return CcdfCurve(levels, values, np.zeros_like(levels), Cell.MACRO, 0.0, 0.6, 1000)


def test_extract_classes_two_point_quartiles():
    """Half the mass at 10 Mbps, half at 90: four equal-mass classes must be
    {10, 10, 90, 90} up to the level-grid cell containing each atom."""
    curve = synthetic_two_point_curve()
    prof = extract_classes(curve, curve, curve, curve, K=4, L=1, lambda_tot=1.0)
    grid_step = np.diff(curve.levels).max()
    assert prof.eta_macro[0, 1] == pytest.approx(10.0, abs=grid_step)
    assert prof.eta_macro[1, 1] == pytest.approx(10.0, abs=grid_step)
    assert prof.eta_macro[2, 1] == pytest.approx(90.0, abs=grid_step)
    assert prof.eta_macro[3, 1] == pytest.approx(90.0, abs=grid_step)
    assert np.all(np.diff(prof.eta_macro[:, 1]) >= 0)  # sorted ascending


def test_extract_classes_single_class_mean():
    mc, sc, _ = curves_at(SPEC.center, n=30_000)
    prof = extract_classes(mc, sc, mc, sc, K=1, L=1, lambda_tot=2.0)
    assert prof.eta_macro[0, 1] == pytest.approx(mc.mean_throughput(), rel=1e-12)
    assert prof.lambda_macro.sum() + prof.lambda_small.sum() == pytest.approx(2.0)
    # arrival split proportional to coverage masses
    assert prof.lambda_macro.sum() / 2.0 == pytest.approx(mc.mass / (mc.mass + sc.mass))


def test_extract_classes_conserves_mean():
    mc, sc, _ = curves_at(SPEC.center, n=30_000)
    for k in (2, 4, 8):
        prof = extract_classes(mc, sc, mc, sc, K=k, L=k, lambda_tot=1.0)
        grid_step = np.diff(mc.levels).max()
        assert float(np.dot(prof.p_macro, prof.eta_macro[:, 1])) == pytest.approx(
            mc.mean_throughput(), abs=grid_step)


def test_extract_classes_phase_ordering_random_scenarios():
    rng = np.random.default_rng(17)
    for _ in range(5):
        Ls = PolarPoint(float(rng.uniform(-0.4, 0.4)), float(rng.uniform(-0.4, 0.4)))
        region = region_at(Ls)
        samples = FieldSamples(SPEC, PARAMS, LAYOUT, 20_000, int(rng.integers(1e6)))
        m1 = macro_ccdf(0.0, Ls, LEVELS, SPEC, PARAMS, region, LAYOUT, samples=samples)
        m0 = macro_ccdf(0.0, Ls, LEVELS, SPEC, PARAMS, region, LAYOUT, samples=samples,
                        include_small_interference=False)
        s1 = small_ccdf(0.0, Ls, LEVELS, SPEC, PARAMS, region, LAYOUT, samples=samples)
        s0 = small_ccdf(0.0, Ls, LEVELS, SPEC, PARAMS, region, LAYOUT, samples=samples,
                        include_central_macro=False)
        prof = extract_classes(m1, s1, m0, s0, K=4, L=4, lambda_tot=1.0)
        assert np.all(prof.eta_macro[:, 0] >= prof.eta_macro[:, 1] - 1e-12)
        assert np.all(prof.eta_small[:, 0] >= prof.eta_small[:, 1] - 1e-12)


def test_extract_classes_phase_order_is_exact():
    """Where the idle and interfered curves agree over a class's span, their
    class means can differ by rounding; the idle rate still is >= the
    interfered rate, exactly."""
    Ls = PolarPoint.from_polar(0.5, 3.0)
    samples = FieldSamples(SPEC, PARAMS, LAYOUT, 2_000, 0)
    m1, m0, s1, s0 = snapshot_curves(0.0, Ls, LEVELS, region_at(Ls, 0.0), samples)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)    # single-rate curves
        prof = extract_classes(m1, s1, m0, s0, K=5, L=5, lambda_tot=1.0)
    assert np.all(prof.eta_macro[:, 0] >= prof.eta_macro[:, 1])
    assert np.all(prof.eta_small[:, 0] >= prof.eta_small[:, 1])


def test_degenerate_curve_warns_single_rate():
    levels = default_levels(98.0)
    values = np.where(levels <= 50.0, 1.0, 0.0)  # all mass at one atom
    curve = CcdfCurve(levels, values, np.zeros_like(levels), Cell.MACRO, 0.0, 1.0, 100)
    with pytest.warns(UserWarning):
        prof = extract_classes(curve, curve, curve, curve, K=3, L=1, lambda_tot=1.0)
    assert np.allclose(prof.eta_macro[:, 1], prof.eta_macro[0, 1])


def test_combined_curve_is_mass_weighted_mixture():
    mc, sc, _ = curves_at(SPEC.center, n=30_000)
    both = combined_ccdf(mc, sc)
    i = 50
    expect = (mc.mass * mc.values[i] + sc.mass * sc.values[i]) / (mc.mass + sc.mass)
    assert both.values[i] == pytest.approx(expect, rel=1e-12)
    assert both.mass == pytest.approx(mc.mass + sc.mass)


def test_csv_export(tmp_path):
    mc, sc, _ = curves_at(SPEC.center, n=5000)
    path = tmp_path / "ccdf.csv"
    curves_to_csv(path, [mc, sc], extra_header_lines=("# config=x seed=1",))
    lines = path.read_text().strip().splitlines()
    assert lines[1] == "t_s,cell,level_mbps,ccdf,stderr"
    assert len(lines) == 2 + 2 * len(LEVELS)
    assert lines[2].split(",")[1] == "macro"


def counted_inverse_sinrs(curve_fn, Ls, spec, region, samples, **flag):
    """The per-user inverse SINRs one CCDF call counts, in sample order: those
    of the finished curve the call returns, of the four a snapshot finishes."""
    seen = []
    finish = ccdf_module._finish_curve

    def spy(inv_gamma, *args):
        curve = finish(inv_gamma, *args)
        seen.append((curve, inv_gamma))
        return curve

    with mock.patch.object(ccdf_module, "_finish_curve", spy):
        got = curve_fn(0.0, Ls, LEVELS, spec, PARAMS, region, LAYOUT, samples=samples,
                       **flag)
    [inv_gamma] = [x for curve, x in seen if curve is got]
    return inv_gamma


@settings(max_examples=25, deadline=None)
@given(r_h=st.floats(0.0, 0.5), theta_h=st.floats(0.0, 2.0 * math.pi),
       sigma=st.floats(0.02, 0.2), ls_r=st.floats(0.0, 0.6),
       ls_theta=st.floats(0.0, 2.0 * math.pi), reach=st.floats(0.0, 0.3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_scalar_sinr_api_matches_counted_curve_samples(r_h, theta_h, sigma, ls_r,
                                                       ls_theta, reach, seed):
    """The scalar association and SINRs agree, user by user, with what the
    CCDF curves count for random hotspot geometry and small-cell position."""
    spec = HotspotSpec(R_h=r_h, theta_h=theta_h, A=sigma)
    Ls = PolarPoint.from_polar(ls_r, ls_theta)
    region = region_at(Ls, reach)
    samples = FieldSamples(spec, PARAMS, LAYOUT, 500, seed)
    rim, _, _ = samples.at(Ls, region)
    users = [PolarPoint(float(x), float(y)) for x, y in samples.xy[samples.users(rim)]]
    assoc = [macro_associated(m, Ls, PARAMS) for m in users]
    macro_users = [m for m, a in zip(users, assoc) if a]
    small_users = [m for m, a in zip(users, assoc) if not a]
    for flag in (True, False):
        counted = counted_inverse_sinrs(macro_ccdf, Ls, spec, region, samples,
                                        include_small_interference=flag)
        scalar = [1.0 / sinr_macro(m, Ls, PARAMS, LAYOUT, include_small_interference=flag)
                  for m in macro_users]
        np.testing.assert_allclose(counted, scalar, rtol=1e-12, atol=0.0)
        counted = counted_inverse_sinrs(small_ccdf, Ls, spec, region, samples,
                                        include_central_macro=flag)
        scalar = [1.0 / sinr_small(m, Ls, PARAMS, LAYOUT, include_central_macro=flag)
                  for m in small_users]
        np.testing.assert_allclose(counted, scalar, rtol=1e-12, atol=0.0)


@settings(max_examples=25, deadline=None)
@given(ls_r=st.floats(0.0, 0.6), ls_theta=st.floats(0.0, 2.0 * math.pi),
       reach=st.sampled_from([0.0, 0.1]), seed=st.integers(0, 2 ** 32 - 1))
def test_snapshot_curves_match_one_curve_calls(ls_r, ls_theta, reach, seed):
    """The one-snapshot kernel gives, bit for bit, the curves of the four
    one-curve calls, for random small-cell positions; every curve is
    non-increasing in level and lies in [0, 1]."""
    Ls = PolarPoint.from_polar(ls_r, ls_theta)
    region = region_at(Ls, reach)
    samples = FieldSamples(SPEC, PARAMS, LAYOUT, 2_000, seed)
    got = snapshot_curves(5.0, Ls, LEVELS, region, samples)
    args = (5.0, Ls, LEVELS, SPEC, PARAMS, region, LAYOUT)
    want = (macro_ccdf(*args, samples=samples),
            macro_ccdf(*args, include_small_interference=False, samples=samples),
            small_ccdf(*args, samples=samples),
            small_ccdf(*args, include_central_macro=False, samples=samples))
    for g, w in zip(got, want):
        assert (g.cell, g.t, g.mass, g.n_samples, g.empty) == \
            (w.cell, w.t, w.mass, w.n_samples, w.empty)
        assert np.array_equal(g.values, w.values)
        assert np.array_equal(g.stderr, w.stderr)
        assert_curve_structure(g)


def brute_force_curves(Ls, region, n, seed):
    """The four curves of a snapshot, (m1, m0, s1, s0), as (values, stderr,
    mass, n_samples), from every draw: S* is ``in_region_xy`` within the
    domain, plus a draw on the small cell itself (the disk of reach 0)."""
    xy = sample_xy(SPEC, n, seed)
    r = np.hypot(xy[:, 0], xy[:, 1])
    d = np.hypot(xy[:, 0] - Ls.x, xy[:, 1] - Ls.y)
    domain = r < ccdf_module._DOMAIN_FRAC * LAYOUT.delta
    inside = (in_region_xy(xy, region) | (d == 0.0)) & domain
    b2 = 2.0 * PARAMS.b_macro
    with np.errstate(divide="ignore"):
        small_rx = PARAMS.kappa * d ** (-2.0 * PARAMS.b_small)
        r_neg_pow = r ** (-b2)
    assoc = macro_association(small_rx, r_neg_pow)
    g = np.full(n, np.inf)
    g[domain] = _g_formula(r[domain], PARAMS, LAYOUT)
    r_pow = r ** b2
    below = LEVELS <= PARAMS.eta0
    thresholds = psi(LEVELS[below], PARAMS)

    def curve(sel, inv_gamma):
        k = int(np.count_nonzero(sel))
        values = np.zeros(len(LEVELS))
        if k:
            values[below] = [np.count_nonzero(inv_gamma[sel] <= x) / k for x in thresholds]
        stderr = np.sqrt(np.maximum(values * (1.0 - values), 0.0) / k) if k else values
        return values, stderr, k / n, k

    m, s = inside & assoc, inside & ~assoc
    return (curve(m, macro_inverse_sinr(g, r_pow, small_rx)), curve(m, g),
            curve(s, small_inverse_sinr(g, r_pow, small_rx, True)),
            curve(s, small_inverse_sinr(g, r_pow, small_rx, False)))


@settings(max_examples=24, deadline=None)
@given(ls_r=st.floats(0.0, 0.9), ls_theta=st.floats(0.0, 2.0 * math.pi),
       reach=st.sampled_from([0.0, 0.1, 0.3]), seed=st.integers(0, 2 ** 32 - 1),
       on_rim_draw=st.booleans())
@example(ls_r=0.0, ls_theta=0.0, reach=0.0, seed=5, on_rim_draw=True)
def test_snapshot_curves_match_brute_force_over_all_draws(ls_r, ls_theta, reach, seed,
                                                          on_rim_draw):
    """The compact kernel, which evaluates only the draws that can be in S*,
    gives bit for bit the curves of an evaluation over every draw: for random
    small-cell positions and reaches, and for a small cell of reach 0 placed
    exactly on a draw outside the macro disk."""
    n = 2_000
    Ls = PolarPoint.from_polar(ls_r, ls_theta)
    if on_rim_draw:
        xy = sample_xy(SPEC, n, seed)
        r = np.hypot(xy[:, 0], xy[:, 1])
        rim = np.flatnonzero((r > LAYOUT.R) & (r < ccdf_module._DOMAIN_FRAC * LAYOUT.delta))
        Ls, reach = PolarPoint(*map(float, xy[rim[seed % len(rim)]])), 0.0
    region = region_at(Ls, reach)
    samples = FieldSamples(SPEC, PARAMS, LAYOUT, n, seed)
    got = snapshot_curves(5.0, Ls, LEVELS, region, samples)
    want = brute_force_curves(Ls, region, n, seed)
    if on_rim_draw:
        assert want[2][3] >= 1                 # the draw on the small cell is its user
    for g, (values, stderr, mass, n_samples) in zip(got, want):
        assert np.array_equal(g.values, values)
        assert np.array_equal(g.stderr, stderr)
        assert (g.mass, g.n_samples, g.empty) == (mass, n_samples, n_samples == 0)


@settings(max_examples=25, deadline=None)
@given(ls_r=st.floats(0.0, 0.6), ls_theta=st.floats(0.0, 2.0 * math.pi),
       reach=st.sampled_from([0.0, 0.2]), k=st.integers(1, 8), l=st.integers(1, 8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_extract_classes_conserves_mean_and_phase_order(ls_r, ls_theta, reach, k, l, seed):
    """Equal-mass classes keep each curve's mean: the class rates weighted
    by p give the mean of ``curve_pmf``; and with the idle and interfered
    curves taken from the same draws, every class is at least as fast idle
    as interfered, up to the rounding of the class sums (two ulps seen where
    both curves agree over a class's span)."""
    Ls = PolarPoint.from_polar(ls_r, ls_theta)
    samples = FieldSamples(SPEC, PARAMS, LAYOUT, 2_000, seed)
    m1, m0, s1, s0 = snapshot_curves(0.0, Ls, LEVELS, region_at(Ls, reach), samples)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)    # single-rate curves
        prof = extract_classes(m1, s1, m0, s0, K=k, L=l, lambda_tot=1.0)
    for eta, p, idle, busy in ((prof.eta_macro, prof.p_macro, m0, m1),
                               (prof.eta_small, prof.p_small, s0, s1)):
        for col, curve in ((0, idle), (1, busy)):
            if not curve.empty:
                rates, masses = curve_pmf(curve)
                assert float(np.dot(p, eta[:, col])) == pytest.approx(
                    float(np.dot(rates, masses)), rel=1e-12)
        assert np.all(eta[:, 0] >= eta[:, 1] - 1e-12)
