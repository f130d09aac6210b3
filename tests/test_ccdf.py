import dataclasses
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
from conftest import Region, in_region_xy, reference_field_arrays
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import mobicell
import mobicell.ccdf as ccdf_module
from mobicell.ccdf import (CcdfCurve, Cell, FieldSamples, combined_ccdf,
                           curve_pmf, default_levels,
                           extract_classes, macro_ccdf, macro_only_ccdf,
                           small_ccdf, snapshot_curves)
from mobicell.config import bundled_scenario_path, load_scenario
from mobicell.geometry import CellLayout, PolarPoint
from mobicell.hotspot import HotspotSpec, sample_xy
from mobicell.pipeline import _curves_file, _write
from mobicell.radio import (RadioParams, _g_formula, interference_factor,
                            inverse_interference_factor, macro_association,
                            macro_associated, macro_inverse_sinr, psi, shannon_rate,
                            sinr_macro, sinr_small, small_inverse_sinr)
from mobicell.special import log_bessel_i0

LAYOUT = CellLayout(delta=1.0, rings_for_oracle=30)
PARAMS = RadioParams.from_link_budget()
SPEC = HotspotSpec(R_h=0.5, theta_h=math.pi / 3, A=0.08)
LEVELS = default_levels(PARAMS.eta0)
REACH = 0.2


def curves_at(Ls, n=60_000, seed=0):
    samples = FieldSamples(SPEC, PARAMS, LAYOUT, n, seed)
    mc = macro_ccdf(Ls, REACH, LEVELS, samples)
    sc = small_ccdf(Ls, REACH, LEVELS, samples)
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
        macro_ccdf(Ls, REACH, [3.0, 2.0, 1.0], FieldSamples(SPEC, PARAMS, LAYOUT, 100, 0))


def test_zero_above_peak_rate():
    mc, sc, _ = curves_at(SPEC.center, n=20_000)
    grid = np.array([0.5, 10.0, 97.9, 98.0, 98.1, 150.0])
    c = macro_ccdf(SPEC.center, REACH, grid, FieldSamples(SPEC, PARAMS, LAYOUT, 20_000, 0))
    assert c.values[grid > 98.0].max() == 0.0
    assert c.values[grid <= 98.0].min() >= 0.0


def test_association_partition():
    mc, sc, samples = curves_at(SPEC.center)
    _, macro_assoc, _ = samples.at(SPEC.center, REACH)
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
        got = samples.at(Ls, reach)
        want = FieldSamples(SPEC, PARAMS, LAYOUT, 20_000, 4).at(Ls, reach)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


_REFERENCE = load_scenario(bundled_scenario_path())


@pytest.mark.parametrize("case, seed", [
    ("reference", 0), ("reference", 1), ("reference", (1, 0, 0)),
    ("wide-hotspot", 5), ("kappa-0", 3)])
def test_field_samples_equal_the_reference_build(case, seed):
    """Built block by block and permuted in place, the field samples hold
    bit for bit the arrays of the plain build, ``xy`` column-major, on the
    reference scenario at full size, on a hotspot wide enough for rim draws
    and domain cuts, and with kappa = 0, which no snapshot takes fast."""
    cfg = _REFERENCE
    spec, params = cfg.spec, cfg.params
    if case == "wide-hotspot":
        spec = dataclasses.replace(spec, A=0.4)
    elif case == "kappa-0":
        params = dataclasses.replace(params, kappa=0.0)
    n = cfg.mc_samples
    samples = FieldSamples(spec, params, cfg.layout, n, seed)
    want = reference_field_arrays(spec, params, cfg.layout, n, seed)
    for name in ("xy", "g", "_kr"):
        assert np.array_equal(getattr(samples, name), want[name]), name
    assert samples.xy.flags.f_contiguous
    assert (samples.n_core, samples._fast) == (want["n_core"], want["_fast"])
    if case == "wide-hotspot":
        assert samples.n_core < len(samples.g) < n
    assert samples._fast == (case != "kappa-0")


def test_field_samples_keep_each_set_in_ascending_g():
    """The core draws and then the rim draws, each set in ascending g, are
    the draws inside the domain, each once; every per-draw array and what
    ``users``, ``rim`` and ``at`` index belong to the same draw."""
    samples = FieldSamples(SPEC, PARAMS, LAYOUT, 20_000, 4)
    c, g, xy = samples.n_core, samples.g, samples.xy
    assert len(g) > c > 0
    assert np.all(np.diff(g[:c]) >= 0.0) and np.all(np.diff(g[c:]) >= 0.0)
    drawn = sample_xy(SPEC, 20_000, 4)
    r = np.hypot(drawn[:, 0], drawn[:, 1])
    for kept, rows in ((r <= LAYOUT.R, xy[:c]),
                       ((r > LAYOUT.R) & (r < ccdf_module._DOMAIN_FRAC * LAYOUT.delta),
                        xy[c:])):
        assert sorted(map(tuple, drawn[kept])) == sorted(map(tuple, rows))
    r = np.hypot(xy[:, 0], xy[:, 1])
    b2 = 2.0 * PARAMS.b_macro
    assert np.array_equal(g, _g_formula(r, PARAMS, LAYOUT))
    assert np.array_equal(samples._kr, PARAMS.kappa * r ** b2)
    Ls = PolarPoint(*map(float, xy[c + 3]))           # on a rim draw
    for reach in (0.0, 0.2):
        rim, macro_assoc, delta = samples.at(Ls, reach)
        assert np.array_equal(rim, samples.rim(Ls, reach))
        assert reach > 0.0 or list(rim) == [c + 3]
        users = samples.users(rim)
        with np.errstate(divide="ignore"):
            small_rx = PARAMS.kappa * np.hypot(xy[users, 0] - Ls.x,
                                               xy[users, 1] - Ls.y) ** (-2.0 * PARAMS.b_small)
        # the exact path's power ratio, within the kernel's documented error
        assert np.allclose(delta, small_rx * r[users] ** b2, rtol=3.2e-13, atol=0.0)
        assert np.array_equal(macro_assoc, delta <= 1.0)


_G_POOL = (0.0, 0.1, 0.25, 1.0, 3.0)


@st.composite
def windowed_blocks(draw):
    """An ascending g with ties, a dmax near 0, near 1 or anywhere in
    between, each delta in (0, dmax] (some exactly dmax), and keys that hit
    m1 values, fl(g + dmax), g and their neighbours."""
    g = np.sort(np.array(draw(st.lists(st.sampled_from(_G_POOL) | st.floats(0.0, 4.0),
                                       min_size=1, max_size=30))))
    dmax = draw(st.floats(1e-300, 1e-12) | st.floats(1.0 - 1e-12, 1.0)
                | st.floats(1e-12, 1.0) | st.sampled_from([0.3, 2.0 ** -53, 1e-16]))
    frac = draw(st.lists(st.sampled_from([1.0]) | st.floats(0.0, 1.0, exclude_min=True),
                         min_size=len(g), max_size=len(g)))
    delta = np.maximum(dmax * np.array(frac), ccdf_module._TINY)
    m1 = g + delta
    pools = (m1, g + dmax, g, np.nextafter(m1, np.inf), np.nextafter(g + dmax, -np.inf))
    keys = [draw(st.sampled_from(list(draw(st.sampled_from(pools)))) | st.floats(0.0, 6.0))
            for _ in range(draw(st.integers(1, 12)))]
    return g, dmax, m1, np.array(keys)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(block=windowed_blocks())
@example(block=(np.array([0.1]), 0.3, np.array([0.1 + 0.3]), np.array([0.4])))
@example(block=(np.array([1.0, 1.0]), 0.5, np.array([1.25, 1.5]), np.array([1.5, 1.25])))
def test_windowed_m1_counts_equal_the_sorted_counts(block):
    """On ascending g, counting m1 below each key in its window gives
    exactly the count of sorted m1 below it: with ties in g, m1 values on a
    key, fl(g + dmax) on a key, dmax near 0 and near 1, and one-user blocks.
    (fl(0.1 + 0.3) is 0.4 although fl(0.4 - 0.3) exceeds 0.1: the certain
    users are those with fl(g + dmax) below the key, not g below
    fl(key - dmax).)"""
    g, dmax, m1, keys = block
    want = np.searchsorted(np.sort(m1), keys)
    below_g = np.searchsorted(g, keys)
    with mock.patch.object(ccdf_module, "_KEY_COST", 0), \
            mock.patch.object(ccdf_module, "_WINDOW_COST", 0):
        got = ccdf_module._windowed_m1_counts(g, m1, dmax, keys, below_g,
                                              np.empty(len(g)))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("block", [1, 64, 5_000])
def test_windowed_sweep_gives_the_exact_curves(block):
    """With every all-macro block counted in windows, a sweep of positions
    from the hotspot to far off it still gives the exact path's curves."""
    samples = FieldSamples(SPEC, PARAMS, LAYOUT, 4_000, 6)
    positions = [SPEC.center,
                 *(PolarPoint.from_polar(r, SPEC.theta_h + math.pi) for r in (0.1, 0.3, 0.5))]
    for reach in (0.0, 0.3):
        with mock.patch.object(ccdf_module, "_BLOCK", block), \
                mock.patch.object(ccdf_module, "_KEY_COST", 0), \
                mock.patch.object(ccdf_module, "_WINDOW_COST", 0):
            swept = ccdf_module.snapshot_sweep(positions, reach, LEVELS, samples)
        assert samples.fallbacks == 0
        for Ls, got in zip(positions, swept):
            rim = samples.rim(Ls, reach)
            assert_same_curves(got, ccdf_module._exact_curves(Ls, LEVELS, samples, rim))


def test_simplified_and_direct_indicators_agree_bitwise():
    """Counting rate >= l directly and counting 1/gamma <= psi(l) give the
    same curve on the same draws."""
    Ls = SPEC.center
    samples = FieldSamples(SPEC, PARAMS, LAYOUT, 30_000, 3)
    rim, macro_assoc, delta = samples.at(Ls, REACH)
    draws = samples.users(rim)[macro_assoc]
    inv_gamma = samples.g[draws] + delta[macro_assoc]
    with np.errstate(divide="ignore"):
        gamma = np.where(inv_gamma > 0, 1.0 / inv_gamma, np.inf)
    rates = shannon_rate(gamma, PARAMS)
    curve = macro_ccdf(Ls, REACH, LEVELS, samples)
    direct = np.array([np.count_nonzero(rates >= l) for l in LEVELS]) / len(rates)
    direct[LEVELS > PARAMS.eta0] = 0.0
    assert np.array_equal(curve.values, direct)


def test_macro_kappa_zero_matches_closed_form():
    """Silent small cell: the sampled macro curve must match the closed
    form within Monte Carlo error at every level."""
    p0 = RadioParams(**{**PARAMS.__dict__, "kappa": 0.0})
    Ls = PolarPoint.from_polar(2.0, 0.0)  # irrelevant when kappa = 0
    mc = macro_ccdf(Ls, 0.0, LEVELS, FieldSamples(SPEC, p0, LAYOUT, 200_000, 11))
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
    samples = FieldSamples(spec, PARAMS, LAYOUT, 60_000, 21)
    mc = macro_ccdf(Ls, REACH, LEVELS, samples)
    sc = small_ccdf(Ls, REACH, LEVELS, samples)
    assert sc.mass > 0.3
    sel = LEVELS <= PARAMS.eta0
    assert np.all(sc.values[sel] >= mc.values[sel] - 3.0 * (mc.stderr[sel] + sc.stderr[sel]))
    assert sc.mean_throughput() > mc.mean_throughput()


def test_phase0_dominates_phase1_pointwise():
    Ls = SPEC.center
    samples = FieldSamples(SPEC, PARAMS, LAYOUT, 40_000, 8)
    m1 = macro_ccdf(Ls, REACH, LEVELS, samples)
    m0 = macro_ccdf(Ls, REACH, LEVELS, samples, include_small_interference=False)
    s1 = small_ccdf(Ls, REACH, LEVELS, samples)
    s0 = small_ccdf(Ls, REACH, LEVELS, samples, include_central_macro=False)
    assert np.all(m0.values >= m1.values)
    assert np.all(s0.values >= s1.values)
    assert m0.mass == m1.mass and s0.mass == s1.mass  # same association


def test_empty_small_curve_marker():
    p0 = RadioParams(**{**PARAMS.__dict__, "kappa": 0.0})
    Ls = SPEC.center
    sc = small_ccdf(Ls, REACH, LEVELS, FieldSamples(SPEC, p0, LAYOUT, 5000, 0))
    assert sc.empty and sc.mass == 0.0 and sc.values.max() == 0.0


def test_curve_pmf_sums_to_one_and_mean():
    mc, sc, _ = curves_at(SPEC.center, n=30_000)
    rates, masses = curve_pmf(mc)
    assert masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert mc.mean_throughput() == pytest.approx(float(np.dot(rates, masses)))


def synthetic_two_point_curve(lo=10.0, hi=90.0):
    levels = default_levels(98.0)
    values = np.where(levels <= lo, 1.0, np.where(levels <= hi, 0.5, 0.0))
    return CcdfCurve(levels, values, np.zeros_like(levels), Cell.MACRO, 0.6, 1000)


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
        assert float(np.dot(np.full(k, 1.0 / k), prof.eta_macro[:, 1])) == pytest.approx(
            mc.mean_throughput(), abs=grid_step)


def test_extract_classes_phase_ordering_random_scenarios():
    rng = np.random.default_rng(17)
    for _ in range(5):
        Ls = PolarPoint(float(rng.uniform(-0.4, 0.4)), float(rng.uniform(-0.4, 0.4)))
        samples = FieldSamples(SPEC, PARAMS, LAYOUT, 20_000, int(rng.integers(1e6)))
        m1 = macro_ccdf(Ls, REACH, LEVELS, samples)
        m0 = macro_ccdf(Ls, REACH, LEVELS, samples, include_small_interference=False)
        s1 = small_ccdf(Ls, REACH, LEVELS, samples)
        s0 = small_ccdf(Ls, REACH, LEVELS, samples, include_central_macro=False)
        prof = extract_classes(m1, s1, m0, s0, K=4, L=4, lambda_tot=1.0)
        assert np.all(prof.eta_macro[:, 0] >= prof.eta_macro[:, 1] - 1e-12)
        assert np.all(prof.eta_small[:, 0] >= prof.eta_small[:, 1] - 1e-12)


def test_extract_classes_phase_order_is_exact():
    """Where the idle and interfered curves agree over a class's span, their
    class means can differ by rounding; the idle rate still is >= the
    interfered rate, exactly."""
    Ls = PolarPoint.from_polar(0.5, 3.0)
    samples = FieldSamples(SPEC, PARAMS, LAYOUT, 2_000, 0)
    m1, m0, s1, s0 = snapshot_curves(Ls, 0.0, LEVELS, samples)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)    # single-rate curves
        prof = extract_classes(m1, s1, m0, s0, K=5, L=5, lambda_tot=1.0)
    assert np.all(prof.eta_macro[:, 0] >= prof.eta_macro[:, 1])
    assert np.all(prof.eta_small[:, 0] >= prof.eta_small[:, 1])


def test_degenerate_curve_warns_single_rate():
    levels = default_levels(98.0)
    values = np.where(levels <= 50.0, 1.0, 0.0)  # all mass at one atom
    curve = CcdfCurve(levels, values, np.zeros_like(levels), Cell.MACRO, 1.0, 100)
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
    _write(tmp_path, "# config=x seed=1", {"ccdf.csv": _curves_file([(0.0, mc), (0.0, sc)])})
    lines = (tmp_path / "ccdf.csv").read_text().strip().splitlines()
    assert lines[0] == "# config=x seed=1"
    assert lines[1] == "t_s,cell,level_mbps,ccdf,stderr"
    assert len(lines) == 2 + 2 * len(LEVELS)
    assert lines[2].split(",")[1] == "macro"


@settings(max_examples=25, deadline=None)
@given(r_h=st.floats(0.0, 0.5), theta_h=st.floats(0.0, 2.0 * math.pi),
       sigma=st.floats(0.02, 0.2), ls_r=st.floats(0.0, 0.6),
       ls_theta=st.floats(0.0, 2.0 * math.pi), reach=st.floats(0.0, 0.3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_scalar_sinr_api_matches_counted_curve_samples(r_h, theta_h, sigma, ls_r,
                                                       ls_theta, reach, seed):
    """The scalar association and SINRs agree, user by user, with the power
    ratio the CCDF curves are counted from, for random hotspot geometry and
    small-cell position; and each curve counts exactly those inverse SINRs."""
    spec = HotspotSpec(R_h=r_h, theta_h=theta_h, A=sigma)
    Ls = PolarPoint.from_polar(ls_r, ls_theta)
    samples = FieldSamples(spec, PARAMS, LAYOUT, 500, seed)
    rim, macro_assoc, delta = (a.copy() for a in samples.at(Ls, reach))
    draws = samples.users(rim)
    users = [PolarPoint(float(x), float(y)) for x, y in samples.xy[draws]]
    assert macro_assoc.tolist() == [macro_associated(m, Ls, PARAMS) for m in users]
    macro_users = [m for m, a in zip(users, macro_assoc) if a]
    small_users = [m for m, a in zip(users, macro_assoc) if not a]
    g, m, s = samples.g[draws], macro_assoc, ~macro_assoc
    below = LEVELS <= PARAMS.eta0
    for flag in (True, False):
        cases = (
            (macro_ccdf, {"include_small_interference": flag},
             g[m] + delta[m] if flag else g[m],
             [1.0 / sinr_macro(u, Ls, PARAMS, LAYOUT, include_small_interference=flag)
              for u in macro_users]),
            (small_ccdf, {"include_central_macro": flag},
             (g[s] + 1.0) / delta[s] if flag else g[s] / delta[s],
             [1.0 / sinr_small(u, Ls, PARAMS, LAYOUT, include_central_macro=flag)
              for u in small_users]))
        for curve_fn, kw, counted, scalar in cases:
            np.testing.assert_allclose(counted, scalar, rtol=1e-12, atol=0.0)
            curve = curve_fn(Ls, reach, LEVELS, samples, **kw)
            if len(counted):
                want = np.zeros(len(LEVELS))
                want[below] = [np.count_nonzero(counted <= x) / len(counted)
                               for x in psi(LEVELS[below], PARAMS)]
                assert np.array_equal(curve.values, want)


@settings(max_examples=25, deadline=None)
@given(ls_r=st.floats(0.0, 0.6), ls_theta=st.floats(0.0, 2.0 * math.pi),
       reach=st.sampled_from([0.0, 0.1]), seed=st.integers(0, 2 ** 32 - 1))
def test_snapshot_curves_match_one_curve_calls(ls_r, ls_theta, reach, seed):
    """The one-snapshot kernel gives, bit for bit, the curves of the four
    one-curve calls, for random small-cell positions; every curve is
    non-increasing in level and lies in [0, 1]."""
    Ls = PolarPoint.from_polar(ls_r, ls_theta)
    samples = FieldSamples(SPEC, PARAMS, LAYOUT, 2_000, seed)
    got = snapshot_curves(Ls, reach, LEVELS, samples)
    args = (Ls, reach, LEVELS, samples)
    want = (macro_ccdf(*args),
            macro_ccdf(*args, include_small_interference=False),
            small_ccdf(*args),
            small_ccdf(*args, include_central_macro=False))
    for g, w in zip(got, want):
        assert (g.cell, g.mass, g.n_samples, g.empty) == \
            (w.cell, w.mass, w.n_samples, w.empty)
        assert np.array_equal(g.values, w.values)
        assert np.array_equal(g.stderr, w.stderr)
        assert_curve_structure(g)


def brute_force_field(Ls, n, seed):
    """Every draw's radio quantities on the exact path, in draw order:
    (xy, r, d, small_rx, macro association, g, r_pow); g is inf outside the
    domain."""
    xy = sample_xy(SPEC, n, seed)
    r = np.hypot(xy[:, 0], xy[:, 1])
    d = np.hypot(xy[:, 0] - Ls.x, xy[:, 1] - Ls.y)
    domain = r < ccdf_module._DOMAIN_FRAC * LAYOUT.delta
    b2 = 2.0 * PARAMS.b_macro
    with np.errstate(divide="ignore"):
        small_rx = PARAMS.kappa * d ** (-2.0 * PARAMS.b_small)
        r_neg_pow = r ** (-b2)
    g = np.full(n, np.inf)
    g[domain] = _g_formula(r[domain], PARAMS, LAYOUT)
    return xy, r, d, small_rx, macro_association(small_rx, r_neg_pow), g, r ** b2


def brute_force_curves(Ls, reach, n, seed):
    """The four curves of a snapshot, (m1, m0, s1, s0), as (values, stderr,
    mass, n_samples), from every draw: S* is ``in_region_xy`` within the
    domain, plus a draw on the small cell itself (the disk of reach 0)."""
    xy, r, d, small_rx, assoc, g, r_pow = brute_force_field(Ls, n, seed)
    inside = (in_region_xy(xy, Region(LAYOUT.R, Ls, reach)) | (d == 0.0)) & np.isfinite(g)
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


def assert_brute_force_curves(got, Ls, reach, n, seed):
    want = brute_force_curves(Ls, reach, n, seed)
    for g, (values, stderr, mass, n_samples) in zip(got, want):
        assert np.array_equal(g.values, values)
        assert np.array_equal(g.stderr, stderr)
        assert (g.mass, g.n_samples, g.empty) == (mass, n_samples, n_samples == 0)
    return want


@settings(max_examples=24, deadline=None)
@given(ls_r=st.floats(0.0, 0.9), ls_theta=st.floats(0.0, 2.0 * math.pi),
       reach=st.sampled_from([0.0, 0.1, 0.3]), seed=st.integers(0, 2 ** 32 - 1),
       on_draw=st.sampled_from([None, "core", "rim"]))
@example(ls_r=0.0, ls_theta=0.0, reach=0.0, seed=5, on_draw="rim")
@example(ls_r=0.0, ls_theta=0.0, reach=0.1, seed=5, on_draw="core")
def test_snapshot_curves_match_brute_force_over_all_draws(ls_r, ls_theta, reach, seed,
                                                          on_draw):
    """The compact kernel, which evaluates only the draws that can be in S*,
    gives bit for bit the curves of an evaluation over every draw: for random
    small-cell positions and reaches, for a small cell of reach 0 placed
    exactly on a draw outside the macro disk, and for one placed exactly on a
    draw inside it.  A small cell on a draw (an infinite power ratio) sends
    the snapshot to the exact path; no other snapshot goes there."""
    n = 2_000
    Ls = PolarPoint.from_polar(ls_r, ls_theta)
    if on_draw is not None:
        xy = sample_xy(SPEC, n, seed)
        r = np.hypot(xy[:, 0], xy[:, 1])
        if on_draw == "rim":
            pick = np.flatnonzero((r > LAYOUT.R)
                                  & (r < ccdf_module._DOMAIN_FRAC * LAYOUT.delta))
            reach = 0.0
        else:
            pick = np.flatnonzero(r <= LAYOUT.R)
        Ls = PolarPoint(*map(float, xy[pick[seed % len(pick)]]))
    samples = FieldSamples(SPEC, PARAMS, LAYOUT, n, seed)
    got = snapshot_curves(Ls, reach, LEVELS, samples)
    want = assert_brute_force_curves(got, Ls, reach, n, seed)
    if on_draw is not None:
        assert want[2][3] >= 1                 # the draw on the small cell is its user
    assert samples.fallbacks == (on_draw is not None)


def position_on_edge(n, seed, target, straddles):
    """A small-cell position of reach 0 at which some core draw ``i`` has
    power ratio ``target(i)`` to rounding and ``straddles(i, j, delta,
    field)`` holds, with ``delta`` the ratio ``FieldSamples.at`` gives the
    draw (user ``j``) and ``field`` the exact one of ``brute_force_field``;
    searched over draws and directions."""
    samples = FieldSamples(SPEC, PARAMS, LAYOUT, n, seed)
    xy, r = brute_force_field(SPEC.center, n, seed)[:2]
    for j, i in enumerate(np.flatnonzero(r <= LAYOUT.R)):
        ratio = target(i)
        if not 0.0 < ratio < math.inf:
            continue
        # the distance at which kappa d^-2b_small r^2b_macro is the ratio
        d = (PARAMS.kappa * r[i] ** (2.0 * PARAMS.b_macro) / ratio) \
            ** (0.5 / PARAMS.b_small)
        for phi in np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False):
            Ls = PolarPoint(float(xy[i, 0] + d * math.cos(phi)),
                            float(xy[i, 1] + d * math.sin(phi)))
            delta = samples.at(Ls, 0.0)[2][j]
            if straddles(i, j, delta, brute_force_field(Ls, n, seed)):
                return samples, Ls
    raise AssertionError("no straddling position found")


def test_a_draw_on_the_association_tie_takes_the_exact_path():
    """A small cell placed so that one draw sits on the association tie, its
    fast power ratio and the exact comparison small_rx <= r_neg_pow on
    opposite sides of it: the snapshot goes to the exact path and its curves
    are the brute-force ones bit for bit."""
    n, seed = 2_000, 3
    samples, Ls = position_on_edge(
        n, seed, lambda i: 1.0,
        lambda i, j, delta, field: bool(delta <= 1.0) != bool(field[4][i]))
    got = snapshot_curves(Ls, 0.0, LEVELS, samples)
    assert_brute_force_curves(got, Ls, 0.0, n, seed)
    assert samples.fallbacks == 1


def test_a_draw_on_a_threshold_takes_the_exact_path():
    """A small cell placed so that one macro user's inverse SINR, small cell
    on, equals a counting threshold, its fast value g + delta and its exact
    value on opposite sides of it: the snapshot goes to the exact path and
    its curves are the brute-force ones bit for bit."""
    n, seed = 2_000, 4
    g = brute_force_field(SPEC.center, n, seed)[5]
    thresholds = psi(LEVELS[LEVELS <= PARAMS.eta0], PARAMS)

    def threshold(i):
        # the threshold that puts the draw's power ratio nearest 1/2
        return thresholds[np.argmin(np.abs(thresholds - g[i] - 0.5))]

    def straddles(i, j, delta, field):
        *_, small_rx, assoc, g_exact, r_pow = field
        exact = macro_inverse_sinr(g_exact[i], r_pow[i], small_rx[i])
        th = threshold(i)
        return bool(assoc[i]) and bool(g[i] + delta <= th) != bool(exact <= th)

    samples, Ls = position_on_edge(n, seed, lambda i: threshold(i) - g[i], straddles)
    got = snapshot_curves(Ls, 0.0, LEVELS, samples)
    assert_brute_force_curves(got, Ls, 0.0, n, seed)
    assert samples.fallbacks == 1


@settings(max_examples=25, deadline=None)
@given(r_h=st.floats(0.0, 0.5), theta_h=st.floats(0.0, 2.0 * math.pi),
       sigma=st.floats(0.01, 0.2), off_r=st.floats(0.0, 0.6),
       off_theta=st.floats(0.0, 2.0 * math.pi), reach=st.floats(0.0, 0.3),
       seed=st.integers(0, 2 ** 32 - 1))
@example(r_h=0.3, theta_h=1.0, sigma=0.01, off_r=0.0, off_theta=0.0, reach=0.0, seed=1)
def test_guarded_kernel_equals_the_exact_path(r_h, theta_h, sigma, off_r, off_theta,
                                              reach, seed):
    """Counting from the fast power ratio gives bit for bit the curves of
    the exact path, with no fallback, for random hotspots and small cells
    from on the hotspot (most users small-cell users) to far off it."""
    spec = HotspotSpec(R_h=r_h, theta_h=theta_h, A=sigma)
    off = PolarPoint.from_polar(off_r, off_theta)
    Ls = PolarPoint(spec.center.x + off.x, spec.center.y + off.y)
    samples = FieldSamples(spec, PARAMS, LAYOUT, 2_000, seed)
    got = snapshot_curves(Ls, reach, LEVELS, samples)
    assert samples.fallbacks == 0
    rim = samples.at(Ls, reach)[0]
    want = ccdf_module._exact_curves(Ls, LEVELS, samples, rim)
    for g, w in zip(got, want):
        assert (g.cell, g.mass, g.n_samples, g.empty) == \
            (w.cell, w.mass, w.n_samples, w.empty)
        assert (type(g.mass), type(g.n_samples)) == (float, int)   # as pickled
        assert np.array_equal(g.values, w.values)
        assert np.array_equal(g.stderr, w.stderr)


def assert_same_curves(got, want):
    for g, w in zip(got, want, strict=True):
        assert (g.cell, g.mass, g.n_samples, g.empty) == \
            (w.cell, w.mass, w.n_samples, w.empty)
        assert np.array_equal(g.values, w.values)
        assert np.array_equal(g.stderr, w.stderr)


SWEEP_PLACES = ("hotspot", "far", "core draw", "rim draw", "random")


@settings(max_examples=30, deadline=None)
@given(places=st.lists(st.tuples(st.sampled_from(SWEEP_PLACES),
                                 st.sampled_from([0.0, 0.1, 0.3]),
                                 st.floats(0.0, 0.9), st.floats(0.0, 2.0 * math.pi),
                                 st.integers(0, 2 ** 16)), min_size=1, max_size=5),
       block=st.sampled_from([1, 7, 64, 5_000]), seed=st.integers(0, 2 ** 32 - 1))
@example(places=[("rim draw", 0.0, 0.0, 0.0, 3), ("rim draw", 0.1, 0.0, 0.0, 8),
                 ("core draw", 0.0, 0.0, 0.0, 5), ("far", 0.3, 0.0, 0.0, 0)],
         block=7, seed=2)
def test_sweep_counts_every_position_as_its_one_position_call(places, block, seed):
    """One sweep over several snapshots gives each, bit for bit, the curves
    of its one-position call and of the exact path, whatever the block size
    (1 draw, 7, 64, or one block of every core draw), for repeated
    positions, a small cell on the hotspot, far off it, at random, and
    exactly on a core draw or a rim draw, with and without a small-cell
    reach; and the snapshots it gives to the exact path are exactly those
    its one-position calls give there, every small cell on a draw among
    them."""
    n = 1_000
    samples = FieldSamples(SPEC, PARAMS, LAYOUT, n, seed)
    c, m = samples.n_core, len(samples.g)
    assume(m > c)
    far = PolarPoint.from_polar(0.5, SPEC.theta_h + math.pi)
    spots, on_draw = [], []
    for place, reach, ls_r, ls_theta, pick in places:
        Ls = {"hotspot": SPEC.center, "far": far,
              "core draw": PolarPoint(*map(float, samples.xy[pick % c])),
              "rim draw": PolarPoint(*map(float, samples.xy[c + pick % (m - c)])),
              "random": PolarPoint.from_polar(ls_r, ls_theta)}[place]
        spots.append((Ls, reach))
        on_draw.append(place.endswith("draw"))
    spots.append(spots[0])                            # a repeated position
    on_draw.append(on_draw[0])
    one, flagged = [], []
    for Ls, reach in spots:
        before = samples.fallbacks
        one.append(snapshot_curves(Ls, reach, LEVELS, samples))
        flagged.append(samples.fallbacks - before)
    assert all(flagged[i] == 1 for i, drawn in enumerate(on_draw) if drawn)
    before = samples.fallbacks
    for reach in sorted({reach for _, reach in spots}):     # one sweep per reach
        series = [i for i, spot in enumerate(spots) if spot[1] == reach]
        with mock.patch.object(ccdf_module, "_BLOCK", block):
            swept = ccdf_module.snapshot_sweep([spots[i][0] for i in series], reach,
                                               LEVELS, samples)
        for i, got in zip(series, swept, strict=True):
            Ls = spots[i][0]
            assert_same_curves(got, one[i])
            rim = samples.rim(Ls, reach)
            assert_same_curves(got, ccdf_module._exact_curves(Ls, LEVELS, samples, rim))
    assert samples.fallbacks - before == sum(flagged)


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
    m1, m0, s1, s0 = snapshot_curves(Ls, reach, LEVELS, samples)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)    # single-rate curves
        prof = extract_classes(m1, s1, m0, s0, K=k, L=l, lambda_tot=1.0)
    for eta, p, idle, busy in ((prof.eta_macro, np.full(k, 1.0 / k), m0, m1),
                               (prof.eta_small, np.full(l, 1.0 / l), s0, s1)):
        for col, curve in ((0, idle), (1, busy)):
            if not curve.empty:
                rates, masses = curve_pmf(curve)
                assert float(np.dot(p, eta[:, col])) == pytest.approx(
                    float(np.dot(rates, masses)), rel=1e-12)
        assert np.all(eta[:, 0] >= eta[:, 1] - 1e-12)
