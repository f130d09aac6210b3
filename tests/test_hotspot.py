import math

import numpy as np
import pytest

from mobicell.geometry import PolarPoint
from mobicell.hotspot import CoverageRegion, HotspotSpec, sample_xy

from conftest import (DegenerateRegionError, density, in_region_xy, integrate_indicator,
                      sample)


@pytest.fixture
def spec():
    return HotspotSpec(R_h=0.5, theta_h=math.pi / 3, A=0.08)


def wide_region():
    # big enough to catch essentially all Gaussian mass
    return CoverageRegion(macro_radius=50.0, small_center=PolarPoint(0.0, 0.0),
                          small_reach=0.0)


def polar_grid_mass(f, spec, region, n_r=1000, n_th=2000, r_max=None):
    """Fixed polar-grid quadrature of the indicator mass, centered on the
    hotspot; independent of the Monte Carlo path."""
    c = spec.center
    r_max = r_max if r_max is not None else 8.0 * spec.A
    r = (np.arange(n_r) + 0.5) * (r_max / n_r)
    th = (np.arange(n_th) + 0.5) * (2.0 * math.pi / n_th)
    rr, tt = np.meshgrid(r, th, indexing="ij")
    x = c.x + rr * np.cos(tt)
    y = c.y + rr * np.sin(tt)
    pdf = np.exp(-rr ** 2 / (2.0 * spec.A ** 2)) / (2.0 * math.pi * spec.A ** 2)
    xy = np.column_stack([x.ravel(), y.ravel()])
    keep = in_region_xy(xy, region) & np.asarray(f(xy), dtype=bool)
    w = (pdf * rr).ravel() * (r_max / n_r) * (2.0 * math.pi / n_th)
    return float(np.sum(w[keep]))


def test_density_peak_and_symmetry(spec):
    assert density(spec.center, spec) == pytest.approx(1.0 / (2 * math.pi * spec.A ** 2), rel=1e-12)
    # rotational symmetry about the center
    for d in (0.01, 0.05, 0.1):
        vals = [density(PolarPoint(spec.center.x + d * math.cos(a),
                                   spec.center.y + d * math.sin(a)), spec)
                for a in np.linspace(0, 2 * math.pi, 7)]
        assert np.allclose(vals, vals[0], rtol=1e-12)
        assert vals[0] > 0


def test_density_mass_within_one_sigma(spec):
    # Rayleigh closed form: P(|m - c| <= A) = 1 - exp(-1/2); Monte Carlo check
    xy = sample_xy(spec, 1_000_000, 123)
    c = spec.center
    d = np.hypot(xy[:, 0] - c.x, xy[:, 1] - c.y)
    frac = float(np.mean(d <= spec.A))
    assert frac == pytest.approx(1.0 - math.exp(-0.5), abs=0.002)


def test_sample_moments(spec):
    xy = sample_xy(spec, 1_000_000, 42)
    c = spec.center
    n = len(xy)
    assert np.hypot(*(xy.mean(axis=0) - [c.x, c.y])) < 4.0 * spec.A / math.sqrt(n)
    cov = np.cov(xy.T)
    assert cov[0, 0] == pytest.approx(spec.A ** 2, rel=0.05)
    assert cov[1, 1] == pytest.approx(spec.A ** 2, rel=0.05)
    assert abs(cov[0, 1]) < 0.05 * spec.A ** 2


def test_sample_deterministic(spec):
    a = sample_xy(spec, 1000, 7)
    b = sample_xy(spec, 1000, 7)
    assert np.array_equal(a, b)
    pts = sample(spec, 10, 7)
    assert pts[0].x == a[0, 0] and pts[0].y == a[0, 1]


def test_sample_rejects_empty(spec):
    with pytest.raises(ValueError):
        sample_xy(spec, 0, 1)


def test_integrate_full_mass(spec):
    est = integrate_indicator(lambda xy: np.ones(len(xy), dtype=bool), spec,
                              wide_region(), 100_000, 3, vectorized=True)
    assert est.mass == pytest.approx(1.0, abs=1e-12)
    assert est.n_accepted == est.n_total


def test_association_partition_sums_to_region_mass(spec):
    """Complementary indicators on identical draws split the covered mass
    exactly."""
    region = CoverageRegion(macro_radius=0.525, small_center=spec.center, small_reach=0.1)
    f = lambda xy: xy[:, 0] > spec.center.x
    g = lambda xy: xy[:, 0] <= spec.center.x
    whole = integrate_indicator(lambda xy: np.ones(len(xy), bool), spec, region, 50_000, 9,
                                vectorized=True)
    part1 = integrate_indicator(f, spec, region, 50_000, 9, vectorized=True)
    part2 = integrate_indicator(g, spec, region, 50_000, 9, vectorized=True)
    assert part1.mass + part2.mass == pytest.approx(whole.mass, abs=1e-12)


def test_integrate_monotone_in_indicator(spec):
    region = wide_region()
    narrow = integrate_indicator(lambda xy: xy[:, 1] > spec.center.y + 0.05, spec, region,
                                 40_000, 11, vectorized=True)
    wide = integrate_indicator(lambda xy: xy[:, 1] > spec.center.y, spec, region,
                               40_000, 11, vectorized=True)
    assert narrow.mass <= wide.mass


def test_integrate_vs_quadrature_oracle(spec):
    """Monte Carlo mass against the polar-grid quadrature oracle on the
    asymmetric covered region."""
    region = CoverageRegion(macro_radius=0.525, small_center=spec.center, small_reach=0.15)
    f = lambda xy: xy[:, 1] > spec.center.y
    est = integrate_indicator(f, spec, region, 200_000, 17, vectorized=True)
    ref = polar_grid_mass(f, spec, region)
    assert est.mass == pytest.approx(ref, abs=3.5 * est.stderr)


def test_half_plane_through_center_is_half_the_mass(spec):
    """With a region symmetric about the cut, a half-plane through the
    hotspot center carries half of the covered mass."""
    region = wide_region()
    f = lambda xy: xy[:, 1] > spec.center.y
    ref = polar_grid_mass(f, spec, region)
    whole = polar_grid_mass(lambda xy: np.ones(len(xy), bool), spec, region)
    assert ref == pytest.approx(0.5 * whole, rel=1e-3)
    est = integrate_indicator(f, spec, region, 200_000, 17, vectorized=True)
    assert est.mass == pytest.approx(0.5, abs=3.5 * est.stderr)


def test_integrate_scalar_predicate_matches_vectorized(spec):
    region = wide_region()
    f_vec = lambda xy: xy[:, 0] > spec.center.x
    f_pt = lambda p: p.x > spec.center.x
    a = integrate_indicator(f_vec, spec, region, 5000, 23, vectorized=True)
    b = integrate_indicator(f_pt, spec, region, 5000, 23)
    assert a.mass == b.mass


def test_degenerate_region(spec):
    region = CoverageRegion(macro_radius=1e-6, small_center=PolarPoint(30.0, 30.0),
                            small_reach=1e-6)
    with pytest.raises(DegenerateRegionError):
        integrate_indicator(lambda xy: np.ones(len(xy), bool), spec, region, 1000, 1,
                            vectorized=True)


def test_spec_validation():
    with pytest.raises(ValueError):
        HotspotSpec(R_h=0.5, theta_h=0.0, A=0.0)
    with pytest.raises(ValueError):
        HotspotSpec(R_h=-0.5, theta_h=0.0, A=0.1)
    with pytest.raises(ValueError):
        CoverageRegion(macro_radius=0.5, small_center=PolarPoint(0, 0), small_reach=-0.1)
