import math

import numpy as np
import pytest

from conftest import interferer_positions
from mobicell.geometry import CellLayout, PolarPoint, disk_radius, distance


def test_disk_radius_closed_form():
    # pi R^2 == (sqrt(3)/2) delta^2, value cross-checked against the closed form
    assert disk_radius(1.0) == pytest.approx(0.52503756790433199, abs=1e-15)
    r = disk_radius(1.0)
    assert math.pi * r * r == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-12)


def test_disk_radius_scales_linearly():
    assert disk_radius(2.0) == pytest.approx(2.0 * disk_radius(1.0), rel=1e-15)


def test_disk_radius_rejects_nonpositive():
    with pytest.raises(ValueError):
        disk_radius(0.0)
    with pytest.raises(ValueError):
        disk_radius(-1.0)


def test_polar_roundtrip_identity():
    rng = np.random.default_rng(7)
    for _ in range(200):
        r = float(rng.uniform(0, 3))
        theta = float(rng.uniform(0, 2 * math.pi))
        p = PolarPoint.from_polar(r, theta)
        q = PolarPoint.from_polar(p.r, p.theta)
        assert math.hypot(p.x - q.x, p.y - q.y) < 1e-12
        assert 0.0 <= p.theta < 2 * math.pi
        assert p.r >= 0


def test_polar_rejects_negative_radius():
    with pytest.raises(ValueError):
        PolarPoint.from_polar(-0.1, 0.0)


def test_distance_basic_cases():
    a = PolarPoint.from_polar(1.0, 0.0)
    assert distance(a, a) == 0.0
    b = PolarPoint.from_polar(1.0, math.pi)
    assert distance(a, b) == pytest.approx(2.0, rel=1e-12)
    c = PolarPoint.from_polar(1.0, math.pi / 2)
    assert distance(a, c) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_distance_is_a_metric():
    rng = np.random.default_rng(11)
    pts = [PolarPoint(float(x), float(y)) for x, y in rng.uniform(-2, 2, (60, 2))]
    for i in range(0, 60, 3):
        a, b, c = pts[i], pts[i + 1], pts[i + 2]
        assert distance(a, b) == distance(b, a)
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-12
        assert distance(a, b) >= 0


@pytest.mark.parametrize("rings,count", [(1, 6), (2, 18), (3, 36), (5, 90)])
def test_interferer_counts(rings, count):
    layout = CellLayout(delta=1.0, rings_for_oracle=rings)
    sites = interferer_positions(layout)
    assert len(sites) == count == 3 * rings * (rings + 1)


def test_interferer_distances():
    layout = CellLayout(delta=1.0, rings_for_oracle=3)
    d = sorted(s.r for s in interferer_positions(layout))
    assert d[0] == pytest.approx(1.0, rel=1e-12)       # nearest ring at delta
    assert d[-1] == pytest.approx(3.0, rel=1e-12)      # ring-3 corner at 3 delta
    # ring 1: six sites all exactly at delta
    assert sum(abs(x - 1.0) < 1e-12 for x in d) == 6


def test_interferer_site_on_x_axis():
    layout = CellLayout(delta=2.0, rings_for_oracle=1)
    sites = interferer_positions(layout)
    assert any(abs(s.y) < 1e-12 and abs(s.x - 2.0) < 1e-12 for s in sites)


def test_layout_invariants():
    layout = CellLayout(delta=1.5)
    assert 0 < layout.R < layout.delta
    with pytest.raises(ValueError):
        CellLayout(delta=-1.0)
    with pytest.raises(ValueError):
        CellLayout(delta=1.0, rings_for_oracle=0)
