import math
from dataclasses import replace

import numpy as np
import pytest

from mobicell.config import bundled_scenario_path, load_scenario
from mobicell.geometry import PolarPoint
from mobicell.hotspot import HotspotSpec
from mobicell.mobility import (Heading, InvalidRouteError, ManhattanGrid,
                               MobilityPolicy, TrajectoryState, cruise_beta,
                               distance_to_hotspot, generate_trajectory, step)

GRID = ManhattanGrid(block=0.25, extent=2.0)
RECT = ((0.25, 0.25), (0.25, 0.75), (0.0, 0.75), (0.0, 0.25))


def make_state(x=0.0, y=0.0, v=0.0, h=Heading.PX):
    return TrajectoryState(PolarPoint(x, y), v, h)


def test_step_speed_clamped_at_vmax():
    pol = MobilityPolicy(v_max=50.0, dv=5.0)
    s = step(make_state(v=50.0), 1.0, 1.0, pol, GRID)
    assert s.velocity == 50.0


def test_step_constant_speed_advances_linearly():
    pol = MobilityPolicy(v_max=50.0, dv=5.0)
    s = step(make_state(v=36.0), 1.0, 0.0, pol, GRID)  # 36 Km/h = 10 m/s
    assert s.velocity == 36.0
    assert s.position.x == pytest.approx(0.010, abs=1e-12)
    assert s.position.y == 0.0


def test_step_speed_floored_at_zero():
    pol = MobilityPolicy(v_max=50.0, dv=5.0)
    s = step(make_state(v=0.0), 1.0, -1.0, pol, GRID)
    assert s.velocity == 0.0
    assert s.position.x == 0.0


def test_step_validation():
    pol = MobilityPolicy(v_max=50.0)
    with pytest.raises(ValueError):
        step(make_state(), 0.0, 0.0, pol, GRID)
    with pytest.raises(ValueError):
        step(make_state(), 1.0, 1.5, pol, GRID)


def test_step_splits_at_intersection_and_goes_straight_without_rng():
    pol = MobilityPolicy(v_max=100.0, dv=5.0)
    # 0.30 Km in one step crosses the street line at x = 0.25
    s = step(make_state(v=1080.0 * 1.0, h=Heading.PX), 1.0, 0.0,
             MobilityPolicy(v_max=2000.0, dv=0.0), GRID)
    assert s.position.y == 0.0
    assert s.position.x == pytest.approx(0.30, abs=1e-12)


def test_forced_straight_never_turns():
    pol = MobilityPolicy(v_max=20.0, dv=2.0, turn_probs=(0.0, 1.0, 0.0),
                         initial_speed=20.0, beta_law=cruise_beta(20.0))
    traj = generate_trajectory(pol, GRID, T=600.0, dt=1.0, seed=4)
    assert all(s.heading is Heading.PX for s in traj)
    assert all(s.position.y == 0.0 for s in traj)


def test_positions_stay_on_streets_random_walk():
    pol = MobilityPolicy(v_max=30.0, dv=3.0)
    traj = generate_trajectory(pol, GRID, T=1200.0, dt=1.0, seed=12)
    for s in traj:
        assert GRID.on_street(s.position.x, s.position.y)
        assert 0.0 <= s.velocity <= 30.0


def test_trajectory_deterministic_per_seed():
    pol = MobilityPolicy(v_max=30.0, dv=3.0)
    a = generate_trajectory(pol, GRID, T=300.0, dt=1.0, seed=5)
    b = generate_trajectory(pol, GRID, T=300.0, dt=1.0, seed=5)
    c = generate_trajectory(pol, GRID, T=300.0, dt=1.0, seed=6)
    assert np.array_equal(a.positions_xy(), b.positions_xy())
    assert not np.array_equal(a.positions_xy(), c.positions_xy())


def test_trajectory_length():
    pol = MobilityPolicy(v_max=10.0)
    traj = generate_trajectory(pol, GRID, T=100.0, dt=3.0, seed=1)
    assert len(traj) == math.ceil(100.0 / 3.0) + 1


def test_route_loop_is_periodic():
    """Rectangular loop of circumference 1.5 Km at 3 Km/h: period 1800 s."""
    pol = MobilityPolicy(v_max=3.0, dv=0.0, route=RECT, initial_speed=3.0,
                         beta_law=cruise_beta(3.0))
    traj = generate_trajectory(pol, GRID, T=3600.0, dt=10.0, seed=0)
    xy = traj.positions_xy()
    period_steps = 180  # 1800 s / 10 s
    assert np.allclose(xy[:period_steps], xy[period_steps:2 * period_steps], atol=1e-9)
    # and the unbiased autocorrelation of the x series peaks at the period
    x = xy[:, 0] - xy[:, 0].mean()
    ac = np.correlate(x, x, mode="full")[len(x) - 1:]
    ac = ac / (len(x) - np.arange(len(x)))  # unbias by overlap length
    lag = int(np.argmax(ac[90:270])) + 90
    assert abs(lag - period_steps) <= 1


def reference_route():
    """The reference scenario's bus policy, its grid and its lap in 1 s steps."""
    cfg = load_scenario(bundled_scenario_path())
    return cfg.policy, cfg.grid, round(cfg.period_s)


def test_route_cruise_repeats_its_lap_exactly():
    """A cruising bus back at the start in its starting state repeats lap 1
    state for state: same position, speed and heading to the bit."""
    policy, grid, lap = reference_route()
    traj = generate_trajectory(policy, grid, T=2.5 * lap, dt=1.0, seed=0)
    for first, later in zip(traj.states, traj.states[lap:]):
        assert (later.position.x, later.position.y, later.velocity, later.heading) == \
            (first.position.x, first.position.y, first.velocity, first.heading)


@pytest.mark.parametrize("change", [dict(beta_law=None),
                                    dict(dv=3.0, initial_speed=0.0)],
                         ids=["random-beta", "start-below-cruise"])
def test_route_lap_not_repeated_unless_the_state_recurs(change):
    """A beta law that draws, or a start below cruise speed, never brings the
    starting state back (from rest the bus is at the start again one step
    after a period, but at cruise speed), so no state repeats."""
    policy, grid, lap = reference_route()
    traj = generate_trajectory(replace(policy, **change), grid, T=2.0 * lap, dt=1.0,
                               seed=0)
    assert all(s != traj.states[0] for s in traj.states[1:])
    assert all(later != first for first, later in zip(traj.states, traj.states[lap:]))


def test_route_positions_on_route_and_speed_constant():
    pol = MobilityPolicy(v_max=3.0, dv=0.0, route=RECT, initial_speed=3.0,
                         beta_law=cruise_beta(3.0))
    traj = generate_trajectory(pol, GRID, T=1800.0, dt=5.0, seed=0)
    for s in traj:
        assert GRID.on_street(s.position.x, s.position.y)
        assert s.velocity == 3.0
    # equally spaced along the path: consecutive distances all v*dt
    xy = traj.positions_xy()
    d = np.hypot(*(np.diff(xy, axis=0).T))
    assert np.allclose(d, 3.0 * 5.0 / 3600.0, atol=1e-9)


def test_route_with_stop_dwells():
    stops = (((0.25, 0.5), 60.0),)
    pol = MobilityPolicy(v_max=6.0, dv=1.0, route=RECT, initial_speed=6.0,
                         beta_law=cruise_beta(6.0), stops=stops)
    traj = generate_trajectory(pol, GRID, T=1200.0, dt=2.0, seed=0)
    xy = traj.positions_xy()
    at_stop = (np.abs(xy[:, 0] - 0.25) < 1e-9) & (np.abs(xy[:, 1] - 0.5) < 1e-9)
    # dwell of 60 s at dt=2 leaves ~30 consecutive samples frozen at the stop
    assert at_stop.sum() >= 28
    speeds = traj.speeds()
    assert speeds[at_stop][1:-1].max() == 0.0


def test_invalid_routes_rejected():
    with pytest.raises(InvalidRouteError):
        generate_trajectory(MobilityPolicy(v_max=5.0, route=((0.1, 0.0), (0.25, 0.0))),
                            GRID, 10.0, 1.0, 0)  # off-street waypoint
    with pytest.raises(InvalidRouteError):
        generate_trajectory(MobilityPolicy(v_max=5.0, route=((0.0, 0.0), (0.25, 0.25))),
                            GRID, 10.0, 1.0, 0)  # diagonal segment
    with pytest.raises(InvalidRouteError):
        generate_trajectory(
            MobilityPolicy(v_max=5.0, route=RECT, stops=(((1.5, 1.5), 10.0),)),
            GRID, 10.0, 1.0, 0)  # stop off the route


def test_distance_to_hotspot_series():
    spec = HotspotSpec(R_h=0.5, theta_h=math.pi / 3, A=0.08)
    pol = MobilityPolicy(v_max=3.0, dv=0.0, route=RECT, initial_speed=3.0,
                         beta_law=cruise_beta(3.0))
    traj = generate_trajectory(pol, GRID, T=3600.0, dt=5.0, seed=0)
    d = distance_to_hotspot(traj, spec)
    # the route passes through the hotspot center (0.25, 0.433): closest
    # approach within one step length of zero
    assert d.min() <= 3.0 * 5.0 / 3600.0
    period = 360  # 1800 s / 5 s
    assert np.allclose(d[:period], d[period:2 * period], atol=1e-9)
    # geometric farthest point of the rectangle from the hotspot center
    c = spec.center
    far = max(math.hypot(x - c.x, y - c.y) for x, y in
              [(0.25, 0.25), (0.25, 0.75), (0.0, 0.75), (0.0, 0.25), (0.0, c.y)])
    assert d.max() <= far + 1e-9


def test_csv_export(tmp_path):
    pol = MobilityPolicy(v_max=3.0, dv=0.0, route=RECT, initial_speed=3.0,
                         beta_law=cruise_beta(3.0))
    traj = generate_trajectory(pol, GRID, T=60.0, dt=10.0, seed=0)
    out = tmp_path / "traj.csv"
    traj.to_csv(out, extra_header_lines=("# config=abc seed=0",))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "# config=abc seed=0"
    assert lines[1] == "t_s,x_km,y_km,speed_kmh,heading"
    assert len(lines) == 2 + len(traj)


def test_policy_validation():
    with pytest.raises(ValueError):
        MobilityPolicy(v_max=0.0)
    with pytest.raises(ValueError):
        MobilityPolicy(v_max=5.0, turn_probs=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        MobilityPolicy(v_max=5.0, stops=(((0, 0), -1.0),))
