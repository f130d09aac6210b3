import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mobicell.config import bundled_scenario_path, load_scenario
from mobicell.geometry import PolarPoint
from mobicell.hotspot import HotspotSpec
from mobicell.mobility import (_ON_STREET_TOL, Heading, InvalidRouteError, ManhattanGrid,
                               MobilityPolicy, TrajectoryState,
                               distance_to_hotspot, generate_trajectory,
                               route_cruise_policy, step)
from mobicell.pipeline import _trajectory_file, _write

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
                         initial_speed=20.0, cruise_kmh=20.0)
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
                         cruise_kmh=3.0)
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


@pytest.mark.parametrize("dt", [1.0, 10.0])
@pytest.mark.parametrize("stops", [(), (((0.25, 0.5), 60.0), ((0.0, 0.5), 30.0))],
                         ids=["no-stops", "two-stops"])
def test_the_lap_shortcut_gives_the_step_by_step_walk(stops, dt):
    """At dv = 0 a cruising bus takes the lap shortcut once its starting
    state recurs, and the same bus without a cruise speed draws nothing and
    takes no shortcut: it walks every step.  Over 3.5 laps the two agree to
    1e-12 Km in position, exactly in speed, and in heading but within
    ``_ON_STREET_TOL`` of a waypoint, where a state a rounding short of or
    past the corner takes the heading of whichever segment it lies on."""
    policy, grid, lap = reference_route()
    bus = replace(policy, dv=0.0, stops=stops)
    shortcut, walk = (generate_trajectory(p, grid, T=3.5 * lap, dt=dt, seed=0)
                      for p in (bus, replace(bus, cruise_kmh=None)))
    assert any(s is shortcut.states[0] for s in shortcut.states[1:])   # lap 1 repeated
    assert len(shortcut.states) == len(walk.states)
    for a, b in zip(shortcut.states, walk.states):
        assert abs(a.position.x - b.position.x) <= 1e-12
        assert abs(a.position.y - b.position.y) <= 1e-12
        assert a.velocity == b.velocity
        at_waypoint = any(max(abs(b.position.x - x), abs(b.position.y - y)) <= _ON_STREET_TOL
                          for x, y in policy.route)
        assert a.heading == b.heading or at_waypoint


@pytest.mark.parametrize("change", [dict(cruise_kmh=None),
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
                         cruise_kmh=3.0)
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
                         cruise_kmh=6.0, stops=stops)
    traj = generate_trajectory(pol, GRID, T=1200.0, dt=2.0, seed=0)
    xy = traj.positions_xy()
    at_stop = np.flatnonzero((np.abs(xy[:, 0] - 0.25) < 1e-9) & (np.abs(xy[:, 1] - 0.5) < 1e-9))
    visits = np.split(at_stop, np.flatnonzero(np.diff(at_stop) > 1) + 1)
    assert len(visits) == 2
    speeds = traj.speeds()
    for visit in visits:
        # dwell of 60 s at dt=2 leaves ~30 consecutive samples frozen at the stop
        assert len(visit) >= 28
        assert speeds[visit][1:-1].max() == 0.0


def rest_runs(speeds):
    """The maximal runs of consecutive steps at speed 0, as index arrays."""
    at_rest = np.flatnonzero(speeds == 0.0)
    return np.split(at_rest, np.flatnonzero(np.diff(at_rest) > 1) + 1) if len(at_rest) else []


def test_a_cruising_bus_regains_its_cruise_speed_after_each_dwell():
    """The reference bus (3 Km/h, dv 3.6 Km/h) with two stops: each stop
    holds it at rest for the step it arrives on and its dwell, and one step
    later it is back at exactly 3 Km/h."""
    policy, grid, lap = reference_route()
    stops = (((0.25, 0.5), 60.0), ((0.0, 0.5), 30.0))
    traj = generate_trajectory(replace(policy, stops=stops), grid, T=2.0 * lap, dt=1.0,
                               seed=0)
    speeds = traj.speeds()
    assert set(speeds.tolist()) == {0.0, 3.0}
    runs = rest_runs(speeds)
    assert len(runs) == 4
    assert [len(run) for run in runs] == [61, 31, 61, 31]
    assert all(speeds[run[-1] + 1] == 3.0 for run in runs)


@pytest.mark.parametrize("stop, dv, rests, first", [
    ((0.25, 0.5, 7.0), 3.6, [8, 8], 300),
    ((0.25, 0.5, 7.0), 0.0, [8, 8], 300),
    ((0.25, 0.5, 0.0), 3.6, [1, 1], 300),
    ((0.25, 0.25, 7.0), 3.6, [8], 1800)],
    ids=["mid-route", "no-acceleration", "no-dwell", "first-waypoint"])
def test_a_route_with_one_stop_leaves_it(stop, dv, rests, first):
    """The reference bus with one stop rests there once a lap, for the step
    it arrives on and its dwell, and drives on: a stop it has just served
    lies a full lap ahead, so a stop on the first waypoint is first served on
    arrival one lap later."""
    policy, grid, lap = reference_route()
    x, y, dwell = stop
    traj = generate_trajectory(replace(policy, dv=dv, stops=(((x, y), dwell),)), grid,
                               T=2.0 * lap, dt=1.0, seed=0)
    runs = rest_runs(traj.speeds())
    assert [len(run) for run in runs] == rests
    assert runs[0][0] == first
    for run in runs:
        assert all((s.position.x, s.position.y) == (x, y) for s in traj.states[run[0]:run[-1] + 2])
        assert traj.states[run[-1] + 1].velocity == 3.0


def test_a_stop_the_route_passes_twice_is_served_on_the_first_pass():
    """On an out-and-back route a stop halfway lies on both passes; it
    belongs to the first segment that passes it, so the bus rests there
    heading out, once a lap, and drives through it on the way back.  A
    second stop at that place is the same place on the route."""
    policy, grid, _ = reference_route()
    route, stop = ((0.0, 0.0), (0.5, 0.0)), ((0.25, 0.0), 10.0)
    bus = route_cruise_policy(route, 240.0, v_max=policy.v_max, dv=policy.dv,
                              turn_probs=policy.turn_probs, stops=(stop,))
    traj = generate_trajectory(bus, grid, T=480.0, dt=1.0, seed=0)
    runs = rest_runs(traj.speeds())
    assert [(run[0], run[-1]) for run in runs] == [(61, 71), (316, 326)]
    for run in runs:
        assert {traj.states[i].heading for i in run} == {Heading.PX}
    with pytest.raises(InvalidRouteError, match="two stops share one place"):
        generate_trajectory(replace(bus, stops=(stop, ((0.25, 0.0), 5.0))), grid,
                            T=480.0, dt=1.0, seed=0)


def route_point(route, arc):
    """The point at arc length ``arc`` (less than one lap) along the cyclic
    axis-aligned ``route``."""
    for (ax, ay), (bx, by) in zip(route, route[1:] + route[:1]):
        length = abs(bx - ax) + abs(by - ay)
        if arc <= length:
            return (ax + math.copysign(arc, bx - ax) if bx != ax else ax,
                    ay + math.copysign(arc, by - ay) if by != ay else ay)
        arc -= length
    raise AssertionError("arc past the lap")


def route_distance(xy, route):
    """Distance of each point of ``xy`` to the cyclic axis-aligned ``route``."""
    best = np.full(len(xy), np.inf)
    for (ax, ay), (bx, by) in zip(route, route[1:] + route[:1]):
        cx = np.clip(xy[:, 0], min(ax, bx), max(ax, bx))
        cy = np.clip(xy[:, 1], min(ay, by), max(ay, by))
        best = np.minimum(best, np.hypot(xy[:, 0] - cx, xy[:, 1] - cy))
    return best


@st.composite
def buses(draw):
    """A bus on a cyclic grid route (out and back, a rectangle or an L, in
    either direction and from any corner), with a cruise speed, dv (0
    included), a step dt and zero to three stops at distinct half-block
    places along it, each with a dwell; and the grid, each stop's arc
    position in half blocks and the route's length."""
    block = draw(st.sampled_from([0.1, 0.25]))
    i, j = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    w, h, a, b = (draw(st.integers(1, 2)) for _ in range(4))
    corners = draw(st.sampled_from([
        [(i, j), (i + w, j)],
        [(i, j), (i + w, j), (i + w, j + h), (i, j + h)],
        [(i, j), (i + w + a, j), (i + w + a, j + h), (i + w, j + h), (i + w, j + h + b),
         (i, j + h + b)]]))
    if draw(st.booleans()):
        corners = corners[::-1]
    if draw(st.booleans()):
        corners = [(y, x) for x, y in corners]
    k = draw(st.integers(0, len(corners) - 1))
    route = tuple((x * block, y * block) for x, y in corners[k:] + corners[:k])
    halves = round(sum(abs(p[0] - q[0]) + abs(p[1] - q[1])
                       for p, q in zip(corners, corners[1:] + corners[:1])) * 2)
    # a place an out-and-back route passes twice lies at its first pass
    first = {}
    for p in range(halves):
        point = route_point(route, p * block / 2)
        first.setdefault(tuple(round(c, 9) for c in point), (p, point))
    chosen = sorted(draw(st.lists(st.sampled_from(sorted(first.values())), max_size=3,
                                  unique=True)))
    places, points = [p for p, _ in chosen], [point for _, point in chosen]
    dt = draw(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.25, 3.0))
    stops = tuple((point, draw(st.sampled_from([0.0, 7.0, 2.5 * dt]) | st.floats(0.0, 40.0)))
                  for point in points)
    cruise = draw(st.floats(2.0, 40.0))
    dv = draw(st.sampled_from([0.0]) | st.floats(0.1, 50.0))
    v_max = cruise * draw(st.floats(1.0, 2.0))
    return (MobilityPolicy(v_max=v_max, dv=dv, cruise_kmh=cruise, route=route, stops=stops,
                           initial_speed=cruise), ManhattanGrid(block, 2.0), places,
            halves * block / 2, dt)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(bus=buses())
def test_route_kinematics_with_stops(bus):
    """On random grid routes with stops: every state lies on the route; the
    bus rests only on stops, serving them in route order from the first one
    ahead of the start, each for ceil(dwell / dt) + 1 states; it then leaves
    the stop and regains its cruise speed within ceil(cruise / dv) steps (at
    once when dv is 0) unless it brakes for the next stop first; and it never
    exceeds v_max."""
    policy, grid, places, total, dt = bus
    lap = 3600.0 * total / policy.cruise_kmh + sum(d for _, d in policy.stops) + 10 * dt
    traj = generate_trajectory(policy, grid, T=min(2.0 * lap, 3000 * dt), dt=dt, seed=0)
    xy, speeds = traj.positions_xy(), traj.speeds()
    assert route_distance(xy, policy.route).max() <= 1e-9
    assert 0.0 <= speeds.min() and speeds.max() <= policy.v_max
    stops = [np.array(p) for p, _ in policy.stops]
    # the stops (in arc order) in the order served: a stop on the start comes last
    order = list(range(len(places)))
    if places and places[0] == 0:
        order = order[1:] + order[:1]
    cruise, dv = policy.cruise_kmh, policy.dv
    regain = math.ceil(cruise / dv) if dv > 0 else 1
    runs = rest_runs(speeds)
    for m, run in enumerate(runs):
        at = [n for n, p in enumerate(stops) if np.abs(xy[run] - p).max() <= 1e-9]
        assert len(at) == 1, "a rest off a stop"
        assert at[0] == order[m % len(order)]
        end = run[-1]
        if end + regain + 2 >= len(speeds):
            break                                       # cut by the horizon
        assert len(run) == math.ceil(policy.stops[at[0]][1] / dt) + 1
        assert np.abs(xy[end + 1] - stops[at[0]]).max() <= 1e-9 < speeds[end + 1]
        assert np.abs(xy[end + 2] - stops[at[0]]).max() > 1e-9
        after = speeds[end + 1:end + 2 + regain]
        braked = np.flatnonzero(np.diff(after) < 0)
        reached = np.flatnonzero(after[:regain] == cruise)
        assert len(reached) or len(braked), after


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
    with pytest.raises(InvalidRouteError, match="two stops"):
        generate_trajectory(
            MobilityPolicy(v_max=5.0, route=RECT, stops=(((0.25, 0.5), 10.0), ((0.25, 0.5), 5.0))),
            GRID, 10.0, 1.0, 0)  # two stops at one place


def test_distance_to_hotspot_series():
    spec = HotspotSpec(R_h=0.5, theta_h=math.pi / 3, A=0.08)
    pol = MobilityPolicy(v_max=3.0, dv=0.0, route=RECT, initial_speed=3.0,
                         cruise_kmh=3.0)
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
                         cruise_kmh=3.0)
    traj = generate_trajectory(pol, GRID, T=60.0, dt=10.0, seed=0)
    _write(tmp_path, "# config=abc seed=0", {"traj.csv": _trajectory_file(traj)})
    lines = (tmp_path / "traj.csv").read_text().strip().splitlines()
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
