"""Manhattan-grid kinematics of the vehicle-mounted small cell.

Speed follows the clamped recurrence v' = max(0, min(v_max, v + beta * dv))
with beta in [-1, 1]; position advances with the pre-update speed along the
current heading.  Motion is split exactly at intersections so positions stay
on the street graph to floating-point accuracy.  Negative speeds are floored
at zero: beta < 0 means braking, vehicles do not reverse.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from mobicell.geometry import PolarPoint
from mobicell.hotspot import HotspotSpec

_ON_STREET_TOL = 1e-9
KMH_TO_KM_PER_S = 1.0 / 3600.0


class InvalidRouteError(ValueError):
    pass


class Heading(Enum):
    PX = (1.0, 0.0)
    NX = (-1.0, 0.0)
    PY = (0.0, 1.0)
    NY = (0.0, -1.0)

    @property
    def vector(self) -> tuple[float, float]:
        return self.value

    @property
    def left(self) -> "Heading":
        return _LEFT_OF[self]

    @property
    def right(self) -> "Heading":
        return _RIGHT_OF[self]


_LEFT_OF = {Heading.PX: Heading.PY, Heading.PY: Heading.NX,
            Heading.NX: Heading.NY, Heading.NY: Heading.PX}
_RIGHT_OF = {v: k for k, v in _LEFT_OF.items()}


@dataclass(frozen=True)
class ManhattanGrid:
    """Axis-aligned street grid: lines x = i*block and y = j*block within
    +/- extent."""

    block: float
    extent: float

    def __post_init__(self):
        if self.block <= 0:
            raise ValueError(f"street spacing must be positive, got {self.block}")
        if self.extent < self.block:
            raise ValueError("grid extent must cover at least one block")

    def snap(self, value: float) -> float:
        """Snap a coordinate to the nearest street line if within tolerance."""
        k = round(value / self.block)
        line = k * self.block
        return line if abs(value - line) <= _ON_STREET_TOL else value

    def on_street(self, x: float, y: float) -> bool:
        return (abs(x - round(x / self.block) * self.block) <= _ON_STREET_TOL
                or abs(y - round(y / self.block) * self.block) <= _ON_STREET_TOL)

    def is_intersection(self, x: float, y: float) -> bool:
        return (abs(x - round(x / self.block) * self.block) <= _ON_STREET_TOL
                and abs(y - round(y / self.block) * self.block) <= _ON_STREET_TOL)


@dataclass(frozen=True)
class TrajectoryState:
    position: PolarPoint
    velocity: float          # Km/h, >= 0
    heading: Heading


@dataclass(frozen=True)
class MobilityPolicy:
    """Velocity law, turning behaviour and optional fixed route with stops.

    With a ``cruise_kmh`` each step moves the speed toward that speed by
    ``dv``, landing on it when it is at most ``dv`` away; with None, beta is
    drawn uniformly on [-1, 1] each step.  ``route`` is a list of
    intersection waypoints traversed cyclically; ``stops`` are ((x, y),
    dwell_s) pairs lying on the route, each at its own place.  A stop on a
    place the route passes twice belongs to the first segment that passes
    it, so the bus serves it on that pass only.  ``dv`` is the per-step
    speed increment in Km/h.
    """

    v_max: float
    dv: float = 3.6
    cruise_kmh: float | None = None
    turn_probs: tuple[float, float, float] = (0.25, 0.5, 0.25)
    route: tuple | None = None
    stops: tuple = ()
    initial_speed: float | None = None

    def __post_init__(self):
        if self.v_max <= 0:
            raise ValueError("v_max must be positive")
        if self.dv < 0:
            raise ValueError("dv must be >= 0")
        probs = self.turn_probs
        if len(probs) != 3 or any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError("turn_probs must be three nonnegative values summing to 1")
        for _, dwell in self.stops:
            if dwell < 0:
                raise ValueError("stop dwell durations must be >= 0")


def _next_speed(policy: MobilityPolicy, rng, velocity: float) -> float:
    """The speed one step after ``velocity``, in [0, v_max]: toward the
    policy's cruise speed by ``dv``, landing on it exactly when it is at most
    ``dv`` away; or moved by ``dv`` times one uniform draw on [-1, 1] without
    one."""
    cruise = policy.cruise_kmh
    if cruise is None:
        velocity += float(rng.uniform(-1.0, 1.0)) * policy.dv
    elif abs(cruise - velocity) <= policy.dv:
        velocity = cruise
    else:
        velocity += math.copysign(policy.dv, cruise - velocity)
    return max(0.0, min(policy.v_max, velocity))


def route_cruise_policy(route: tuple, period_s: float, *, v_max: float, dv: float,
                        turn_probs, stops=(), speed_kmh: float | None = None
                        ) -> MobilityPolicy:
    """Cruise the cyclic ``route`` once per ``period_s`` unless ``speed_kmh``
    pins the speed; ``v_max`` is raised to that speed if lower."""
    if speed_kmh is None:
        # summed left to right from 0.0: builtin sum compensates from Python
        # 3.12 on, which would change the speed's bits with the version
        length = 0.0
        for a, b in zip(route, route[1:] + route[:1]):
            length += abs(a[0] - b[0]) + abs(a[1] - b[1])
        speed_kmh = length / period_s * 3600.0
        if not math.isfinite(speed_kmh):
            raise ValueError(f"period_s={period_s} gives an infinite cruise speed")
    return MobilityPolicy(v_max=max(v_max, speed_kmh), dv=dv,
                          cruise_kmh=speed_kmh, turn_probs=turn_probs,
                          route=route, stops=stops, initial_speed=speed_kmh)


def _next_crossing(s: float, block: float, direction: float) -> float:
    """Distance (> tol) to the next street line along a signed axis."""
    u = s / block
    if direction > 0:
        k = math.floor(u + _ON_STREET_TOL / block) + 1
        return k * block - s
    k = math.ceil(u - _ON_STREET_TOL / block) - 1
    return s - k * block


def _pick_heading(heading: Heading, grid: ManhattanGrid, x: float, y: float,
                  policy: MobilityPolicy, rng) -> Heading:
    """Turn decision at an intersection; forced to stay within the grid."""
    options = [heading.left, heading, heading.right]
    i = int(rng.choice(3, p=list(policy.turn_probs))) if rng is not None else 1
    order = [options[i]] + [h for h in options if h is not options[i]] + [_LEFT_OF[_LEFT_OF[heading]]]
    for h in order:
        hx, hy = h.vector
        nx, ny = x + hx * grid.block, y + hy * grid.block
        if abs(nx) <= grid.extent + _ON_STREET_TOL and abs(ny) <= grid.extent + _ON_STREET_TOL:
            return h
    raise RuntimeError("no admissible heading; grid extent too small")


def step(state: TrajectoryState, dt: float, beta: float, policy: MobilityPolicy,
         grid: ManhattanGrid, rng=None) -> TrajectoryState:
    """One kinematic update: move with the current speed for dt seconds,
    splitting the move at intersections (turn decisions drawn from
    ``turn_probs`` when an rng is supplied, straight otherwise), then update
    the speed from beta."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not -1.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [-1, 1], got {beta}")
    velocity = max(0.0, min(policy.v_max, state.velocity + beta * policy.dv))
    return _moved(state, dt, policy, grid, rng, velocity)


def _moved(state: TrajectoryState, dt: float, policy: MobilityPolicy, grid: ManhattanGrid,
           rng, velocity: float) -> TrajectoryState:
    """``state`` moved with its speed for dt seconds, as ``step`` moves it,
    with the new speed ``velocity``."""
    x, y = state.position.x, state.position.y
    heading = state.heading
    remaining = state.velocity * dt * KMH_TO_KM_PER_S
    while remaining > 0.0:
        hx, hy = heading.vector
        if hx != 0.0:
            dist = _next_crossing(x, grid.block, hx)
        else:
            dist = _next_crossing(y, grid.block, hy)
        if dist > remaining:
            x += hx * remaining
            y += hy * remaining
            remaining = 0.0
        else:
            x = grid.snap(x + hx * dist)
            y = grid.snap(y + hy * dist)
            remaining -= dist
            heading = _pick_heading(heading, grid, x, y, policy, rng)
    return TrajectoryState(PolarPoint(x, y), velocity, heading)


@dataclass
class Trajectory:
    t: np.ndarray
    states: list[TrajectoryState]
    dt: float

    def __len__(self):
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    def positions_xy(self) -> np.ndarray:
        return np.array([[s.position.x, s.position.y] for s in self.states])

    def speeds(self) -> np.ndarray:
        return np.array([s.velocity for s in self.states])

    def index_at(self, t: float) -> int:
        """The step nearest time ``t``, or the last one past the horizon."""
        return min(int(round(t / self.dt)), len(self.states) - 1)


def _validate_route(route, grid: ManhattanGrid):
    if len(route) < 2:
        raise InvalidRouteError("a route needs at least two waypoints")
    pts = [(float(x), float(y)) for x, y in route]
    for x, y in pts:
        if not grid.is_intersection(x, y):
            raise InvalidRouteError(f"waypoint ({x}, {y}) is not at an intersection")
        if abs(x) > grid.extent or abs(y) > grid.extent:
            raise InvalidRouteError(f"waypoint ({x}, {y}) outside the grid extent")
    for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
        same_x = abs(x0 - x1) <= _ON_STREET_TOL
        same_y = abs(y0 - y1) <= _ON_STREET_TOL
        if same_x == same_y:  # both (duplicate point) or neither (diagonal)
            raise InvalidRouteError(f"segment ({x0},{y0})->({x1},{y1}) is not axis-aligned")
    return pts


def _segment_heading(a, b) -> Heading:
    if abs(a[0] - b[0]) <= _ON_STREET_TOL:
        return Heading.PY if b[1] > a[1] else Heading.NY
    return Heading.PX if b[0] > a[0] else Heading.NX


def _route_geometry(pts, stops):
    """Cumulative arc lengths of the cyclic route (a list of Python floats)
    and stop arc positions.  A stop's position is on the first segment, in
    route order, that passes its place: on a place passed twice (an
    out-and-back route, say) it is served on the first pass only, and a
    second stop there is the same place on the route."""
    n = len(pts)
    seg_len = []
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        seg_len.append(abs(b[0] - a[0]) + abs(b[1] - a[1]))
    cum = np.concatenate([[0.0], np.cumsum(seg_len)]).tolist()
    stop_pos = []
    for (sx, sy), dwell in stops:
        for i in range(n):
            a, b = pts[i], pts[(i + 1) % n]
            h = _segment_heading(a, b)
            hx, hy = h.vector
            along = (sx - a[0]) * hx + (sy - a[1]) * hy
            off = abs((sx - a[0]) * hy) + abs((sy - a[1]) * hx)
            if off <= _ON_STREET_TOL and -_ON_STREET_TOL <= along <= seg_len[i] + _ON_STREET_TOL:
                stop_pos.append((cum[i] + max(along, 0.0), float(dwell)))
                break
        else:
            raise InvalidRouteError(f"stop ({sx}, {sy}) does not lie on the route")
    stop_pos.sort()
    for (a, _), (b, _) in zip(stop_pos, stop_pos[1:]):
        if b - a <= _ON_STREET_TOL:
            raise InvalidRouteError("two stops share one place on the route")
    return cum, stop_pos


def _route_point(pts, cum, s: float):
    """Point and heading at arc length s (mod total) along the cyclic route."""
    total = cum[-1]
    s = s % total
    i = min(bisect.bisect_right(cum, s) - 1, len(pts) - 1)
    a = pts[i]
    b = pts[(i + 1) % len(pts)]
    h = _segment_heading(a, b)
    hx, hy = h.vector
    d = s - cum[i]
    return a[0] + hx * d, a[1] + hy * d, h


def generate_trajectory(policy: MobilityPolicy, grid: ManhattanGrid, T: float,
                        dt: float, seed) -> Trajectory:
    """Time series of ceil(T/dt)+1 states, deterministic for a fixed seed.

    With a route the vehicle follows its waypoints cyclically and dwells at
    each stop (decelerating beforehand when ``dv`` allows); without one, turns
    are drawn from ``turn_probs`` at every intersection.  On a route with a
    cruise speed, once the vehicle is back at the start in its starting
    state, later states repeat the first lap exactly.
    """
    if T <= 0 or dt <= 0:
        raise ValueError("T and dt must be positive")
    rng = np.random.default_rng(seed)
    n_steps = math.ceil(T / dt)
    times = np.arange(n_steps + 1) * dt

    if policy.route is not None:
        return _generate_on_route(policy, grid, times, dt, rng)

    v0 = policy.initial_speed if policy.initial_speed is not None else 0.0
    state = TrajectoryState(PolarPoint(0.0, 0.0), min(v0, policy.v_max), Heading.PX)
    states = [state]
    for _ in range(n_steps):
        state = _moved(state, dt, policy, grid, rng, _next_speed(policy, rng, state.velocity))
        states.append(state)
    return Trajectory(times, states, dt)


def _generate_on_route(policy: MobilityPolicy, grid: ManhattanGrid, times, dt, rng):
    """The states along the policy's route at ``times``.

    Stops are served in route order.  The next stop always lies ahead of the
    bus: a stop where the bus stands (a stop on the first waypoint at the
    start, or a route's one stop just served) is a full lap ahead, so a stop
    on the first waypoint is first served on arrival one lap later.  A move
    that reaches the next stop, or ends within ``_ON_STREET_TOL`` of it,
    ends on it.  A stop of dwell D holds the bus at rest there for
    ceil(D / dt) + 1 states: the step that arrives and the ceil(D / dt)
    steps after it.  The next step is one speed update, still on the stop:
    up by ``dv`` toward the cruise speed, landing on it (back to the speed
    before the stop at once when ``dv`` is 0).

    A bus within braking distance of its next stop, v^2 dt / (2 dv), brakes
    by ``dv`` per step instead of following the speed law, but never to rest
    short of the stop: a brake that would stop it sets the speed whose next
    move ends on the stop.  So the bus is at rest only on stops.
    """
    pts = _validate_route(policy.route, grid)
    cum, stop_pos = _route_geometry(pts, policy.stops)
    total = cum[-1]

    s = 0.0                 # arc position along the cyclic route
    v0 = policy.initial_speed if policy.initial_speed is not None else 0.0
    velocity = v_start = min(max(v0, 0.0), policy.v_max)
    dwell_left = 0
    next_stop_idx = None
    if stop_pos:            # the first stop ahead of the start
        next_stop_idx = 1 % len(stop_pos) if stop_pos[0][0] <= _ON_STREET_TOL else 0

    def dist_to_next_stop() -> float:
        if next_stop_idx is None:
            return math.inf
        d = (stop_pos[next_stop_idx][0] - s) % total
        return d if d > _ON_STREET_TOL else total

    x, y, h = _route_point(pts, cum, s)
    states = [TrajectoryState(PolarPoint(x, y), velocity, h)]
    # a cruise speed draws nothing, so the motion is a function of this state
    # alone: once it recurs at the start, every later step repeats the lap
    cyclic = policy.cruise_kmh is not None
    start = (velocity, dwell_left, next_stop_idx)

    for _ in range(len(times) - 1):
        lap = len(states) - 1
        if (cyclic and lap and min(s, total - s) <= _ON_STREET_TOL
                and (velocity, dwell_left, next_stop_idx) == start):
            states = [states[j % lap] for j in range(len(times))]
            break
        if dwell_left > 0:
            dwell_left -= 1
            states.append(states[-1])
            continue

        move = velocity * dt * KMH_TO_KM_PER_S
        d_stop = dist_to_next_stop()
        if d_stop <= move + _ON_STREET_TOL:
            # cut the move at the stop and start dwelling
            s = (s + d_stop) % total
            # the steps at rest after this one; a dwell past the horizon stops there
            dwell_left = math.ceil(min(stop_pos[next_stop_idx][1] / dt, len(times)))
            next_stop_idx = (next_stop_idx + 1) % len(stop_pos)
            velocity = 0.0
            x, y, h = _route_point(pts, cum, s)
            states.append(TrajectoryState(PolarPoint(x, y), velocity, h))
            continue
        s = (s + move) % total

        # braking beats the speed law near a stop (v * v gives inf where v ** 2 raises)
        d_stop = dist_to_next_stop()
        if policy.dv == 0.0:
            velocity = v_start      # no acceleration model: the speed never changes
        elif (next_stop_idx is not None
              and d_stop <= velocity * velocity * dt * KMH_TO_KM_PER_S / (2.0 * policy.dv)):
            velocity -= policy.dv
            if velocity <= 0.0:
                velocity = d_stop / (dt * KMH_TO_KM_PER_S)
        else:
            velocity = _next_speed(policy, rng, velocity)

        x, y, h = _route_point(pts, cum, s)
        states.append(TrajectoryState(PolarPoint(x, y), velocity, h))
    return Trajectory(times, states, dt)


def distance_to_hotspot(traj: Trajectory, spec: HotspotSpec) -> np.ndarray:
    """Per-step distance (Km) from the small cell to the hotspot center."""
    c = spec.center
    xy = traj.positions_xy()
    return np.hypot(xy[:, 0] - c.x, xy[:, 1] - c.y)
