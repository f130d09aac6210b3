"""Event-driven simulation of the coupled two-cell multi-class processor
sharing system: Poisson arrivals per class, exponential flow sizes, PS service
whose per-class rate switches between the partner-idle and interfered values
with the partner queue's occupancy, plus class migrations and handovers.

Service bookkeeping uses one virtual service clock per (cell, class): the
clock advances by the common per-flow rate, and a flow departs when the clock
passes its personal threshold (clock at entry + remaining size).  Each flow
in service has one entry, held both in its class's heap of thresholds and in
its class's member list, which migrations and handovers draw from.  A flow
that leaves its class is swap-removed from the list and only marked dead in
the heap; dead tops are popped when a departure search reaches them.
Per-event cost is O(K + L + log n) regardless of the number of active flows,
and every departed flow has received exactly its drawn size.
"""

from __future__ import annotations

import csv
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from mobicell.ccdf import ClassProfile

MACRO, SMALL = 0, 1
_CELL_NAME = ("macro", "small")


class InsufficientDataError(ValueError):
    pass


@dataclass(frozen=True)
class TrafficSpec:
    """Total flow arrival intensity (flows/s) and mean flow size (Mbits)."""

    lambda_tot: float
    sigma0: float

    def __post_init__(self):
        if self.lambda_tot < 0:
            raise ValueError("lambda_tot must be >= 0")
        if self.sigma0 <= 0:
            raise ValueError("sigma0 must be positive")


@dataclass
class TransitionRates:
    """Per-flow class-migration and handover hazards (1/s) at one snapshot."""

    t: float
    nu_up: np.ndarray          # (K,), nu_up[K-1] == 0
    nu_down: np.ndarray        # (K,), nu_down[0] == 0
    nu_tilde_up: np.ndarray    # (L,)
    nu_tilde_down: np.ndarray  # (L,)
    nu_handover_m2s: float = 0.0
    nu_handover_s2m: float = 0.0

    def __post_init__(self):
        self.nu_up = np.asarray(self.nu_up, dtype=np.float64)
        self.nu_down = np.asarray(self.nu_down, dtype=np.float64)
        self.nu_tilde_up = np.asarray(self.nu_tilde_up, dtype=np.float64)
        self.nu_tilde_down = np.asarray(self.nu_tilde_down, dtype=np.float64)
        for a in (self.nu_up, self.nu_down, self.nu_tilde_up, self.nu_tilde_down):
            if np.any(a < 0):
                raise ValueError("transition rates must be nonnegative")
        if self.nu_handover_m2s < 0 or self.nu_handover_s2m < 0:
            raise ValueError("handover rates must be nonnegative")
        if self.nu_down[0] != 0.0 or self.nu_up[-1] != 0.0 \
                or self.nu_tilde_down[0] != 0.0 or self.nu_tilde_up[-1] != 0.0:
            raise ValueError("boundary migration rates out of the class range must be 0")

    @classmethod
    def zeros(cls, K: int, L: int, t: float = 0.0) -> "TransitionRates":
        return cls(t, np.zeros(K), np.zeros(K), np.zeros(L), np.zeros(L))


@dataclass
class FlowRecord:
    __slots__ = ("fid", "arrival", "departure", "size", "served", "path")
    fid: int
    arrival: float
    departure: float
    size: float
    served: float
    path: list     # [(cell, class), ...] in visit order


@dataclass
class QueueTrace:
    """Exact time integrals of the queue process plus per-flow records."""

    T: float
    K: int
    L: int
    traffic: TrafficSpec
    int_n: list                # [cell][k] of integral n_k dt
    int_served: list           # [cell][k] of integral eta_k * n_k/|n| dt (Mbits)
    busy_time: list            # [cell] time with |n| > 0
    piece_t: np.ndarray        # snapshot-piece start times used by the run
    piece_time: np.ndarray     # observed duration per piece
    piece_int_n: np.ndarray    # (n_pieces, 2) integral of |n| dt per piece/cell
    piece_served: np.ndarray   # (n_pieces, 2) Mbits served per piece/cell
    flows: list                # FlowRecord per arrival, by fid; NaN departure if in service at T
    n_arrivals: int
    n_departures: int
    n_migrations: int
    n_handovers: int
    states_time: dict | None = None    # (macro counts, small counts) -> time; track_states only
    sample_times: list = field(default_factory=list)   # k * sample_dt < T
    sample_counts: list = field(default_factory=list)  # (macro, small) class counts per sample

    def mean_counts(self) -> tuple[np.ndarray, np.ndarray]:
        m = np.asarray(self.int_n[MACRO]) / self.T
        s = np.asarray(self.int_n[SMALL]) / self.T
        return m, s

    def served_mbits(self) -> float:
        return float(sum(sum(c) for c in self.int_served))

    def state_frequencies(self) -> dict:
        if self.states_time is None:
            raise ValueError("run simulate(..., track_states=True) to collect state frequencies")
        return {k: v / self.T for k, v in self.states_time.items()}

    def to_csv(self, path, extra_header_lines=()) -> None:
        """Sampled occupancy series; schema t_s, cell, class, count."""
        with open(path, "w", newline="") as fh:
            for line in extra_header_lines:
                fh.write(line.rstrip("\n") + "\n")
            w = csv.writer(fh)
            w.writerow(["t_s", "cell", "class", "count"])
            for t, counts in zip(self.sample_times, self.sample_counts):
                for c in (MACRO, SMALL):
                    for k, n in enumerate(counts[c]):
                        w.writerow([f"{t:.6f}", _CELL_NAME[c], k + 1, n])

    def flows_to_csv(self, path, extra_header_lines=()) -> None:
        """Schema arrival_s, departure_s, cell_path, size_mbits."""
        with open(path, "w", newline="") as fh:
            for line in extra_header_lines:
                fh.write(line.rstrip("\n") + "\n")
            w = csv.writer(fh)
            w.writerow(["arrival_s", "departure_s", "cell_path", "size_mbits"])
            for f in self.flows:
                pth = ">".join(f"{'M' if c == MACRO else 'S'}{k + 1}" for c, k in f.path)
                dep = f"{f.departure:.6f}" if not math.isnan(f.departure) else ""
                w.writerow([f"{f.arrival:.6f}", dep, pth, f"{f.size:.6f}"])


class _Rng:
    """Pooled draws from a numpy Generator (scalar draws are the bottleneck)."""

    def __init__(self, seed, block=8192):
        self.g = np.random.default_rng(seed)
        self.block = block
        self._exp = self.g.standard_exponential(block)
        self._uni = self.g.random(block)
        self._ei = 0
        self._ui = 0

    def exp(self) -> float:
        if self._ei >= self.block:
            self._exp = self.g.standard_exponential(self.block)
            self._ei = 0
        v = self._exp[self._ei]
        self._ei += 1
        return float(v)

    def uni(self) -> float:
        if self._ui >= self.block:
            self._uni = self.g.random(self.block)
            self._ui = 0
        v = self._uni[self._ui]
        self._ui += 1
        return float(v)


def _as_list(x):
    return [x] if isinstance(x, (ClassProfile, TransitionRates)) else list(x)


def simulate(profiles, rates, traffic: TrafficSpec, T: float, seed,
             track_states: bool = False, sample_dt: float | None = None,
             validate: bool = False) -> QueueTrace:
    """Run the coupled system for T seconds of model time.

    ``profiles`` is one ClassProfile or a time series; rates and class/arrival
    parameters are piecewise constant between profile timestamps.  ``rates``
    may be None (no migrations or handovers), a single TransitionRates or a
    series aligned with the profile intervals.  Deterministic per seed.

    ``sample_dt`` records the class occupancy at t = 0, dt, 2 dt, ... < T.
    Sampling consumes no random draws, so a sampled run is the same
    realisation as an unsampled one with the same seed.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    profs = _as_list(profiles)
    profs.sort(key=lambda p: p.t)
    K, L = profs[0].K, profs[0].L
    if any(p.K != K or p.L != L for p in profs):
        raise ValueError("all profiles must share the class counts")
    rate_list = [TransitionRates.zeros(K, L)] if rates is None else _as_list(rates)
    n_pieces = len(profs)

    rng = _Rng(seed)
    sigma0 = traffic.sigma0
    cells = (MACRO, SMALL)
    n_cls = (K, L)

    counts = [[0] * K, [0] * L]
    total = [0, 0]
    vclock = [[0.0] * K, [0.0] * L]
    # one entry [threshold, fid, live, index, flow] per flow in service, in its
    # class heap and at ``index`` in its class member list; entries of two
    # flows differ in fid, so heapq never orders two FlowRecords
    heaps = [[[] for _ in range(n)] for n in n_cls]
    members = [[[] for _ in range(n)] for n in n_cls]
    records: list[FlowRecord] = []

    int_n = [[0.0] * K, [0.0] * L]
    int_served = [[0.0] * K, [0.0] * L]
    busy_time = [0.0, 0.0]
    piece_time = [0.0] * n_pieces
    piece_int_n = [[0.0, 0.0] for _ in range(n_pieces)]
    piece_served = [[0.0, 0.0] for _ in range(n_pieces)]
    states_time = {} if track_states else None
    sample_times: list = []
    sample_counts: list = []

    n_arr = n_dep = n_mig = n_ho = 0

    t = 0.0
    piece = 0
    piece_edges = [p.t for p in profs[1:]] + [math.inf]
    next_sample = 0.0 if sample_dt else math.inf

    def piece_params(i: int):
        p = profs[i]
        r = rate_list[min(i, len(rate_list) - 1)]
        lam = (list(p.lambda_macro), list(p.lambda_small))
        arrivals = [(c, k, x) for c in cells for k, x in enumerate(lam[c]) if x > 0.0]
        # eta[cell][phase][class] as plain lists for fast scalar access
        eta = ([list(p.eta_macro[:, 0]), list(p.eta_macro[:, 1])],
               [list(p.eta_small[:, 0]), list(p.eta_small[:, 1])])
        mig = (([float(x) for x in r.nu_up], [float(x) for x in r.nu_down]),
               ([float(x) for x in r.nu_tilde_up], [float(x) for x in r.nu_tilde_down]))
        return (arrivals, sum(lam[MACRO]) + sum(lam[SMALL]), eta, r, mig,
                any(any(x) for pair in mig for x in pair))

    arrivals, lam_tot, eta, rr, mig, any_migration = piece_params(piece)

    def enter(flow: FlowRecord, c: int, k: int, remaining: float):
        m = members[c][k]
        entry = [vclock[c][k] + remaining, flow.fid, True, len(m), flow]
        heapq.heappush(heaps[c][k], entry)
        m.append(entry)
        counts[c][k] += 1
        total[c] += 1
        flow.path.append((c, k))

    def leave(entry: list, c: int, k: int) -> float:
        """Swap-remove ``entry`` from its class, mark it dead in the heap and
        return the flow's remaining work."""
        m = members[c][k]
        last = m.pop()
        if last is not entry:
            m[entry[3]] = last
            last[3] = entry[3]
        entry[2] = False
        counts[c][k] -= 1
        total[c] -= 1
        return entry[0] - vclock[c][k]

    def live_top(h: list) -> list:
        """Heap top after discarding the dead entries of flows that left."""
        while not h[0][2]:
            heapq.heappop(h)
        return h[0]

    inf = math.inf
    exp_draw = rng.exp
    uni_draw = rng.uni

    while t < T:
        # per-class service rates of each cell, by its partner's phase
        eta_now = (eta[MACRO][1 if total[SMALL] else 0], eta[SMALL][1 if total[MACRO] else 0])

        # next departure across occupied classes
        best_dep = inf
        dep = None
        for c in cells:
            tc = total[c]
            if tc:
                cc, vc, ec, hc = counts[c], vclock[c], eta_now[c], heaps[c]
                for k in range(n_cls[c]):
                    if cc[k]:
                        dt_k = (live_top(hc[k])[0] - vc[k]) * tc / ec[k]
                        if dt_k < best_dep:
                            best_dep = dt_k
                            dep = (c, k)
        if best_dep < 0.0:
            best_dep = 0.0

        dt_arr = exp_draw() / lam_tot if lam_tot > 0.0 else inf

        mig_rate = 0.0
        if any_migration:
            for c in cells:
                cc = counts[c]
                ups, downs = mig[c]
                for k in range(n_cls[c]):
                    if cc[k]:
                        mig_rate += cc[k] * (ups[k] + downs[k])
        dt_mig = exp_draw() / mig_rate if mig_rate > 0.0 else inf

        ho_rate = total[MACRO] * rr.nu_handover_m2s + total[SMALL] * rr.nu_handover_s2m
        dt_ho = exp_draw() / ho_rate if ho_rate > 0.0 else inf

        dt_bound = min(piece_edges[piece], T) - t
        delta = min(best_dep, dt_arr, dt_mig, dt_ho, dt_bound)

        # occupancy samples due by the end of the interval see the state
        # before its event (boundary first on a tie); they draw nothing
        while next_sample <= t + delta and next_sample < T:
            sample_times.append(next_sample)
            sample_counts.append((list(counts[MACRO]), list(counts[SMALL])))
            next_sample = len(sample_times) * sample_dt

        # integrate the constant-occupancy interval
        if delta > 0.0:
            for c in cells:
                tc = total[c]
                if tc:
                    served_cell = 0.0
                    inv = delta / tc
                    cc, vc, ec = counts[c], vclock[c], eta_now[c]
                    i_n, i_s = int_n[c], int_served[c]
                    for k in range(n_cls[c]):
                        nk = cc[k]
                        if nk:
                            i_n[k] += nk * delta
                            vc[k] += ec[k] * inv
                            sv = ec[k] * nk * inv
                            i_s[k] += sv
                            served_cell += sv
                    busy_time[c] += delta
                    piece_served[piece][c] += served_cell
                    piece_int_n[piece][c] += tc * delta
            piece_time[piece] += delta
            if track_states:
                key = (tuple(counts[MACRO]), tuple(counts[SMALL]))
                states_time[key] = states_time.get(key, 0.0) + delta
            t += delta

        # tie priority: boundary, departure, arrival, migration, handover
        if delta == dt_bound:
            if t >= T:
                break
            if t >= piece_edges[piece]:
                piece += 1
                arrivals, lam_tot, eta, rr, mig, any_migration = piece_params(piece)
            continue

        if delta == best_dep:
            c, k = dep
            entry = heapq.heappop(heaps[c][k])  # live: the search cleaned this top
            leave(entry, c, k)
            flow = entry[4]
            flow.departure = t
            flow.served = flow.size
            records.append(flow)
            n_dep += 1
            continue

        if delta == dt_arr:
            u = uni_draw() * lam_tot
            acc = 0.0
            for cell, cls, x in arrivals:
                acc += x
                if u < acc:
                    break  # rounding at u ~ lam_tot falls to the last positive class
            flow = FlowRecord(n_arr, t, math.nan, exp_draw() * sigma0, 0.0, [])
            enter(flow, cell, cls, flow.size)
            n_arr += 1
            continue

        if delta == dt_mig:
            u = uni_draw() * mig_rate
            acc = 0.0
            move = None
            for c in cells:
                ups, downs = mig[c]
                cc = counts[c]
                for k in range(n_cls[c]):
                    nk = cc[k]
                    if not nk:
                        continue
                    acc += nk * ups[k]
                    if u < acc:
                        move = (c, k, k + 1)
                        break
                    acc += nk * downs[k]
                    if u < acc:
                        move = (c, k, k - 1)
                        break
                if move:
                    break
            if move:
                c, k, k2 = move
                entry = members[c][k][int(uni_draw() * counts[c][k])]
                enter(entry[4], c, k2, leave(entry, c, k))
                n_mig += 1
            continue

        if delta == dt_ho:
            u = uni_draw() * ho_rate
            src = MACRO if u < total[MACRO] * rr.nu_handover_m2s else SMALL
            pick = int(uni_draw() * total[src])
            for k in range(n_cls[src]):
                if pick < counts[src][k]:
                    entry = members[src][k][pick]
                    enter(entry[4], 1 - src, 0, leave(entry, src, k))  # into the first class
                    n_ho += 1
                    break
                pick -= counts[src][k]
            continue

    # flows still in service keep a NaN departure; account their served bits
    for c in cells:
        for k, entries in enumerate(members[c]):
            for entry in entries:
                flow = entry[4]
                flow.served = flow.size - (entry[0] - vclock[c][k])
                records.append(flow)
    records.sort(key=lambda f: f.fid)

    trace = QueueTrace(
        T=T, K=K, L=L, traffic=traffic,
        int_n=int_n, int_served=int_served, busy_time=busy_time,
        piece_t=np.array([p.t for p in profs]),
        piece_time=np.array(piece_time), piece_int_n=np.array(piece_int_n),
        piece_served=np.array(piece_served),
        flows=records,
        n_arrivals=n_arr, n_departures=n_dep, n_migrations=n_mig, n_handovers=n_ho,
        states_time=states_time,
        sample_times=sample_times, sample_counts=sample_counts,
    )
    if validate:
        _validate_trace(trace)
    return trace


def _validate_trace(trace: QueueTrace):
    served_flows = sum(f.served for f in trace.flows)
    served_int = trace.served_mbits()
    if served_int > 0 and abs(served_flows - served_int) > 1e-6 * max(served_int, 1.0):
        raise AssertionError(
            f"service bookkeeping mismatch: flows {served_flows} vs integral {served_int}")
    for f in trace.flows:
        if not math.isnan(f.departure) and abs(f.served - f.size) > 1e-9 * f.size:
            raise AssertionError(f"flow {f.fid} departed with served != size")


@dataclass
class MetricsReport:
    """Time-averaged flow-level metrics of one trace."""

    T: float
    mean_n: np.ndarray            # (K,)
    mean_n_tilde: np.ndarray      # (L,)
    P_k: np.ndarray
    P_tilde_l: np.ndarray
    mean_flow_throughput: float   # Mbps, offered bits over flow-time (Little form)
    rho_busy: float               # macro busy fraction
    rho_tilde_busy: float
    served_mbits: float
    offered_mbits: float
    conservation_residual: float  # Mbps, offered rate minus served rate
    n_arrivals: int
    n_departures: int


def empirical_metrics(trace: QueueTrace) -> MetricsReport:
    """Occupancy shares, throughput and load read off a simulated trace."""
    if trace.T <= 0:
        raise ValueError("empty observation window")
    mean_m, mean_s = trace.mean_counts()
    tot = float(mean_m.sum() + mean_s.sum())
    P_k = mean_m / tot if tot > 0 else np.zeros_like(mean_m)
    P_l = mean_s / tot if tot > 0 else np.zeros_like(mean_s)
    served = trace.served_mbits()
    int_total_n = float(sum(sum(c) for c in trace.int_n))
    R = served / int_total_n if int_total_n > 0 else 0.0
    offered = trace.traffic.lambda_tot * trace.traffic.sigma0 * trace.T
    return MetricsReport(
        T=trace.T, mean_n=mean_m, mean_n_tilde=mean_s, P_k=P_k, P_tilde_l=P_l,
        mean_flow_throughput=R,
        rho_busy=trace.busy_time[MACRO] / trace.T,
        rho_tilde_busy=trace.busy_time[SMALL] / trace.T,
        served_mbits=served, offered_mbits=offered,
        conservation_residual=(offered - served) / trace.T,
        n_arrivals=trace.n_arrivals, n_departures=trace.n_departures,
    )


def estimate_transition_rates(class_profiles, extra_migration_rate: float = 0.0,
                              min_share: float = 1e-3) -> list[TransitionRates]:
    """Per-flow migration and handover hazards from the drift of consecutive
    snapshots.

    Class migration: the change, across one snapshot interval, of the CCDF
    mass above a class boundary is the net probability flux over that
    boundary; divided by the interval and the source-class density it becomes
    a per-flow hazard (upward for positive flux, negative for downward).
    Handover: the growth rate of the small-cell coverage share, scaled by the
    losing side's share; suppressed when the gaining side covers less than
    ``min_share`` so flows are not handed into a degenerate cell.  A cell
    whose coverage has collapsed below ``min_share`` drains its remaining
    flows by handover within roughly one snapshot interval (otherwise
    stragglers would be stuck at the dead cell's floor rate forever).
    ``extra_migration_rate`` adds a constant user-mobility hazard to every
    admissible migration.
    """
    profs = _as_list(class_profiles)
    if len(profs) < 2:
        raise InsufficientDataError("need at least two consecutive class profiles")
    out = []
    for p0, p1 in zip(profs, profs[1:]):
        dt = p1.t - p0.t
        if dt <= 0:
            raise ValueError("profiles must have strictly increasing timestamps")
        K, L = p0.K, p0.L
        nu_up, nu_down = np.zeros(K), np.zeros(K)
        nu_tup, nu_tdown = np.zeros(L), np.zeros(L)

        def fill(curve0, curve1, edges, p_cls, up, down):
            if curve0 is None or curve1 is None or curve0.empty or curve1.empty:
                return
            inner = edges[1:-1]
            m0 = np.interp(inner, curve0.levels, curve0.values)
            m1 = np.interp(inner, curve1.levels, curve1.values)
            flux = (m1 - m0) / dt
            for j, f in enumerate(flux):
                if f > 0:
                    up[j] += f / p_cls[j]
                else:
                    down[j + 1] += -f / p_cls[j + 1]

        fill(p0.macro_curve, p1.macro_curve, p0.macro_edges, p0.p_macro, nu_up, nu_down)
        fill(p0.small_curve, p1.small_curve, p0.small_edges, p0.p_small, nu_tup, nu_tdown)
        if extra_migration_rate > 0.0:
            nu_up[:-1] += extra_migration_rate
            nu_down[1:] += extra_migration_rate
            nu_tup[:-1] += extra_migration_rate
            nu_tdown[1:] += extra_migration_rate

        share0, share1 = p0.small_share, p1.small_share
        dshare = (share1 - share0) / dt
        m2s = s2m = 0.0
        if dshare > 0 and share1 >= min_share:
            m2s = dshare / max(1.0 - share0, min_share)
        elif dshare < 0 and (1.0 - share1) >= min_share:
            s2m = -dshare / max(share0, min_share)
        drain = 3.0 / dt
        if share1 < min_share and (share0 >= min_share or share1 > 0.0):
            s2m = max(s2m, drain)   # dying small cell: evacuate stragglers
        if 1.0 - share1 < min_share and (1.0 - share0 >= min_share or share1 < 1.0):
            m2s = max(m2s, drain)
        out.append(TransitionRates(p0.t, nu_up, nu_down, nu_tup, nu_tdown, m2s, s2m))
    return out
