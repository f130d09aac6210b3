"""Event-driven simulation of the coupled two-cell multi-class processor
sharing system: Poisson arrivals per class, exponential flow sizes, PS service
whose per-class rate switches between the partner-idle and interfered values
with the partner queue's occupancy, plus class migrations and handovers.

Service bookkeeping uses processor-sharing virtual time (Kleinrock 1967):
each cell keeps one share clock S = integral of dt/|n|, and class k's virtual
service clock advances at eta_k per unit of it.  A flow departs when its
class clock passes its threshold (class clock at entry + remaining size).
The rates are constant within an epoch (one piece, one partner phase), so
there class k's clock is base_k + eta_k S, with S restarted at 0 when the
epoch starts and each occupied class rebased so that its clock is
continuous; an empty class's clock restarts at 0 when a flow enters it.
Each class's top departs at share clock (top_k - base_k) / eta_k, its due;
each cell keeps the class of the least due (None while the cell is idle),
refreshed only in the cell an event touches, and the next departure is
(due - S) |n| away.  Time integrals are flushed per class (n dt and n d
clock) when its count changes, at piece boundaries and at T, and the busy
time per busy period.

Every event but a piece boundary picks the flow that leaves a class and the
flow that enters one with the work it has left; one leave step and one enter
step do the bookkeeping, so migrations and handovers share one move.

Each flow in service has one entry, held both in its class's heap of
thresholds and in its class's member list, which migrations and handovers
draw from.  A flow that leaves its class is swap-removed from the list and
only marked dead in the heap; dead tops are popped only when the flow that
left was the top.  Draws come as Python floats from two pooled streams
(exponential, uniform) of one numpy Generator, and model time is a Python
float too: piece times, T and the mean flow size are coerced at entry,
since numpy scalars give the same values at several times the cost per
operation.
Per-flow records are kept only on request, as columns (FlowColumns: a few
appends per arrival, no object per flow, each value column a typed array of
8-byte floats); ``QueueTrace.flows`` builds FlowRecord objects from them on
first access.  Per event the work is
O(log n) plus loops over one cell's occupied classes when a departure or an
epoch moves its least departure time, or a migration-prone count changes;
nothing is done per class for the time that passes.  A departed flow has
received its size to rounding, and the drawn work is the served work plus
the backlog at T.  The module opens no file: ``pipeline`` writes a trace's
samples and flow records to ``trace_rep0.csv`` and ``flows_rep0.csv``.
"""

from __future__ import annotations

import array
import bisect
import functools
import heapq
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

MACRO, SMALL = 0, 1


class CheckError(AssertionError):
    """An internal check failed: the run's own bookkeeping, not its inputs,
    is at fault.  ``check`` names the check."""

    def __init__(self, check: str, detail: str):
        super().__init__(check, detail)
        self.check = check
        self.detail = detail

    def __str__(self) -> str:
        return f"{self.check}: {self.detail}"


# A departed flow's served work is its size less fl(T - v), its threshold T
# less its class clock v = fl(base + fl(rate * share)) at departure, and the
# share reaches the due fl(fl(T - base) / rate) by one step fl(s + fl(fl(fl(
# due - s) * n) / n)).  Ten rounded operations lie on that path; nine err by
# at most u = 2^-53 of a value bounded by |T| + |base| in clock terms, and
# size - left by u of the size, inside the 1e-9 of the size allowed.  So the
# flow is served its size to 1e-9 of it plus gamma_10 (|T| + |base|), with
# gamma_10 = 10u / (1 - 10u) (Higham 2002, Lemma 3.1).
_GAMMA = 10 * 2.0 ** -53 / (1 - 10 * 2.0 ** -53)


@dataclass(frozen=True)
class TrafficSpec:
    """Total flow arrival intensity (flows/s) and mean flow size (Mbits)."""

    lambda_tot: float
    sigma0: float

    def __post_init__(self):
        if not 0 <= self.lambda_tot < math.inf:
            raise ValueError("lambda_tot must be finite and >= 0")
        if not 0 < self.sigma0 < math.inf:
            raise ValueError("sigma0 must be finite and positive")


@dataclass
class TransitionRates:
    """Per-flow class-migration and handover hazards (1/s) at one snapshot."""

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
    def zeros(cls, K: int, L: int) -> "TransitionRates":
        return cls(np.zeros(K), np.zeros(K), np.zeros(L), np.zeros(L))


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
class FlowColumns:
    """Per-flow records as columns: the first six hold one value per
    arrival, by fid; the last two one value per migration or handover, in
    event order.  The five value columns are ``array('d')``, 8 bytes a
    value with no float object behind each; reading one gives Python
    floats, and ``np.frombuffer`` views it without a copy."""

    arrival: array.array
    size: array.array
    departure: array.array  # NaN if in service at T
    served: array.array
    scale: array.array      # |threshold| + |class base| at departure, NaN if in service at T
    first: list         # (cell, class) the flow arrived in
    moved_fid: list     # the flow of each later visit
    moved_to: list      # (cell, class) of that visit


@dataclass
class QueueTrace:
    """Exact time integrals of the queue process; per-flow records on request."""

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
    flow_columns: FlowColumns | None   # record_flows only
    n_arrivals: int
    n_departures: int
    n_migrations: int
    n_handovers: int
    offered_mbits_drawn: float  # sum of the drawn flow sizes
    backlog_mbits: float        # work left at T in the flows still in service
    departure_scale: float      # |threshold| + |class base| summed over departures
    states_time: dict | None = None    # (macro counts, small counts) -> time; track_states only
    sample_times: list = field(default_factory=list)   # 0 and each piece start < T
    sample_counts: list = field(default_factory=list)  # (macro, small) class counts per sample
    _flows: list | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def flows(self) -> list:
        """FlowRecord per arrival, by fid, built from ``flow_columns`` on
        first access; [] without records."""
        if self._flows is None and (cols := self.flow_columns) is not None:
            self._flows = [FlowRecord(fid, *row, [tag]) for fid, (*row, tag) in enumerate(
                zip(cols.arrival, cols.departure, cols.size, cols.served, cols.first))]
            for fid, tag in zip(cols.moved_fid, cols.moved_to):
                self._flows[fid].path.append(tag)
        return self._flows or []

    def mean_counts(self) -> tuple[np.ndarray, np.ndarray]:
        m = np.asarray(self.int_n[MACRO]) / self.T
        s = np.asarray(self.int_n[SMALL]) / self.T
        return m, s

    def served_mbits(self) -> float:
        return _sum(map(_sum, self.int_served))

    def state_frequencies(self) -> dict:
        if self.states_time is None:
            raise ValueError("run simulate(..., track_states=True) to collect state frequencies")
        return {k: v / self.T for k, v in self.states_time.items()}


def _sum(xs) -> float:
    """Left to right from 0.0, as Python 3.11's builtin sum: it compensates
    from 3.12 on, which would tie a run's bytes to the Python version."""
    return functools.reduce(operator.add, xs, 0.0)


_BLOCK = 8192


def _pool(draw, first):
    """Endless draws as Python floats (a memoryview yields them one by one):
    the block ``first``, then ``_BLOCK`` at a time from ``draw`` when the
    last runs out.  Chained iterators are cheaper per draw than a generator."""
    blocks = itertools.chain([first], map(draw, itertools.repeat(_BLOCK)))
    return itertools.chain.from_iterable(map(memoryview, blocks))


class _Class:
    """One class of one cell during a run: its flows, its clock and its
    integrals since the last flush."""

    __slots__ = ("k", "tag", "n", "up", "down", "hazard", "rate", "base", "due", "heap",
                 "members", "since", "clock", "piece_n", "piece_served", "int_n", "int_served")

    def __init__(self, c: int, k: int):
        self.k = k
        self.tag = (c, k)    # a flow record's visit
        self.n = 0
        # migration hazards per flow in the current piece: up, down, both
        self.up = self.down = self.hazard = 0.0
        self.rate = 0.0      # eta_k of the epoch; each flow gets rate / |n|
        self.base = 0.0      # class clock at the epoch start
        self.due = math.inf  # share clock at which the heap top departs
        # one entry [threshold, fid, live, index] per flow in service, in the
        # heap and at ``index`` in ``members``
        self.heap = []
        self.members = []
        self.since = self.clock = 0.0   # time and class clock at the last flush
        self.piece_n = self.piece_served = 0.0
        self.int_n = self.int_served = 0.0

    def flush(self, share: float, t: float) -> float:
        """Credit n dt and n dclock since the last flush; return the clock."""
        v = self.base + self.rate * share
        self.piece_n += self.n * (t - self.since)
        self.piece_served += self.n * (v - self.clock)
        self.since = t
        self.clock = v
        return v


def _piece_times(times, n: int) -> list:
    """``times`` as Python floats, checked to start at 0 and strictly ascend,
    one per profile of a series of ``n`` (ValueError otherwise)."""
    piece_t = [float(t) for t in times]
    if (len(piece_t) != n or piece_t[:1] != [0.0]
            or not all(a < b for a, b in itertools.pairwise(piece_t))):
        raise ValueError("times must start at 0 and strictly ascend, one per profile")
    return piece_t


_INDEX = operator.attrgetter("k")
_DUE = operator.attrgetter("due")


def simulate(times, profiles, rates, traffic: TrafficSpec, T: float, seed,
             track_states: bool = False, record_flows: bool = False) -> QueueTrace:
    """Run the coupled system for T seconds of model time.

    ``profiles`` is a series of ClassProfile, one element for a stationary
    run, profile i holding from times[i] to times[i + 1] (the last to T);
    ``times`` must start at 0 and strictly ascend, one per profile
    (ValueError otherwise): the first piece runs from 0.
    ``rates`` is None (no migrations or handovers) or a series of
    TransitionRates aligned with the pieces, its last element holding for
    the pieces past its end.  Deterministic per seed.

    Each cell runs on one share clock (see the module notes): an event
    advances it by delta/|n| and reads the next departure off the due of the
    cell's least class, ``first_q``; an epoch (one piece, one partner phase)
    rebases the cell's occupied classes, and the integrals are flushed per
    class when its count changes, at piece boundaries and at T.  Each other
    event picks what leaves and what enters, and one leave block and one
    enter block do its bookkeeping.  Same draws in the same order as a
    per-class-clock engine; times and integrals differ from its by rounding.

    ``T`` must be positive and finite (ValueError otherwise).  Model time
    runs on Python floats: ``times`` and ``T`` may be numpy scalars and give
    the same values.

    The trace samples the class counts at t = 0 and at each piece start
    before T, as the boundary leaves them; sampling draws nothing.  Nor does
    ``record_flows``, so it gives the same realisation; it keeps one record
    per arrival as columns in ``trace.flow_columns`` (None otherwise);
    ``trace.flows`` is the list of FlowRecord built from them on first access
    ([] without records).  A departed flow's ``served`` is its size less the
    work its threshold still shows.  Every run checks drawn work = served +
    backlog, and with records each departed flow's bookkeeping, to 1e-9 of
    the work and the rounding of the class clocks it was read from
    (CheckError, an AssertionError, otherwise); the run-level check allows
    that rounding summed over departures, from ``trace.departure_scale``.
    """
    T = float(T)    # model time runs on Python floats (see the module notes)
    if not 0.0 < T < math.inf:
        raise ValueError("T must be positive and finite")
    piece_t = _piece_times(times, len(profiles))
    K, L = profiles[0].K, profiles[0].L
    if any(p.K != K or p.L != L for p in profiles):
        raise ValueError("all profiles must share the class counts")
    rate_list = [TransitionRates.zeros(K, L)] if rates is None else rates
    n_pieces = len(profiles)

    # two pools on one Generator: the first exponential block is drawn before
    # the first uniform one, later blocks as each pool runs out
    g = np.random.default_rng(seed)
    exps = _pool(g.standard_exponential, g.standard_exponential(_BLOCK))
    unis = _pool(g.random, g.random(_BLOCK))
    nxt = next
    sigma0 = float(traffic.sigma0)
    cells = (MACRO, SMALL)
    inf = math.inf

    cq = [[_Class(c, k) for k in range(n)] for c, n in enumerate((K, L))]
    occupied = [[], []]            # classes with a flow, ascending, per cell
    total = [0, 0]
    # share clock of each cell since its epoch began; within an epoch class
    # k's clock is base + rate * share
    share = [0.0, 0.0]
    # the class of each cell's least due, the lowest on a tie; None while idle
    first_q = [None, None]
    hz = [0.0, 0.0]                # sum of n_k * hazard_k per cell
    busy_from = [0.0, 0.0]
    drawn = 0.0
    scale_sum = 0.0                # |threshold| + |class base| over departures
    # flow records as columns (see FlowColumns), written by fid
    cols = None
    if record_flows:
        cols = FlowColumns(*(array.array("d") for _ in range(5)), [], [], [])
        sizes, departures, served, scales = cols.size, cols.departure, cols.served, cols.scale
        add_arrival, add_size, add_departure, add_served, add_scale, add_first = (
            cols.arrival.append, sizes.append, departures.append, served.append,
            scales.append, cols.first.append)

    busy_time = [0.0, 0.0]
    piece_time = [0.0] * n_pieces
    piece_int_n = [[0.0, 0.0] for _ in range(n_pieces)]
    piece_served = [[0.0, 0.0] for _ in range(n_pieces)]
    states_time = {} if track_states else None
    sample_times = [0.0]
    sample_counts = [([0] * K, [0] * L)]

    n_arr = n_dep = n_mig = n_ho = 0

    t = 0.0
    piece = 0
    piece_from = 0.0
    piece_edges = piece_t[1:] + [inf]

    def piece_params(i: int):
        p = profiles[i]
        r = rate_list[min(i, len(rate_list) - 1)]
        lam = (p.lambda_macro.tolist(), p.lambda_small.tolist())
        arrivals = [(c, cq[c][k]) for c in cells for k, x in enumerate(lam[c]) if x > 0.0]
        cum = list(itertools.accumulate(lam[c][q.k] for c, q in arrivals))
        if cum:
            # a draw that rounds up to lam_tot falls to the last positive class
            cum[-1] = inf
        # eta[cell][phase][class] as plain lists for fast scalar access
        eta = ([p.eta_macro[:, 0].tolist(), p.eta_macro[:, 1].tolist()],
               [p.eta_small[:, 0].tolist(), p.eta_small[:, 1].tolist()])
        nus = ((r.nu_up, r.nu_down), (r.nu_tilde_up, r.nu_tilde_down))
        for c, (ups, downs) in enumerate(nus):
            for q, u, d in zip(cq[c], ups.tolist(), downs.tolist()):
                q.up, q.down, q.hazard = u, d, u + d
        return (arrivals, cum, _sum(lam[MACRO]) + _sum(lam[SMALL]), eta,
                float(r.nu_handover_m2s), float(r.nu_handover_s2m), min(piece_edges[i], T))

    (arrivals, cum, lam_tot, eta, ho_m2s, ho_s2m, piece_end) = piece_params(piece)
    rate = [eta[MACRO][0], eta[SMALL][0]]   # class rates of each cell's epoch

    def new_epoch(c: int):
        """Switch cell c to the rates of the piece and its partner's phase:
        each occupied class clock becomes its base, and the share clock
        restarts at 0."""
        r = rate[c] = eta[c][1 if total[1 - c] else 0]
        s = share[c]
        for q in occupied[c]:
            q.base += q.rate * s
            q.rate = r[q.k]
            q.due = (q.heap[0][0] - q.base) / q.rate
        share[c] = 0.0
        occ = occupied[c]
        first_q[c] = min(occ, key=_DUE) if occ else None

    def sum_hazard(c: int):
        h = 0.0
        for q in occupied[c]:
            h += q.n * q.hazard
        hz[c] = h

    def close_piece(i: int, t: float):
        """Flush every class at t and move its piece integrals to piece i."""
        for c in cells:
            for q in occupied[c]:
                q.flush(share[c], t)
            for q in cq[c]:
                piece_int_n[i][c] += q.piece_n
                piece_served[i][c] += q.piece_served
                q.int_n += q.piece_n
                q.int_served += q.piece_served
                q.piece_n = q.piece_served = 0.0

    while t < T:
        # next departure: each busy cell's least due, |n| seconds per unit
        # of share clock; the macro cell first on a tie
        best_dep = inf
        tc = total[MACRO]
        if tc:
            best_dep = (first_q[MACRO].due - share[MACRO]) * tc
            dep_c = MACRO
        tc = total[SMALL]
        if tc:
            dt_small = (first_q[SMALL].due - share[SMALL]) * tc
            if dt_small < best_dep:
                best_dep = dt_small
                dep_c = SMALL
        if best_dep < 0.0:
            best_dep = 0.0

        dt_arr = nxt(exps) / lam_tot if lam_tot > 0.0 else inf
        mig_rate = hz[MACRO] + hz[SMALL]
        dt_mig = nxt(exps) / mig_rate if mig_rate > 0.0 else inf
        ho_rate = total[MACRO] * ho_m2s + total[SMALL] * ho_s2m
        dt_ho = nxt(exps) / ho_rate if ho_rate > 0.0 else inf

        # the least of the five, compared inline (cheaper than builtin min)
        delta = dt_bound = piece_end - t
        if best_dep < delta:
            delta = best_dep
        if dt_arr < delta:
            delta = dt_arr
        if dt_mig < delta:
            delta = dt_mig
        if dt_ho < delta:
            delta = dt_ho

        if delta > 0.0:
            tc = total[MACRO]
            if tc:
                share[MACRO] += delta / tc
            tc = total[SMALL]
            if tc:
                share[SMALL] += delta / tc
            if track_states:
                key = (tuple([q.n for q in cq[MACRO]]), tuple([q.n for q in cq[SMALL]]))
                states_time[key] = states_time.get(key, 0.0) + delta
            t += delta

        # tie priority: boundary, departure, arrival, migration, handover
        if delta == dt_bound:
            if t >= T:
                break
            if t >= piece_edges[piece]:
                close_piece(piece, t)
                sample_times.append(piece_edges[piece])
                sample_counts.append(([q.n for q in cq[MACRO]], [q.n for q in cq[SMALL]]))
                piece_time[piece] = t - piece_from
                piece_from = t
                piece += 1
                (arrivals, cum, lam_tot, eta, ho_m2s, ho_s2m, piece_end) = piece_params(piece)
                for c in cells:
                    new_epoch(c)
                    sum_hazard(c)
            continue

        # each event picks what leaves (the flow of ``entry``, in class q of
        # cell c) and what enters (flow fid with ``work`` left, into class q2
        # of cell c2): a departure enters nothing, an arrival leaves nothing
        if delta == best_dep:
            c = dep_c
            q = first_q[c]
            entry = q.heap[0]   # live: tops are kept live
            q2 = None
            n_dep += 1
        elif delta == dt_arr:
            q = None
            c2, q2 = arrivals[bisect.bisect_right(cum, nxt(unis) * lam_tot)]
            fid = n_arr
            work = nxt(exps) * sigma0
            drawn += work
            if record_flows:
                add_arrival(t)
                add_size(work)
                add_departure(math.nan)
                add_served(0.0)
                add_scale(math.nan)
                add_first(q2.tag)
            n_arr += 1
        elif delta == dt_mig:
            u = nxt(unis) * mig_rate
            acc = 0.0
            for q in occupied[MACRO] + occupied[SMALL]:
                acc += q.n * q.up
                if u < acc:
                    k2 = q.k + 1
                    break
                acc += q.n * q.down
                if u < acc:
                    k2 = q.k - 1
                    break
            else:
                continue    # u rounded past the last hazard: nothing moves
            c = c2 = q.tag[0]
            q2 = cq[c][k2]
            entry = q.members[int(nxt(unis) * q.n)]
            n_mig += 1
        else:
            u = nxt(unis) * ho_rate
            c = MACRO if u < total[MACRO] * ho_m2s else SMALL
            pick = int(nxt(unis) * total[c])
            for q in occupied[c]:
                if pick < q.n:
                    break
                pick -= q.n
            else:
                continue    # u rounded into a cell with no flow: nothing moves
            entry = q.members[pick]
            c2 = 1 - c
            q2 = cq[c2][0]      # into the first class
            n_ho += 1

        if q is not None:
            # leave: swap-remove the entry from its class's members and mark
            # it dead in the heap, popping the dead tops if it was the top
            v = q.flush(share[c], t)
            m = q.members
            last = m.pop()
            if last is not entry:
                m[entry[3]] = last
                last[3] = entry[3]
            entry[2] = False
            q.n -= 1
            h = q.heap
            if h[0] is entry:
                while h and not h[0][2]:
                    heapq.heappop(h)
                if h:
                    q.due = (h[0][0] - q.base) / q.rate
                else:
                    occupied[c].remove(q)
                if q is first_q[c]:
                    occ = occupied[c]
                    first_q[c] = min(occ, key=_DUE) if occ else None
            if q.hazard:
                sum_hazard(c)
            total[c] -= 1
            if not total[c]:
                busy_time[c] += t - busy_from[c]
                share[c] = 0.0
                new_epoch(1 - c)
            fid = entry[1]
            work = entry[0] - v
            if q2 is None:
                scale = abs(entry[0]) + abs(q.base)
                scale_sum += scale
                if record_flows:
                    departures[fid] = t
                    served[fid] = sizes[fid] - work
                    scales[fid] = scale
                continue
            if record_flows:
                cols.moved_fid.append(fid)
                cols.moved_to.append(q2.tag)

        # enter: an empty class's clock restarts at 0
        if q2.n:
            v = q2.flush(share[c2], t)
        else:
            q2.rate = rate[c2][q2.k]
            q2.base = -(q2.rate * share[c2])
            q2.since = t
            q2.clock = v = 0.0
            bisect.insort(occupied[c2], q2, key=_INDEX)
        q2.n += 1
        entry = [v + work, fid, True, len(q2.members)]
        heapq.heappush(q2.heap, entry)
        q2.members.append(entry)
        if q2.heap[0] is entry:
            d = q2.due = (entry[0] - q2.base) / q2.rate
            f = first_q[c2]
            if f is None or d < f.due or (d == f.due and q2.k < f.k):
                first_q[c2] = q2
        if q2.hazard:
            sum_hazard(c2)
        total[c2] += 1
        if total[c2] == 1:
            busy_from[c2] = t
            new_epoch(1 - c2)

    # close the integrals at T; flows still in service keep a NaN departure
    # and their remaining work is the backlog
    close_piece(piece, t)
    piece_time[piece] = t - piece_from
    backlog = 0.0
    for c in cells:
        if total[c]:
            busy_time[c] += t - busy_from[c]
        for q in occupied[c]:
            for entry in q.members:
                left = entry[0] - q.clock
                backlog += left
                if record_flows:
                    served[entry[1]] = sizes[entry[1]] - left

    trace = QueueTrace(
        T=T, K=K, L=L, traffic=traffic,
        int_n=[[q.int_n for q in cell] for cell in cq],
        int_served=[[q.int_served for q in cell] for cell in cq],
        busy_time=busy_time,
        piece_t=np.array(piece_t),
        piece_time=np.array(piece_time), piece_int_n=np.array(piece_int_n),
        piece_served=np.array(piece_served),
        flow_columns=cols,
        n_arrivals=n_arr, n_departures=n_dep, n_migrations=n_mig, n_handovers=n_ho,
        offered_mbits_drawn=drawn, backlog_mbits=backlog,
        departure_scale=scale_sum,
        states_time=states_time,
        sample_times=sample_times, sample_counts=sample_counts,
    )
    _validate_trace(trace)
    return trace


def _validate_trace(trace: QueueTrace):
    """The per-flow checks (with records), then the run-level one; the
    first that fails raises its CheckError."""
    served_int = trace.served_mbits()
    cols = trace.flow_columns
    if cols is not None:
        dep, size, served, scale = (np.frombuffer(x) for x in
                                    (cols.departure, cols.size, cols.served, cols.scale))
        # 1e-9 of the size, and the rounding of the clocks it was read from
        bad = ~np.isnan(dep) & (np.abs(served - size) > 1e-9 * size + _GAMMA * scale)
        if bad.any():
            raise CheckError("served-work",
                             f"flow {int(np.argmax(bad))} departed with served != size")
        served_flows = _sum(cols.served)
        if served_int > 0 and abs(served_flows - served_int) > 1e-6 * max(served_int, 1.0):
            raise CheckError("flow-bookkeeping",
                             f"flows {served_flows} vs integral {served_int}")
    drawn, backlog = trace.offered_mbits_drawn, trace.backlog_mbits
    # each departed flow leaves up to gamma_10 (|T| + |base|) of its size
    # unserved, which neither the served integral nor the backlog holds; the
    # running sums behind the three totals round by about u per add, far
    # inside 1e-9 of the drawn work, and their gap is taken exactly
    gap = math.fsum([drawn, -backlog] + [-x for cell in trace.int_served for x in cell])
    if abs(gap) > 1e-9 * drawn + _GAMMA * trace.departure_scale:
        raise CheckError("work-conservation", f"drawn {drawn} vs served {served_int} "
                                              f"+ backlog {backlog}")


@dataclass
class MetricsReport:
    """Time-averaged flow-level metrics of one trace."""

    T: float
    P_k: np.ndarray
    P_tilde_l: np.ndarray
    mean_flow_throughput: float   # Mbps, offered bits over flow-time (Little form)
    rho_busy: float               # macro busy fraction
    rho_tilde_busy: float
    served_mbits: float
    offered_mbits: float          # lambda sigma0 T, the expected offered work
    conservation_residual: float  # Mbps, offered rate minus served rate
    offered_mbits_drawn: float    # = served_mbits + backlog_mbits
    backlog_mbits: float
    drawn_z: float                # arrival noise: (drawn - offered) / its SD
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
    int_total_n = _sum(map(_sum, trace.int_n))
    R = served / int_total_n if int_total_n > 0 else 0.0
    lam, sigma0 = trace.traffic.lambda_tot, trace.traffic.sigma0
    offered = lam * sigma0 * trace.T
    drawn = trace.offered_mbits_drawn
    sd = sigma0 * math.sqrt(2.0 * lam * trace.T)
    return MetricsReport(
        T=trace.T, P_k=P_k, P_tilde_l=P_l,
        mean_flow_throughput=R,
        rho_busy=trace.busy_time[MACRO] / trace.T,
        rho_tilde_busy=trace.busy_time[SMALL] / trace.T,
        served_mbits=served, offered_mbits=offered,
        conservation_residual=(offered - served) / trace.T,
        offered_mbits_drawn=drawn, backlog_mbits=trace.backlog_mbits,
        drawn_z=(drawn - offered) / sd if sd > 0 else 0.0,
        n_arrivals=trace.n_arrivals, n_departures=trace.n_departures,
    )
