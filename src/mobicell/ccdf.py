"""Instantaneous throughput CCDFs for both cells, the macro-only closed form,
and discretization of the curves into coupled flow classes.

The macro-only curve is a noncentral chi-squared CDF with 2 degrees of
freedom (1 - Marcum Q_1): the share of the offset-Gaussian hotspot in a disk.

All Monte Carlo curves at different snapshot times reuse the same hotspot
draws (common random numbers): the hotspot is stationary, so only the
small-cell position changes between snapshots and curve differences in time
are not drowned in sampling noise.  ``snapshot_sweep`` is the one curve
kernel: it counts the four curves of every snapshot of a series in one pass
over the draws.  ``snapshot_curves`` is its call at one position, and
``macro_ccdf`` and ``small_ccdf`` return one of those four curves.  A
snapshot is asked by the small cell's position and one coverage reach; the
``FieldSamples`` it is asked of fixes the radio parameters, the layout and
the macro disk its draws were split by.  The module opens no file:
``pipeline`` writes the curves to ``ccdf.csv``.

A snapshot touches only the draws that can be in S*: every draw in the macro
disk and, of the draws outside it, those within ``small_reach`` of the small
cell (with a reach of 0, a draw on the small cell itself).  Draws outside the
domain are dropped once, when ``FieldSamples`` is built, and each set is
kept in ascending g.  A curve counts values against fixed thresholds, so it
depends only on which users enter it, never on their order.

One power ratio, guarded
------------------------
Every curve reads one per-user quantity, the small-to-macro received-power
ratio delta = small_rx * r^2b_macro.  A user is macro-associated iff
delta <= 1, and its inverse SINRs are g + delta (macro cell, small cell on),
g (macro cell, small cell silent), (g + 1) / delta and g / delta (small
cell, central macro on and silent).  The kernel computes delta as
(kappa r^2b_macro) exp(-b_small ln(dx^2 + dy^2)), with kappa r^2b_macro
kept per draw: no hypot, and no power, which took numpy about 1.25 times
as long as the log, the product and the exp on 32,768 values.  The exact
path takes the hypot, its power and the product, as the scalar API does: a
chain of a few correctly rounded operations and one power accurate to a
few ulps, which multiplies the relative error of its argument by its
exponent, so it is within a relative 1e-15 or so of the true delta
(Goldberg 1991).  In the kernel the exponent y = -b_small ln(dx^2 + dy^2)
carries an absolute error of about 2 u |y| (u = 2^-53, a log good to an
ulp), which exp turns into a relative error of delta: 7e-15 for a draw a
metre from the small cell, where |y| < 26.  The guard below accepts only a
normal delta, and kappa r^2b_macro is normal too, so |y| < 1420 and the
error stays below 3.2e-13 at any distance.  The inverse SINRs, sums and
quotients of nonnegative terms, keep these bounds.

A curve is an integer count of values at or below thresholds psi(l), and
the association a count of delta <= 1.  So wherever no value lies within
relative ``_GUARD_EPS`` (1e-12, above any of those errors and a hundred
times the usual one) of a threshold or of the tie, the counts are the exact
path's and so is every bit of every curve.  The kernel checks exactly that,
for every user and threshold.  It gives the snapshot to the exact path, and
counts it in ``FieldSamples.fallbacks``, when some |delta - 1| <= eps, when
a value lies within eps of a threshold, when a delta is zero, subnormal or
not finite (a draw on the small cell), and for every snapshot when some
kappa r^2b_macro is not a normal number (kappa = 0).  The exact path
takes its users' r^2b_macro and r^-2b_macro from their coordinates, by the
hypot and the power ``FieldSamples`` uses for kappa r^2b_macro, and keeps
the association ``small_rx <= r^-2b_macro`` and ``radio``'s SINR kernels.

The macro cell's partner-idle curve counts g alone, which no guard needs.
Block by block (below) it is the count of every user's g less the
small-cell users': g is ascending, and so is any subset of it taken in
order, so neither count sorts.

One sweep, block by block
-------------------------
Per snapshot the kernel streams a few per-draw arrays (coordinates, kappa
r^2b_macro, g, delta and a work array) through about fifteen numpy passes
and a sort; over the 145k core draws of the reference scenario that is
far more than the cache holds, so one snapshot after another would fetch
every array from memory each time.  ``snapshot_sweep`` turns the loops
round.  Its outer loop walks the core draws in blocks of ``_BLOCK``, small
enough for a block's arrays to stay in L2, and its inner loop visits every
snapshot's position on that block; each snapshot's rim users are then one
more block of their own.

The blocks partition the snapshot's users, and every count the curves need
is a count of users (of macro users, of values below a guard key, of g at
or below a threshold), so a snapshot's counts are the sums of its blocks'
counts, whatever the block size.  Each guard test asks about one value: a
delta that is not a normal finite number, a delta within eps of the tie,
a value within eps of a threshold.  Whether one holds does not depend on
which block holds the value, and the band tests add too: no value lies in
a band iff the count below it equals the count at or below its top, block
by block and so in the sum.  So a snapshot is flagged in some block exactly
when one check over all its users at once would flag it, and every other
snapshot's curves come from its summed counts, bit for bit the exact
path's.

Windowed m1 counts
------------------
Where a block's users are all macro users, far from the small cell, its m1
values are g + delta with every delta in (0, dmax], dmax the block's
largest.  Rounding is monotone (Goldberg 1991): x <= y gives fl(x) <= fl(y).
So g <= m1 = fl(g + delta) <= fl(g + dmax) for each user, and for a key K
a user with fl(g + dmax) < K is certainly below it, and one with g >= K
certainly not.  As g ascends, so does fl(g + dmax), so the certain users
form a prefix of the block and the certain non-users a suffix; only the
users between the two, a window of consecutive draws, are compared with K.
The count is the prefix's length plus the window's count, exact with no
sort, and no value changes, so the guard bands read the same counts.  Few
keys fall inside the range of a far block's m1 values, so there are few
windows to count.  A fixed rule weighs a sort of the block against the live keys
and the values in their windows (``_KEY_COST`` and ``_WINDOW_COST``) and
counts the cheaper way.  Blocks with small-cell users sort their m1 values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.special import chndtr

from mobicell.geometry import CellLayout
from mobicell.geometry import PolarPoint
from mobicell.hotspot import HotspotSpec, sample_xy
from mobicell.radio import (RadioParams, _g_formula, inverse_interference_factor,
                            macro_association, macro_inverse_sinr, psi,
                            small_inverse_sinr)
# not called here: perfbench/spans.py counts calls under this name, and a
# missing target fails its traced run
from mobicell.special import log_bessel_i0  # noqa: F401

# fraction of the inter-site distance beyond which the macro interference
# model is no longer evaluated; samples past it are treated as uncovered
_DOMAIN_FRAC = 0.995
# relative half-width of the guard band around the association tie and every
# counting threshold (see the module docstring)
_GUARD_EPS = 1e-12
_TINY = np.finfo(np.float64).tiny
# core draws per block of the sweep: the block's per-draw arrays (coordinates,
# kappa r^2b_macro, g and the work buffers, 256 KiB each) stay in L2 while
# every position of a series visits it; the fastest of 8,192 to 65,536 on a
# Xeon with 2 MiB of L2 per core
_BLOCK = 32_768
# the cost of a windowed m1 count against sorting the block's m1 values (see
# ``_windowed_m1_counts``), in values sorted: on 32,768-draw blocks a sort
# took about 8 ns a value, a live key about 3-4 us and a value compared in a
# window about 0.3 ns
_KEY_COST = 512
_WINDOW_COST = 1 / 32


class Cell(Enum):
    MACRO = "macro"
    SMALL = "small"
    MACRO_ONLY = "macro_only"


@dataclass(frozen=True)
class CcdfCurve:
    """P(throughput >= level) on an ascending level grid (Mbps)."""

    levels: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    cell: Cell
    mass: float = 0.0        # coverage-measure share of the population (S_t / S~_t)
    n_samples: int = 0
    empty: bool = False

    def mean_throughput(self) -> float:
        rates, masses = curve_pmf(self)
        return float(np.dot(rates, masses))


def default_levels(eta0: float, n: int = 200, l_min: float = 0.05) -> np.ndarray:
    """Log-spaced level grid from l_min up to the peak rate."""
    return np.geomspace(l_min, eta0, n)


def _checked_levels(levels) -> np.ndarray:
    levels = np.asarray(levels, dtype=np.float64)
    if len(levels) < 2 or np.any(np.diff(levels) <= 0) or levels[0] <= 0:
        raise ValueError("levels must be ascending and positive")
    return levels


class FieldSamples:
    """Hotspot draws with the position-independent radio quantities
    precomputed once; shared by every snapshot of one experiment.

    Only the draws inside the domain are kept, in two sets, each in
    ascending g: the first ``n_core`` lie in the macro disk and so are in S*
    at every snapshot; the rest (the rim) are in S* only within
    ``small_reach`` of the small cell.  ``xy`` (column-major, so each
    coordinate is contiguous), ``g`` and the kernel's factor kappa r^2b_macro
    hold the core draws followed by the rim draws, one draw per index; ``n``
    still counts every draw, so masses stay shares of the whole population.
    ``fallbacks`` counts the snapshots that ``snapshot_sweep`` gave to the
    exact path (see the module docstring).  Nothing here depends on a level
    grid: the sweep makes its counting grid once per call.  The build peaks
    near what it keeps (1.75 times on the reference scenario): g and kappa
    r^2b_macro are made ``_BLOCK`` draws at a time and each set is sorted
    by permuting the kept arrays in place, every value bit for bit that of
    one pass over all the draws."""

    def __init__(self, spec: HotspotSpec, params: RadioParams, layout: CellLayout,
                 n: int, seed):
        self.params = params
        self.n = n
        xy = sample_xy(spec, n, seed)
        r = np.hypot(xy[:, 0], xy[:, 1])
        core = r <= layout.R                  # the macro disk lies inside the domain
        kept = np.concatenate([np.flatnonzero(core),
                               np.flatnonzero(~core & (r < _DOMAIN_FRAC * layout.delta))])
        c = self.n_core = int(np.count_nonzero(core))
        del core
        r = r[kept]
        self.xy = np.empty((len(kept), 2), order="F")
        self.xy[:, 0] = xy[kept, 0]
        self.xy[:, 1] = xy[kept, 1]
        del xy, kept                          # the draws are kept once
        # g and the kernel's per-draw factor (where one is not a normal
        # number, as with kappa = 0, every snapshot takes the exact path), a
        # block at a time so that no temporary spans every draw
        self.g = np.empty(len(r))
        self._kr = np.empty(len(r))
        for i in range(0, len(r), _BLOCK):
            b = slice(i, i + _BLOCK)
            self.g[b] = _g_formula(r[b], params, layout)
            self._kr[b] = params.kappa * r[b] ** (2.0 * params.b_macro)
        del r
        # each set in ascending g; any order among equal g gives the same counts
        for s in (slice(0, c), slice(c, None)):
            order = np.argsort(self.g[s])
            for a in (self.g, self._kr, self.xy[:, 0], self.xy[:, 1]):
                a[s] = a[s][order]
        self._fast = params.kappa > 0.0 and bool(np.all(self._kr >= _TINY))
        self.fallbacks = 0

    def at(self, Ls: PolarPoint, small_reach: float):
        """Position-dependent arrays for one snapshot with the small cell at
        ``Ls`` and coverage reach ``small_reach``, freshly made:
        ``(rim, macro_assoc, delta)``.

        The snapshot's S* users are every core draw followed by the rim draws
        ``rim`` (see ``rim`` and ``users``).  ``delta`` holds each user's
        power ratio small_rx * r^2b_macro, by the fast formula of the module
        docstring, and ``macro_assoc`` is delta <= 1."""
        rim = self.rim(Ls, small_reach)
        users = self.users(rim)
        delta = np.empty(len(users))
        self._power_ratio(Ls, self.xy[users], self._kr[users], delta, np.empty(len(users)))
        return rim, delta <= 1.0, delta

    def rim(self, Ls: PolarPoint, small_reach: float) -> np.ndarray:
        """The rim draws in S* with the small cell at ``Ls`` (indices into the
        draw arrays, ascending): those within ``small_reach`` of it, and with
        a reach of 0 a draw on the small cell itself.  Only these rim draws
        are evaluated at a snapshot."""
        c = self.n_core
        x, y = self.xy[c:, 0], self.xy[c:, 1]
        if small_reach > 0.0:
            near = np.hypot(x - Ls.x, y - Ls.y) <= small_reach
        else:
            near = (x == Ls.x) & (y == Ls.y)
        return c + np.flatnonzero(near)

    def _power_ratio(self, Ls: PolarPoint, xy, kr, out, work):
        """kr * (dx^2 + dy^2)^-b_small of the draws ``xy`` into ``out``, as
        kr * exp(-b_small ln(dx^2 + dy^2)) (see the module docstring)."""
        dx, dy = out, work
        np.subtract(xy[:, 0], Ls.x, out=dx)
        np.multiply(dx, dx, out=dx)
        np.subtract(xy[:, 1], Ls.y, out=dy)
        np.multiply(dy, dy, out=dy)
        np.add(dx, dy, out=out)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            np.log(out, out=out)
            np.multiply(out, -self.params.b_small, out=out)
            np.exp(out, out=out)
            np.multiply(out, kr, out=out)

    def users(self, rim: np.ndarray) -> np.ndarray:
        """Draw index of each S* user of a snapshot whose rim draws are ``rim``."""
        return np.concatenate([np.arange(self.n_core), rim])


def _level_grid(levels: np.ndarray, params: RadioParams):
    """``(below, thresholds, keys)`` of a level grid: the levels at or below
    the peak rate, where rate >= l iff 1/gamma <= psi(l); and the guard keys,
    the bottom of each threshold's guard band and then the float above its
    top, so that the count of sorted values below a key is the count below a
    band and then the count at or below its top."""
    below = levels <= params.eta0
    th = psi(levels[below], params)
    keys = np.concatenate([th * (1.0 - _GUARD_EPS),
                           np.nextafter(th * (1.0 + _GUARD_EPS), np.inf)])
    return below, th, keys


def _finish_curve(counts, n_sel, levels, below, cell, n) -> CcdfCurve:
    """The curve of ``n_sel`` users of ``n`` draws, ``counts`` of them at or
    below each threshold of the levels ``below`` the peak rate."""
    if n_sel == 0:
        z = np.zeros(len(levels))
        return CcdfCurve(levels, z, z.copy(), cell, 0.0, 0, empty=True)
    values = np.zeros(len(levels))
    values[below] = counts / n_sel
    stderr = np.sqrt(np.maximum(values * (1.0 - values), 0.0) / n_sel)
    return CcdfCurve(levels, values, stderr, cell, n_sel / n, n_sel)


def _windowed_m1_counts(g, m1, dmax, keys, below_g, work):
    """The count of ``m1`` values below each of ``keys``, where ``g`` is
    ascending, each m1 is fl(g + delta) for a delta in (0, ``dmax``] and
    ``below_g`` is the count of g below each key; or None where sorting m1
    is estimated cheaper.  ``work`` is a float array as long as ``g``.

    fl(g + dmax) < K proves m1 < K, and g >= K proves m1 >= K (see the
    module docstring), so only the m1 values between the two, a window for
    each key, are compared with it."""
    certain = np.searchsorted(np.add(g, dmax, out=work), keys)
    live = np.flatnonzero(certain < below_g)
    lo, hi = certain[live].tolist(), below_g[live].tolist()
    if _KEY_COST * len(live) + _WINDOW_COST * (sum(hi) - sum(lo)) >= len(g):
        return None
    for j, a, b in zip(live.tolist(), lo, hi):
        certain[j] = a + np.count_nonzero(m1[a:b] < keys[j])
    return certain


def _count_block(samples: FieldSamples, Ls: PolarPoint, xy, kr, g, g_counts, below_g,
                 keys, th, row, buffers):
    """Add the counts of one block of draws, the users ``xy``, ``kr`` and
    ``g`` (ascending) with the small cell at ``Ls``, to ``row``, and return
    its number of macro users; or None where the guard cannot prove them the
    exact path's.

    ``row`` holds, for m1, s1 and s0 in turn, the count of values below each
    guard key (see ``_level_grid``), and then the count of the macro
    users' g at or below each threshold; ``g_counts`` is that count over
    every user of the block, and ``below_g`` the count of g below each key,
    with which an all-macro block may count m1 in windows (see the module
    docstring).  ``buffers`` are two float work arrays and a bool one, at
    least as long as the block."""
    n, k = len(g), len(keys)
    delta, work, macro = (b[:n] for b in buffers)
    samples._power_ratio(Ls, xy, kr, delta, work)
    dmax = delta.max()
    if not (delta.min() >= _TINY and dmax < np.inf):
        return None
    m1 = np.add(g, delta, out=work)
    if dmax < 1.0 - _GUARD_EPS:
        # every user is macro-associated, and none lies in the tie band
        row[3 * k:] += g_counts
        counts = _windowed_m1_counts(g, m1, dmax, keys, below_g, delta)
        if counts is not None:
            row[:k] += counts
            return n
        n_m = n
    else:
        n_tie = np.count_nonzero(np.less_equal(delta, 1.0 + _GUARD_EPS, out=macro))
        n_m = int(np.count_nonzero(np.less(delta, 1.0 - _GUARD_EPS, out=macro)))
        if n_m != n_tie:
            return None
        # no delta lies in the tie band, so ``macro`` is the association delta <= 1
        small = np.logical_not(macro)
        g_s, d_s = g[small], delta[small]
        s1 = (g_s + 1.0) / d_s
        s0 = np.divide(g_s, d_s, out=d_s)
        for i, v in ((1, s1), (2, s0)):
            v.sort()
            row[i * k:(i + 1) * k] += np.searchsorted(v, keys)
        # m0 counts g alone, by complement; the gather keeps g ascending
        row[3 * k:] += g_counts - np.searchsorted(g_s, th, side="right")
        m1 = m1[macro]
    m1.sort()
    row[:k] += np.searchsorted(m1, keys)
    return n_m


def _exact_curves(Ls: PolarPoint, levels, samples: FieldSamples, rim):
    """(m1, m0, s1, s0) on the exact path, the guarded kernel's reference:
    small_rx from hypot and power, r^2b_macro and r^-2b_macro from hypot and
    power as ``FieldSamples`` takes them, association ``small_rx <=
    r^-2b_macro`` and ``radio``'s SINR kernels on the users of ``rim``."""
    below, th = _level_grid(levels, samples.params)[:2]
    users = samples.users(rim) if len(rim) else slice(0, samples.n_core)
    xy, g = samples.xy[users], samples.g[users]
    # small_rx = kappa * d^-2b_small, in place
    small_rx = xy[:, 0] - Ls.x
    np.hypot(small_rx, xy[:, 1] - Ls.y, out=small_rx)
    with np.errstate(divide="ignore"):
        np.power(small_rx, -2.0 * samples.params.b_small, out=small_rx)
    np.multiply(samples.params.kappa, small_rx, out=small_rx)
    r = np.hypot(xy[:, 0], xy[:, 1])
    b2 = 2.0 * samples.params.b_macro
    with np.errstate(divide="ignore"):
        macro = macro_association(small_rx, r ** (-b2))
    r_pow = r ** b2

    def curve(n_sel, inv_gamma, cell):
        counts = np.searchsorted(np.sort(inv_gamma), th, side="right")
        return _finish_curve(counts, n_sel, levels, below, cell, samples.n)

    m, s = np.flatnonzero(macro), np.flatnonzero(~macro)
    m1 = curve(len(m), macro_inverse_sinr(g[m], r_pow[m], small_rx[m]), Cell.MACRO)
    m0 = curve(len(m), g[m], Cell.MACRO)
    s1, s0 = (curve(len(s), small_inverse_sinr(g[s], r_pow[s], small_rx[s], central),
                    Cell.SMALL) for central in (True, False))
    return m1, m0, s1, s0


def _buffers(n):
    return np.empty(n), np.empty(n), np.empty(n, dtype=bool)


def snapshot_sweep(positions, small_reach: float, levels, samples: FieldSamples) -> list:
    """The four curves of each snapshot, (m1, m0, s1, s0), with the small
    cell at ``positions[i]`` and its coverage reach ``small_reach``: macro
    and small cell, each with its partner transmitting (1) and silent (0),
    under ``samples.params``.  They are counted from the power ratio block
    by block (see the module docstring), or on the exact path where the
    guard cannot prove those counts exact; either way bit for bit the exact
    path's."""
    levels = _checked_levels(levels)
    below, th, keys = _level_grid(levels, samples.params)
    k, n_th = len(keys), len(th)
    rows = np.zeros((len(positions), 3 * k + n_th), dtype=np.int64)
    n_macro = [0] * len(positions)
    exact = [not samples._fast] * len(positions)

    def ranks(g):
        """A block's counts of g at or below each threshold and below each
        key, read off its ascending g."""
        return np.searchsorted(g, th, side="right"), np.searchsorted(g, keys)

    def count(p, Ls, xy, kr, g, g_ranks, buffers):
        n_m = _count_block(samples, Ls, xy, kr, g, *g_ranks, keys, th, rows[p], buffers)
        if n_m is None:
            exact[p] = True
        else:
            n_macro[p] += n_m

    c = samples.n_core
    buffers = _buffers(min(c, _BLOCK))
    for lo in range(0, c, _BLOCK):
        block = slice(lo, min(lo + _BLOCK, c))
        xy, kr, g = samples.xy[block], samples._kr[block], samples.g[block]
        g_ranks = ranks(g)
        for p, Ls in enumerate(positions):
            if not exact[p]:
                count(p, Ls, xy, kr, g, g_ranks, buffers)
    out = []
    for p, Ls in enumerate(positions):
        rim = samples.rim(Ls, small_reach)
        if len(rim) and not exact[p]:
            # the rim users are one more block, in ascending g as the draws are
            g = samples.g[rim]
            count(p, Ls, samples.xy[rim], samples._kr[rim], g, ranks(g),
                  _buffers(len(rim)))
        # m1, s1 and s0: the count below each guard band, then at or below its top
        counts = rows[p, :3 * k].reshape(3, 2, n_th)
        if exact[p] or not np.array_equal(counts[:, 0], counts[:, 1]):
            samples.fallbacks += 1
            out.append(_exact_curves(Ls, levels, samples, rim))
            continue
        (m1, s1, s0), m0, n_m = counts[:, 0], rows[p, 3 * k:], n_macro[p]
        n_s = c + len(rim) - n_m
        out.append(tuple(_finish_curve(counted, n_sel, levels, below, cell, samples.n)
                         for counted, n_sel, cell in ((m1, n_m, Cell.MACRO),
                                                     (m0, n_m, Cell.MACRO),
                                                     (s1, n_s, Cell.SMALL),
                                                     (s0, n_s, Cell.SMALL))))
    return out


def snapshot_curves(Ls: PolarPoint, small_reach: float, levels, samples: FieldSamples):
    """The four curves of one snapshot, (m1, m0, s1, s0): ``snapshot_sweep``
    at the one position ``Ls``."""
    return snapshot_sweep([Ls], small_reach, levels, samples)[0]


def macro_ccdf(Ls: PolarPoint, small_reach: float, levels, samples: FieldSamples,
               include_small_interference: bool = True) -> CcdfCurve:
    """Throughput CCDF of macro-associated users within S*: ``snapshot_curves``'
    m1, or m0 with ``include_small_interference`` cleared.

    Clearing ``include_small_interference`` evaluates the same population with
    the small-cell term removed from the macro SINR (the partner-idle radio
    condition), which by construction dominates the interfered curve.
    """
    m1, m0, _, _ = snapshot_curves(Ls, small_reach, levels, samples)
    return m1 if include_small_interference else m0


def small_ccdf(Ls: PolarPoint, small_reach: float, levels, samples: FieldSamples,
               include_central_macro: bool = True) -> CcdfCurve:
    """Throughput CCDF of small-cell-associated users within S*:
    ``snapshot_curves``' s1, or s0 with ``include_central_macro`` cleared."""
    _, _, s1, s0 = snapshot_curves(Ls, small_reach, levels, samples)
    return s1 if include_central_macro else s0


def combined_ccdf(macro_curve: CcdfCurve, small_curve: CcdfCurve) -> CcdfCurve:
    """Coverage-mass-weighted mixture of the two cells' curves: the
    whole-network throughput distribution."""
    s, st = macro_curve.mass, small_curve.mass
    tot = s + st
    if tot == 0.0:
        z = np.zeros(len(macro_curve.levels))
        return CcdfCurve(macro_curve.levels, z, z.copy(), Cell.MACRO, 0.0, 0, empty=True)
    values = (s * macro_curve.values + st * small_curve.values) / tot
    stderr = np.hypot(s * macro_curve.stderr, st * small_curve.stderr) / tot
    return CcdfCurve(macro_curve.levels, values, stderr, Cell.MACRO, tot,
                     macro_curve.n_samples + small_curve.n_samples)


def macro_only_ccdf(levels, spec: HotspotSpec, params: RadioParams,
                    layout: CellLayout) -> CcdfCurve:
    """Closed-form CCDF when only macro cells operate.

    P(rate >= l) is the hotspot's mass inside radius
    Lambda(l) = min(g^-1(psi(l)), R), normalized by its mass inside R.  For
    the offset Gaussian (centre at R_h, spread A) the mass inside radius x is
    the noncentral chi-squared CDF with 2 degrees of freedom at (x/A)^2 and
    noncentrality (R_h/A)^2, i.e. 1 - Q_1(R_h/A, x/A) (Marcum Q): the
    integral of the Bessel-I0 radial density in closed form.
    """
    levels = _checked_levels(levels)
    if spec.R_h >= layout.R:
        raise ValueError("hotspot center must lie inside the macro disk")
    nc = (spec.R_h / spec.A) ** 2
    norm = chndtr((layout.R / spec.A) ** 2, 2, nc)
    values = np.zeros(len(levels))
    below = levels <= params.eta0
    if np.any(below):
        lam = inverse_interference_factor(psi(levels[below], params), params, layout)
        values[below] = chndtr((lam / spec.A) ** 2, 2, nc) / norm
    stderr = np.zeros(len(levels))
    return CcdfCurve(levels, values, stderr, Cell.MACRO_ONLY, float(norm), 0)


def curve_pmf(curve: CcdfCurve) -> tuple[np.ndarray, np.ndarray]:
    """Discrete throughput distribution implied by a CCDF on its level grid.

    Mass between consecutive levels is assigned to the lower level; mass below
    the bottom of the grid is floored at the lowest level. Masses sum to 1
    (conditional on association)."""
    v = curve.values
    masses = np.empty(len(v))
    masses[:-1] = v[:-1] - v[1:]
    masses[-1] = v[-1]
    masses[0] += 1.0 - v[0]
    masses = np.maximum(masses, 0.0)
    total = masses.sum()
    if total > 0:
        masses = masses / total
    return curve.levels.copy(), masses


def _equal_mass_bins(rates: np.ndarray, masses: np.ndarray, k: int):
    """Split a discrete rate distribution into k equal-mass classes.

    Atoms straddling a bin boundary are split proportionally. Returns the
    per-class mean rates (ascending) and the k+1 rate boundaries."""
    cum = np.concatenate([[0.0], np.cumsum(masses)])
    cum = cum / cum[-1]
    eta = np.empty(k)
    edges = np.empty(k + 1)
    edges[0] = rates[0]
    for j in range(k):
        lo, hi = j / k, (j + 1) / k
        # overlap of each atom's cumulative span [cum_i, cum_{i+1}] with [lo, hi]
        take = np.minimum(cum[1:], hi) - np.maximum(cum[:-1], lo)
        take = np.maximum(take, 0.0)
        w = take.sum()
        eta[j] = float(np.dot(rates, take) / w) if w > 0 else edges[j]
        nz = np.nonzero(take > 0)[0]
        edges[j + 1] = rates[nz[-1]] if len(nz) else edges[j]
    return eta, edges


@dataclass
class ClassProfile:
    """Flow classes at one snapshot: per-class rates for both interference
    phases and Poisson arrival intensities.  Classes are equal-mass bins of
    a cell's throughput distribution, so each holds 1/K (1/L) of its cell's
    users."""

    K: int
    L: int
    eta_macro: np.ndarray       # (K, 2): column 0 partner idle, column 1 interfered
    eta_small: np.ndarray       # (L, 2)
    lambda_macro: np.ndarray
    lambda_small: np.ndarray
    S_t: float
    S_tilde_t: float
    macro_edges: np.ndarray = field(default=None, repr=False, compare=False)
    small_edges: np.ndarray = field(default=None, repr=False, compare=False)
    macro_curve: CcdfCurve = field(default=None, repr=False, compare=False)
    small_curve: CcdfCurve = field(default=None, repr=False, compare=False)

    @property
    def small_share(self) -> float:
        tot = self.S_t + self.S_tilde_t
        return self.S_tilde_t / tot if tot > 0 else 0.0


def extract_classes(macro_curve: CcdfCurve, small_curve: CcdfCurve,
                    macro_curve_phase0: CcdfCurve, small_curve_phase0: CcdfCurve,
                    K: int, L: int, lambda_tot: float) -> ClassProfile:
    """Partition each cell's throughput distribution into equal-mass classes.

    Class identity is the throughput quantile rank, so the partner-idle rate
    of class k is the same quantile bin of the interference-free curve.  With
    identical draws behind both curves the bin means are ordered up to the
    rounding of the class sums, so the idle rate is max(idle, interfered) and
    eta[k, idle] >= eta[k, interfered] holds exactly.  Arrival intensities
    split the total Poisson intensity by coverage mass, then equally over a
    cell's classes.
    """
    if K < 1 or L < 1:
        raise ValueError("class counts must be >= 1")
    if not np.array_equal(macro_curve.levels, small_curve.levels):
        raise ValueError("curves must share one level grid")

    def bins(curve: CcdfCurve, k: int, fallback: float):
        if curve.empty:
            return np.full(k, fallback), np.full(k + 1, fallback)
        rates, masses = curve_pmf(curve)
        if np.count_nonzero(masses > 0) <= 1:
            warnings.warn(f"degenerate {curve.cell.value} CCDF: single-rate fallback")
        return _equal_mass_bins(rates, masses, k)

    floor_rate = float(macro_curve.levels[0])
    eta_m1, edges_m = bins(macro_curve, K, floor_rate)
    eta_m0 = np.maximum(bins(macro_curve_phase0, K, floor_rate)[0], eta_m1)
    eta_s1, edges_s = bins(small_curve, L, floor_rate)
    eta_s0 = np.maximum(bins(small_curve_phase0, L, floor_rate)[0], eta_s1)

    S, S_t = macro_curve.mass, small_curve.mass
    tot = S + S_t
    lam_m = np.full(K, lambda_tot * (S / tot) * (1.0 / K)) if tot > 0 else np.zeros(K)
    lam_s = np.full(L, lambda_tot * (S_t / tot) * (1.0 / L)) if tot > 0 else np.zeros(L)

    return ClassProfile(
        K=K, L=L,
        eta_macro=np.column_stack([eta_m0, eta_m1]),
        eta_small=np.column_stack([eta_s0, eta_s1]),
        lambda_macro=lam_m, lambda_small=lam_s,
        S_t=S, S_tilde_t=S_t,
        macro_edges=edges_m, small_edges=edges_s,
        macro_curve=macro_curve, small_curve=small_curve,
    )
