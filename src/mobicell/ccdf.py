"""Instantaneous throughput CCDFs for both cells, the macro-only closed form,
and discretization of the curves into coupled flow classes.

All Monte Carlo curves at different snapshot times reuse the same hotspot
draws (common random numbers): the hotspot is stationary, so only the
small-cell position changes between snapshots and curve differences in time
are not drowned in sampling noise.  ``snapshot_curves`` evaluates the field
once per snapshot and gathers each cell's users once, for both interference
phases.

A snapshot touches only the draws that can be in S*: every draw in the macro
disk and, of the draws outside it, those within ``small_reach`` of the small
cell (with a reach of 0, a draw on the small cell itself).  Draws outside the
domain are dropped once, when ``FieldSamples`` is built.  A curve counts
sorted values against fixed thresholds, so it depends only on which users
enter it, never on their order.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.integrate import quad

from mobicell.geometry import CellLayout
from mobicell.geometry import PolarPoint
from mobicell.hotspot import CoverageRegion, HotspotSpec, sample_xy
from mobicell.radio import (RadioParams, _g_formula, inverse_interference_factor,
                            macro_association, macro_inverse_sinr, psi,
                            small_inverse_sinr)
from mobicell.special import log_bessel_i0

# fraction of the inter-site distance beyond which the macro interference
# model is no longer evaluated; samples past it are treated as uncovered
_DOMAIN_FRAC = 0.995


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
    t: float = 0.0
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

    Only the draws inside the domain are kept, in two order-preserving sets:
    the first ``n_core`` lie in the macro disk and so are in S* at every
    snapshot; the rest (the rim) are in S* only within ``small_reach`` of the
    small cell.  ``xy``, ``g``, ``r_pow`` and ``r_neg_pow`` hold the core
    draws followed by the rim draws; ``n`` still counts every draw, so masses
    stay shares of the whole population."""

    def __init__(self, spec: HotspotSpec, params: RadioParams, layout: CellLayout,
                 n: int, seed):
        self.spec = spec
        self.params = params
        self.layout = layout
        self.n = n
        self.seed = seed
        xy = sample_xy(spec, n, seed)
        r = np.hypot(xy[:, 0], xy[:, 1])
        core = r <= layout.R                  # the macro disk lies inside the domain
        rim = ~core & (r < _DOMAIN_FRAC * layout.delta)
        self.n_core = int(np.count_nonzero(core))
        self.xy = np.concatenate([xy[core], xy[rim]])
        r = np.concatenate([r[core], r[rim]])
        del xy                                # the draws are kept once, split
        b2 = 2.0 * params.b_macro
        self.r_pow = r ** b2
        with np.errstate(divide="ignore"):
            self.r_neg_pow = r ** (-b2)
        self.g = _g_formula(r, params, layout)
        self._last = (None, None)   # (key, arrays) of the latest ``at`` call

    def at(self, Ls: PolarPoint, region: CoverageRegion):
        """Position-dependent arrays for one snapshot, read-only:
        ``(rim, macro_assoc, small_rx)``.

        The snapshot's S* users are every core draw followed by the rim draws
        ``rim`` (indices into the draw arrays, ascending; see ``users``);
        ``macro_assoc`` and ``small_rx`` hold one entry per user.  Only those
        users are evaluated: the rest of the rim is tested against the
        small-cell disk, and with ``small_reach`` 0 that disk holds only a
        draw on the small cell itself.

        The latest result is kept: the one-curve calls ``macro_ccdf`` and
        ``small_ccdf`` at one snapshot ask for the same position in turn.  The
        key is exact, so a repeated call returns the very arrays a fresh
        evaluation would compute."""
        key = (Ls.x, Ls.y, region.macro_radius, region.small_reach)
        if self._last[0] == key:
            return self._last[1]
        x, y = self.xy[self.n_core:, 0], self.xy[self.n_core:, 1]
        if region.small_reach > 0.0:
            near = np.hypot(x - Ls.x, y - Ls.y) <= region.small_reach
        else:
            near = (x == Ls.x) & (y == Ls.y)
        rim = self.n_core + np.flatnonzero(near)
        users = self.users(rim) if len(rim) else slice(0, self.n_core)
        xy = self.xy[users]
        # small_rx = kappa * d^-2b_small, in place: fewer temporaries to fragment the heap
        small_rx = xy[:, 0] - Ls.x
        np.hypot(small_rx, xy[:, 1] - Ls.y, out=small_rx)
        with np.errstate(divide="ignore"):
            np.power(small_rx, -2.0 * self.params.b_small, out=small_rx)
        np.multiply(self.params.kappa, small_rx, out=small_rx)
        out = (rim, macro_association(small_rx, self.r_neg_pow[users]), small_rx)
        for a in out:
            a.flags.writeable = False
        self._last = (key, out)
        return out

    def users(self, rim: np.ndarray) -> np.ndarray:
        """Draw index of each S* user of a snapshot whose ``at`` gave ``rim``."""
        return np.concatenate([np.arange(self.n_core), rim])


def _counts_curve(inv_gamma: np.ndarray, levels: np.ndarray, params: RadioParams):
    """CCDF values from per-sample inverse SINRs: rate >= l iff 1/gamma <= psi(l)."""
    n = len(inv_gamma)
    values = np.zeros(len(levels))
    below = levels <= params.eta0
    if n > 0 and np.any(below):
        x = np.sort(inv_gamma)
        thresholds = psi(levels[below], params)
        values[below] = np.searchsorted(x, thresholds, side="right") / n
    return values


def _finish_curve(inv_gamma, levels, params, cell, t, mass) -> CcdfCurve:
    n_sel = len(inv_gamma)
    if n_sel == 0:
        z = np.zeros(len(levels))
        return CcdfCurve(levels, z, z.copy(), cell, t, 0.0, 0, empty=True)
    values = _counts_curve(inv_gamma, levels, params)
    stderr = np.sqrt(np.maximum(values * (1.0 - values), 0.0) / n_sel)
    return CcdfCurve(levels, values, stderr, cell, t, mass, n_sel)


def _cell_users(samples: FieldSamples, arrays, small: bool):
    """One cell's users within S* at one snapshot: their coverage mass and
    the gathered g, r_pow and small_rx, from the ``arrays`` of ``samples.at``."""
    rim, macro_assoc, small_rx = arrays
    sel = np.flatnonzero(~macro_assoc if small else macro_assoc)
    draws = samples.users(rim)[sel] if len(rim) else sel
    return len(sel) / samples.n, samples.g[draws], samples.r_pow[draws], small_rx[sel]


def snapshot_curves(t: float, Ls: PolarPoint, levels, params: RadioParams,
                    region: CoverageRegion, samples: FieldSamples):
    """The four curves of one snapshot, (m1, m0, s1, s0): macro and small
    cell, each with its partner transmitting (1) and silent (0).  Both phases
    of a cell come from one selection and one gather."""
    levels = _checked_levels(levels)
    arrays = samples.at(Ls, region)
    mass, g, r_pow, small_rx = _cell_users(samples, arrays, small=False)
    m1 = _finish_curve(macro_inverse_sinr(g, r_pow, small_rx), levels, params,
                       Cell.MACRO, t, mass)
    m0 = _finish_curve(g, levels, params, Cell.MACRO, t, mass)
    mass, g, r_pow, small_rx = _cell_users(samples, arrays, small=True)
    s1, s0 = (_finish_curve(small_inverse_sinr(g, r_pow, small_rx, central), levels,
                            params, Cell.SMALL, t, mass) for central in (True, False))
    return m1, m0, s1, s0


def macro_ccdf(t: float, Ls: PolarPoint, levels, spec: HotspotSpec, params: RadioParams,
               region: CoverageRegion, layout: CellLayout, n: int = 200_000, seed=0,
               include_small_interference: bool = True,
               samples: FieldSamples | None = None) -> CcdfCurve:
    """Throughput CCDF of macro-associated users within S*.

    Clearing ``include_small_interference`` evaluates the same population with
    the small-cell term removed from the macro SINR (the partner-idle radio
    condition), which by construction dominates the interfered curve.
    """
    levels = _checked_levels(levels)
    if samples is None:
        samples = FieldSamples(spec, params, layout, n, seed)
    mass, inv_gamma, r_pow, small_rx = _cell_users(samples, samples.at(Ls, region),
                                                   small=False)
    if include_small_interference:
        inv_gamma = macro_inverse_sinr(inv_gamma, r_pow, small_rx)
    return _finish_curve(inv_gamma, levels, params, Cell.MACRO, t, mass)


def small_ccdf(t: float, Ls: PolarPoint, levels, spec: HotspotSpec, params: RadioParams,
               region: CoverageRegion, layout: CellLayout, n: int = 200_000, seed=0,
               include_central_macro: bool = True,
               samples: FieldSamples | None = None) -> CcdfCurve:
    """Throughput CCDF of small-cell-associated users within S*."""
    levels = _checked_levels(levels)
    if samples is None:
        samples = FieldSamples(spec, params, layout, n, seed)
    mass, g, r_pow, small_rx = _cell_users(samples, samples.at(Ls, region), small=True)
    inv_gamma = small_inverse_sinr(g, r_pow, small_rx, include_central_macro)
    return _finish_curve(inv_gamma, levels, params, Cell.SMALL, t, mass)


def combined_ccdf(macro_curve: CcdfCurve, small_curve: CcdfCurve) -> CcdfCurve:
    """Coverage-mass-weighted mixture of the two cells' curves: the
    whole-network throughput distribution."""
    s, st = macro_curve.mass, small_curve.mass
    tot = s + st
    if tot == 0.0:
        z = np.zeros(len(macro_curve.levels))
        return CcdfCurve(macro_curve.levels, z, z.copy(), Cell.MACRO, macro_curve.t,
                         0.0, 0, empty=True)
    values = (s * macro_curve.values + st * small_curve.values) / tot
    stderr = np.hypot(s * macro_curve.stderr, st * small_curve.stderr) / tot
    return CcdfCurve(macro_curve.levels, values, stderr, Cell.MACRO, macro_curve.t,
                     tot, macro_curve.n_samples + small_curve.n_samples)


def macro_only_ccdf(levels, spec: HotspotSpec, params: RadioParams,
                    layout: CellLayout) -> CcdfCurve:
    """Closed-form CCDF when only macro cells operate.

    P(rate >= l) is the Gaussian radial mass inside radius
    Lambda(l) = min(g^-1(psi(l)), R), normalized by the mass inside R; the
    radial density of an offset Gaussian brings in the modified Bessel I0.
    Adaptive quadrature, absolute error well below 1e-8.
    """
    levels = _checked_levels(levels)
    if spec.R_h >= layout.R:
        raise ValueError("hotspot center must lie inside the macro disk")
    a2 = spec.A ** 2
    rh = spec.R_h

    def integrand(r: float) -> float:
        return r / a2 * math.exp(-(r * r + rh * rh) / (2.0 * a2)
                                 + log_bessel_i0(r * rh / a2))

    def radial_mass(lam: float) -> float:
        if lam <= 0.0:
            return 0.0
        val, _ = quad(integrand, 0.0, lam, epsabs=1e-12, epsrel=1e-11, limit=200)
        return val

    norm = radial_mass(layout.R)
    below = levels <= params.eta0
    lam = np.zeros(len(levels))
    if np.any(below):
        lam[below] = inverse_interference_factor(psi(levels[below], params), params, layout)
    values = np.array([radial_mass(x) / norm if b else 0.0
                       for x, b in zip(lam, below)])
    stderr = np.zeros(len(levels))
    return CcdfCurve(levels, values, stderr, Cell.MACRO_ONLY, 0.0, norm, 0)


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
    phases, class densities and Poisson arrival intensities."""

    t: float
    K: int
    L: int
    eta_macro: np.ndarray       # (K, 2): column 0 partner idle, column 1 interfered
    eta_small: np.ndarray       # (L, 2)
    p_macro: np.ndarray
    p_small: np.ndarray
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
    of class k is the same quantile bin of the interference-free curve; with
    identical draws behind both curves this guarantees the phase ordering
    eta[k, idle] >= eta[k, interfered].  Arrival intensities split the total
    Poisson intensity by coverage mass and class density.
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
    eta_m0, _ = bins(macro_curve_phase0, K, floor_rate)
    eta_s1, edges_s = bins(small_curve, L, floor_rate)
    eta_s0, _ = bins(small_curve_phase0, L, floor_rate)

    S, S_t = macro_curve.mass, small_curve.mass
    tot = S + S_t
    p_m = np.full(K, 1.0 / K)
    p_s = np.full(L, 1.0 / L)
    lam_m = lambda_tot * (S / tot) * p_m if tot > 0 else np.zeros(K)
    lam_s = lambda_tot * (S_t / tot) * p_s if tot > 0 else np.zeros(L)

    return ClassProfile(
        t=macro_curve.t, K=K, L=L,
        eta_macro=np.column_stack([eta_m0, eta_m1]),
        eta_small=np.column_stack([eta_s0, eta_s1]),
        p_macro=p_m, p_small=p_s,
        lambda_macro=lam_m, lambda_small=lam_s,
        S_t=S, S_tilde_t=S_t,
        macro_edges=edges_m, small_edges=edges_s,
        macro_curve=macro_curve, small_curve=small_curve,
    )


def curves_to_csv(path, curves, extra_header_lines=()) -> None:
    """CSV schema: t_s, cell, level_mbps, ccdf, stderr."""
    with open(path, "w", newline="") as fh:
        for line in extra_header_lines:
            fh.write(line.rstrip("\n") + "\n")
        w = csv.writer(fh)
        w.writerow(["t_s", "cell", "level_mbps", "ccdf", "stderr"])
        for curve in curves:
            for l, v, se in zip(curve.levels, curve.values, curve.stderr):
                w.writerow([f"{curve.t:.3f}", curve.cell.value,
                            f"{l:.6f}", f"{v:.8f}", f"{se:.8f}"])
