"""Instantaneous throughput CCDFs for both cells, the macro-only closed form,
and discretization of the curves into coupled flow classes.

All Monte Carlo curves at different snapshot times reuse the same hotspot
draws (common random numbers): the hotspot is stationary, so only the
small-cell position changes between snapshots and curve differences in time
are not drowned in sampling noise.
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


def _validate_levels(levels: np.ndarray):
    if len(levels) < 2 or np.any(np.diff(levels) <= 0) or levels[0] <= 0:
        raise ValueError("levels must be ascending and positive")


class FieldSamples:
    """Hotspot draws with the position-independent radio quantities
    precomputed once; shared by every snapshot of one experiment."""

    def __init__(self, spec: HotspotSpec, params: RadioParams, layout: CellLayout,
                 n: int, seed):
        self.spec = spec
        self.params = params
        self.layout = layout
        self.n = n
        self.seed = seed
        self.xy = sample_xy(spec, n, seed)
        self.r = np.hypot(self.xy[:, 0], self.xy[:, 1])
        self.domain = self.r < _DOMAIN_FRAC * layout.delta
        b2 = 2.0 * params.b_macro
        self.r_pow = self.r ** b2
        with np.errstate(divide="ignore"):
            self.r_neg_pow = self.r ** (-b2)
        rr = np.where(self.domain, self.r, 0.0)
        self.g = np.where(self.domain, _g_formula(rr, params, layout), np.inf)
        self.macro_disk = self.r <= layout.R
        self._last = (None, None)   # (key, arrays) of the latest ``at`` call

    def at(self, Ls: PolarPoint, region: CoverageRegion):
        """Position-dependent arrays for one snapshot, read-only.

        The latest result is kept: the macro and small curves of both phases
        at one snapshot ask for the same position and region in turn.  The
        key is exact, so a repeated call returns the very arrays a fresh
        evaluation would compute."""
        key = (Ls.x, Ls.y, region.macro_radius, region.small_reach)
        if self._last[0] == key:
            return self._last[1]
        d = np.hypot(self.xy[:, 0] - Ls.x, self.xy[:, 1] - Ls.y)
        with np.errstate(divide="ignore"):
            d_neg_pow = d ** (-2.0 * self.params.b_small)
        small_rx = self.params.kappa * d_neg_pow
        in_region = (self.macro_disk | (d <= region.small_reach)) & self.domain
        out = (in_region, macro_association(small_rx, self.r_neg_pow), small_rx)
        for a in out:
            a.flags.writeable = False
        self._last = (key, out)
        return out


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


def macro_ccdf(t: float, Ls: PolarPoint, levels, spec: HotspotSpec, params: RadioParams,
               region: CoverageRegion, layout: CellLayout, n: int = 200_000, seed=0,
               include_small_interference: bool = True,
               samples: FieldSamples | None = None) -> CcdfCurve:
    """Throughput CCDF of macro-associated users within S*.

    Clearing ``include_small_interference`` evaluates the same population with
    the small-cell term removed from the macro SINR (the partner-idle radio
    condition), which by construction dominates the interfered curve.
    """
    levels = np.asarray(levels, dtype=np.float64)
    _validate_levels(levels)
    if samples is None:
        samples = FieldSamples(spec, params, layout, n, seed)
    in_region, macro_assoc, small_rx = samples.at(Ls, region)
    sel = in_region & macro_assoc
    mass = float(np.count_nonzero(sel)) / samples.n
    inv_gamma = samples.g[sel]
    if include_small_interference:
        inv_gamma = macro_inverse_sinr(inv_gamma, samples.r_pow[sel], small_rx[sel])
    return _finish_curve(inv_gamma, levels, params, Cell.MACRO, t, mass)


def small_ccdf(t: float, Ls: PolarPoint, levels, spec: HotspotSpec, params: RadioParams,
               region: CoverageRegion, layout: CellLayout, n: int = 200_000, seed=0,
               include_central_macro: bool = True,
               samples: FieldSamples | None = None) -> CcdfCurve:
    """Throughput CCDF of small-cell-associated users within S*."""
    levels = np.asarray(levels, dtype=np.float64)
    _validate_levels(levels)
    if samples is None:
        samples = FieldSamples(spec, params, layout, n, seed)
    in_region, macro_assoc, small_rx = samples.at(Ls, region)
    sel = in_region & ~macro_assoc
    mass = float(np.count_nonzero(sel)) / samples.n
    inv_gamma = small_inverse_sinr(samples.g[sel], samples.r_pow[sel], small_rx[sel],
                                   include_central_macro)
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
    levels = np.asarray(levels, dtype=np.float64)
    _validate_levels(levels)
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
