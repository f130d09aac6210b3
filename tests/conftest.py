"""Shared builders for synthetic class profiles, the exact coupled-chain
oracles used by the flow-simulation and analytic tests, the Monte Carlo
indicator integral over the covered region used by the hotspot tests, and
the lattice-sum oracle of the interference factor used by the geometry,
radio and acceptance tests, and the reference build of the field samples'
arrays used by the CCDF tests."""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mobicell.ccdf import _DOMAIN_FRAC, _TINY, ClassProfile
from mobicell.geometry import CellLayout, PolarPoint
from mobicell.hotspot import HotspotSpec, sample_xy
from mobicell.radio import RadioParams, _g_formula


def make_profile(lam_m=(1.0,), lam_s=(0.0,), eta_m0=(10.0,), eta_m1=None,
                 eta_s0=(10.0,), eta_s1=None, S=0.5, S_tilde=0.5):
    """Synthetic profile; phase-1 rates default to the phase-0 ones."""
    lam_m = np.asarray(lam_m, dtype=float)
    lam_s = np.asarray(lam_s, dtype=float)
    eta_m0 = np.asarray(eta_m0, dtype=float)
    eta_s0 = np.asarray(eta_s0, dtype=float)
    eta_m1 = eta_m0 if eta_m1 is None else np.asarray(eta_m1, dtype=float)
    eta_s1 = eta_s0 if eta_s1 is None else np.asarray(eta_s1, dtype=float)
    K, L = len(lam_m), len(lam_s)
    return ClassProfile(
        K=K, L=L,
        eta_macro=np.column_stack([eta_m0, eta_m1]),
        eta_small=np.column_stack([eta_s0, eta_s1]),
        lambda_macro=lam_m, lambda_small=lam_s,
        S_t=S, S_tilde_t=S_tilde,
    )


def migration_chain(lam_m, lam_s, sigma0, eta_m0, eta_m1, eta_s0, eta_s1,
                    nu_up, nu_down, ho_m2s, ho_s2m, n_max=20):
    """Generator of K macro classes and one small-cell class with class
    migrations and handovers, truncated at ``n_max`` flows per class: a CTMC
    on (n_1..n_K, m).  Macro class k drains at n_k/|n| * eta_k / sigma0 in
    the partner's phase; a macro flow in class k moves up at nu_up[k], down
    at nu_down[k] and to the small cell at ho_m2s; a small-cell flow moves to
    macro class 1 at ho_s2m.  Moves into a full class are blocked.  Returns
    the states, the generator Q (CSR) and, per state, the total rate of its
    blocked moves."""
    K = len(lam_m)
    states = list(itertools.product(range(n_max + 1), repeat=K + 1))
    # states are in row-major order: coordinate j moves the index by stride[j]
    stride = [(n_max + 1) ** (K - j) for j in range(K + 1)]
    rows, cols, vals = [], [], []
    blocked = np.zeros(len(states))

    def move(i, s, rate, up=None, down=None):
        """One flow into coordinate ``up`` and/or out of ``down``."""
        if rate > 0:
            if up is not None and s[up] == n_max:
                blocked[i] += rate
            else:
                rows.append(i)
                cols.append(i + (0 if up is None else stride[up])
                            - (0 if down is None else stride[down]))
                vals.append(rate)

    for i, s in enumerate(states):
        n, m = s[:K], s[K]
        tot = sum(n)
        for k in range(K):
            move(i, s, lam_m[k], up=k)
            if n[k]:
                eta = eta_m1[k] if m else eta_m0[k]
                move(i, s, n[k] / tot * eta / sigma0, down=k)
                if k + 1 < K:
                    move(i, s, n[k] * nu_up[k], k + 1, k)
                if k > 0:
                    move(i, s, n[k] * nu_down[k], k - 1, k)
                move(i, s, n[k] * ho_m2s, K, k)
        move(i, s, lam_s, up=K)
        if m:
            move(i, s, (eta_s1 if tot else eta_s0) / sigma0, down=K)
            move(i, s, m * ho_s2m, 0, K)
    size = len(states)
    Q = sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()
    Q = Q - sp.diags(np.asarray(Q.sum(axis=1)).ravel())
    return states, Q, blocked


def migration_chain_stationary(n_max=20, **chain):
    """Exact stationary law of :func:`migration_chain`, keyed (macro
    counts, small counts)."""
    states, Q, _ = migration_chain(n_max=n_max, **chain)
    K = len(states[0]) - 1
    A = Q.T.tolil()
    A[0, :] = 1.0
    b = np.zeros(len(states))
    b[0] = 1.0
    pi = np.maximum(spla.spsolve(A.tocsr(), b), 0.0)
    pi /= pi.sum()
    return {(s[:K], s[K:]): p for s, p in zip(states, pi) if p > 0}


def coupled_chain_stationary(lam_m, lam_s, sigma0, eta_m0, eta_m1, eta_s0, eta_s1,
                             n_max=80):
    """Exact stationary law of the single-class coupled pair, keyed (n, m):
    :func:`migration_chain` with one macro class and no migrations or
    handovers, where each cell drains at its partner-phase rate / sigma0."""
    law = migration_chain_stationary(
        n_max=n_max, lam_m=(lam_m,), lam_s=lam_s, sigma0=sigma0, eta_m0=(eta_m0,),
        eta_m1=(eta_m1,), eta_s0=eta_s0, eta_s1=eta_s1, nu_up=(0.0,), nu_down=(0.0,),
        ho_m2s=0.0, ho_s2m=0.0)
    return {(n[0], m[0]): p for (n, m), p in law.items()}


def migration_chain_piece_integrals(pieces, n_max):
    """Exact expected per-piece integrals of :func:`migration_chain` from
    the empty state, with parameters piecewise constant: ``pieces`` lists
    (duration, chain parameters).  Each piece integrates the generator
    augmented with a reward block (Van Loan 1978): for p(0) the
    distribution at the piece's start and R the rewards per state,
    exp([[Q, R], [0, 0]] tau) carries (p(0), 0) to (p(tau),
    p(0) int_0^tau exp(Q s) ds R).  Returns the per-piece expected integral
    of |n| dt per cell, of served Mbits per cell, both (n_pieces, 2), and the
    expected number of blocked moves over the run, which bounds the
    probability that the untruncated chain leaves the box."""
    int_n, served = [], []
    p = None
    dropped = 0.0
    for tau, chain in pieces:
        states, Q, blocked = migration_chain(n_max=n_max, **chain)
        K = len(states[0]) - 1
        S = np.asarray(states)
        n_tot, m = S[:, :K].sum(axis=1), S[:, K]
        em = np.where(m[:, None] > 0, chain["eta_m1"], chain["eta_m0"])
        macro_rate = np.divide((S[:, :K] * em).sum(axis=1), n_tot,
                               out=np.zeros(len(S)), where=n_tot > 0)
        small_rate = np.where(m > 0, np.where(n_tot > 0, chain["eta_s1"], chain["eta_s0"]),
                              0.0)
        R = np.column_stack([n_tot, m, macro_rate, small_rate, blocked])
        size, r = len(states), R.shape[1]
        MT = sp.bmat([[Q.T, None], [sp.csr_matrix(R.T), sp.csr_matrix((r, r))]]).tocsc()
        if p is None:
            p = np.zeros(size)
            p[0] = 1.0   # the empty state comes first
        out = spla.expm_multiply(MT * tau, np.concatenate([p, np.zeros(r)]))
        p, acc = out[:size], out[size:]
        int_n.append(acc[0:2])
        served.append(acc[2:4])
        dropped += acc[4]
    return np.array(int_n), np.array(served), dropped


@dataclass(frozen=True)
class Region:
    """S*: the macro disk of radius ``macro_radius`` plus the disk of radius
    ``small_reach`` around the small cell at ``small_center``."""

    macro_radius: float
    small_center: PolarPoint
    small_reach: float


class DegenerateRegionError(RuntimeError):
    """No probability mass of the hotspot falls inside the covered region."""


def density(m: PolarPoint, spec: HotspotSpec) -> float:
    """Probability density (1/Km^2) of the user measure at point ``m``."""
    c = spec.center
    d2 = (m.x - c.x) ** 2 + (m.y - c.y) ** 2
    return math.exp(-d2 / (2.0 * spec.A ** 2)) / (2.0 * math.pi * spec.A ** 2)


def sample(spec: HotspotSpec, n: int, seed) -> list[PolarPoint]:
    """Same draws as :func:`sample_xy`, materialized as points."""
    xy = sample_xy(spec, n, seed)
    return [PolarPoint(float(x), float(y)) for x, y in xy]


def in_region_xy(xy: np.ndarray, region: Region) -> np.ndarray:
    """Boolean mask of points inside S*."""
    r2 = xy[:, 0] ** 2 + xy[:, 1] ** 2
    inside = r2 <= region.macro_radius ** 2
    if region.small_reach > 0.0:
        sc = region.small_center
        d2 = (xy[:, 0] - sc.x) ** 2 + (xy[:, 1] - sc.y) ** 2
        inside |= d2 <= region.small_reach ** 2
    return inside


@dataclass(frozen=True)
class IndicatorEstimate:
    mass: float       # estimated integral of the indicator against the measure over S*
    stderr: float
    n_accepted: int
    n_total: int


def integrate_indicator(f, spec: HotspotSpec, region: Region, n: int, seed,
                        vectorized: bool = False) -> IndicatorEstimate:
    """Monte Carlo mass of {f holds} within S* under the user measure.

    ``f`` maps a PolarPoint to bool; pass ``vectorized=True`` if it instead
    accepts the full (n, 2) coordinate array and returns a boolean mask.
    Sampling is deterministic for a fixed seed, so indicator estimates built
    on a common seed share their draws (common random numbers).
    """
    xy = sample_xy(spec, n, seed)
    inside = in_region_xy(xy, region)
    n_acc = int(np.count_nonzero(inside))
    if n_acc == 0:
        raise DegenerateRegionError("no hotspot mass inside the covered region")
    if vectorized:
        hits = np.asarray(f(xy), dtype=bool) & inside
    else:
        hits = inside.copy()
        idx = np.nonzero(inside)[0]
        for i in idx:
            hits[i] = f(PolarPoint(float(xy[i, 0]), float(xy[i, 1])))
    p = float(np.count_nonzero(hits)) / n
    stderr = math.sqrt(max(p * (1.0 - p), 0.0) / n)
    return IndicatorEstimate(mass=p, stderr=stderr, n_accepted=n_acc, n_total=n)


def interferer_positions(layout: CellLayout) -> list[PolarPoint]:
    """Centers of all macro sites within ``rings_for_oracle`` hex rings of the
    origin, origin excluded; ring j holds 6j sites. One site pair lies on the
    x-axis."""
    delta = layout.delta
    n = layout.rings_for_oracle
    sites = []
    for u in range(-n, n + 1):
        for v in range(-n, n + 1):
            if u == 0 and v == 0:
                continue
            # hex ring index in axial coordinates
            if max(abs(u), abs(v), abs(u + v)) > n:
                continue
            sites.append(PolarPoint(delta * (u + 0.5 * v), delta * (math.sqrt(3.0) / 2.0) * v))
    return sites


def _lattice_g(px, py, r, params: RadioParams, layout: CellLayout):
    """Direct lattice sum for g at positions (px, py) of radius r, elementwise:
    (alpha * P * sum_i d_i^-2b + P_N) / (P * r^-2b)."""
    sites = interferer_positions(layout)
    sx = np.array([s.x for s in sites])
    sy = np.array([s.y for s in sites])
    b2 = 2.0 * params.b_macro
    d = np.hypot(np.asarray(px)[..., None] - sx, np.asarray(py)[..., None] - sy)
    return (params.alpha * params.P * np.sum(d ** (-b2), axis=-1) + params.P_N) \
        / (params.P * r ** (-b2))


def interference_factor_oracle(point: PolarPoint, params: RadioParams, layout: CellLayout) -> float:
    """Brute-force g at an explicit position: direct sum over the interferer
    lattice, (alpha * P * sum_i d_i^-2b + P_N) / (P * r^-2b).

    Unlike the closed form this depends on the azimuth; averaging it over
    azimuths is the validation oracle for the closed form.
    """
    r = point.r
    if r <= 0.0:
        raise ValueError("oracle undefined at r = 0 (serving power infinite)")
    if r > layout.R:
        raise ValueError(f"r outside (0, R={layout.R:.6f}] Km")
    return float(_lattice_g(point.x, point.y, r, params, layout))


def _interference_oracle_grid(r_values, params: RadioParams, layout: CellLayout,
                              n_azimuths: int = 360) -> np.ndarray:
    """Azimuth-averaged lattice-sum g on an array of radii (vectorized)."""
    theta = np.linspace(0.0, 2.0 * math.pi, n_azimuths, endpoint=False)
    return np.array([np.mean(_lattice_g(r * np.cos(theta), r * np.sin(theta), r,
                                        params, layout)) for r in r_values])


def reference_field_arrays(spec: HotspotSpec, params: RadioParams, layout: CellLayout,
                           n: int, seed) -> dict:
    """The arrays of ``FieldSamples(spec, params, layout, n, seed)`` by a
    plain build that holds every draw's temporaries at once: the draws
    ``c + A * N`` out of place, g over every kept radius, then one
    reordering gather of each array."""
    rng = np.random.default_rng(seed)
    c = spec.center
    xy = np.array([c.x, c.y]) + spec.A * rng.standard_normal((n, 2))
    r = np.hypot(xy[:, 0], xy[:, 1])
    core = r <= layout.R
    kept = np.concatenate([np.flatnonzero(core),
                           np.flatnonzero(~core & (r < _DOMAIN_FRAC * layout.delta))])
    n_core = int(np.count_nonzero(core))
    r = r[kept]
    g = _g_formula(r, params, layout)
    order = np.argsort(g[:n_core])
    order = np.concatenate([order, n_core + np.argsort(g[n_core:])])
    g = g[order]
    r = r[order]
    kept = kept[order]
    xy = np.asfortranarray(xy.take(kept, axis=0))
    kr = params.kappa * r ** (2.0 * params.b_macro)
    return {"xy": xy, "g": g, "_kr": kr, "n_core": n_core,
            "_fast": params.kappa > 0.0 and bool(np.all(kr >= _TINY))}
