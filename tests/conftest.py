"""Shared builders for synthetic class profiles, the exact coupled-chain
oracles used by the flow-simulation and analytic tests, and the Monte Carlo
indicator integral over the covered region used by the hotspot tests."""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mobicell.ccdf import ClassProfile
from mobicell.geometry import PolarPoint
from mobicell.hotspot import CoverageRegion, HotspotSpec, sample_xy


def make_profile(t=0.0, lam_m=(1.0,), lam_s=(0.0,), eta_m0=(10.0,), eta_m1=None,
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
        t=t, K=K, L=L,
        eta_macro=np.column_stack([eta_m0, eta_m1]),
        eta_small=np.column_stack([eta_s0, eta_s1]),
        p_macro=np.full(K, 1.0 / K), p_small=np.full(L, 1.0 / L),
        lambda_macro=lam_m, lambda_small=lam_s,
        S_t=S, S_tilde_t=S_tilde,
    )


def coupled_chain_stationary(lam_m, lam_s, sigma0, eta_m0, eta_m1, eta_s0, eta_s1,
                             n_max=80):
    """Exact stationary distribution of the single-class coupled pair: a CTMC
    on (n, m) where each cell drains at its partner-phase rate / sigma0."""
    size = (n_max + 1) ** 2
    idx = lambda n, m: n * (n_max + 1) + m
    rows, cols, vals = [], [], []
    diag = np.zeros(size)

    def add(i, j, rate):
        rows.append(i)
        cols.append(j)
        vals.append(rate)
        diag[i] -= rate

    for n in range(n_max + 1):
        for m in range(n_max + 1):
            i = idx(n, m)
            if n < n_max:
                add(i, idx(n + 1, m), lam_m)
            if m < n_max:
                add(i, idx(n, m + 1), lam_s)
            if n > 0:
                add(i, idx(n - 1, m), (eta_m1 if m > 0 else eta_m0) / sigma0)
            if m > 0:
                add(i, idx(n, m - 1), (eta_s1 if n > 0 else eta_s0) / sigma0)
    Q = sp.coo_matrix((vals + list(diag), (rows + list(range(size)),
                                           cols + list(range(size)))),
                      shape=(size, size)).tocsr()
    A = Q.T.tolil()
    A[0, :] = 1.0
    b = np.zeros(size)
    b[0] = 1.0
    pi = spla.spsolve(A.tocsr(), b)
    pi = np.maximum(pi, 0.0)
    pi /= pi.sum()
    return {(n, m): pi[idx(n, m)] for n in range(n_max + 1) for m in range(n_max + 1)
            if pi[idx(n, m)] > 0}


def migration_chain_stationary(lam_m, lam_s, sigma0, eta_m0, eta_m1, eta_s0, eta_s1,
                               nu_up, nu_down, ho_m2s, ho_s2m, n_max=20):
    """Exact stationary law of K macro classes and one small-cell class with
    class migrations and handovers, truncated at ``n_max`` flows per class:
    a CTMC on (n_1..n_K, m).  Macro class k drains at n_k/|n| * eta_k / sigma0
    in the partner's phase; a macro flow in class k moves up at nu_up[k], down
    at nu_down[k] and to the small cell at ho_m2s; a small-cell flow moves to
    macro class 1 at ho_s2m.  Moves into a full class are blocked."""
    K = len(lam_m)
    states = list(itertools.product(range(n_max + 1), repeat=K + 1))
    index = {s: i for i, s in enumerate(states)}
    rows, cols, vals = [], [], []

    def add(i, s, d, rate):
        j = index.get(tuple(a + b for a, b in zip(s, d)))
        if rate > 0 and j is not None:
            rows.append(i)
            cols.append(j)
            vals.append(rate)

    unit = np.eye(K + 1, dtype=int)
    for i, s in enumerate(states):
        n, m = s[:K], s[K]
        tot = sum(n)
        for k in range(K):
            add(i, s, unit[k], lam_m[k])
            if n[k]:
                eta = eta_m1[k] if m else eta_m0[k]
                add(i, s, -unit[k], n[k] / tot * eta / sigma0)
                if k + 1 < K:
                    add(i, s, unit[k + 1] - unit[k], n[k] * nu_up[k])
                if k > 0:
                    add(i, s, unit[k - 1] - unit[k], n[k] * nu_down[k])
                add(i, s, unit[K] - unit[k], n[k] * ho_m2s)
        add(i, s, unit[K], lam_s)
        if m:
            add(i, s, -unit[K], (eta_s1 if tot else eta_s0) / sigma0)
            add(i, s, unit[0] - unit[K], m * ho_s2m)
    size = len(states)
    Q = sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()
    Q = Q - sp.diags(np.asarray(Q.sum(axis=1)).ravel())
    A = Q.T.tolil()
    A[0, :] = 1.0
    b = np.zeros(size)
    b[0] = 1.0
    pi = np.maximum(spla.spsolve(A.tocsr(), b), 0.0)
    pi /= pi.sum()
    return {(s[:K], s[K:]): p for s, p in zip(states, pi) if p > 0}


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


def in_region_xy(xy: np.ndarray, region: CoverageRegion) -> np.ndarray:
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


def integrate_indicator(f, spec: HotspotSpec, region: CoverageRegion, n: int, seed,
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
