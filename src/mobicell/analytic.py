"""Closed-form flow-level evaluation of the coupled cells: the coupled loads,
stationary distributions of the static and mobility-averaged systems, class
membership probabilities of the single-user class chain, the equivalent
single-queue service rate and the mean flow throughput of a stationary law.

Phase mixing
------------
With the partner cell busy a fraction of the time equal to its load, each
class k is served at the interfered rate eta[k,1] for that fraction and at
eta[k,0] otherwise.  The per-class effective load is therefore

    a_k = lambda_k * sigma0 * (rho_partner / eta[k,1] + (1 - rho_partner) / eta[k,0])

and (rho, rho_tilde) is the exact least solution of the two coupled sums; the
loads are clamped to 1 wherever the formulas use them as probabilities.

The static-coupling stationary distribution is the multiclass PS product
form with the phase-mixed per-class loads a_k: the unique normalizable
completion of the phase-split construction (thinning each class into a
partner-idle and a partner-busy subclass and marginalizing).  Its truncated
mass converges to 1 and it is the form validated against simulation.  The
printed forms are not implemented because the explicit chains refute them: the
printed static form (the phase split kept unmarginalized, fractional
factorials read as Gamma(x+1)) sums to 2.30 instead of 1 on the coupled toy at
rho = 0.4, and the printed class membership gives the small cell a share of
0.029 on a three-state class chain whose stationary vector gives 0.048.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mobicell.ccdf import ClassProfile
from mobicell.flowsim import CheckError, TrafficSpec, TransitionRates
from mobicell.special import log_factorial

_MAX_STATES = 2_000_000


class InstabilityError(RuntimeError):
    pass


class UndefinedChainError(ValueError):
    pass


@dataclass
class CoupledLoads:
    """Per-cell loads, above 1 in overload.  ``converged`` (always True) and
    ``iterations`` (0) remain only for perfbench; its next revision drops them."""

    rho: float
    rho_tilde: float
    converged: bool = True
    iterations: int = 0

    @property
    def rho_clamped(self) -> float:
        return min(self.rho, 1.0)

    @property
    def rho_tilde_clamped(self) -> float:
        return min(self.rho_tilde, 1.0)


def _phase_mixed_loads(profile: ClassProfile, traffic: TrafficSpec,
                       rho: float, rho_tilde: float):
    """Per-class loads a_k, a~_l given the partner-busy fractions."""
    s = traffic.sigma0
    rt = min(rho_tilde, 1.0)
    r = min(rho, 1.0)
    a = profile.lambda_macro * s * (rt / profile.eta_macro[:, 1]
                                    + (1.0 - rt) / profile.eta_macro[:, 0])
    at = profile.lambda_small * s * (r / profile.eta_small[:, 1]
                                     + (1.0 - r) / profile.eta_small[:, 0])
    return a, at


def coupled_loads_fixed_point(profile: ClassProfile, traffic: TrafficSpec) -> CoupledLoads:
    """Least fixed point of rho = A0 + A1 min(rho_tilde, 1), rho_tilde = B0 + B1
    min(rho, 1), with A0..B1 read off the phase mix at partner loads 0 and 1.
    Idle rates >= interfered make them >= 0 and the map monotone; if A0 or B0 is
    > 0 the fixed point is unique (rho minus the composed map is convex, < 0 at 0)."""
    a0, at0 = _phase_mixed_loads(profile, traffic, 0.0, 0.0)
    a1, at1 = _phase_mixed_loads(profile, traffic, 1.0, 1.0)
    A0, B0 = float(a0.sum()), float(at0.sum())
    A1, B1 = float(a1.sum()) - A0, float(at1.sum()) - B0
    if not all(0.0 <= c < math.inf for c in (A0, A1, B0, B1)):
        raise ValueError(f"load coefficients A0..B1 {A0, A1, B0, B1} must be finite and >= 0")
    if A0 == 0.0 and B0 == 0.0:       # (0, 0) is a fixed point, so the least
        return CoupledLoads(0.0, 0.0)
    det = 1.0 - A1 * B1
    if det > 0.0 and A0 + A1 * B0 <= det and B0 + B1 * A0 <= det:      # both free
        return CoupledLoads((A0 + A1 * B0) / det, (B0 + B1 * A0) / det)
    rho = A0 + A1 * min(B0 + B1, 1.0)     # macro load clamped, consistent iff rho >= 1
    if rho >= 1.0:
        return CoupledLoads(rho, B0 + B1)
    return CoupledLoads(A0 + A1, B0 + B1 * min(A0 + A1, 1.0))     # small-cell load clamped


@dataclass
class StationaryDistribution:
    """Truncated stationary distribution over states (n_1..n_K, m_1..m_L).
    Row i of ``counts`` is state i, in the C order of the grid of counts
    0..n_max per class."""

    counts: np.ndarray         # (N, K+L)
    probs: np.ndarray          # normalized over the truncated space
    raw: np.ndarray            # formula values before truncation normalization
    raw_total: float
    deficit: float             # mass missing from the truncation
    K: int
    L: int
    n_max: int

    @property
    def states(self) -> list:
        """The states as (macro counts, small counts) tuple pairs, in row order."""
        return [(tuple(row[:self.K]), tuple(row[self.K:])) for row in self.counts.tolist()]

    def prob(self, n, m) -> float:
        """Probability of state (n, m); 0 for a state outside the truncation."""
        c = (*n, *m)
        if len(n) != self.K or len(m) != self.L or not all(0 <= x <= self.n_max for x in c):
            return 0.0
        return float(self.probs[np.ravel_multi_index(c, (self.n_max + 1,) * len(c))])

    def mean_counts(self) -> tuple[np.ndarray, np.ndarray]:
        mean = self.probs @ self.counts
        return mean[:self.K], mean[self.K:]

    def total_mean(self) -> float:
        return float(self.probs @ self.counts.sum(axis=1))


def _enumerate_states(K: int, L: int, n_max: int) -> np.ndarray:
    """Every state (n_1..n_K, m_1..m_L) with counts up to n_max, one per row."""
    if (n_max + 1) ** (K + L) > _MAX_STATES:
        raise ValueError(
            f"state space (n_max+1)^(K+L) = {(n_max + 1) ** (K + L)} too large to enumerate")
    return np.indices((n_max + 1,) * (K + L)).reshape(K + L, -1).T


def _class_log_weight(counts: np.ndarray, log_coef: np.ndarray, split=None) -> np.ndarray:
    """Per state, the sum over one cell's classes of n_k * log_coef_k minus
    ln(n_k!), or, with a phase split s, minus ln((s n_k)!) + ln(((1-s) n_k)!)
    (Gamma-extended).  -inf where an occupied class has a non-finite
    coefficient (no arrivals or no service in it)."""
    n = counts.astype(np.float64)
    occupied = counts > 0
    with np.errstate(invalid="ignore"):
        lw = np.where(occupied, n * log_coef, 0.0)
    if split is None:
        lw -= log_factorial(n)
    else:
        lw -= log_factorial(split * n) + log_factorial((1.0 - split) * n)
    lw = lw.sum(axis=1)
    lw[(occupied & ~np.isfinite(log_coef)).any(axis=1)] = -math.inf
    return lw


def _distribution(states: np.ndarray, lw: np.ndarray, K: int, n_max: int,
                  total_is_one: bool = False) -> StationaryDistribution:
    """Weights exp(lw) normalized over the truncated space.  The mass missing
    from the truncation is 1 minus the raw total when the full-space total is
    exactly 1, otherwise a geometric extrapolation beyond the outer shell."""
    raw = np.exp(lw)
    raw_total = float(raw.sum())
    if total_is_one:
        deficit = max(0.0, 1.0 - raw_total)
    else:
        shell = states.sum(axis=1)
        s_last = raw[shell == n_max].sum()
        s_prev = raw[shell == n_max - 1].sum()
        ratio = s_last / s_prev if s_prev > 0 and s_last > 0 else 0.0
        deficit = float(s_last * ratio / (1.0 - ratio)) if ratio < 1.0 else math.inf
    probs = raw / raw_total if raw_total > 0 else raw
    return StationaryDistribution(states, probs, raw, raw_total, deficit, K,
                                  states.shape[1] - K, n_max)


def stationary_static(profile: ClassProfile, traffic: TrafficSpec, loads: CoupledLoads,
                      n_max: int = 40) -> StationaryDistribution:
    """Stationary distribution of the static coupled pair (no mobility terms).

    Requires both per-cell loads < 1. The empty state carries probability
    (1 - rho)(1 - rho_tilde) before truncation normalization.
    """
    if loads.rho >= 1.0 or loads.rho_tilde >= 1.0:
        raise InstabilityError(
            f"static stationary form needs rho, rho_tilde < 1, got "
            f"({loads.rho:.4f}, {loads.rho_tilde:.4f})")
    K = profile.K
    states = _enumerate_states(K, profile.L, n_max)
    n, m = states[:, :K], states[:, K:]
    lw = log_factorial(n.sum(axis=1)) + log_factorial(m.sum(axis=1))
    a, at = _phase_mixed_loads(profile, traffic, loads.rho, loads.rho_tilde)
    with np.errstate(divide="ignore"):
        lw += (math.log((1.0 - float(a.sum())) * (1.0 - float(at.sum())))
               + _class_log_weight(n, np.log(a)) + _class_log_weight(m, np.log(at)))
    return _distribution(states, lw, K, n_max, total_is_one=True)


def class_membership(rates: TransitionRates):
    """Long-run probability that a user sits in each flow class, from the
    single-user class chain of ``rates`` (two migration ladders joined by
    the handover edge between the first classes).

    This is the stationary vector of that one chain, by detailed balance:
    relative to the small cell's first class, macro weights carry the
    handover ratio and the running product of macro up/down ratios, small
    weights the small ladder products.
    """
    def ladder(up, down):
        out = [1.0]
        for j in range(len(up) - 1):
            if down[j + 1] == 0.0:
                raise UndefinedChainError(f"down-rate out of class {j + 2} is zero")
            out.append(out[-1] * up[j] / down[j + 1])
        return np.array(out)

    if rates.nu_handover_m2s == 0.0:
        raise UndefinedChainError("macro-to-small handover rate is zero")
    if rates.nu_handover_s2m == 0.0:
        raise UndefinedChainError("small-to-macro handover rate is zero")
    qm = rates.nu_handover_s2m / rates.nu_handover_m2s * ladder(rates.nu_up, rates.nu_down)
    qs = ladder(rates.nu_tilde_up, rates.nu_tilde_down)
    total = qm.sum() + qs.sum()
    return qm / total, qs / total


def effective_rate(times, profiles, loads_series, q: np.ndarray, q_tilde: np.ndarray,
                   traffic: TrafficSpec):
    """Service rate of the equivalent single PS queue and the matching load.

    Per snapshot of the series (two or more, taken at the ascending
    ``times``) the class rates are phase-mixed with the (clamped) partner
    loads and weighted by the class membership probabilities; the series is
    time-averaged with the trapezoidal rule.  Returns (eta_bar, rho_bar).
    """
    vals = np.empty(len(profiles))
    for i, (p, ld) in enumerate(zip(profiles, loads_series, strict=True)):
        rt = ld.rho_tilde_clamped
        r = ld.rho_clamped
        macro = np.dot(q, rt * p.eta_macro[:, 1] + (1.0 - rt) * p.eta_macro[:, 0])
        small = np.dot(q_tilde, r * p.eta_small[:, 1] + (1.0 - r) * p.eta_small[:, 0])
        vals[i] = macro + small
    times = np.asarray(times, dtype=float)
    eta_bar = float(np.trapezoid(vals, times) / (times[-1] - times[0]))
    if eta_bar <= 0.0:
        raise CheckError("effective-rate", "effective service rate must be positive")
    return eta_bar, traffic.lambda_tot * traffic.sigma0 / eta_bar


def stationary_mobile(q: np.ndarray, q_tilde: np.ndarray, loads: CoupledLoads,
                      rho_bar: float, n_max: int = 60) -> StationaryDistribution:
    """Stationary distribution of the mobility-averaged system: one PS queue
    of load rho_bar whose flows carry class labels with probabilities
    (q, q_tilde), keeping the phase-split factorial bookkeeping of the static
    form (Gamma-extended).  The total-occupancy factor rho_bar^|n+m| makes the
    form normalizable; at clamped per-cell loads it is exactly the labelled
    geometric distribution and the empty state has probability 1 - rho_bar.
    """
    if rho_bar >= 1.0:
        raise InstabilityError(
            f"mobility-averaged form needs rho_bar < 1, got {rho_bar:.4f} "
            "(per-cell loads may exceed 1, the system-level load may not)")
    if rho_bar < 0.0:
        raise ValueError("rho_bar must be nonnegative")
    K = len(q)
    states = _enumerate_states(K, len(q_tilde), n_max)
    tot = states.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        lw = (math.log(1.0 - rho_bar) + np.where(tot > 0, tot * np.log(rho_bar), 0.0)
              + log_factorial(tot)
              + _class_log_weight(states[:, :K], np.log(q), loads.rho_tilde_clamped)
              + _class_log_weight(states[:, K:], np.log(q_tilde), loads.rho_clamped))
    return _distribution(states, lw, K, n_max)


def mean_flow_throughput(dist: StationaryDistribution, traffic: TrafficSpec) -> float:
    """Mean flow throughput R in Mbps of a stationary distribution: the
    offered rate over the mean number of flows in system, which for a single
    PS queue equals eta_bar * (1 - rho_bar).  A simulated trace's R is
    ``flowsim.empirical_metrics(trace).mean_flow_throughput``.
    """
    mean_n = dist.total_mean()
    if mean_n <= 0.0:
        raise ValueError("empty system; mean throughput undefined")
    return traffic.lambda_tot * traffic.sigma0 / mean_n
