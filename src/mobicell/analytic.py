"""Closed-form flow-level evaluation of the coupled cells: the coupled loads,
the quasi-stationary windows of a snapshot series, the per-interval class
migration and handover hazards that drive the flow simulation, stationary
laws of the static and mobility-averaged systems, class membership
probabilities of the single-user class chain, the equivalent single-queue
service rate and the mean flow throughput of a stationary law.

Windows
-------
Flows are short-lived compared to the vehicle's motion, so each snapshot
window is treated as quasi-stationary: the coupled per-cell loads come from
the fixed point, the merged single-queue equivalent of the window is
rho_bar(t) = rho(t) + rho_tilde(t) (equivalently lambda*sigma0 over the
harmonic, load-true capacity), and the windowed mean flow throughput is the
Little value lambda*sigma0 * (1 - rho_bar) / rho_bar.

Class weights
-------------
Every ``ClassProfile`` splits each cell into equal-mass classes, so over a
horizon each macro class holds (1 - s)/K of the users and each small class
s/L, with s the mean small-cell share of the series: those are the class
weights a run passes to ``effective_rate``.  ``class_membership`` gives the
weights of a chain given as one ``TransitionRates``, and no run calls it:
averaging the per-interval hazards into one chain does not give the
equal-mass shares, because each interval's flux is measured at the earlier
snapshot's class edges, which move (on replication 0 of the bundled
scenario its macro weights were [0.42, 0.23, 0.16, 0.13] against 0.22 each).

Phase mixing
------------
With the partner cell busy a fraction of the time equal to its load, each
class k is served at the interfered rate eta[k,1] for that fraction and at
eta[k,0] otherwise.  The per-class effective load is therefore

    a_k = lambda_k * sigma0 * (rho_partner / eta[k,1] + (1 - rho_partner) / eta[k,0])

and (rho, rho_tilde) is the exact least solution of the two coupled sums; the
loads are clamped to 1 wherever the formulas use them as probabilities.

The static-coupling stationary law is Kelly's product form (1979) of two
multiclass PS cells with the phase-mixed per-class loads a_k: the unique
normalizable completion of the phase-split construction (thinning each
class into a partner-idle and a partner-busy subclass and marginalizing).
It sums to 1 and it is the form validated against simulation.  The
mobility-averaged law, a convolution over its totals, is normalizable only
for G < 1 (see ``stationary_mobile``).  Both hold at any K and L.  The
printed forms are not implemented because the explicit chains refute them:
the printed static form (the phase split kept unmarginalized, fractional
factorials read as Gamma(x+1)) sums to 2.30 instead of 1 on the coupled toy
at rho = 0.4, and the printed class membership gives the small cell a share
of 0.029 on a three-state class chain whose stationary vector gives 0.048.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import entr, xlogy

from mobicell.ccdf import ClassProfile
from mobicell.flowsim import CheckError, TrafficSpec, TransitionRates, _piece_times
from mobicell.special import log_factorial

_MAX_SHELLS = 4000       # about 0.6 s for a K = L = 4 mobile law
# the least coverage share a cell is handed flows at; below it, a cell drains
SMALL_SHARE_EPS = 1e-3


class InstabilityError(RuntimeError):
    pass


class UndefinedChainError(ValueError):
    pass


class InsufficientDataError(ValueError):
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
class WindowSeries:
    t: np.ndarray
    rho: np.ndarray
    rho_tilde: np.ndarray
    rho_bar: np.ndarray       # merged quasi-stationary system load
    eta_bar: np.ndarray       # lambda sigma0 / rho_bar
    R: np.ndarray             # Little throughput of the merged window queue


def window_series(times: np.ndarray, loads: list, traffic: TrafficSpec) -> WindowSeries:
    """The windows of a series: ``loads`` holds the coupled loads of each
    window, one per time.  The macro-only baseline is its one load repeated."""
    rho = np.array([ld.rho for ld in loads])
    rho_tilde = np.array([ld.rho_tilde for ld in loads])
    rho_bar = rho + rho_tilde
    offered = traffic.lambda_tot * traffic.sigma0
    R = np.where(rho_bar < 1.0, offered * (1.0 - rho_bar) / np.maximum(rho_bar, 1e-12), 0.0)
    return WindowSeries(times, rho, rho_tilde, rho_bar,
                        offered / np.maximum(rho_bar, 1e-12), R)


def _log_factor(c, coef, split=0.0):
    """ln f(c) = c ln coef - ln Gamma(s c + 1) - ln Gamma((1 - s) c + 1), one
    class's factor at the counts c with phase split s (ln c! at s = 0);
    -inf where c > 0 and coef is 0 or not finite."""
    c = np.asarray(c, dtype=np.float64)
    lf = xlogy(c, coef) - log_factorial(split * c) - log_factorial((1.0 - split) * c)
    return np.where(c == 0, 0.0, np.where(np.isfinite(coef), lf, -math.inf))


@dataclass(frozen=True)
class StaticLaw:
    """Kelly's product form of the static pair, summing to 1: per cell
    P(n) = (1 - A) |n|! prod_k a_k^n_k / n_k! with A = sum_k a_k, and the
    pair's law is the product of the two cells' laws."""

    a: np.ndarray           # phase-mixed per-class loads of the macro cell
    a_tilde: np.ndarray     # and of the small cell

    def prob(self, n, m) -> float:
        """Probability of state (n, m); 0 for a state of the wrong shape, with
        a negative count, or with an occupied class whose load is 0 or not finite."""
        if len(n) != len(self.a) or len(m) != len(self.a_tilde) or min((*n, *m)) < 0:
            return 0.0
        return math.exp(sum(math.log1p(-a.sum()) + log_factorial(sum(x)) + _log_factor(x, a).sum()
                            for x, a in ((n, self.a), (m, self.a_tilde))))

    def mean_counts(self) -> tuple[np.ndarray, np.ndarray]:
        return self.a / (1.0 - self.a.sum()), self.a_tilde / (1.0 - self.a_tilde.sum())

    def total_mean(self) -> float:
        return float(sum(mean.sum() for mean in self.mean_counts()))


def stationary_static(profile: ClassProfile, traffic: TrafficSpec, loads: CoupledLoads) -> StaticLaw:
    """Stationary law of the static coupled pair (no mobility terms), with
    the phase-mixed per-class loads at ``loads``.  Requires both per-cell
    loads < 1; the empty state has probability (1 - rho)(1 - rho_tilde)."""
    if not (loads.rho < 1.0 and loads.rho_tilde < 1.0):      # NaN fails too
        raise InstabilityError(f"static stationary form needs rho, rho_tilde < 1, got "
                               f"({loads.rho:.4f}, {loads.rho_tilde:.4f})")
    return StaticLaw(*_phase_mixed_loads(profile, traffic, loads.rho, loads.rho_tilde))


def estimate_transition_rates(times, class_profiles, extra_migration_rate: float = 0.0
                              ) -> list[TransitionRates]:
    """Per-flow migration and handover hazards from the drift of consecutive
    snapshots of the series ``class_profiles`` taken at ``times``, one per
    interval; ``times`` must start at 0 and strictly ascend, one per
    profile (ValueError).

    Class migration: the change, across one snapshot interval, of the CCDF
    mass above a class boundary is the net probability flux over that
    boundary; divided by the interval and the source-class density (1/K of
    an equal-mass cell) it becomes a per-flow hazard (upward for positive
    flux, downward for negative).  Handover: the growth rate of the
    small-cell coverage share, scaled by the losing side's share; suppressed
    when the gaining side covers less than ``SMALL_SHARE_EPS`` so flows are
    not handed into a degenerate cell.  A cell whose coverage has collapsed
    below ``SMALL_SHARE_EPS`` drains its remaining flows by handover within
    roughly one snapshot interval (otherwise stragglers would be stuck at the
    dead cell's floor rate forever).
    ``extra_migration_rate`` adds a constant user-mobility hazard to every
    admissible migration.
    """
    if len(class_profiles) < 2:
        raise InsufficientDataError("need at least two consecutive class profiles")
    out = []
    times = _piece_times(times, len(class_profiles))
    for (t0, p0), (t1, p1) in itertools.pairwise(zip(times, class_profiles)):
        dt = t1 - t0
        K, L = p0.K, p0.L
        nu_up, nu_down = np.zeros(K), np.zeros(K)
        nu_tup, nu_tdown = np.zeros(L), np.zeros(L)

        def fill(curve0, curve1, edges, density, up, down):
            if curve0 is None or curve1 is None or curve0.empty or curve1.empty:
                return
            inner = edges[1:-1]
            m0 = np.interp(inner, curve0.levels, curve0.values)
            m1 = np.interp(inner, curve1.levels, curve1.values)
            flux = (m1 - m0) / dt
            for j, f in enumerate(flux):
                if f > 0:
                    up[j] += f / density
                else:
                    down[j + 1] += -f / density

        fill(p0.macro_curve, p1.macro_curve, p0.macro_edges, 1.0 / K, nu_up, nu_down)
        fill(p0.small_curve, p1.small_curve, p0.small_edges, 1.0 / L, nu_tup, nu_tdown)
        if extra_migration_rate > 0.0:
            nu_up[:-1] += extra_migration_rate
            nu_down[1:] += extra_migration_rate
            nu_tup[:-1] += extra_migration_rate
            nu_tdown[1:] += extra_migration_rate

        share0, share1 = p0.small_share, p1.small_share
        dshare = (share1 - share0) / dt
        m2s = s2m = 0.0
        eps = SMALL_SHARE_EPS
        if dshare > 0 and share1 >= eps:
            m2s = dshare / max(1.0 - share0, eps)
        elif dshare < 0 and (1.0 - share1) >= eps:
            s2m = -dshare / max(share0, eps)
        drain = 3.0 / dt
        if share1 < eps and (share0 >= eps or share1 > 0.0):
            s2m = max(s2m, drain)   # dying small cell: evacuate stragglers
        if 1.0 - share1 < eps and (1.0 - share0 >= eps or share1 < 1.0):
            m2s = max(m2s, drain)
        out.append(TransitionRates(nu_up, nu_down, nu_tup, nu_tdown, m2s, s2m))
    return out


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


@dataclass(frozen=True)
class MobileLaw:
    """Stationary law of the mobility-averaged system (see ``stationary_mobile``):
    the weights over their sum, where ``shells[N]`` weighs the states of N
    flows, for N up to where the rest is below 1e-15 of the total."""

    K: int                  # macro classes, listed first in ``q`` and ``split``
    q: np.ndarray           # the class label probabilities (q, q_tilde)
    split: np.ndarray       # s per class: the partner cell's clamped load
    rho_bar: float
    shells: np.ndarray

    def prob(self, n, m) -> float:
        """Probability of state (n, m); 0 as for ``StaticLaw.prob``."""
        c = (*n, *m)
        if len(n) != self.K or len(c) != len(self.q) or min(c) < 0:
            return 0.0
        lw = (math.log1p(-self.rho_bar) + xlogy(sum(c), self.rho_bar) + log_factorial(sum(c))
              + _log_factor(c, self.q, self.split).sum())
        return math.exp(lw) / float(self.shells.sum())

    def total_mean(self) -> float:
        return float(np.arange(len(self.shells)) @ self.shells / self.shells.sum())


def _log_convolve(h: np.ndarray, lf: np.ndarray) -> np.ndarray:
    """ln sum_{c <= N} exp(h[N - c] + lf[c]) for each N < len(h)."""
    out = np.empty_like(h)
    for N in range(len(h)):
        t = h[N::-1] + lf[:N + 1]
        top = t.max()
        out[N] = top + math.log(np.exp(t - top).sum()) if top > -math.inf else -math.inf
    return out


def stationary_mobile(q: np.ndarray, q_tilde: np.ndarray, loads: CoupledLoads,
                      rho_bar: float) -> MobileLaw:
    """Stationary law of the mobility-averaged system: one PS queue of load
    rho_bar whose flows carry class labels with probabilities (q, q_tilde),
    keeping the static form's phase-split factorials.  A state of c_j flows
    in class j, N in all, weighs (1 - rho_bar) rho_bar^N N! prod_j f_j(c_j),
    f_j(c) = q_j^c / (Gamma(s c + 1) Gamma((1 - s) c + 1)) with s the partner
    cell's clamped load.  As C(c, s c) <= e^{c H(s)}, H the binary entropy in
    nats, shell N weighs at most (1 - rho_bar) G^N, G = rho_bar (sum_k q_k
    e^{H(s)} + sum_l q~_l e^{H(s~)}): the law is normalizable for G < 1
    (always at clamped loads, H = 0), and shells are summed until
    G^(n+1) / (1 - G) <= 1e-15.  Each is a convolution of the K + L class
    factors (Buzen 1973), in logs since N! overflows past N = 170.
    InstabilityError if G >= 1; ValueError past ``_MAX_SHELLS`` shells."""
    if rho_bar < 0.0:
        raise ValueError("rho_bar must be nonnegative")
    split = np.repeat([loads.rho_tilde_clamped, loads.rho_clamped], [len(q), len(q_tilde)])
    q_all = np.concatenate([q, q_tilde])
    G = rho_bar * float(q_all @ np.exp(entr(split) + entr(1.0 - split)))
    if not (rho_bar < 1.0 and G < 1.0):      # NaN fails too
        raise InstabilityError(f"mobility-averaged form needs G < 1, got G = {G:.4f} "
                               f"at rho_bar = {rho_bar:.4f}")
    n = 0 if G == 0.0 else max(0, math.ceil(math.log(1e-15 * (1.0 - G)) / math.log(G)) - 1)
    if n > _MAX_SHELLS:
        raise ValueError(f"G = {G:.6f} needs {n} shells, more than {_MAX_SHELLS}")
    c = np.arange(n + 1)
    log_g = np.where(c == 0, 0.0, -math.inf)      # ln (1, 0, 0, ...): no class yet
    for coef, s in zip(q_all, split):
        log_g = _log_convolve(log_g, _log_factor(c, coef, s))
    shells = np.exp(math.log1p(-rho_bar) + xlogy(c, rho_bar) + log_factorial(c) + log_g)
    return MobileLaw(len(q), q_all, split, rho_bar, shells)


def mean_flow_throughput(law: StaticLaw | MobileLaw, traffic: TrafficSpec) -> float:
    """Mean flow throughput R in Mbps of a stationary law: the offered rate
    over the mean number of flows in system, which for a single PS queue
    equals eta_bar * (1 - rho_bar).  A simulated trace's R is
    ``flowsim.empirical_metrics(trace).mean_flow_throughput``."""
    mean_n = law.total_mean()
    if mean_n <= 0.0:
        raise ValueError("empty system; mean throughput undefined")
    return traffic.lambda_tot * traffic.sigma0 / mean_n
