"""Link budget, macro-field interference factor and its inverse, SINR fields
for both cells, and the rate map.

Conventions
-----------
* Powers are linear mW and *effective*: transmit power, antenna gain, cable
  loss, UE antenna gain, body loss and the pathloss intercept of each link
  type are folded into ``P`` (macro) and ``kappa * P`` (small cell), so the
  received power at distance d Km is simply ``P * d**(-2b)`` per link.
* ``b_macro`` / ``b_small`` are *half* pathloss exponents: a slope of
  37.6 dB/decade corresponds to 2b = 3.76.
* The interference factor g(r) is the ratio of (all interfering macro cells +
  noise) to the serving macro power for a user at radius r inside the central
  cell of an infinite hexagonal network, with every interferer loaded at a
  fraction ``alpha``.  It uses the macro exponent; serving/interfering small
  cell links use their own exponent, which is what Table-style link budgets
  with per-link slopes require.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from mobicell.geometry import CellLayout, PolarPoint, distance
from mobicell.special import hurwitz_zeta, riemann_zeta

OMEGA_VARIANTS = ("product", "sum")


@dataclass(frozen=True)
class RadioParams:
    """Effective link-budget and link-adaptation constants."""

    P: float                 # effective macro power at 1 Km (linear mW)
    kappa: float             # small/macro effective power ratio, in [0, 1]
    b_macro: float           # half pathloss exponent, macro links (> 1)
    b_small: float           # half pathloss exponent, small-cell links
    P_N: float               # noise power over the bandwidth (linear mW)
    alpha: float             # average load of interfering macro cells, in [0, 1]
    W: float                 # bandwidth (MHz)
    K1: float                # link-adaptation scale
    K2: float                # link-adaptation SINR scale
    eta0: float              # peak rate (Mbps)
    omega_variant: str = "product"

    def __post_init__(self):
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError("kappa must be in [0, 1]: the small-cell link budget must not "
                             f"exceed the macro one, got {self.kappa}")
        if self.b_macro <= 1.0:
            raise ValueError(f"b_macro must exceed 1 (lattice sum diverges), got {self.b_macro}")
        if self.b_small <= 1.0:
            raise ValueError(f"b_small must exceed 1, got {self.b_small}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.P <= 0 or self.P_N < 0:
            raise ValueError("P must be positive and P_N nonnegative")
        if self.K1 <= 0 or self.K2 <= 0 or self.eta0 <= 0 or self.W <= 0:
            raise ValueError("K1, K2, W and eta0 must be positive")
        if self.omega_variant not in OMEGA_VARIANTS:
            raise ValueError(f"omega_variant must be one of {OMEGA_VARIANTS}")

    @classmethod
    def from_link_budget(
        cls,
        *,
        tx_macro_dbm: float = 46.0,
        tx_small_dbm: float = 30.0,
        antenna_gain_macro_db: float = 18.0,
        antenna_gain_small_db: float = 6.0,
        ue_antenna_gain_db: float = 0.0,
        body_loss_db: float = 2.0,
        pathloss_const_macro_db: float = 151.0,
        pathloss_exp_macro: float = 3.76,
        pathloss_const_small_db: float = 148.0,
        pathloss_exp_small: float = 3.67,
        noise_figure_db: float = 9.0,
        bandwidth_mhz: float = 20.0,
        k1: float = 0.85,
        k2: float = 1.9,
        eta0_mbps: float = 98.0,
        alpha_load: float = 1.0,
        omega_variant: str = "product",
    ) -> "RadioParams":
        """Fold a dB-domain link budget into effective linear powers; the
        keywords are the scenario file's ``[radio]`` keys."""
        p_macro = 10.0 ** ((tx_macro_dbm + antenna_gain_macro_db + ue_antenna_gain_db
                            - body_loss_db - pathloss_const_macro_db) / 10.0)
        p_small = 10.0 ** ((tx_small_dbm + antenna_gain_small_db + ue_antenna_gain_db
                            - body_loss_db - pathloss_const_small_db) / 10.0)
        # thermal noise -174 dBm/Hz plus receiver noise figure over the band
        p_noise = 10.0 ** ((-174.0 + noise_figure_db + 10.0 * math.log10(bandwidth_mhz * 1e6)) / 10.0)
        return cls(
            P=p_macro,
            kappa=p_small / p_macro,
            b_macro=pathloss_exp_macro / 2.0,
            b_small=pathloss_exp_small / 2.0,
            P_N=p_noise,
            alpha=alpha_load,
            W=bandwidth_mhz,
            K1=k1,
            K2=k2,
            eta0=eta0_mbps,
            omega_variant=omega_variant,
        )


@functools.lru_cache(maxsize=None)
def omega(b: float, variant: str = "product") -> float:
    """Hexagonal-lattice interference constant.

    ``product`` evaluates 3^-b * zeta(b) * (zeta(b,1/3) - zeta(b,2/3)), which
    equals one sixth of the lattice sum over all sites of (|site|/delta)^-2b
    (the factor zeta(b,1/3)-zeta(b,2/3) scaled by 3^-b is the Dirichlet
    L-function L_-3(b)).  ``sum`` evaluates 3^-b * (zeta(b) + zeta(b,1/3) -
    zeta(b,2/3)); it is kept selectable because both spellings circulate, but
    the brute-force lattice sum singles out ``product``.
    """
    if b <= 1.0:
        raise ValueError(f"omega diverges for b <= 1, got b={b}")
    if variant not in OMEGA_VARIANTS:
        raise ValueError(f"unknown omega variant {variant!r}")
    z = riemann_zeta(b)
    dz = hurwitz_zeta(b, 1.0 / 3.0) - hurwitz_zeta(b, 2.0 / 3.0)
    if variant == "product":
        return 3.0 ** (-b) * z * dz
    return 3.0 ** (-b) * (z + dz)


def _bracket(x, b: float, om: float):
    """Bracket term of g: near-ring correction plus the lattice constant.
    ``x`` is r/delta (scalar or array), valid for x < 1."""
    return (1.0 + (1.0 - b) ** 2 * x * x) / (1.0 - x * x) ** (2.0 * b - 1.0) + om - 1.0


def _g_formula(r, params: RadioParams, layout: CellLayout):
    """Closed-form g(r); finite for any r < delta. Scalar or ndarray."""
    b = params.b_macro
    om = omega(b, params.omega_variant)
    x = np.asarray(r, dtype=np.float64) / layout.delta
    g = 6.0 * params.alpha * x ** (2.0 * b) * _bracket(x, b, om) \
        + (params.P_N / params.P) * np.asarray(r, dtype=np.float64) ** (2.0 * b)
    if np.ndim(r) == 0:
        return float(g)
    return g


def interference_factor(r, params: RadioParams, layout: CellLayout):
    """g(r) on [0, R]: (interference + noise) / serving macro power.

    Strictly increasing, g(0) = 0. Accepts a scalar or an ndarray.
    """
    r_arr = np.asarray(r, dtype=np.float64)
    if np.any(r_arr < 0.0) or np.any(r_arr > layout.R):
        raise ValueError(f"r outside [0, R={layout.R:.6f}] Km")
    return _g_formula(r, params, layout)


def inverse_interference_factor(y, params: RadioParams, layout: CellLayout):
    """r in [0, R] with g(r) = y, saturating at R for y >= g(R).

    Bisection to |hi - lo| < 1e-9 Km; vectorized over y.
    """
    y_arr = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if np.any(y_arr < 0.0):
        raise ValueError("inverse_interference_factor requires y >= 0")
    g_at_r = _g_formula(layout.R, params, layout)
    lo = np.zeros_like(y_arr)
    hi = np.full_like(y_arr, layout.R)
    saturated = y_arr >= g_at_r
    # bisect to floating-point exhaustion: the 1e-9 Km contract is easy, but
    # the relative round-trip accuracy of g near r = 0 needs the extra depth
    n_iter = 64
    for _ in range(n_iter):
        mid = 0.5 * (lo + hi)
        too_low = _g_formula(mid, params, layout) < y_arr
        lo = np.where(too_low, mid, lo)
        hi = np.where(too_low, hi, mid)
    out = np.where(saturated, layout.R, 0.5 * (lo + hi))
    # exact endpoint: g(0) = 0
    out = np.where(y_arr == 0.0, 0.0, out)
    if np.ndim(y) == 0:
        return float(out[0])
    return out


def macro_association(small_rx, macro_rx):
    """Cell selection by received power, ties to the macro cell, elementwise:
    small_rx = kappa * d^-2b_small against macro_rx = r^-2b_macro."""
    return small_rx <= macro_rx


def macro_inverse_sinr(g, r_pow, small_rx):
    """1/SINR from the central macro cell while the small cell transmits,
    elementwise, from g = g(r), r_pow = r^2b_macro and small_rx; it is g(r)
    itself while the small cell is silent."""
    return g + small_rx * r_pow


def small_inverse_sinr(g, r_pow, small_rx, include_central_macro: bool = True):
    """1/SINR from the small cell, elementwise, on the inputs of
    ``macro_inverse_sinr``: (g + 1) / (small_rx * r_pow), or g / (...) with
    the central macro silent; 0 where small_rx is infinite."""
    serving = small_rx * r_pow
    denom = g + (1.0 if include_central_macro else 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_gamma = np.where(serving > 0.0, denom / serving, np.inf)
    return np.where(np.isinf(serving), 0.0, inv_gamma)


def _small_rx(m: PolarPoint, Ls: PolarPoint, params: RadioParams) -> float:
    """kappa * d^-2b_small at one position; infinite on the small-cell site."""
    d = distance(m, Ls)
    return math.inf if d == 0.0 else params.kappa * d ** (-2.0 * params.b_small)


def _link_terms(m: PolarPoint, Ls: PolarPoint, params: RadioParams, layout: CellLayout,
                what: str):
    """Scalar kernel inputs (g, r^2b_macro, small_rx) at one position."""
    r = m.r
    if r >= layout.delta:
        raise ValueError(f"{what} SINR model is limited to r < delta")
    return (_g_formula(r, params, layout), r ** (2.0 * params.b_macro),
            _small_rx(m, Ls, params))


def sinr_macro(m: PolarPoint, Ls: PolarPoint, params: RadioParams, layout: CellLayout,
               include_small_interference: bool = True) -> float:
    """Linear SINR from the central macro cell at position ``m`` with the
    small cell transmitting from ``Ls``.

    1 / (g(r) + kappa * d^-2b_small * r^2b_macro); +inf at r = 0 and 0 when
    the user sits exactly on an interfering small cell.
    """
    g, r_pow, small_rx = _link_terms(m, Ls, params, layout, "macro")
    interfered = include_small_interference and params.kappa > 0.0
    if interfered and small_rx == math.inf:
        return 0.0  # infinite small-cell interference; documented, not an error
    inv_gamma = macro_inverse_sinr(g, r_pow, small_rx) if interfered else g
    return math.inf if inv_gamma == 0.0 else 1.0 / inv_gamma


def sinr_small(m: PolarPoint, Ls: PolarPoint, params: RadioParams, layout: CellLayout,
               include_central_macro: bool = True) -> float:
    """Linear SINR from the small cell at ``Ls``.

    kappa * d^-2b_small * r^2b_macro / (g(r) + 1) with the central macro
    included; clearing the flag removes the central macro from the
    interference (the radio condition used for the small cell's
    no-macro-interference phase) so the denominator becomes g(r).
    """
    g, r_pow, small_rx = _link_terms(m, Ls, params, layout, "small-cell")
    if small_rx == math.inf:
        return math.inf
    if m.r == 0.0:
        # power-domain evaluation: the macro-lattice interference stays finite
        # at the origin even though g(0) = 0 (serving macro power diverges)
        b = params.b_macro
        om = omega(b, params.omega_variant)
        lattice = 6.0 * params.alpha * params.P * layout.delta ** (-2.0 * b) * om + params.P_N
        return 0.0 if include_central_macro else params.P * small_rx / lattice
    inv_gamma = float(small_inverse_sinr(g, r_pow, small_rx, include_central_macro))
    return math.inf if inv_gamma == 0.0 else 1.0 / inv_gamma


def macro_associated(m: PolarPoint, Ls: PolarPoint, params: RadioParams) -> bool:
    """Cell selection by received power, ties to the macro cell."""
    if params.kappa == 0.0:
        return True
    macro_rx = math.inf if m.r == 0.0 else m.r ** (-2.0 * params.b_macro)
    return bool(macro_association(_small_rx(m, Ls, params), macro_rx))


def shannon_rate(gamma, params: RadioParams):
    """Modified Shannon rate map min(K1 * W * ln(1 + K2 * gamma), eta0) in Mbps.
    Scalar or ndarray."""
    g = np.asarray(gamma, dtype=np.float64)
    if np.any(g < 0.0):
        raise ValueError("SINR must be nonnegative")
    rate = np.minimum(params.K1 * params.W * np.log1p(params.K2 * g), params.eta0)
    if np.ndim(gamma) == 0:
        return float(rate)
    return rate


def psi(l, params: RadioParams):
    """Inverse-SINR threshold for rate level l (Mbps): the rate exceeds l iff
    1/gamma <= psi(l).  Strictly decreasing; diverges at l = 0."""
    l_arr = np.asarray(l, dtype=np.float64)
    if np.any(l_arr <= 0.0):
        raise ValueError("psi requires l > 0")
    with np.errstate(over="ignore"):  # exp overflow maps to psi = 0, correct limit
        val = params.K2 / np.expm1(l_arr / (params.K1 * params.W))
    if np.ndim(l) == 0:
        return float(val)
    return val
