"""Special-function kernels: Riemann/Hurwitz zeta, modified Bessel I0 and
log-gamma, the primitives behind the interference constant, the
macro-only throughput CCDF and the coupled stationary distributions.

Each is a thin wrapper over ``scipy.special`` (``zeta(s, a)``, ``i0``,
``i0e`` with ln I0(x) = ln(i0e(x)) + x, ``gammaln``) that raises ValueError
outside the domain the analysis uses, where scipy returns inf or nan.
``test_special.py`` and acceptance criterion 9 hold them to: zeta absolute
error < 1e-10 for s > 1 (s ~ 1.8 matters here), I0 relative error < 1e-9 on
[0, 20], ln I0 within 1e-11 up to x = 700 where I0 itself overflows, and
log-gamma relative error < 1e-12 on [0.5, 200].
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return float(_sp.gammaln(x))


def log_factorial(x):
    """ln(x!) = ln Gamma(x+1), defined for x >= 0 including non-integers.
    Scalar or ndarray."""
    if np.any(np.asarray(x) < 0.0):
        raise ValueError(f"log_factorial requires x >= 0, got {x}")
    out = _sp.gammaln(np.asarray(x, dtype=np.float64) + 1.0)
    return float(out) if np.ndim(x) == 0 else out


def hurwitz_zeta(s: float, a: float = 1.0) -> float:
    """Hurwitz zeta sum_{n>=0} (n+a)^-s for s > 1, a > 0."""
    if s <= 1.0:
        raise ValueError(f"zeta series diverges for s <= 1 (got s={s})")
    if a <= 0.0:
        raise ValueError(f"hurwitz_zeta requires a > 0, got {a}")
    return float(_sp.zeta(s, a))


def riemann_zeta(s: float) -> float:
    """Riemann zeta for s > 1."""
    return hurwitz_zeta(s, 1.0)


def bessel_i0(x: float) -> float:
    """Modified Bessel function of the first kind, order zero, for x >= 0."""
    if x < 0.0:
        raise ValueError(f"bessel_i0 is used on x >= 0 only, got {x}")
    return float(_sp.i0(x))


def log_bessel_i0(x: float) -> float:
    """ln I0(x); stable for large x where I0 itself overflows."""
    if x < 0.0:
        raise ValueError(f"log_bessel_i0 is used on x >= 0 only, got {x}")
    return math.log(_sp.i0e(x)) + x
