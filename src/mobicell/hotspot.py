"""Gaussian user-location measure and the covered region.

The covered region S* is the union of the disk-equivalent macro cell and a
disk of radius ``small_reach`` around the small cell, so small-cell coverage
may protrude past the macro edge.  Integrals against the user measure are
Monte Carlo averages over ``sample_xy`` draws, taken by the CCDF layer; the
test suite holds a standalone indicator integral and a fixed-grid quadrature
as its cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mobicell.geometry import PolarPoint


@dataclass(frozen=True)
class HotspotSpec:
    """Bivariate Gaussian hotspot: center (R_h, theta_h) and std dev A, Km."""

    R_h: float
    theta_h: float
    A: float

    def __post_init__(self):
        if self.A <= 0:
            raise ValueError(f"hotspot standard deviation must be positive, got {self.A}")
        if self.R_h < 0:
            raise ValueError(f"hotspot center radius must be >= 0, got {self.R_h}")

    @property
    def center(self) -> PolarPoint:
        return PolarPoint.from_polar(self.R_h, self.theta_h)


@dataclass(frozen=True)
class CoverageRegion:
    """S*: macro disk of radius ``macro_radius`` plus the small-cell disk."""

    macro_radius: float
    small_center: PolarPoint
    small_reach: float = 0.2

    def __post_init__(self):
        if self.small_reach < 0:
            raise ValueError(f"small_reach must be >= 0, got {self.small_reach}")
        if self.macro_radius <= 0:
            raise ValueError("macro_radius must be positive")


def sample_xy(spec: HotspotSpec, n: int, rng) -> np.ndarray:
    """n i.i.d. draws from the user measure as an (n, 2) Cartesian array."""
    if n < 1:
        raise ValueError("need at least one sample")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    c = spec.center
    return np.array([c.x, c.y]) + spec.A * rng.standard_normal((n, 2))


