"""Gaussian user-location measure.

The covered region S* is the union of the disk-equivalent macro cell and a
disk of radius ``small_reach`` around the small cell, so small-cell coverage
may protrude past the macro edge.  The macro disk is fixed by the layout, so
a snapshot's S* is a small-cell position plus a reach, which the CCDF layer
takes as two arguments.  Integrals against the user measure are Monte Carlo
averages over ``sample_xy`` draws, taken by the CCDF layer; the test suite
holds a standalone indicator integral and a fixed-grid quadrature as its
cross-checks.
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
        if not (0 < self.A < np.inf and 0 <= self.R_h < np.inf and np.isfinite(self.theta_h)):
            raise ValueError("hotspot needs a finite center with radius >= 0 and a finite "
                             f"positive standard deviation, got {self}")

    @property
    def center(self) -> PolarPoint:
        return PolarPoint.from_polar(self.R_h, self.theta_h)


def sample_xy(spec: HotspotSpec, n: int, rng) -> np.ndarray:
    """n i.i.d. draws from the user measure as an (n, 2) Cartesian array,
    c + A N for standard normal N, scaled and shifted in place."""
    if n < 1:
        raise ValueError("need at least one sample")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    c = spec.center
    xy = rng.standard_normal((n, 2))
    xy *= spec.A
    xy += (c.x, c.y)
    return xy
