"""Planar geometry of the hexagonal macro layout.

Positions are stored in Cartesian coordinates (Km); the polar pair (r, theta)
is a derived view so that distance computations never branch on azimuth
wraparound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

TWO_PI = 2.0 * math.pi
_SQRT3 = math.sqrt(3.0)


def disk_radius(delta: float) -> float:
    """Radius of the disk whose area equals a hexagonal cell with inter-site
    distance ``delta`` (Km): pi*R^2 = (sqrt(3)/2)*delta^2."""
    if delta <= 0:
        raise ValueError(f"inter-site distance must be positive, got {delta}")
    return delta * math.sqrt(_SQRT3 / TWO_PI)


@dataclass(frozen=True)
class PolarPoint:
    """A point in the plane (Km)."""

    x: float
    y: float

    @classmethod
    def from_polar(cls, r: float, theta: float) -> "PolarPoint":
        if r < 0:
            raise ValueError(f"radial distance must be >= 0, got {r}")
        return cls(r * math.cos(theta), r * math.sin(theta))

    @property
    def r(self) -> float:
        return math.hypot(self.x, self.y)

    @property
    def theta(self) -> float:
        """Azimuth normalized to [0, 2*pi)."""
        if self.x == 0.0 and self.y == 0.0:
            return 0.0
        return math.atan2(self.y, self.x) % TWO_PI


def distance(a: PolarPoint, b: PolarPoint) -> float:
    """Euclidean distance in Km."""
    return math.hypot(a.x - b.x, a.y - b.y)


@dataclass(frozen=True)
class CellLayout:
    """Hexagonal macro network: inter-site distance and the disk-equivalent
    cell radius derived from it."""

    delta: float
    rings_for_oracle: int = 30
    R: float = field(init=False)

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError(f"inter-site distance must be positive, got {self.delta}")
        if self.rings_for_oracle < 1:
            raise ValueError("rings_for_oracle must be >= 1")
        object.__setattr__(self, "R", disk_radius(self.delta))
