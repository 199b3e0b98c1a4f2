"""Certified-direction bound intervals.

Heuristic solvers in this package never report a bare point estimate: a
lower bound must come from an explicit feasible witness and an upper bound
from an inequality that is true by construction. ``BoundInterval`` carries
both ends plus method tags naming where each came from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import TOL


@dataclass(frozen=True)
class BoundInterval:
    lower: float
    upper: float
    lower_method: str
    upper_method: str

    def __post_init__(self):
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ValueError("interval endpoints must not be NaN")
        if self.lower > self.upper + TOL.interval * max(1.0, abs(self.lower)):
            raise ValueError(
                f"invalid interval: lower={self.lower!r} > upper={self.upper!r}"
            )

    def to_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper if math.isfinite(self.upper) else None,
            "lower_method": self.lower_method,
            "upper_method": self.upper_method,
        }
