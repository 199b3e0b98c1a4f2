"""Certified-direction bound intervals.

Heuristic solvers in this package never report a bare point estimate: a
lower bound must come from an explicit feasible witness and an upper bound
from an inequality that is true by construction. The one exception is the
conditional ``sqrt2_assisted_norm`` upper bound of
:func:`qxor.solvers.beta_product`, which holds only when its Hermitian
witness is within a factor sqrt(2) of the optimal product bias.
``BoundInterval`` carries both ends plus method tags naming where each came
from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

INTERVAL_TOL = 1e-9  # relative slack allowed when ordering interval endpoints


@dataclass(frozen=True)
class BoundInterval:
    lower: float
    upper: float
    lower_method: str
    upper_method: str

    def __post_init__(self):
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ValueError("interval endpoints must not be NaN")
        if self.lower > self.upper + INTERVAL_TOL * max(1.0, abs(self.lower)):
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
