"""Common result record for all importance computations."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import FirmError


class BinaryStats(NamedTuple):
    """Conditional statistics of a binary feature.

    `a` is the larger of the two feature values, so the sign of
    ``(q_a - q_b) * sqrt(p_a * p_b)`` is deterministic.
    """

    q_a: float
    q_b: float
    p_a: float
    p_b: float


@dataclass(frozen=True)
class FirmResult:
    """Importance of one feature.

    q_signed carries the direction of the feature's effect on the score;
    q_abs = |q_signed| is the importance used for ranking. `extras` is
    populated by the binary paths with the conditional means and value
    probabilities that produced the number. A non-finite importance (an
    overflowing or NaN score) is rejected here, for every estimator.
    """

    feature: str
    q_signed: float
    method: str
    extras: BinaryStats | None = None

    def __post_init__(self):
        if not math.isfinite(self.q_signed):
            raise FirmError(f"importance of {self.feature} is not finite "
                            f"({self.q_signed}); check the scores")

    @property
    def q_abs(self) -> float:
        return abs(self.q_signed)
