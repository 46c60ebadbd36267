"""The result record of a probe."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ProbeResult"]


@dataclass
class ProbeResult:
    orders_checked: int
    grid: np.ndarray
    sign_table: np.ndarray  # (orders+1, npoints) booleans, True = consistent
    first_violation: tuple[int, float] | None
    verdict: str  # "holds" | "violated" | "inconclusive"
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return self.verdict == "holds"
