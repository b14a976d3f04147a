"""Structured pass/fail records shared by every verification suite."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np


def _jsonable(value: Any) -> Any:
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def relative_error(lhs, rhs) -> float:
    """max |lhs - rhs| / max(|lhs|, |rhs|, 1e-300) over paired scalars or arrays."""
    scale = np.maximum(np.maximum(abs(lhs), abs(rhs)), 1e-300)
    return float(np.max(abs(lhs - rhs) / scale))


@dataclass(slots=True)
class CheckReport:
    """One verified identity: what was checked, at which parameters, how well.

    ``rel_error`` is the achieved relative deviation between the two sides.
    Exact symbolic checks report ``rel_error = 0.0`` on success.  Checks
    that only report a score leave ``lhs`` and ``rhs`` at 0.0.
    """

    identity_id: str
    params: dict = field(default_factory=dict)
    lhs: complex | str | None = 0.0
    rhs: complex | str | None = 0.0
    rel_error: float = 0.0
    tolerance: float = 0.0
    wall_time: float = 0.0
    detail: str = ""

    @property
    def passed(self) -> bool:
        """The one verdict rule: ``rel_error <= tolerance`` (NaN fails)."""
        return bool(self.rel_error <= self.tolerance)

    def to_dict(self) -> dict:
        return {
            "identity_id": self.identity_id,
            "params": _jsonable(self.params),
            "lhs": _jsonable(self.lhs),
            "rhs": _jsonable(self.rhs),
            "rel_error": self.rel_error,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "wall_time": round(self.wall_time, 6),
            "detail": self.detail,
        }

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.identity_id}: rel_error={self.rel_error:.3e} "
            f"(tol {self.tolerance:.1e})"
        )


def summarize(reports: list[CheckReport]) -> dict:
    return {
        "total": len(reports),
        "passed": sum(r.passed for r in reports),
        "failed": sum(not r.passed for r in reports),
    }
