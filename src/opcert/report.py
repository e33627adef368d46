"""Certificate reports: the verdict-plus-evidence value returned by every check."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .solver import SolverConfig

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


def verdict_of(lower: float, upper: float) -> str:
    """The verdict on a quantity that must vanish, from bounds
    lower <= quantity <= upper: PASS when upper is within
    SolverConfig.cert_tol, FAIL when lower reaches SolverConfig.fail_tol,
    INCONCLUSIVE otherwise."""
    if upper <= SolverConfig.cert_tol:
        return PASS
    if lower >= SolverConfig.fail_tol:
        return FAIL
    return INCONCLUSIVE


def _jsonable(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays into plain Python values."""
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return [_jsonable(v) for v in value.tolist()]
        return value.tolist()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclass
class CertificateReport:
    """Outcome of one check.

    margin is signed slack: how far inside the passing region (positive) or
    beyond the failing threshold (negative magnitude carried by the witness)
    the decisive quantity landed. witness holds coefficients of the element
    that achieved the margin, when one exists.
    """

    name: str
    verdict: str
    margin: float = 0.0
    witness: Any = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == PASS

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "margin": float(self.margin),
            "witness": _jsonable(self.witness),
            "diagnostics": _jsonable(self.diagnostics),
        }
