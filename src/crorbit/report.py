"""Reproducible JSON reports for CLI commands and verification suites.

Reports are deterministic for a fixed scenario, command and seed: timing
data is isolated in a single ``timings`` block so two runs can be compared
by dropping that key alone.
"""

from __future__ import annotations

import operator
import platform
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .util import canonical_json

__all__ = ["CheckResult", "Report", "TOOL_VERSION", "REPORT_SCHEMA_VERSION"]

TOOL_VERSION = "0.1.0"
REPORT_SCHEMA_VERSION = "1"

_COMPARATORS = {"<=": operator.le, ">=": operator.ge}


def _jsonable(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclass
class CheckResult:
    """One named check, whose verdict is decided here.

    With both ``value`` and ``bound`` set, the check passes exactly when the
    value meets the bound (``value <= bound``, or ``value >= bound`` for the
    ``">="`` comparator) and ``passed`` holds; a NaN value never meets its
    bound.  ``passed`` carries only the conditions other than the bound, so
    a caller never restates the comparison.  An unknown comparator raises
    ``ValueError``.
    """

    name: str
    passed: bool = True
    value: float | int | None = None
    bound: float | int | None = None
    comparator: str = "<="
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.comparator not in _COMPARATORS:
            raise ValueError(f"unknown comparator {self.comparator!r}; use '<=' or '>='")
        if self.value is not None and self.bound is not None:
            meets = _COMPARATORS[self.comparator](self.value, self.bound)
            self.passed = bool(self.passed and meets)

    def to_dict(self) -> dict:
        return {
            "check": self.name,
            "passed": bool(self.passed),
            "value": _jsonable(self.value),
            "bound": _jsonable(self.bound),
            "comparator": self.comparator,
            "details": _jsonable(self.details),
        }


@dataclass
class Report:
    command: str
    arguments: dict
    seed: int
    results: list[CheckResult] = field(default_factory=list)
    scenario_name: str | None = None
    scenario_digest: str | None = None
    outputs: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(bool(r.passed) for r in self.results)

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "tool_version": TOOL_VERSION,
            "command": self.command,
            "arguments": _jsonable(self.arguments),
            "seed": self.seed,
            "scenario": (
                {"name": self.scenario_name, "digest": self.scenario_digest}
                if self.scenario_name
                else None
            ),
            "results": [r.to_dict() for r in self.results],
            "passed": self.passed,
            "outputs": _jsonable(self.outputs),
            "environment": {
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "timings": _jsonable(self.timings),
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    def comparable_json(self) -> str:
        """JSON with the timing block removed (determinism comparisons)."""
        d = self.to_dict()
        d.pop("timings", None)
        return canonical_json(d)
