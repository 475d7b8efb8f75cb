"""Scenario files: schema-validated declarations of manifolds, frames and points.

A scenario bundles everything a CLI command needs: an embedded manifold with
named CR frames, or a flattened chart model with its one frame, plus named
points, the integrator's step tolerances and a seed.  Four scenarios ship
built in (lewy, flat, tube3, expchart) so the verification suites need no
external files.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

from .connection import ChartSetup
from .crmanifold import EmbeddedManifold
from .expr import ExprError, ScalarExpr, parse_expr
from .flow import IntegratorConfig
from .util import canonical_json
from .vectorfield import VectorFieldSpec

__all__ = [
    "Scenario",
    "ScenarioError",
    "SCENARIO_SCHEMA",
    "BUILTIN_SCENARIOS",
    "load_scenario",
    "builtin_scenario",
]

SCHEMA_VERSION = "1"


class ScenarioError(Exception):
    """Scenario failed schema validation or reference resolution."""


def _finite_coordinates(values, label: str) -> np.ndarray:
    """``values`` as a float vector; ScenarioError naming ``label`` if one is not finite."""
    coords = np.array(values, dtype=float)
    if not np.all(np.isfinite(coords)):
        raise ScenarioError(f"{label} has a non-finite coordinate")
    return coords


def _require_finite(value, path: str) -> None:
    """ScenarioError naming ``path`` (subscript form) at the first non-finite number."""
    if isinstance(value, dict):
        for key, item in value.items():
            _require_finite(item, f"{path}[{key!r}]")
    elif isinstance(value, list):
        for idx, item in enumerate(value):
            _require_finite(item, f"{path}[{idx}]")
    elif isinstance(value, float) and not math.isfinite(value):
        raise ScenarioError(f"{path} is non-finite ({value})")


def _expr(text: str, dim: int, aliases, path: str) -> ScalarExpr:
    """``text`` parsed; ScenarioError naming ``path`` (subscript form) on an expression error."""
    try:
        return parse_expr(text, dim, aliases)
    except ExprError as exc:
        raise ScenarioError(f"expression error at {path}: {exc}") from exc


def _frame(fields, dim: int, aliases, path: str) -> list[VectorFieldSpec]:
    """The frame declared at ``path``: one field per list of coefficient expressions."""
    return [
        VectorFieldSpec(
            tuple(_expr(t, dim, aliases, f"{path}[{j}][{i}]") for i, t in enumerate(coeffs)),
            dim,
        )
        for j, coeffs in enumerate(fields)
    ]


_FIELD = {"type": "array", "items": {"type": "string"}, "minItems": 1}
_FRAME = {"type": "array", "items": _FIELD, "minItems": 1}

SCENARIO_SCHEMA: dict = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "crorbit scenario",
    "type": "object",
    "required": ["name", "manifold"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"type": "string"},
        "name": {"type": "string", "minLength": 1},
        "seed": {"type": "integer", "minimum": 0},
        "manifold": {
            "oneOf": [
                {
                    "type": "object",
                    "required": ["type", "complex_dim", "rho"],
                    "additionalProperties": False,
                    "properties": {
                        "type": {"const": "embedded"},
                        "complex_dim": {"type": "integer", "minimum": 1},
                        "rho": {"type": "array", "items": {"type": "string"}, "minItems": 1},
                        "aliases": {"type": "array", "items": {"type": "string"}},
                    },
                },
                {
                    "type": "object",
                    "required": ["type", "l", "m", "frame"],
                    "additionalProperties": False,
                    "properties": {
                        "type": {"const": "chart"},
                        "l": {"type": "integer", "minimum": 1},
                        "m": {"type": "integer", "minimum": 0},
                        "frame": _FRAME,
                        "aliases": {"type": "array", "items": {"type": "string"}},
                    },
                },
            ]
        },
        "frames": {"type": "object", "additionalProperties": _FRAME},
        "points": {
            "type": "object",
            "additionalProperties": {"type": "array", "items": {"type": "number"}},
        },
        "integrator": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rtol": {"type": "number", "exclusiveMinimum": 0},
                "atol": {"type": "number", "exclusiveMinimum": 0},
            },
        },
    },
}


@dataclass
class Scenario:
    """Resolved scenario: parsed expressions, constructed objects, digest."""

    name: str
    kind: str  # embedded | chart
    seed: int
    digest: str
    manifold: EmbeddedManifold | None = None
    model_chart: ChartSetup | None = None
    frames: dict[str, list[VectorFieldSpec]] = field(default_factory=dict)
    points: dict[str, np.ndarray] = field(default_factory=dict)
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)

    @property
    def dim(self) -> int:
        """Coordinates of a point: 2n for an embedded manifold, l for a chart model."""
        if self.manifold is not None:
            return self.manifold.ambient_dim
        return self.model_chart.l

    def point(self, spec: str) -> np.ndarray:
        """Resolve a named point or comma-separated coordinates.

        The point must have the scenario's :attr:`dim` coordinates.
        """
        if spec in self.points:
            coords = self.points[spec].copy()
        else:
            try:
                values = [float(v) for v in spec.split(",")]
            except ValueError:
                raise ScenarioError(
                    f"unknown point {spec!r}; known: {sorted(self.points)}"
                ) from None
            coords = _finite_coordinates(values, f"point {spec!r}")
        if coords.shape != (self.dim,):
            raise ScenarioError(
                f"point {spec!r} has {coords.shape[0]} coordinates, expected {self.dim}"
            )
        return coords

    def default_frame(self) -> list[VectorFieldSpec]:
        """The embedded scenario's first frame by name."""
        if not self.frames:
            raise ScenarioError(f"scenario {self.name!r} declares no frames")
        name = sorted(self.frames)[0]
        return self.frames[name]


def _resolve(raw: dict) -> Scenario:
    """The scenario ``raw`` declares; ``raw`` already satisfies SCENARIO_SCHEMA."""
    declared = raw.get("schema_version", SCHEMA_VERSION)
    if declared != SCHEMA_VERSION:
        raise ScenarioError(
            f"scenario schema version {declared!r} is not supported (expected {SCHEMA_VERSION!r})"
        )
    # before the digest, whose JSON rendering rejects NaN without naming it
    for key, value in raw.items():
        _require_finite(value, key)

    digest = hashlib.sha256(canonical_json(raw).encode()).hexdigest()
    man = raw["manifold"]
    aliases = man.get("aliases")
    sc = Scenario(
        name=raw["name"],
        kind=man["type"],
        seed=int(raw.get("seed", 0)),
        digest=digest,
    )
    if man["type"] == "embedded":
        n = man["complex_dim"]
        ambient = 2 * n
        if aliases and len(aliases) != ambient:
            raise ScenarioError(f"{len(aliases)} aliases for {ambient} real coordinates")
        rho = tuple(
            _expr(t, ambient, aliases, f"manifold['rho'][{i}]") for i, t in enumerate(man["rho"])
        )
        sc.manifold = EmbeddedManifold(n, rho)
        for fname, fields in raw.get("frames", {}).items():
            sc.frames[fname] = _frame(fields, ambient, aliases, f"frames[{fname!r}]")
    else:
        if "frames" in raw:
            raise ScenarioError("frames need an embedded manifold; a chart model has one frame")
        l, m = man["l"], man["m"]
        frame = _frame(man["frame"], l + m, aliases, "manifold['frame']")
        sc.model_chart = ChartSetup(l, m, tuple(frame))

    for pname, coords in raw.get("points", {}).items():
        pt = np.array(coords, dtype=float)
        if pt.shape[0] != sc.dim:
            raise ScenarioError(
                f"point {pname!r} has {pt.shape[0]} coordinates, expected {sc.dim}"
            )
        sc.points[pname] = pt

    sc.integrator = IntegratorConfig(**raw.get("integrator", {}))
    return sc


BUILTIN_SCENARIOS: dict[str, dict] = {
    "lewy": {
        "schema_version": SCHEMA_VERSION,
        "name": "lewy",
        "seed": 0,
        "manifold": {
            "type": "embedded",
            "complex_dim": 2,
            "aliases": ["x", "y", "u", "v"],
            "rho": ["v - x^2 - y^2"],
        },
        "frames": {
            "cr": [["1", "0", "2*y", "2*x"], ["0", "1", "-2*x", "2*y"]],
        },
        "points": {"origin": [0.0, 0.0, 0.0, 0.0]},
    },
    "flat": {
        "schema_version": SCHEMA_VERSION,
        "name": "flat",
        "seed": 0,
        "manifold": {
            "type": "embedded",
            "complex_dim": 2,
            "aliases": ["x", "y", "u", "v"],
            "rho": ["v"],
        },
        "frames": {
            "cr": [["1", "0", "0", "0"], ["0", "1", "0", "0"]],
        },
        "points": {"origin": [0.0, 0.0, 0.0, 0.0]},
    },
    "tube3": {
        "schema_version": SCHEMA_VERSION,
        "name": "tube3",
        "seed": 0,
        "manifold": {
            "type": "embedded",
            "complex_dim": 3,
            "aliases": ["x", "y", "u1", "v1", "u2", "v2"],
            "rho": ["v1 - x^2 - y^2", "v2"],
        },
        "frames": {
            "cr": [
                ["1", "0", "2*y", "2*x", "0", "0"],
                ["0", "1", "-2*x", "2*y", "0", "0"],
            ],
        },
        "points": {"origin": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]},
    },
    "expchart": {
        "schema_version": SCHEMA_VERSION,
        "name": "expchart",
        "seed": 0,
        "manifold": {
            "type": "chart",
            "l": 1,
            "m": 1,
            "frame": [["1", "x2"]],
        },
        "points": {"origin": [0.0]},
    },
}


@cache
def builtin_scenario(name: str) -> Scenario:
    """The named builtin, resolved once and shared by every caller.

    A resolved scenario is never mutated, so sharing it also shares each
    field's compiled kernels.
    """
    if name not in BUILTIN_SCENARIOS:
        raise ScenarioError(
            f"unknown builtin scenario {name!r}; available: {sorted(BUILTIN_SCENARIOS)}"
        )
    return _resolve(BUILTIN_SCENARIOS[name])


def load_scenario(spec: str | Path) -> Scenario:
    """Load a scenario by builtin name or from a JSON file path."""
    name = str(spec)
    if name in BUILTIN_SCENARIOS:
        return builtin_scenario(name)
    path = Path(spec)
    if not path.exists():
        raise ScenarioError(
            f"{name!r} is neither a builtin scenario nor an existing file"
        )
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario file must contain a JSON object")
    import jsonschema  # only input needs validating: the builtins are program data

    try:
        jsonschema.validate(raw, SCENARIO_SCHEMA)
    except jsonschema.ValidationError as exc:
        path = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ScenarioError(f"schema violation at {path}: {exc.message}") from exc
    return _resolve(raw)
