"""Small shared helpers: deterministic JSON."""

from __future__ import annotations

import json

__all__ = ["canonical_json"]


def canonical_json(obj) -> str:
    """Deterministic JSON rendering (sorted keys, stable float repr)."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
