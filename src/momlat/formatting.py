"""Deterministic text output shared by the CSV/JSON emitters.

All real numbers are printed with 15 significant digits and a plain `.`
decimal separator so that identical inputs always produce byte-identical
files.
"""

from __future__ import annotations

import json


def fmt_real(x: float) -> str:
    """Format a real number with 15 significant digits."""
    if x == 0.0:  # collapses -0.0
        return "0"
    return format(float(x), ".15g")


def dumps(obj, indent: int = 0) -> str:
    """Serialize dicts/lists/scalars to JSON with fmt_real for floats.

    Complex numbers are emitted as two-element [re, im] arrays.
    """
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_real(obj)
    if isinstance(obj, complex):
        return "[" + fmt_real(obj.real) + ", " + fmt_real(obj.imag) + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            inner + json.dumps(str(k)) + ": " + dumps(v, indent + 2)
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [dumps(v, indent + 2) for v in obj]
        if all("\n" not in p for p in parts) and sum(len(p) for p in parts) < 70:
            return "[" + ", ".join(parts) + "]"
        return "[\n" + ",\n".join(inner + p for p in parts) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
