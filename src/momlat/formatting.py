"""Deterministic text output shared by the CSV/JSON emitters.

All real numbers are printed with 15 significant digits and a plain `.`
decimal separator so that identical inputs always produce byte-identical
files.

Single values go through `fmt_real`.  Every bulk numeric output (the
`eigvec` grid CSV, the `spectrum` CSV rows, and JSON arrays of floats or of
complex numbers) is a numpy array, and goes through one block formatter,
`format_rows`, which prints ROW_BLOCK rows with a single `%` call.  Its bytes
are `fmt_real`'s: `'%.15g' % x` and `format(x, '.15g')` both print through
CPython's `PyOS_double_to_string(x, 'g', 15, ...)`, and adding 0.0 to every
value first turns -0.0 into 0.0, which prints as `0`, as `fmt_real` prints
it.  At 15 digits every value pays the correctly rounded conversion
(~0.65 us), so what the block saves is the per-row Python work around it.
"""

from __future__ import annotations

import json

import numpy as np

# Rows `format_rows` prints with one `%` call.  The Python floats of one
# block exist at a time, so at 10^6 points the peak stays near the text's.
ROW_BLOCK = 4096


def fmt_real(x: float) -> str:
    """Format a real number with 15 significant digits."""
    if x == 0.0:  # collapses -0.0
        return "0"
    return format(float(x), ".15g")


def format_rows(template: str, columns, start: int | None = None):
    """Yield the text of `template % row` for every row, ROW_BLOCK rows a string.

    `columns` are equal-length sequences of reals: numpy float arrays, or
    lists or tuples of floats.  Row i is (start + i, columns[0][i], ...) when
    `start` is given and (columns[0][i], ...) when it is None.  Each block of
    a column becomes a float array with `np.asarray(chunk, dtype=float)`,
    and every real gets 0.0 added, which turns -0.0 into 0.0 and leaves
    every other value, inf and nan included, as it is, so a `%.15g` field
    prints what `fmt_real` prints.  A block's values go by slice assignment
    into one flat list, formatted by one `(template * rows) % tuple(flat)`
    call.
    """
    n = len(columns[0])
    width = len(columns) + (start is not None)
    first = width - len(columns)
    for lo in range(0, n, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, n)
        flat = [None] * ((hi - lo) * width)
        if start is not None:
            flat[0::width] = range(start + lo, start + hi)
        for c, column in enumerate(columns, first):
            flat[c::width] = (np.asarray(column[lo:hi], dtype=float) + 0.0).tolist()
        yield (template * (hi - lo)) % tuple(flat)


def dumps(obj, indent: int = 0) -> str:
    """Serialize dicts/lists/arrays/scalars to JSON with fmt_real for floats.

    Complex numbers are emitted as two-element [re, im] arrays.  A 1-d
    float or complex numpy array is printed by `format_rows` in blocks, with
    the bytes of one `dumps` per item; any other array is rejected.  Lists
    and tuples take one `dumps` per item.  A list whose parts hold no
    newline and have fewer than 70 characters in all fits on one line; any
    other list takes one line per item.
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
    if isinstance(obj, np.ndarray):
        if obj.ndim != 1 or obj.dtype.kind not in "fc":
            raise TypeError(f"cannot serialize a {obj.ndim}-d {obj.dtype} array")
        if obj.dtype.kind == "f":
            rows = format_rows("%.15g\n", (obj,))
        else:
            rows = format_rows("[%.15g, %.15g]\n", (obj.real, obj.imag))
        parts = "".join(rows).split("\n")
        parts.pop()
    elif isinstance(obj, (list, tuple)):
        parts = [dumps(v, indent + 2) for v in obj]
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if len(obj) == 0:
        return "[]"
    if sum(map(len, parts)) < 70 and not any("\n" in p for p in parts):
        return "[" + ", ".join(parts) + "]"
    return "[\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "]"
