"""Deterministic text output shared by the CSV/JSON emitters.

All real numbers are printed with 15 significant digits and a plain `.`
decimal separator so that identical inputs always produce byte-identical
files.

Single values go through `fmt_real`.  Every bulk numeric output (the
`eigvec` grid CSV, the `spectrum` CSV rows, and JSON arrays of floats or of
complex numbers) is a numpy array, and goes through one block formatter,
`format_rows`, which yields ROW_BLOCK rows a string.  Both keep one rule for
the sign of zero: 0.0 is added to every value before it is printed, which
turns -0.0 into 0.0, printed as `0`, and leaves every other value, inf and
nan included, as it is.  So a value prints the same bytes alone or in bulk.

A block of fewer than KERNEL_MIN_ROWS rows is printed by one `%` call:
`'%.15g' % x` and `format(x, '.15g')` both print through CPython's correctly
rounded `PyOS_double_to_string(x, 'g', 15, ...)`.  A larger block is printed
by the numpy kernel of `format_kernel`, which writes the same bytes and
leaves to `%` only the values whose rounding it cannot settle.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

import numpy as np

# Rows `format_rows` yields as one string.  Only one block's Python floats or
# kernel buffers exist at a time, so at 10^6 points the peak stays near the
# text's.
ROW_BLOCK = 4096
# Fewest rows a block needs for the kernel; a smaller block is printed by one
# `%` call.  Measured on the grid CSV's rows (an index and three reals): once
# loaded, the kernel breaks even with `%` at ~128 rows and is ~3x faster at
# 1024 and ~4x at 4096.  The threshold sits higher so that a short output
# does not pay for loading it: ~1.5 ms for its tables, and ~3 ms to compile
# its module where no bytecode cache is kept.
KERNEL_MIN_ROWS = 1024


def fmt_real(x: float) -> str:
    """Format a real number with 15 significant digits, -0.0 as `0`."""
    return "%.15g" % (float(x) + 0.0)


# The error state is set by a decorator: on a 16-row block that costs ~1.4 us
# a call, against ~2.5 us for a `with` block.
@np.errstate(invalid="ignore")
def _float_blocks(columns, lo: int, hi: int) -> list:
    """Rows lo..hi-1 of each column as a float array with 0.0 added; a
    signalling NaN comes out quiet, with no invalid-operation warning."""
    return [np.asarray(column[lo:hi], dtype=float) + 0.0 for column in columns]


def format_rows(template: str, columns, start: int | None = None):
    """Yield the text of `template % row` for every row, ROW_BLOCK rows a string.

    `columns` are equal-length sequences of reals: numpy float arrays, or
    lists or tuples of floats.  Row i is (start + i, columns[0][i], ...) when
    `start` is given and (columns[0][i], ...) when it is None.  Each block of
    a column becomes a float array with `np.asarray(chunk, dtype=float)`,
    and every real gets 0.0 added, which turns -0.0 into 0.0 and leaves
    every other value, inf and nan included, as it is, so a `%.15g` field
    prints what `fmt_real` prints.  The add quiets a signalling NaN without
    a warning, so the kernel sees only quiet NaNs; either prints `nan`.

    A block of at least KERNEL_MIN_ROWS rows goes to the kernel when the
    template's conversions are `%d` for the index (from 0 to 10^12) and
    `%.15g` for each column, and its literal text holds no NUL; any other
    block is formatted by one `(template * rows) % tuple(flat)` call.
    """
    n = len(columns[0])
    width = len(columns) + (start is not None)
    first = width - len(columns)
    layout = None
    if n >= KERNEL_MIN_ROWS:
        # imported by the first call with a block this large, as most runs
        # print none: without a bytecode cache, compiling the kernel's module
        # would add ~3 ms to every import of momlat
        from . import format_kernel
        layout = format_kernel.row_layout(template, len(columns), start is not None)
    for lo in range(0, n, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, n)
        blocks = _float_blocks(columns, lo, hi)
        if layout is not None and hi - lo >= KERNEL_MIN_ROWS and (
                start is None or 0 <= start + lo and start + hi <= format_kernel.INDEX_LIMIT):
            yield format_kernel.print_block(layout, blocks,
                                            start + lo if start is not None else None)
            continue
        flat = [None] * ((hi - lo) * width)
        if start is not None:
            flat[0::width] = range(start + lo, start + hi)
        for c, block in enumerate(blocks, first):
            flat[c::width] = block.tolist()
        yield (template * (hi - lo)) % tuple(flat)


def dumps(obj, indent: int = 0) -> str:
    """Serialize dicts/lists/arrays/scalars to JSON with fmt_real for floats.

    Strings and keys are written by `encode_basestring_ascii`, the function
    `json.dumps` writes a string with at its default settings.  Complex
    numbers are emitted as two-element [re, im] arrays.  A 1-d
    float or complex numpy array is printed by `format_rows` in blocks, with
    the bytes of one `dumps` per item and, when it is too long for one line,
    the separators in the template; any other array is rejected.  Lists
    and tuples take one `dumps` per item.  A list whose parts hold no
    newline and have fewer than 70 characters in all fits on one line; any
    other list takes one line per item.
    """
    # the types of most values first: no float, str or dict is None, a bool
    # or another of the types below
    if isinstance(obj, float):
        return fmt_real(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            inner + encode_basestring_ascii(str(k)) + ": " + dumps(v, indent + 2)
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, complex):
        return "[" + fmt_real(obj.real) + ", " + fmt_real(obj.imag) + "]"
    if isinstance(obj, np.ndarray):
        if obj.ndim != 1 or obj.dtype.kind not in "fc":
            raise TypeError(f"cannot serialize a {obj.ndim}-d {obj.dtype} array")
        if obj.dtype.kind == "f":
            item, columns = "%.15g", (obj,)
        else:
            item, columns = "[%.15g, %.15g]", (obj.real, obj.imag)
        if len(obj) * len(item.replace("%.15g", "0")) >= 70:
            # too long for one line even if every real printed as "0": the
            # separator goes into the template, and the last item prints alone
            sep = ",\n" + inner
            return "".join(["[\n", inner,
                            *format_rows(item + sep, [c[:-1] for c in columns]),
                            *format_rows(item, [c[-1:] for c in columns]),
                            "\n", pad, "]"])
        parts = "".join(format_rows(item + "\n", columns)).split("\n")
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
