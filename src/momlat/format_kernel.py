"""Exact vectorized `'%.15g'` for the blocks of `formatting.format_rows`.

`row_layout` places one row of a template in 64-bit words, and
`print_block` writes a block of rows with the same bytes as `template % row`
for each row, in three steps:

- Rounding.  With E = floor(log10|x|), the 15 digits are q = round(|x| *
  10^(14-E)).  10^(14-E) is a table of two doubles hi + lo, and Dekker's
  exact product (no FMA needed) gives |x| * hi as p + err with no rounding
  at all, so the fraction of |x| * 10^(14-E) is known to within 2^-51 (the
  bound is worked out in `_print_g15`).  Where that fraction lies within
  2^-20 of a tie, or q is outside [10^14, 10^15) because E was off by one,
  the direction of the rounding or the exponent is not certain, and the
  value is printed by `%` instead.  So are zeros, inf, nan and every |x|
  outside [1e-280, 1e280], where the table or the product would leave the
  normal range.
- Layout.  Each value becomes six little-endian 64-bit words ('<u8', so the
  bytes do not depend on the host): the sign and any leading `0.000`, the
  15 digits in 16-bit lanes whose high byte holds the decimal point or
  nothing, and the `e+XX` suffix.  A character that `%.15g` does not print
  (a trailing zero digit, an unused point slot) is a NUL byte.
- Assembly.  The `%d` index column and the template's literal text are
  words of the same (rows x words) buffer, and one `bytes.translate(None,
  b"\\0")` drops every NUL byte.

This module is imported by the first `format_rows` call that prints a block
of at least `formatting.KERNEL_MIN_ROWS` rows, and builds its tables then.
"""

from __future__ import annotations

import functools
import math
import re

import numpy as np

# Decimal exponents E the tables cover: floor(log10|x|) of every |x| in
# [1e-280, 1e280], with one to spare at each end.
_E_MIN, _E_MAX = -281, 281
# Dekker's splitting constant 2^27 + 1: with c = x * _SPLIT, c - (c - x) and
# x - (c - (c - x)) are the high and low halves of x's 53-bit significand.
_SPLIT = 134217729.0
# The kernel prints `%d` indices below this, of at most 12 digits.
INDEX_LIMIT = 10 ** 12
_CONVERSION = re.compile(r"(%d|%\.15g)")
# Words a field takes, and (word, byte) from which its last word is free: a
# `%.15g` field ends with "e-280" at most, the index with its 12 digits.
_WORDS = {"d": 2, "g": 6}
_SPARE = {"d": (1, 4), "g": (5, 5)}


@functools.lru_cache(maxsize=32)
def row_layout(template: str, columns: int, index: bool):
    """How one row of `template` lies in 64-bit words, or None where the
    kernel cannot print it.

    Returns (words, fields, texts): the words of a row; per conversion, in
    template order, (kind "d" or "g", first word, last word, tail), where
    tail is the literal text that follows the field packed into the free
    bytes of its last word, 0 when there is none or it does not fit; and per
    other run of literal text, (first word, its NUL-padded words).
    """
    pieces = _CONVERSION.split(template)
    literals, kinds = pieces[::2], [piece[-1] for piece in pieces[1::2]]
    if kinds != ["d"] * index + ["g"] * columns or any(
            "%" in text or "\0" in text for text in literals):
        return None
    words, fields, texts = 0, [], []

    def own_words(data):
        nonlocal words
        if data:
            count = -(-len(data) // 8)
            texts.append((words, np.frombuffer(data.ljust(8 * count, b"\0"), "<u8")))
            words += count

    own_words(literals[0].encode())
    for kind, text in zip(kinds, literals[1:]):
        last, free = _SPARE[kind]
        data, tail = text.encode(), 0
        if len(data) <= 8 - free:
            data, tail = b"", int.from_bytes(data, "little") << (8 * free)
        fields.append((kind, words, words + last, tail))
        words += _WORDS[kind]
        own_words(data)
    return words, fields, texts


def print_block(layout, blocks, start):
    """One block's text: each field written as words of one buffer, and the
    NUL padding dropped."""
    words, fields, texts = layout
    rows = len(blocks[0])
    buf = np.empty((rows, words), "<u8")
    for at, data in texts:
        buf[:, at:at + len(data)] = data
    columns = iter(blocks)
    for kind, at, last, tail in fields:
        if kind == "d":
            _print_index(start, rows, buf[:, at:at + _WORDS[kind]])
        else:
            _print_g15(next(columns), buf[:, at:at + _WORDS[kind]])
        if tail:
            buf[:, last] |= np.uint64(tail)
    return buf.tobytes().translate(None, b"\0").decode()


@functools.cache
def _tables() -> dict:
    """Lookup tables of the kernel, built for its first block (~1.5 ms)."""
    t = {}
    # 10^k = hi + lo for k = 14 - E, to a relative 2^-106: hi is within half
    # an ulp of 10^k and lo is the rest, rounded.  Integer arithmetic only.
    hi, lo = [], []
    power = 1
    for _ in range(14 - _E_MIN + 1):  # 10^0 .. 10^(14 - _E_MIN)
        top = float(power)
        hi.append(top)
        lo.append(float(power - int(top)))
        power *= 10
    hi.reverse()
    lo.reverse()
    power = 1
    for _ in range(_E_MAX - 14):  # 10^-1 .. 10^(14 - _E_MAX)
        # 10^-m = (scaled + fraction) * 2^-shift with fraction in [0, 1), which
        # is below 2^-116 of the whole and left out of lo
        power *= 10
        shift = power.bit_length() + 116
        scaled = (1 << shift) // power
        top = float(scaled)
        hi.append(math.ldexp(top, -shift))
        lo.append(math.ldexp(float(scaled - int(top)), -shift))
    hi, lo = np.array(hi), np.array(lo)  # index E - _E_MIN holds 10^(14 - E)
    c = hi * _SPLIT
    t["hi"], t["lo"], t["hi1"] = hi, lo, c - (c - hi)
    t["hi2"] = hi - t["hi1"]
    e = np.arange(_E_MIN, _E_MAX + 1)
    fixed = (e >= -4) & (e < 15)
    # word 0: sign and leading "0." with zeros, for E in [-4, -1]; sign at
    # byte 0, the rest from byte 1, so the table has one row per sign and E
    lead = [b"\0" + (b"0." + b"0" * (-v - 1) if -4 <= v < 0 else b"") for v in e.tolist()]
    lead = np.array(lead, "S8").view("<u8")
    t["lead"] = np.concatenate([lead, lead | np.uint64(ord("-"))])
    # word 5: the exponent suffix of E outside [-4, 14]
    t["suffix"] = np.array([b"" if -4 <= v < 15 else b"e%+03d" % v for v in e.tolist()],
                           "S8").view("<u8")
    # a fixed number with E >= 0 prints every integer digit, trailing zeros
    # too; the point follows digit E there, and digit 0 in exponent form
    t["min_digits"] = np.where(fixed & (e >= 0), e + 1, 0)
    t["point"] = np.where(fixed, np.where(e >= 0, np.minimum(e, 14), 14), 0)
    # four digits of g in 16-bit lanes: the ASCII digit in the low byte and
    # 0xFF in the high byte, which the mask below turns into '.' or NUL
    d = np.arange(10, dtype=np.uint64)
    t["lanes"] = _by_digits([(np.uint64(0xFF30) + d) << np.uint64(16 * j) for j in range(4)],
                            np.bitwise_or)
    # 1-based lane of g's last nonzero digit; far below any other for g = 0
    t["last"] = _by_digits([np.where(d != 0, j + 1, -64) for j in range(4)], np.maximum)
    # per word w of lanes 4w..4w+3, by 15 * digits + point: lane L > 0 keeps
    # its digit if L <= digits, and lane point + 1 holds '.' if a digit
    # follows it (point 14: no point)
    nd = np.arange(16)[:, None, None]
    point = np.arange(15)[None, :, None]
    lane = np.arange(16)[None, None, :]
    low = np.where((lane >= 1) & (lane <= nd), 0xFF, 0)
    high = np.where((point < 14) & (nd > point + 1) & (lane == point + 1), 0x2E00, 0)
    masks = (low | high).astype(np.uint64).reshape(16 * 15, 4, 4)
    masks = np.bitwise_or.reduce(masks << (np.arange(4, dtype=np.uint64) * 16), axis=2)
    t["masks"] = [np.ascontiguousarray(masks[:, w], "<u8") for w in range(4)]
    # `%d`: four ASCII digits in bytes 0-3 of a word, and the masks that keep
    # the last `digits` of 12 digits in bytes 0-11
    t["ascii"] = _by_digits([(np.uint64(0x30) + d) << np.uint64(8 * j) for j in range(4)],
                            np.bitwise_or)
    keep = (np.arange(16)[None, :] >= 12 - np.arange(13)[:, None]) & (np.arange(16) < 12)
    keep = np.where(keep, 0xFF, 0).astype(np.uint64).reshape(13, 2, 8)
    keep = np.bitwise_or.reduce(keep << (np.arange(8, dtype=np.uint64) * 8), axis=2)
    t["keep"] = [np.ascontiguousarray(keep[:, w], "<u8") for w in range(2)]
    t["tens"] = 10 ** np.arange(1, 12)
    return t


def _by_digits(tables, op):
    """The table over g in [0, 10^4) of op over tables[j][digit j of g],
    digit 0 the thousands."""
    a, b, c, d = tables
    return op(op(op(a[:, None, None, None], b[:, None, None]), c[:, None]), d).ravel()


def _print_g15(x, out):
    """Write `'%.15g' % v` for every v of the float array x (with 0.0 added)
    into the six words of each row of out, NUL-padded."""
    t = _tables()
    ax = np.abs(x)
    ok = (ax >= 1e-280) & (ax <= 1e280)  # false for 0, inf and nan
    np.copyto(ax, 1.0, where=~ok)
    e = np.log10(ax)
    np.floor(e, out=e)
    i = e.astype(np.intp)
    i -= _E_MIN
    # Dekker's exact product: ax * hi = p + err exactly, since no partial
    # product leaves the normal range for |x| in [1e-280, 1e280].  Then y =
    # ax * 10^(14-E) = p + err + ax*lo + ax*(10^k - hi - lo), where the last
    # term is below 2^-106 y, and rounding ax*lo and adding it to err cost
    # below 2^-106 y + 2^-105 y.  With y < 2^50 and the fraction f = (p -
    # floor(p)) + (err + ax*lo) rounded once more (below 2^-52), f is off by
    # less than 2^-51, far inside the 2^-20 tie guard.
    hi1, hi2 = t["hi1"][i], t["hi2"][i]
    c = ax * _SPLIT
    x1 = c - (c - ax)
    x2 = ax - x1
    p = ax * t["hi"][i]
    err = x1 * hi1
    err -= p
    err += x1 * hi2
    err += x2 * hi1
    err += x2 * hi2
    err += ax * t["lo"][i]
    q = np.floor(p)
    f = p - q
    f += err
    q += f > 0.5
    # p >= 10^14 puts y above 10^14 - 0.02, and every y in (10^14 - 0.05,
    # 10^14) prints as 1.00000000000000 * 10^E at both exponents E - 1 and E,
    # so an E one too high is caught or harmless; one too low makes q >= 10^15
    ok &= p >= 1e14
    ok &= q < 1e15
    f -= 0.5
    ok &= np.abs(f, out=f) >= 2.0 ** -20
    # q = g0 g1 g2 g3 in groups of 4 digits (g0 < 1000), and the digit count
    # without trailing zeros: the last lane holding a nonzero digit
    v = q.astype(np.intp)
    np.minimum(v, 10 ** 16 - 1, out=v)  # keeps the table indices in range whatever E was
    top = v // 100000000
    v -= top * 100000000
    groups = []
    for w in (top, v):
        g = w // 10000
        groups += [g, w - g * 10000]
    last = t["last"]
    digits = last[groups[0]] - 1
    for w, g in enumerate(groups[1:], 1):
        lane = last[g]
        lane += 4 * w - 1
        np.maximum(digits, lane, out=digits)
    np.maximum(digits, t["min_digits"][i], out=digits)
    digits *= 15
    digits += t["point"][i]
    for w, g in enumerate(groups):
        np.bitwise_and(t["lanes"][g], t["masks"][w][digits], out=out[:, 1 + w])
    out[:, 5] = t["suffix"][i]
    i += (x < 0) * (_E_MAX - _E_MIN + 1)
    out[:, 0] = t["lead"][i]
    bad = np.flatnonzero(~ok)
    if len(bad):
        texts = (("%.15g\0" * len(bad)) % tuple(x[bad].tolist())).encode().split(b"\0")
        texts.pop()
        out[bad] = np.array(texts, "S48").view("<u8").reshape(-1, 6)


def _print_index(start, rows, out):
    """Write the `%d` text of start, ..., start + rows - 1 (all in [0,
    10^12)) right-aligned into bytes 0-11 of the two words of each row of
    out, NUL-padded."""
    t = _tables()
    v = np.arange(start, start + rows)
    digits = np.searchsorted(t["tens"], v, "right")
    digits += 1
    g0 = v // 100000000
    v -= g0 * 100000000
    g1 = v // 10000
    v -= g1 * 10000
    ascii_ = t["ascii"]
    np.bitwise_and(ascii_[g0] | (ascii_[g1] << np.uint64(32)), t["keep"][0][digits],
                   out=out[:, 0])
    np.bitwise_and(ascii_[v], t["keep"][1][digits], out=out[:, 1])
