import decimal
import json
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from momlat import format_kernel, formatting
from momlat.formatting import KERNEL_MIN_ROWS, ROW_BLOCK, dumps, fmt_real, format_rows
from momlat.lattice import GridFunction, MomentumLattice, grid_to_csv
from test_lattice import SPECIAL_FLOATS


def per_element_dumps(obj, indent=0):
    """Reference: `dumps` as it was before lists of numbers went through
    `format_rows`, one `fmt_real` per real."""
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
        items = [inner + json.dumps(str(k)) + ": " + per_element_dumps(v, indent + 2)
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if not obj:
        return "[]"
    parts = [per_element_dumps(v, indent + 2) for v in obj]
    if all("\n" not in p for p in parts) and sum(len(p) for p in parts) < 70:
        return "[" + ", ".join(parts) + "]"
    return "[\n" + ",\n".join(inner + p for p in parts) + "\n" + pad + "]"


reals = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
complexes = st.builds(complex, reals, reals)


class TestBulkDumps:
    @given(st.lists(reals, max_size=80), st.integers(0, 6))
    def test_float_lists_match_per_element(self, values, indent):
        assert dumps(values, indent) == per_element_dumps(values, indent)
        assert dumps(tuple(values), indent) == per_element_dumps(values, indent)
        assert dumps(np.array(values), indent) == per_element_dumps(values, indent)

    @given(st.lists(complexes, max_size=80), st.integers(0, 6))
    def test_complex_lists_match_per_element(self, values, indent):
        assert dumps(values, indent) == per_element_dumps(values, indent)
        assert dumps(np.array(values), indent) == per_element_dumps(values, indent)

    @given(st.lists(complexes, max_size=40), st.lists(reals, max_size=40))
    def test_lists_inside_a_document_match_per_element(self, values, eigenvalues):
        doc = {"n": len(values), "values": values, "eigenvalues": eigenvalues,
               "nested": [eigenvalues, {"deep": values}]}
        assert dumps(doc) == per_element_dumps(doc)
        arrays = {"n": len(values), "values": np.array(values),
                  "eigenvalues": np.array(eigenvalues),
                  "nested": [np.array(eigenvalues), {"deep": np.array(values)}]}
        assert dumps(arrays) == per_element_dumps(doc)

    @pytest.mark.parametrize("width", [69, 70, 71])
    @pytest.mark.parametrize("kind", [float, complex])
    def test_one_line_limit(self, width, kind):
        # parts of 5 characters ("0.125") or 6 ("[0, 0]") plus one part that
        # brings their total to `width`
        if kind is float:
            values = [0.125] * (width // 5 - 1) + [float("1" * (5 + width % 5))]
        else:
            values = [0j] * (width // 6 - 1) + [complex(0, float("1" * (1 + width % 6)))]
        text = per_element_dumps(values)
        assert sum(len(per_element_dumps(v)) for v in values) == width
        assert dumps(values) == text
        assert ("\n" not in text) == (width < 70)
        nested = {"values": values}
        assert dumps(nested, 4) == per_element_dumps(nested, 4)

    @pytest.mark.parametrize("values", [
        [1, 2.5], [2.5, 1], [True, 0.5], [0.5, False], [None, -0.0], [-0.0, None],
        [np.float64(-0.0), np.float64(1 / 3)], [1 / 3, np.float64(0.1)],
        [np.complex128(1 - 2j), 0.5j], [1j, 2.0], [[0.5, -0.0], [1j]], [[], [0.25]],
        ["a", 0.5], [0.5] * 30 + [1], [1.5j] * 20 + [None], [{"x": -0.0}, 2.0],
        [{}, 0.5], [{"x": {}}],
    ])
    def test_mixed_lists_unchanged(self, values):
        assert dumps(values) == per_element_dumps(values)
        assert dumps({"k": values}, 2) == per_element_dumps({"k": values}, 2)

    def test_long_lists_across_blocks(self):
        rng = np.random.default_rng(5)
        n = 2 * ROW_BLOCK + 3
        reals_ = (rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)).tolist()
        reals_[::97] = rng.choice(SPECIAL_FLOATS, len(reals_[::97])).tolist()
        values = [complex(x, y) for x, y in zip(reals_, reversed(reals_))]
        assert dumps(reals_) == per_element_dumps(reals_)
        assert dumps({"values": values}) == per_element_dumps({"values": values})
        assert dumps(np.array(reals_)) == per_element_dumps(reals_)
        assert dumps({"values": np.array(values)}) == per_element_dumps({"values": values})

    @pytest.mark.parametrize("array", [
        np.zeros((2, 2)), np.zeros((0, 3), dtype=complex), np.array(1.5),
        np.arange(3), np.array([True, False]), np.array(["x"]), np.array([0.5, None]),
    ], ids=["2-d", "empty-2-d", "0-d", "int", "bool", "str", "object"])
    def test_other_arrays_rejected(self, array):
        with pytest.raises(TypeError, match="cannot serialize a"):
            dumps(array)
        with pytest.raises(TypeError, match="cannot serialize a"):
            dumps({"values": [array]})

    @pytest.mark.parametrize("obj, name", [({1.5}, "set"), (frozenset(), "frozenset"),
                                           (b"x", "bytes"), (object(), "object")])
    def test_unsupported_types_rejected(self, obj, name):
        with pytest.raises(TypeError, match=f"^cannot serialize {name}$"):
            dumps(obj)
        with pytest.raises(TypeError, match=f"^cannot serialize {name}$"):
            dumps({"values": [0.5, obj]})


class TestFormatRows:
    @pytest.mark.parametrize("n", [0, 1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1])
    def test_rows_match_per_element(self, n):
        rng = np.random.default_rng(n)
        a = rng.choice(SPECIAL_FLOATS, n)
        b = rng.standard_normal(n)
        expected = "".join(f"{j + 7};{fmt_real(x)};{fmt_real(y)}|" for j, (x, y) in
                           enumerate(zip(a, b)))
        assert "".join(format_rows("%d;%.15g;%.15g|", (a, b), start=7)) == expected
        assert "".join(format_rows("%d;%.15g;%.15g|", (a.tolist(), list(b)),
                                   start=7)) == expected

    def test_one_string_per_block(self):
        blocks = list(format_rows("%.15g\n", (np.zeros(2 * ROW_BLOCK + 1),)))
        assert [len(b) for b in blocks] == [2 * ROW_BLOCK, 2 * ROW_BLOCK, 2]

    def test_without_index_and_negative_zero(self):
        assert "".join(format_rows("%.15g,", ([-0.0, 0.0, -5e-324, math.inf],))) == \
            "0,0,-4.94065645841247e-324,inf,"
        assert "".join(format_rows("[%.15g, %.15g]", ([-0.0], np.array([math.nan])))) == \
            "[0, nan]"

    @pytest.mark.parametrize("x", [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                                   5e-324, -5e-324, 2.2250738585072009e-308, -1e-310])
    def test_fmt_real_is_one_value_of_a_block(self, x):
        # one signed-zero rule for single and bulk values
        assert fmt_real(x) == "".join(format_rows("%.15g", ([x],)))
        assert fmt_real(np.float64(x)) == fmt_real(x)


def from_bits(bits):
    """The float64 of a 64-bit pattern, signalling NaNs included: format_rows
    quiets them without numpy's invalid-operation warning, which the test
    configuration makes an error."""
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# A signalling NaN of each sign: quiet bit clear, some other fraction bit set.
SIGNALLING_NANS = (0x7ff0000000000001, 0xfff4000000000000)


class TestSignallingNaN:
    """A signalling NaN prints `nan`, and warns of nothing, in a block printed
    by `%` and in one printed by the kernel."""

    @pytest.mark.parametrize("bits", SIGNALLING_NANS, ids=hex)
    @pytest.mark.parametrize("rows", [KERNEL_MIN_ROWS - 1, KERNEL_MIN_ROWS + 1])
    def test_format_rows_grid_csv_and_dumps(self, bits, rows):
        x = from_bits(bits)
        values = np.full(rows, 0.25)
        values[1] = x
        grid = np.zeros(rows, dtype=complex)
        grid.real[2] = x
        grid.imag[3] = x
        f = GridFunction(MomentumLattice(0.0, 1.0, rows), grid)
        # the patterns reach the printers unquieted
        assert values.view(np.uint64)[1] == bits
        assert f.values.view(np.uint64)[4] == f.values.view(np.uint64)[7] == bits

        reals = [math.nan if j == 1 else 0.25 for j in range(rows)]
        assert "".join(format_rows("%d,%.15g\n", (values,), start=0)) == \
            "".join(f"{j},{fmt_real(v)}\n" for j, v in enumerate(reals))
        assert grid_to_csv(f) == "j,p,re,im\n" + "".join(
            f"{j},{j},{'nan' if j == 2 else 0},{'nan' if j == 3 else 0}\n" for j in range(rows))
        assert dumps(values) == per_element_dumps(reals)
        assert dumps(f.values) == per_element_dumps(
            [complex(math.nan if j == 2 else 0.0, math.nan if j == 3 else 0.0)
             for j in range(rows)])


def exact_ties(rng, count):
    """Doubles whose exact decimal value has 16 significant digits, the last
    a 5: 15-digit rounding meets an exact tie, which `%` rounds to even."""
    out = []
    for places in range(5):  # digits after the point
        # 16 - places digits before it; every sum below is exact, under 2^53
        whole = rng.integers(10 ** (15 - places), min(10 ** (16 - places), 2 ** 53), count)
        if places == 0:
            values = whole // 10 * 10 + 5
        else:
            values = whole + (2 * rng.integers(0, 2 ** (places - 1), count) + 1) / 2 ** places
        out += values.astype(float).tolist()
    return out


def fixed_cases():
    rng = np.random.default_rng(15)
    tens = 10.0 ** np.arange(-307, 309)
    switch = np.array([1e-5, 1e-4, 1e15, 1e16, 9.999999999999995e14, 9.9999999999999995e-5,
                       9.999999999999999e15, 1e-280, 1e280, 1.0000000000000001e-280])
    around = [np.nextafter(switch, np.inf), np.nextafter(switch, -np.inf), switch]
    for _ in range(3):
        around.append(np.nextafter(around[-3], np.inf))
        around.append(np.nextafter(around[-3], -np.inf))
    values = [*tens, *np.nextafter(tens, np.inf), *np.nextafter(tens, -np.inf),
              *np.concatenate(around), *exact_ties(rng, 200),
              0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
              -1e-310, math.inf, -math.inf, math.nan, 1.7976931348623157e308]
    values += [-v for v in values]
    return np.array(values)


def expected_rows(a, b, start):
    return "".join(f"{start + j},{fmt_real(x)},{fmt_real(y)}\n" for j, (x, y) in
                   enumerate(zip(a.tolist(), b.tolist())))


def assert_rows_match(values, monkeypatch):
    """format_rows against fmt_real per value, on one block the kernel prints
    and one it leaves to `%`."""
    printed = []
    kernel = format_kernel.print_block
    monkeypatch.setattr(format_kernel, "print_block",
                        lambda *args: printed.append(len(args[1][0])) or kernel(*args))
    for rows in (KERNEL_MIN_ROWS, KERNEL_MIN_ROWS - 1):
        a = np.resize(values, rows)
        b = np.roll(a, 1)
        text = "".join(format_rows("%d,%.15g,%.15g\n", (a, b), start=3))
        assert text == expected_rows(a, b, 3)
        assert "".join(format_rows("%.15g;", (b,))) == "".join(fmt_real(y) + ";" for y in b)
    assert printed == [KERNEL_MIN_ROWS] * 2


class TestKernel:
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
    def test_raw_bit_patterns(self, patterns):
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert_rows_match([from_bits(bits) for bits in patterns], monkeypatch)

    def test_fixed_cases(self, monkeypatch):
        values = fixed_cases()
        for lo in range(0, len(values), KERNEL_MIN_ROWS - 1):
            assert_rows_match(values[lo:lo + KERNEL_MIN_ROWS - 1], monkeypatch)

    def test_exact_ties_reach_the_fallback(self):
        # the tie guard, not luck, decides them: where the 15th digit is odd,
        # `%` rounds up to even, and the kernel's own rounding (up only above
        # one half) would print one unit too low
        ties = np.array(exact_ties(np.random.default_rng(16), 400))
        digits = [decimal.Decimal(x).as_tuple().digits for x in ties.tolist()]
        assert all(len(d) == 16 and d[-1] == 5 for d in digits)
        assert sum(d[-2] % 2 for d in digits) > 500
        assert "".join(format_rows("%.15g\n", (ties,))) == "".join(
            fmt_real(x) + "\n" for x in ties)

    def test_powers_of_ten_table(self):
        # hi + lo is 10^(14 - E) to a relative 2^-106, the bound the rounding
        # argument in `_print_g15` takes
        t = format_kernel._tables()
        for j, (hi, lo) in enumerate(zip(t["hi"].tolist(), t["lo"].tolist())):
            exact = Fraction(10) ** (14 - (format_kernel._E_MIN + j))
            assert abs(exact - Fraction(hi) - Fraction(lo)) <= exact / 2 ** 106
            assert t["hi1"][j] + t["hi2"][j] == hi

    @pytest.mark.parametrize("template,start", [
        ("%.15g|%%|\u00e9%.15g\n", None), ("%d: %.15g, %.15g [0x%%]\n", 7),
        ("<%.15g><%.15g>", None), ("%d%.15g%.15g", 0), ("%s,%.15g;%.15g\n", 0),
        ("\0%.15g%.15g", None),
    ])
    def test_literal_text_and_other_conversions(self, template, start):
        rng = np.random.default_rng(17)
        a, b = rng.standard_normal((2, 2 * KERNEL_MIN_ROWS + 5)) * 1e3
        rows = [((start + j,) if start is not None else ()) + (x + 0.0, y + 0.0)
                for j, (x, y) in enumerate(zip(a.tolist(), b.tolist()))]
        expected = "".join(template % row for row in rows)
        assert "".join(format_rows(template, (a, b), start)) == expected
        assert "".join(format_rows(template, (list(a), tuple(b)), start)) == expected

    @pytest.mark.parametrize("start", [-1, format_kernel.INDEX_LIMIT - 2 * KERNEL_MIN_ROWS])
    def test_index_outside_the_kernel_range(self, start):
        a = np.linspace(-1, 1, 3 * KERNEL_MIN_ROWS)
        expected = "".join(f"{start + j},{fmt_real(x)}\n" for j, x in enumerate(a))
        assert "".join(format_rows("%d,%.15g\n", (a,), start)) == expected

    @pytest.mark.parametrize("n", [69, 70, 71, 12, 3 * KERNEL_MIN_ROWS])
    @pytest.mark.parametrize("indent", [0, 2, 7])
    def test_long_arrays_in_dumps(self, n, indent):
        values = np.linspace(-2.5, 2.5, n) ** 3
        assert dumps(values, indent) == per_element_dumps(values.tolist(), indent)
        cvalues = values + 1j * values[::-1]
        assert dumps(cvalues, indent) == per_element_dumps(cvalues.tolist(), indent)
