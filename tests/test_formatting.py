import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from momlat.formatting import ROW_BLOCK, dumps, fmt_real, format_rows
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
