import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_cases import run_cli
from momlat.eigen import truncated_spectrum
from momlat.formatting import ROW_BLOCK, fmt_real
from momlat.lattice import (
    GRID_CSV_HEADER,
    GridFunction,
    MomentumLattice,
    a_integral,
    grid_from_csv,
    grid_to_csv,
    inner_product,
    sample,
    square_well_lattice,
)


def const(lattice, value):
    return GridFunction(lattice, np.full(lattice.n_points, value, dtype=complex))


class TestMomentumLattice:
    def test_momentum_at_square_well_values(self):
        lat = MomentumLattice(math.pi, math.pi, 5)
        assert lat.momenta()[2] == pytest.approx(3 * math.pi, abs=1e-12)
        assert lat.momenta()[0] == math.pi

    def test_momentum_at_plain_arithmetic(self):
        assert MomentumLattice(0.0, 0.5, 5).momenta()[4] == pytest.approx(2.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MomentumLattice(0.0, 0.0, 4)
        with pytest.raises(ValueError):
            MomentumLattice(0.0, -1.0, 4)
        with pytest.raises(ValueError):
            MomentumLattice(0.0, 1.0, 0)

    @pytest.mark.parametrize("p0,a,bad", [(math.nan, 0.1, "p0=nan"), (math.inf, 0.1, "p0=inf"),
                                          (0.0, math.inf, "a=inf"), (0.0, math.nan, "a=nan")])
    def test_non_finite_parameters_named(self, p0, a, bad):
        with pytest.raises(ValueError, match=bad):
            MomentumLattice(p0, a, 4)

    @pytest.mark.parametrize("p0,a,n", [(0.0, 7e307, 4), (0.0, 1e308, 3), (1e308, 1e308, 2),
                                        (-1e308, 1e308, 3)])
    def test_overflowing_last_momentum_rejected(self, p0, a, n):
        lat = MomentumLattice(p0, a, n)
        with pytest.raises(ValueError, match=r"last momentum p0\+a\*\(n-1\) of the lattice "
                                             f"{re.escape(lat.descriptor())} overflows"):
            lat.momenta()
        assert np.isfinite(MomentumLattice(p0, a, n - 1).momenta()).all()

    @given(st.floats(-5, 5), st.floats(0.01, 3), st.integers(2, 40))
    def test_momenta_strictly_increasing_constant_gap(self, p0, a, n):
        lat = MomentumLattice(p0, a, n)
        p = lat.momenta()
        gaps = np.diff(p)
        assert np.all(gaps > 0)
        assert np.allclose(gaps, a, atol=1e-12)


class TestSquareWell:
    def test_unit_width(self):
        lat = square_well_lattice(1.0, 5)
        assert lat.p0 == pytest.approx(math.pi)
        assert lat.a == pytest.approx(math.pi)
        assert lat.n_points == 5

    def test_pi_width_cancels(self):
        lat = square_well_lattice(math.pi, 1)
        assert lat.p0 == pytest.approx(1.0)
        assert lat.a == pytest.approx(1.0)
        assert lat.n_points == 1

    def test_width_two(self):
        lat = square_well_lattice(2.0, 3)
        assert lat.p0 == pytest.approx(1.5707963, abs=1e-6)
        assert lat.a == pytest.approx(math.pi / 2)

    def test_explicit_hbar(self):
        lat = square_well_lattice(1.0, 4, hbar=2.0)
        assert lat.p0 == pytest.approx(2 * math.pi)
        assert lat.a == pytest.approx(2 * math.pi)

    def test_step_finite_where_hbar_times_pi_overflows(self):
        assert square_well_lattice(1e308, 8, hbar=1e308) == square_well_lattice(1.0, 8)
        assert square_well_lattice(1e308, 8, hbar=1e300).a == pytest.approx(math.pi * 1e-8)

    @given(st.floats(1e-100, 1e100), st.floats(1e-100, 1e100))
    def test_step_bitwise_hbar_pi_over_L_in_the_normal_range(self, L, hbar):
        assert square_well_lattice(L, 1, hbar).a == hbar * math.pi / L

    def test_invalid(self):
        with pytest.raises(ValueError):
            square_well_lattice(0.0, 3)
        with pytest.raises(ValueError):
            square_well_lattice(-1.0, 3)
        with pytest.raises(ValueError):
            square_well_lattice(1.0, 3, hbar=0.0)
        with pytest.raises(ValueError):
            square_well_lattice(1.0, 0)
        # the step hbar*pi/L overflows, or underflows to 0
        for L, hbar in ((1e-308, 1.0), (math.inf, 1.0), (1.0, math.inf), (1e300, 1e-30)):
            with pytest.raises(ValueError, match=re.escape(
                    f"momentum step hbar*pi/L of the well with L={fmt_real(L)}, "
                    f"hbar={fmt_real(hbar)} is")):
                square_well_lattice(L, 8, hbar)


class TestAIntegral:
    def test_constant_one(self):
        lat = MomentumLattice(0.0, 0.5, 5)
        assert a_integral(const(lat, 1.0)) == pytest.approx(2.5)

    def test_identity_function(self):
        lat = MomentumLattice(0.0, 1.0, 4)
        f = sample(lat, lambda p: p.astype(complex))
        assert a_integral(f) == pytest.approx(6.0)

    def test_imaginary_constant(self):
        lat = MomentumLattice(0.0, 2.0, 3)
        assert a_integral(const(lat, 1j)) == pytest.approx(6j)

    @given(st.integers(1, 30), st.floats(0.01, 2.0),
           st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
           st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40)
    def test_linearity(self, n, a, c1, c2, seed):
        lat = MomentumLattice(0.0, a, n)
        rng = np.random.default_rng(seed)
        f = GridFunction(lat, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        g = GridFunction(lat, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        combo = GridFunction(lat, c1 * f.values + c2 * g.values)
        lhs = a_integral(combo)
        rhs = c1 * a_integral(f) + c2 * a_integral(g)
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(lhs)))


class TestInnerProduct:
    def test_constant_norm(self):
        lat = MomentumLattice(0.0, 1.0, 3)
        f = const(lat, 1.0)
        assert inner_product(f, f) == pytest.approx(3.0)

    def test_first_argument_conjugated(self):
        lat = MomentumLattice(0.0, 1.0, 3)
        assert inner_product(const(lat, 1j), const(lat, 1.0)) == pytest.approx(-3j)

    def test_disjoint_supports(self):
        lat = MomentumLattice(0.0, 1.0, 3)
        f = GridFunction(lat, [1, 0, 0])
        g = GridFunction(lat, [0, 1, 0])
        assert inner_product(f, g) == 0

    def test_lattice_mismatch(self):
        f = const(MomentumLattice(0.0, 1.0, 3), 1.0)
        g = const(MomentumLattice(0.0, 2.0, 3), 1.0)
        with pytest.raises(ValueError):
            inner_product(f, g)

    @given(st.integers(1, 30), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40)
    def test_conjugate_symmetry_and_positivity(self, n, seed):
        lat = MomentumLattice(-1.0, 0.3, n)
        rng = np.random.default_rng(seed)
        f = GridFunction(lat, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        g = GridFunction(lat, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        fg = inner_product(f, g)
        gf = inner_product(g, f)
        assert fg == pytest.approx(gf.conjugate(), abs=1e-12 * max(1.0, abs(fg)))
        ff = inner_product(f, f)
        assert abs(ff.imag) < 1e-12 * max(1.0, abs(ff))
        assert ff.real >= 0

    @given(st.integers(2, 20), st.integers(0, 2 ** 31 - 1),
           st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False))
    @settings(max_examples=30)
    def test_sesquilinear(self, n, seed, c):
        lat = MomentumLattice(0.0, 0.5, n)
        rng = np.random.default_rng(seed)
        f = GridFunction(lat, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        g = GridFunction(lat, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        cf = GridFunction(lat, c * f.values)
        cg = GridFunction(lat, c * g.values)
        base = inner_product(f, g)
        assert inner_product(f, cg) == pytest.approx(c * base, abs=1e-12 * (1 + abs(c)))
        assert inner_product(cf, g) == pytest.approx(
            c.conjugate() * base, abs=1e-12 * (1 + abs(c)))

    def test_zero_only_for_zero_function(self):
        lat = MomentumLattice(0.0, 0.5, 4)
        z = const(lat, 0.0)
        assert inner_product(z, z) == 0
        f = GridFunction(lat, [0, 1e-8, 0, 0])
        assert inner_product(f, f).real > 0


class TestGridFunction:
    def test_length_enforced(self):
        lat = MomentumLattice(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            GridFunction(lat, [1.0, 2.0])

    def test_values_read_only(self):
        lat = MomentumLattice(0.0, 1.0, 3)
        f = const(lat, 1.0)
        with pytest.raises(ValueError):
            f.values[0] = 2.0


def per_element_grid_csv(f):
    """Reference: the row-by-row `fmt_real` loop `grid_to_csv` replaced."""
    lines = [GRID_CSV_HEADER]
    for j, (p, v) in enumerate(zip(f.lattice.momenta(), f.values)):
        lines.append(f"{j},{fmt_real(p)},{fmt_real(v.real)},{fmt_real(v.imag)}")
    return "\n".join(lines) + "\n"


def per_element_spectrum_csv(lattice):
    """Reference: the row-by-row `fmt_real` loop `spectrum`'s CSV rows replaced."""
    lines = ["k,x"]
    for k, v in enumerate(truncated_spectrum(lattice), start=1):
        lines.append(f"{k},{fmt_real(v)}")
    return "\n".join(lines) + "\n"


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                  1e300, -1e300, 1.7976931348623157e308, math.inf, -math.inf, math.nan,
                  0.1, -1 / 3, 1.53780397151178e-16, 123456789012345.67]


class TestCsvInterchange:
    @pytest.mark.parametrize("p0,a", [(0.0, 1.0), (-0.0, 0.1), (-1.0, 0.25), (-1e300, 1e299),
                                      (1e-310, 5e-324)])
    def test_matches_per_element_formatting(self, p0, a):
        n = len(SPECIAL_FLOATS)
        lat = MomentumLattice(p0, a, n * n)
        re = np.repeat(SPECIAL_FLOATS, n)
        im = np.tile(SPECIAL_FLOATS, n)
        f = GridFunction(lat, np.array([complex(r, i) for r, i in zip(re, im)]))
        assert grid_to_csv(f) == per_element_grid_csv(f)

    @pytest.mark.parametrize("v", [complex(-0.0, -0.0), complex(-0.0, 1e300),
                                   complex(5e-324, -0.0)])
    def test_single_point_matches_per_element_formatting(self, v):
        f = GridFunction(MomentumLattice(-0.0, 1.0, 1), np.array([v]))
        assert grid_to_csv(f) == per_element_grid_csv(f) == "j,p,re,im\n" + \
            f"0,0,{fmt_real(v.real)},{fmt_real(v.imag)}\n"

    @pytest.mark.parametrize("n", [ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 7])
    def test_matches_per_element_formatting_across_blocks(self, n):
        rng = np.random.default_rng(n)
        values = np.empty(n, dtype=complex)
        values.real = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
        values.imag = rng.choice(SPECIAL_FLOATS, n)
        f = GridFunction(MomentumLattice(-2.5, 1e-3, n), values)
        assert grid_to_csv(f) == per_element_grid_csv(f)

    @given(st.floats(-1e6, 1e6), st.floats(1e-6, 1e3),
           st.lists(st.tuples(st.floats(), st.floats()), min_size=1, max_size=50))
    def test_matches_per_element_formatting_random(self, p0, a, pairs):
        lat = MomentumLattice(p0, a, len(pairs))
        f = GridFunction(lat, np.array([complex(r, i) for r, i in pairs]))
        assert grid_to_csv(f) == per_element_grid_csv(f)

    def test_header_and_roundtrip(self):
        lat = MomentumLattice(-1.0, 0.25, 5)
        f = GridFunction(lat, np.arange(5) * (1 + 2j))
        text = grid_to_csv(f)
        assert text.splitlines()[0] == "j,p,re,im"
        back = grid_from_csv(text)
        assert back.lattice.p0 == pytest.approx(lat.p0)
        assert back.lattice.a == pytest.approx(lat.a)
        assert np.allclose(back.values, f.values, atol=1e-12)

    @pytest.mark.parametrize("p0,a,n", [(-3.2, 0.1, 10**5), (0.0, 1e-5, 10**6)])
    def test_long_roundtrip_stays_on_lattice(self, p0, a, n):
        # each printed p drifts from p0 + j*a of the lattice read back from
        # rows 0 and 1 by rounding only, far below the half-spacing limit
        text = grid_to_csv(GridFunction(MomentumLattice(p0, a, n), np.ones(n)))
        back = grid_from_csv(text)
        p = np.array([float(line.split(",")[1]) for line in text.splitlines()[1:]])
        assert np.max(np.abs(p - back.lattice.momenta())) <= 2e-10 * back.lattice.a

    @pytest.mark.parametrize("p,row", [("7.5", 2), ("0.625", 2), ("nan", 2), ("inf", 2)])
    def test_off_lattice_row_rejected(self, p, row):
        # rows 0 and 1 give p0 = 0 and a = 0.25; 0.625 is exactly half a
        # spacing from row 2's 0.5
        text = f"j,p,re,im\n0,0,1,0\n1,0.25,1,0\n2,{p},1,0\n3,0.75,1,0\n"
        with pytest.raises(ValueError, match=f"^row {row}: p={p} lies "):
            grid_from_csv(text)

    def test_row_just_inside_half_spacing_accepted(self):
        back = grid_from_csv("j,p,re,im\n0,0,1,0\n1,0.25,1,0\n2,0.624,1,0\n3,0.874,1,0\n")
        assert back.lattice == MomentumLattice(0.0, 0.25, 4)

    def test_unresolved_spacing_file_rejected(self):
        # p1 - p0 is rounded to the float step of 1e9 (1.2e-7), so rows 0
        # and 1 misread a = 1e-5 by 0.14%, and the drift reaches half a
        # spacing at row 365
        text = grid_to_csv(GridFunction(MomentumLattice(1e9, 1e-5, 2000), np.ones(2000)))
        with pytest.raises(ValueError, match="^row 365: "):
            grid_from_csv(text)

    @pytest.mark.parametrize("p0,a", [(1e16, 1.0), (-1e17, 3.0)])
    def test_collapsed_momenta_rejected(self, p0, a):
        # a spacing below the rounding step of p0 repeats a momentum, and
        # grid_from_csv could not read such a p column back
        f = GridFunction(MomentumLattice(p0, a, 4), np.ones(4))
        with pytest.raises(ValueError, match=re.escape(
                f"consecutive momenta of the lattice {f.lattice.descriptor()} are equal")):
            grid_to_csv(f)

    @pytest.mark.parametrize("text, message", [
        ("x,y\n1,2\n", "expected header 'j,p,re,im'"),
        ("", "expected header 'j,p,re,im'"),
        ("j,p,re,im\n0,0,1,0\n1,0.5,1\n", r"expected 4 fields, got 3: '1,0\.5,1\\n'$"),
        ("j,p,re,im\n0,0,1,0\n1,0.5,1,0,0\n", "expected 4 fields, got 5"),
        ("j,p,re,im\n0,0,1,0\n2,0.5,1,0\n", r"row index 2 out of order \(expected 1\)"),
        ("j,p,re,im\n1,0,1,0\n", r"row index 1 out of order \(expected 0\)"),
        ("j,p,re,im\n0,0,1,0\n", "need at least two rows to infer the lattice spacing"),
        ("j,p,re,im\n", "need at least two rows to infer the lattice spacing"),
        ("j,p,re,im\nx,0,1,0\n1,1,1,0\n", "row 0: j='x' does not parse as int$"),
        ("j,p,re,im\n0,0,1,0\n1,one,1,0\n", "row 1: p='one' does not parse as float$"),
        ("j,p,re,im\n0,0,1,0j\n1,1,1,0\n", "row 0: im='0j' does not parse as float$"),
    ], ids=["bad-header", "empty", "3-fields", "5-fields", "skipped-index", "first-index-1",
            "one-row", "no-rows", "x-in-j", "one-in-p", "0j-in-im"])
    def test_bad_header_rejected(self, text, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            grid_from_csv(text)


class TestSpectrumCsv:
    @pytest.mark.parametrize("n", [1, 2, 640, 4096])
    @pytest.mark.parametrize("p0,a", [(0.0, 1.0), (-3.7, 0.37), (12.5, 1e-150)])
    def test_matches_per_element_formatting(self, n, p0, a):
        code, out, err = run_cli("spectrum", "--p0", repr(p0), "--a", repr(a), "--n", str(n))
        assert (code, err) == (0, "")
        assert out == per_element_spectrum_csv(MomentumLattice(p0, a, n))
