import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bits import same_bits
from cli_cases import run_cli
from momlat import eigen
from momlat.eigen import (
    MAX_SPECTRUM_POINTS,
    alpha,
    eigenvector_closed_form,
    eigenvector_recurrence,
    normalization_direct,
    normalization_direct_first_n,
    normalization_formula,
    normalized,
    phase_seed,
    truncated_spectrum,
)
from momlat.formatting import dumps
from momlat.lattice import GridFunction, MomentumLattice, grid_to_csv, inner_product
from momlat.operators import apply, build_operator


def unit_norm_check(result) -> float:
    """|<phi|phi> - 1| for a supposedly normalized result."""
    return abs(inner_product(result.phi, result.phi) - 1.0)


class TestAlpha:
    def test_at_zero(self):
        assert alpha(0.0, 1.0) == -1.0 + 0.0j

    def test_at_band_edge(self):
        assert alpha(1.0, 1.0) == pytest.approx(1j)

    def test_generic_value(self):
        av = alpha(0.5, 1.0)
        assert type(av) is complex
        assert av == pytest.approx(-0.8660254 + 0.5j, abs=1e-7)
        assert abs(av) == pytest.approx(1.0, abs=1e-12)

    def test_outside_band(self):
        with pytest.raises(ValueError, match="outside lattice band"):
            alpha(2.0, 1.0)

    def test_nan_product_rejected(self):
        with pytest.raises(ValueError, match="x=nan"):
            alpha(math.nan, 1.0)
        with pytest.raises(ValueError, match="not a number"):
            alpha(math.inf, 0.0)  # inf * 0 is nan

    @given(st.floats(-1.0, 1.0), st.floats(0.01, 3.0))
    def test_unimodular_inside_band(self, s, a):
        # sample x through s = a*x so the precondition holds by construction
        av = alpha(s / a, a)
        assert abs(av * av.conjugate() - 1.0) < 1e-12


class TestRecurrence:
    def test_x_zero_alternating_pattern(self):
        lat = MomentumLattice(0.0, 1.0, 5)
        res = eigenvector_recurrence(lat, 0.0, 1.0)
        assert np.allclose(res.phi.values, [1, 0, 1, 0, 1])

    def test_first_step_from_boundary_seed(self):
        lat = MomentumLattice(0.0, 0.5, 4)
        x = 0.37
        res = eigenvector_recurrence(lat, x, 1.0)
        assert res.phi.values[1] == pytest.approx(2j * lat.a * x)

    def test_seed_stored(self):
        lat = MomentumLattice(0.0, 1.0, 3)
        res = eigenvector_recurrence(lat, 0.2, 1j)
        assert res.phi.values[0] == 1j
        assert res.phi0 == 1j

    def test_band_validation(self):
        with pytest.raises(ValueError):
            eigenvector_recurrence(MomentumLattice(0.0, 1.0, 4), 1.5)

    @pytest.mark.parametrize("n", [2, 3])
    def test_non_finite_step_rejected(self, n):
        # 2*a overflows above a ~ 9e307, and t = 2ia*x would carry inf or nan
        with pytest.raises(ValueError, match=r"step 2\*i\*a\*x is not finite at a=1e\+308"):
            eigenvector_recurrence(MomentumLattice(0.0, 1e308, n), 0.0)
        assert eigenvector_recurrence(MomentumLattice(0.0, 8.9e307, n), 0.0).phi.values[0] == 1

    def test_single_point_takes_no_step(self):
        res = eigenvector_recurrence(MomentumLattice(0.0, 1e308, 1), 0.0, 1j)
        assert res.phi.values.tolist() == [1j]


def numpy_indexed_recurrence(lattice, x, phi0):
    """Reference: the complex128-array loop `eigenvector_recurrence` replaced."""
    n = lattice.n_points
    t = 2.0j * lattice.a * x
    values = np.empty(n, dtype=complex)
    values[0] = phi0
    prev = 0.0 + 0.0j
    for j in range(n - 1):
        values[j + 1] = prev + t * values[j]
        prev = values[j]
    return values


class TestRecurrenceMatchesNumpyLoop:
    @given(st.floats(-1.0, 1.0), st.floats(0.01, 5.0), st.floats(-10.0, 10.0),
           st.integers(1, 2000), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal(self, s, a, p0, n, re, im):
        lat = MomentumLattice(p0, a, n)
        x, phi0 = s / a, complex(re, im)
        got = eigenvector_recurrence(lat, x, phi0).phi.values
        assert same_bits(got, numpy_indexed_recurrence(lat, x, phi0))

    @pytest.mark.parametrize("s,phi0", [(0.0, 1.0 + 0.0j), (-0.0, complex(-0.0, -0.0)),
                                        (1.0, 1j), (-1.0, complex(-0.0, 1.0)),
                                        (0.37, phase_seed(2.5)), (-0.999, 1.0)])
    def test_bitwise_equal_ten_thousand_points(self, s, phi0):
        lat = MomentumLattice(-3.0, 0.3, 10_000)
        got = eigenvector_recurrence(lat, s / 0.3, phi0).phi.values
        assert same_bits(got, numpy_indexed_recurrence(lat, s / 0.3, phi0))


class TestNormalizationFirstN:
    @given(st.floats(-0.99, 0.99), st.floats(0.05, 2.0), st.integers(2, 300),
           st.floats(-math.pi, math.pi))
    @settings(max_examples=40, deadline=None)
    def test_first_n_normalization_equals_fresh_recurrence(self, s, a, n, phase):
        lat = MomentumLattice(0.5, a, n)
        phi0 = phase_seed(phase)
        rec = eigenvector_recurrence(lat, s / a, phi0)
        head = MomentumLattice(0.5, a, n - 1)
        fresh = normalization_direct(eigenvector_recurrence(head, s / a, phi0))
        assert normalization_direct_first_n(rec, n - 1) == fresh

    def test_first_n_bounds(self):
        rec = eigenvector_recurrence(MomentumLattice(0.0, 1.0, 4), 0.2)
        assert normalization_direct_first_n(rec, 4) == normalization_direct(rec)
        for N in (0, 5):
            with pytest.raises(ValueError, match=f"N={N}"):
                normalization_direct_first_n(rec, N)


class TestPhaseSeed:
    def test_unit_seed(self):
        assert phase_seed(0.0) == 1.0
        assert abs(phase_seed(1.3)) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("phase,bad", [(math.inf, "phase=inf"), (-math.inf, "phase=-inf"),
                                           (math.nan, "phase=nan")])
    def test_non_finite_phase_rejected(self, phase, bad):
        with pytest.raises(ValueError, match=bad):
            phase_seed(phase)


class TestClosedForm:
    def test_collapses_to_seed_at_first_point(self):
        lat = MomentumLattice(0.0, 1.0, 1)
        res = eigenvector_closed_form(lat, 0.5, 2.0 + 1.0j)
        assert res.phi.values[0] == pytest.approx(2.0 + 1.0j)

    def test_second_point_value(self):
        lat = MomentumLattice(0.0, 1.0, 2)
        x = 0.5
        res = eigenvector_closed_form(lat, x, 1.0)
        assert res.phi.values[1] == pytest.approx(2j * x)

    def test_x_zero_even_odd_pattern(self):
        lat = MomentumLattice(0.0, 1.0, 6)
        res = eigenvector_closed_form(lat, 0.0, 3.0)
        assert np.allclose(res.phi.values, [3, 0, 3, 0, 3, 0])

    def test_matches_recurrence_small(self):
        lat = MomentumLattice(0.0, 1.0, 4)
        closed = eigenvector_closed_form(lat, 0.5, 1.0)
        rec = eigenvector_recurrence(lat, 0.5, 1.0)
        assert np.max(np.abs(closed.phi.values - rec.phi.values)) < 1e-12

    def test_band_edge_degenerate(self):
        lat = MomentumLattice(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="degenerate"):
            eigenvector_closed_form(lat, 1.0)
        with pytest.raises(ValueError, match="outside"):
            eigenvector_closed_form(lat, 1.5)

    @pytest.mark.parametrize("x_frac", [0.0, 0.3, -0.3, 0.7, -0.7, 0.99, -0.99])
    @pytest.mark.parametrize("a", [0.1, 1.0])
    @pytest.mark.parametrize("n", [8, 128, 1024])
    def test_equivalence_grid(self, x_frac, a, n):
        lat = MomentumLattice(0.0, a, n)
        x = x_frac / a
        closed = eigenvector_closed_form(lat, x, 1.0)
        rec = eigenvector_recurrence(lat, x, 1.0)
        scale = np.max(np.abs(closed.phi.values))
        assert np.max(np.abs(closed.phi.values - rec.phi.values)) < 1e-12 * scale


def power_closed_form(lattice, x, phi0):
    """Reference: the closed form with numpy's `power` at both roots, the
    formula `eigenvector_closed_form` evaluated before its powers shared a log."""
    al = alpha(x, lattice.a)
    exps = np.arange(1, lattice.n_points + 1)
    return phi0 * (np.power(al, exps) - np.power(-al.conjugate(), exps)) / (2.0 * al.real)


# sizes on both sides of numpy's small-power cutoff (exponents below 100) and
# of its temporary elision (arrays of 256 KiB, 16384 complex points, or more)
CUTOFF_SIZES = [1, 2, 3, 4, 98, 99, 100, 101, 102, 4097, 16384, 16385]
EDGE_S = [0.0, -0.0, 5e-324, -5e-324, 1 - 10 ** -15.5, -(1 - 10 ** -15.5)]


class TestClosedFormPowers:
    """The closed form is bitwise its `np.power` formula on every input."""

    def check(self, s, a, n, phi0):
        lat = MomentumLattice(-1.5, a, n)
        got = eigenvector_closed_form(lat, s / a, phi0).phi.values
        assert same_bits(got, power_closed_form(lat, s / a, phi0))

    @given(st.floats(-0.999999, 0.999999), st.floats(1e-4, 10.0),
           st.sampled_from(CUTOFF_SIZES[:-2] + [250, 3000]),
           st.one_of(st.none(), st.floats(-math.pi, math.pi)))
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal(self, s, a, n, phase):
        self.check(s, a, n, 1.0 + 0.0j if phase is None else phase_seed(phase))

    @pytest.mark.parametrize("s", EDGE_S)
    @pytest.mark.parametrize("n", CUTOFF_SIZES)
    @pytest.mark.parametrize("phi0", [1.0 + 0.0j, phase_seed(2.5)], ids=["one", "phase2.5"])
    def test_bitwise_equal_at_edge_roots(self, s, n, phi0):
        self.check(s, 0.5, n, phi0)

    def test_bitwise_equal_at_a_million_points(self):
        self.check(0.0005, 0.001, 10 ** 6, 1.0 + 0.0j)

    def test_peak_memory_per_point(self):
        # the np.power formula peaks at 40 bytes a point (the exponents and
        # the two power arrays) plus numpy's 128 KiB buffer for casting the
        # integer exponents to complex
        n = 200_000
        lat = MomentumLattice(0.0, 1e-3, n)
        eigenvector_closed_form(MomentumLattice(0.0, 1.0, 200), 0.3)  # caches warmed
        tracemalloc.start()
        try:
            eigenvector_closed_form(lat, 300.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 40 * n + 2 ** 18


class TestShiftedDifferenceFactor:
    @pytest.mark.parametrize("x,a,n", [(0.3, 1.0, 64), (-0.8, 0.5, 128), (0.05, 0.1, 256)])
    def test_geometric_factorization(self, x, a, n):
        # h_j = phi_j - alpha*phi_{j-1} collapses to a pure geometric sequence
        lat = MomentumLattice(0.0, a, n)
        res = eigenvector_recurrence(lat, x, 1.0)
        al = alpha(x, a)
        phi = res.phi.values
        h = np.empty(n, dtype=complex)
        h[0] = phi[0]
        h[1:] = phi[1:] - al * phi[:-1]
        expected = (-al.conjugate()) ** np.arange(n) * phi[0]
        assert np.max(np.abs(h - expected)) < 1e-12 * np.max(np.abs(expected))


class TestInteriorEigenEquation:
    @pytest.mark.parametrize("x,a,n", [(0.5, 1.0, 32), (-0.2, 0.25, 64), (0.95, 1.0, 16)])
    def test_closed_form_satisfies_eigen_equation(self, x, a, n):
        lat = MomentumLattice(-1.0, a, n)
        res = eigenvector_closed_form(lat, x, 1.0)
        X = build_operator(lat, "X")
        lhs = apply(X, res.phi).values
        rhs = x * res.phi.values
        scale = np.max(np.abs(res.phi.values))
        assert np.max(np.abs(lhs[1:-1] - rhs[1:-1])) < 1e-12 * max(1.0, scale)


class TestNormalization:
    def test_x_zero_unit_spacing(self):
        lat = MomentumLattice(0.0, 1.0, 5)
        res = eigenvector_recurrence(lat, 0.0, 1.0)
        assert normalization_direct(res) == pytest.approx(1 / math.sqrt(3), abs=1e-7)

    def test_x_zero_quarter_spacing(self):
        lat = MomentumLattice(0.0, 0.25, 5)
        res = eigenvector_recurrence(lat, 0.0, 1.0)
        assert normalization_direct(res) == pytest.approx(1.1547005, abs=1e-6)

    def test_regression_value(self):
        # frozen from a 50-digit direct-sum computation: s = 1/sqrt(6)
        lat = MomentumLattice(0.0, 1.0, 8)
        res = eigenvector_recurrence(lat, 0.5, 1.0)
        assert normalization_direct(res) == pytest.approx(0.40824829046386302, abs=1e-13)

    def test_zero_vector_rejected(self):
        lat = MomentumLattice(0.0, 1.0, 3)
        res = eigenvector_recurrence(lat, 0.0, 1.0)
        zero = type(res)(lat, 0.0, GridFunction(lat, np.zeros(3)), 0.0, "recurrence")
        with pytest.raises(ValueError):
            normalization_direct(zero)

    def test_overflowing_squared_norm_rejected(self):
        # phi = 1, 0, 1, 0, 1, 0 sums to 3, and 3a overflows at a = 7e307
        res = eigenvector_closed_form(MomentumLattice(0.0, 7e307, 6), 0.0)
        with pytest.raises(ValueError, match=r"a\*sum\|phi\|\^2 overflows double precision"):
            normalization_direct(res)
        head = eigenvector_closed_form(MomentumLattice(0.0, 7e307, 2), 0.0)
        assert normalization_direct(head) == 1 / math.sqrt(7e307)

    @given(st.floats(-0.9, 0.9), st.floats(0.05, 2.0), st.integers(2, 200))
    @settings(max_examples=40, deadline=None)
    def test_normalized_result_has_unit_norm(self, s, a, n):
        lat = MomentumLattice(0.0, a, n)
        res = eigenvector_recurrence(lat, s / a, 1.0)
        unit = normalized(res)
        assert unit_norm_check(unit) < 1e-12
        assert inner_product(unit.phi, unit.phi).real == pytest.approx(1.0, abs=1e-12)


class TestNormalizationFormula:
    def test_known_x_zero_value(self):
        # bracket evaluates to 8, so |phi0|^2 = 4/8
        assert normalization_formula(0.0, 1.0, 4) == pytest.approx(math.sqrt(0.5))

    def test_known_x_zero_n3(self):
        assert normalization_formula(0.0, 1.0, 3) == pytest.approx(math.sqrt(0.5))

    def test_disagrees_with_full_direct_sum(self):
        # the documented mismatch: literal value 0.5 vs direct sum 1/3 over
        # all five points of the n=5 lattice
        formula_sq = normalization_formula(0.0, 1.0, 4) ** 2
        lat = MomentumLattice(0.0, 1.0, 5)
        direct_sq = normalization_direct(eigenvector_recurrence(lat, 0.0, 1.0)) ** 2
        assert formula_sq == pytest.approx(0.5)
        assert direct_sq == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("x,a,N", [
        (0.5, 1.0, 7), (0.3, 0.25, 9), (-0.7, 1.0, 12), (0.99, 1.0, 6), (0.0, 1.0, 4),
    ])
    def test_reconciles_with_first_n_points(self, x, a, N):
        # the formula equals the direct sum over the FIRST N points j=0..N-1
        head = MomentumLattice(0.0, a, N)
        direct = normalization_direct(eigenvector_recurrence(head, x, 1.0))
        assert normalization_formula(x, a, N) == pytest.approx(direct, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            normalization_formula(0.0, 1.0, 0)
        with pytest.raises(ValueError):
            normalization_formula(1.0, 1.0, 4)  # band edge excluded
        with pytest.raises(ValueError):
            normalization_formula(0.5, -1.0, 4)

    @pytest.mark.parametrize("N", [1, 4, 1000])
    @pytest.mark.parametrize("s", [math.nextafter(1.0, 0.0), -math.nextafter(1.0, 0.0),
                                   0.999999999999, -0.999999999999])
    def test_bracket_denominator_near_the_band_edge(self, s, N):
        # |alpha^2 + 1| = 2*sqrt(1 - s^2) is at least 2^-25 for every double
        # |s| < 1 (exactly 2^-25 at the largest double below 1), so the
        # bracket divides by it unguarded
        al = alpha(s, 1.0)
        assert abs(al * al + 1.0) >= 2.0 ** -25
        try:
            value = normalization_formula(s, 1.0, N)
        except ValueError as exc:
            assert str(exc).startswith(("degenerate bracket", "normalization formula")), exc
        else:
            assert math.isfinite(value) and value > 0

    def test_overflowing_value_rejected(self):
        # |phi(p_0)|^2 ~ 4/(a*(2N+1)) passes the largest double below a ~ 1e-308
        assert math.isfinite(normalization_formula(0.5, 1e-300, 3))
        with pytest.raises(ValueError, match="overflows double precision at a=1e-320, N=3"):
            normalization_formula(0.5, 1e-320, 3)

    def test_overflowing_bracket_rejected(self):
        # at x = 0, N = 1 the bracket is 4, so a*bracket overflows at a = 7e307
        assert normalization_formula(0.0, 4e307, 1) == math.sqrt(4 / (4e307 * 4))
        with pytest.raises(ValueError, match=r"a\*bracket overflows double precision at "
                                             r"a=7e\+307, N=1"):
            normalization_formula(0.0, 7e307, 1)


class TestSpectrum:
    def test_single_point(self):
        assert truncated_spectrum(MomentumLattice(0.0, 1.0, 1)) == pytest.approx([0.0])

    def test_two_points(self):
        ev = truncated_spectrum(MomentumLattice(0.0, 1.0, 2))
        assert ev == pytest.approx([-0.5, 0.5], abs=1e-12)

    def test_three_points(self):
        ev = truncated_spectrum(MomentumLattice(0.0, 1.0, 3))
        assert ev == pytest.approx([-math.sqrt(2) / 2, 0.0, math.sqrt(2) / 2], abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 16])
    @pytest.mark.parametrize("a", [1.0, 0.3])
    def test_cosine_pattern_confirmed_by_solver(self, n, a):
        # closed pattern cos(k pi/(n+1))/a, asserted after oracle confirmation
        ev = truncated_spectrum(MomentumLattice(-2.0, a, n))
        ks = np.arange(1, n + 1)
        pattern = np.sort(np.cos(ks * np.pi / (n + 1)) / a)
        assert np.max(np.abs(ev - pattern)) < 1e-10

    @given(st.integers(1, 60), st.floats(0.05, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_spectrum_inside_band(self, n, a):
        ev = truncated_spectrum(MomentumLattice(0.0, a, n))
        assert np.all(np.abs(ev) <= 1.0 / a + 1e-10)
        assert np.all(np.diff(ev) >= -1e-12)


def complex_dense_spectrum(lattice):
    """Reference: the complex dense solve `truncated_spectrum` replaced."""
    return np.linalg.eigvalsh(build_operator(lattice, "X").entries)


def fallback_spectrum(lattice):
    """`truncated_spectrum` with the `dsterf` binding reported absent."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eigen, "_dsterf", lambda: None)
        return truncated_spectrum(lattice)


def all_paths_agree(lattice):
    """The dsterf path, the dense fallback and the complex dense reference
    give the same eigenvalue bits, signed zeros included."""
    got = truncated_spectrum(lattice)
    return same_bits(got, fallback_spectrum(lattice)) and \
        same_bits(got, complex_dense_spectrum(lattice))


class TestSpectrumMatchesComplexDenseSolve:
    @given(st.integers(1, 300), st.floats(0.01, 5.0), st.floats(-50.0, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_bitwise_equal(self, n, a, p0):
        assert all_paths_agree(MomentumLattice(p0, a, n))

    @given(st.integers(1, 40), st.floats(-308.0, 308.0), st.floats(-50.0, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_bitwise_equal_where_lapack_scales(self, n, log_a, p0):
        # entries 1/(2a) outside 2^-485..2^485 are scaled before the QL sweep
        assert all_paths_agree(MomentumLattice(p0, 10.0 ** log_a, n))

    @pytest.mark.parametrize("n", [1, 2, 3, 640, 641])
    @pytest.mark.parametrize("a", [0.37, 1e-200, 1e200])
    def test_bitwise_equal_on_both_paths(self, n, a):
        assert all_paths_agree(MomentumLattice(-1.5, a, n))

    def test_bitwise_equal_at_the_cap(self):
        # the complex dense reference would take ~30 s and ~550 MB here
        lat = MomentumLattice(-1.5, 0.37, MAX_SPECTRUM_POINTS)
        assert same_bits(truncated_spectrum(lat), fallback_spectrum(lat))

    @pytest.mark.parametrize("n,a", [(64, 1.0), (65, 0.1), (128, 0.37), (129, 3.0),
                                     (256, 0.05), (640, 0.7), (641, 0.013)])
    def test_bitwise_equal_across_blocked_sizes(self, n, a):
        lat = MomentumLattice(-1.5, a, n)
        assert np.array_equal(truncated_spectrum(lat), complex_dense_spectrum(lat))

    def test_cap_rejected_before_allocation(self):
        lat = MomentumLattice(0.0, 1.0, MAX_SPECTRUM_POINTS + 1)
        with pytest.raises(ValueError, match=f"n={MAX_SPECTRUM_POINTS + 1} points exceeds "
                                             f"the limit of {MAX_SPECTRUM_POINTS}"):
            truncated_spectrum(lat)

    def test_spacing_with_overflowing_reciprocal_rejected(self):
        # the smallest spacing whose reciprocal is finite still solves
        a = 1.0 / float(np.finfo(float).max)
        while not math.isfinite(1.0 / a):
            a = float(np.nextafter(a, 1.0))
        assert np.all(np.isfinite(truncated_spectrum(MomentumLattice(0.0, a, 64))))
        below = float(np.nextafter(a, 0.0))
        with pytest.raises(ValueError, match="1/a overflows double precision"):
            truncated_spectrum(MomentumLattice(0.0, below, 8))


class TestDsterfBinding:
    def test_bound_where_numpy_bundles_openblas(self):
        here = Path(np.__file__).parent
        bundled = [*here.parent.glob("numpy.libs/libscipy_openblas64_*"),
                   *here.glob(".dylibs/libscipy_openblas64_*")]
        assert (eigen._dsterf() is not None) == bool(bundled)

    def test_absent_library_or_symbol_is_none(self, tmp_path, monkeypatch):
        monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
        assert eigen._dsterf.__wrapped__() is None
        libs = tmp_path / "numpy.libs"
        libs.mkdir()
        (libs / "libscipy_openblas64_-junk.so").write_bytes(b"not a shared library")
        assert eigen._dsterf.__wrapped__() is None
        monkeypatch.setattr(eigen.ctypes, "CDLL", lambda path: object())  # loads, no symbol
        assert eigen._dsterf.__wrapped__() is None

    def test_bound_routine_checks_its_vectors(self):
        solve = eigen._dsterf()
        if solve is None:
            pytest.skip("numpy bundles no libscipy_openblas64_ here")
        d = np.array([2.0, 0.0, 1.0])
        assert solve(d, np.zeros(2)) == 0
        assert d.tolist() == [0.0, 1.0, 2.0]
        with pytest.raises(ValueError, match="needs n - 1 off-diagonal entries, got 3 for n=3"):
            solve(np.zeros(3), np.zeros(3))
        read_only = np.zeros(2)
        read_only.setflags(write=False)
        for d, e in [(np.zeros(3, dtype=np.float32), np.zeros(2)),
                     (np.zeros(6)[::2], np.zeros(2)), (np.zeros(3), read_only)]:
            with pytest.raises(eigen.ctypes.ArgumentError):
                solve(d, e)

    def test_no_convergence_raises_linalg_error(self, monkeypatch):
        monkeypatch.setattr(eigen, "_dsterf", lambda: lambda d, e: 2)
        with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
            truncated_spectrum(MomentumLattice(0.0, 1.0, 16))
        code, out, err = run_cli("spectrum", "--n", "16")
        assert (code, out) == (2, "")
        assert err == "momlat: error: Eigenvalues did not converge\n"


class TestExport:
    def test_envelope_fields(self):
        code, out, _ = run_cli("eigvec", "--x", "0.3", "--a", "0.5", "--n", "4",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        unit = normalized(eigenvector_closed_form(MomentumLattice(0.0, 0.5, 4), 0.3, 1.0))
        assert list(doc)[:6] == ["x", "a", "n", "method", "phi0", "normalized"]
        assert {key: doc[key] for key in ("x", "a", "n", "method", "normalized")} == \
            {"x": 0.3, "a": 0.5, "n": 4, "method": "closed_form", "normalized": True}
        assert doc["phi0"] == json.loads(dumps(unit.phi0))

    def test_csv_export_via_grid_format(self):
        lat = MomentumLattice(0.0, 1.0, 5)
        res = normalized(eigenvector_closed_form(lat, 0.0, 1.0))
        lines = grid_to_csv(res.phi).strip().splitlines()
        assert lines[0] == "j,p,re,im"
        assert len(lines) == 6
