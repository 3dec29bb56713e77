import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpspec.lsd import DEFAULT_VARIANT, LsdSolution, lsd_cdf
from lpspec.matrices import gram
from lpspec.spectra import (
    EigensolverError,
    EmpiricalCdf,
    EmpiricalSpectrum,
    empirical_stieltjes,
    ks_distance,
    sym_eigenvalues,
    wasserstein1,
)


class TestSymEigenvalues:
    def test_two_by_two(self):
        np.testing.assert_allclose(
            sym_eigenvalues([[2.0, 1.0], [1.0, 2.0]]).eigenvalues, [1.0, 3.0], atol=1e-12
        )

    def test_swap_matrix(self):
        np.testing.assert_allclose(
            sym_eigenvalues([[0.0, 1.0], [1.0, 0.0]]).eigenvalues, [-1.0, 1.0], atol=1e-12
        )

    def test_diagonal(self):
        d = [3.0, -1.0, 2.0]
        np.testing.assert_allclose(
            sym_eigenvalues(np.diag(d)).eigenvalues, sorted(d), atol=0
        )

    def test_eigenvalues_off_the_trace_raise(self, monkeypatch):
        # a factorization whose eigenvalues do not sum to the trace failed
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: eigvalsh(m) + 1e-3)
        with pytest.raises(EigensolverError, match="violates trace"):
            sym_eigenvalues(np.diag([3.0, -1.0, 2.0]))

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            sym_eigenvalues([[0.0, 1.0], [0.0, 0.0]])

    def test_asymmetry_just_beyond_the_tolerance_names_it(self):
        # 1e-10 times the largest entry, 4, is 4e-10
        m = [[4.0, 0.0, 4.1e-10], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]]
        with pytest.raises(ValueError, match=r"^matrix is not symmetric: max \|M - M\^T\| = 4\.100e-10$"):
            sym_eigenvalues(m)

    def test_asymmetry_within_the_tolerance_is_accepted(self):
        # eigvalsh reads the lower triangle, so a perturbed upper triangle
        # gives the eigenvalues of the exactly symmetric matrix
        a = np.random.default_rng(1).standard_normal((40, 40))
        m = a + a.T
        near = m.copy()
        near[3, 17] += 0.5e-10 * float(np.max(np.abs(m)))
        assert sym_eigenvalues(near).eigenvalues.tobytes() == sym_eigenvalues(m).eigenvalues.tobytes()
        assert sym_eigenvalues(m).eigenvalues.tobytes() == np.linalg.eigvalsh(m).tobytes()

    def test_nan_off_the_diagonal_is_not_measured_as_asymmetry(self):
        # max |M - M^T| is NaN, which is not above the tolerance, so the
        # matrix is accepted and eigvalsh reads the lower triangle alone
        m = np.array([[1.0, np.nan], [0.5, 2.0]])
        assert sym_eigenvalues(m).eigenvalues.tobytes() == \
            np.linalg.eigvalsh([[1.0, 0.5], [0.5, 2.0]]).tobytes()

    @pytest.mark.parametrize("m", [[[1.0, np.nan], [np.nan, 1.0]], [[np.inf, 0.0], [0.0, 1.0]]],
                             ids=["nan", "inf"])
    def test_a_non_finite_matrix_raises_without_a_warning(self, m):
        # eigvalsh returns NaN eigenvalues, whose sum no trace check may pass
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EigensolverError, match="violates trace"):
                sym_eigenvalues(np.array(m))

    @pytest.mark.parametrize("p", [256, 1024])
    def test_exact_gram_gives_the_eigvalsh_bits(self, p):
        # the blockwise symmetry measure leaves an exact Gram's eigenvalues as they were
        g = gram(np.random.default_rng(p).standard_normal((p, 2 * p)))
        assert sym_eigenvalues(g).eigenvalues.tobytes() == np.linalg.eigvalsh(g).tobytes()

    @pytest.mark.parametrize("perturbed", [False, True], ids=["exact", "within-tolerance"])
    def test_symmetry_measure_makes_no_p_by_p_temporary(self, perturbed):
        # at p = 1024 a float temporary is 8 MB and a bool mask 1 MB
        m = gram(np.random.default_rng(3).standard_normal((1024, 1024)))
        if perturbed:
            m[3, 17] += 0.5e-10 * float(np.max(np.abs(m)))
        tracemalloc.start()
        try:
            sym_eigenvalues(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5e6

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            sym_eigenvalues(np.ones((2, 3)))

    @pytest.mark.parametrize("p", [2, 256, 1024])
    def test_handed_over_gram_gives_the_eigvalsh_bits_in_place(self, p):
        # at one BLAS thread, as an ensemble runs; the Gram is LAPACK's workspace
        from lpspec.verify import _one_blas_thread

        g = gram(np.random.default_rng(p).standard_normal((p, 2 * p)))
        with _one_blas_thread():
            want = np.linalg.eigvalsh(g).tobytes()
            assert sym_eigenvalues(g, overwrite=True).eigenvalues.tobytes() == want

    def test_a_matrix_that_cannot_be_overwritten_is_copied(self):
        g = gram(np.random.default_rng(5).standard_normal((64, 128)))
        want = np.linalg.eigvalsh(g).tobytes()
        for m in (np.asfortranarray(g), g.tolist()):
            kept = np.array(m, copy=True)
            assert sym_eigenvalues(m, overwrite=True).eigenvalues.tobytes() == want
            assert np.array_equal(np.asarray(m), kept)

    def test_a_handed_over_nan_raises_naming_the_solve(self):
        m = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(EigensolverError, match=r"^dsyevd failed on 2x2 matrix: info -5$"):
            sym_eigenvalues(m, overwrite=True)

    @pytest.mark.parametrize("p", [8, 64, 512])
    def test_trace_identities(self, p):
        rng = np.random.default_rng(p)
        a = rng.standard_normal((p, p))
        m = (a + a.T) / 2.0
        ev = sym_eigenvalues(m).eigenvalues
        tr = np.trace(m)
        tr2 = np.trace(m @ m)
        assert abs(ev.sum() - tr) <= 1e-8 * max(1.0, abs(tr))
        assert abs(np.sum(ev * ev) - tr2) <= 1e-8 * max(1.0, abs(tr2))


class TestStackedEigenvalues:
    """`sym_eigenvalues` takes one matrix: a (k, m, m) stack is refused."""

    def test_rejects_a_stack_of_nonsquare_matrices(self):
        with pytest.raises(ValueError, match="square"):
            sym_eigenvalues(np.ones((2, 3, 4)))

    def test_rejects_a_stack_of_square_matrices(self):
        with pytest.raises(ValueError, match="square"):
            sym_eigenvalues(np.ones((2, 3, 3)))


class TestEsdCdf:
    """The empirical spectral CDF, #(eigenvalues <= x) / p, via EmpiricalCdf."""

    @staticmethod
    def esd(eigenvalues):
        return EmpiricalSpectrum(np.array(eigenvalues)).cdf()

    def test_midpoint(self):
        assert self.esd([1.0, 3.0]).cdf(2.0) == 0.5

    def test_extremes(self):
        esd = self.esd([1.0, 3.0])
        assert esd.cdf(0.0) == 0.0
        assert esd.cdf(5.0) == 1.0

    def test_repeated_atoms(self):
        assert self.esd([1.0, 1.0, 1.0]).cdf(1.0) == 1.0

    def test_right_continuity(self):
        esd = self.esd([0.0, 1.0])
        assert esd.cdf(1.0) == 1.0
        assert esd.cdf(1.0 - 1e-12) == 0.5


class TestEmpiricalStieltjes:
    def test_single_atom(self):
        spec = EmpiricalSpectrum(np.array([1.0]))
        got = empirical_stieltjes(spec, 1j)
        assert abs(got - (0.5 + 0.5j)) <= 1e-15

    def test_atom_at_zero(self):
        spec = EmpiricalSpectrum(np.array([0.0]))
        assert abs(empirical_stieltjes(spec, 1j) - 1j) <= 1e-15

    def test_large_z_total_mass(self):
        rng = np.random.default_rng(0)
        spec = EmpiricalSpectrum(np.sort(rng.uniform(0, 5, 50)))
        z = 1e6j
        got = empirical_stieltjes(spec, z)
        assert abs(got - (-1.0 / z)) / abs(1.0 / z) <= 1e-4 * max(1.0, spec.eigenvalues.max())

    def test_upper_half_plane_image(self):
        rng = np.random.default_rng(1)
        spec = EmpiricalSpectrum(np.sort(rng.standard_normal(20)))
        for z in (0.3 + 0.7j, -1.0 + 0.01j, 2.0 + 5.0j):
            assert empirical_stieltjes(spec, z).imag > 0

    def test_near_axis_bound(self):
        spec = EmpiricalSpectrum(np.array([0.5, 1.5]))
        eps = 1e-3
        assert abs(empirical_stieltjes(spec, 1.0 + eps * 1j)) <= 1.0 / eps

    def test_rejects_lower_half_plane(self):
        spec = EmpiricalSpectrum(np.array([1.0]))
        with pytest.raises(ValueError, match="Im z"):
            empirical_stieltjes(spec, 1.0 - 1j)


def tabulated(grid, cdf_values, atom=0.0):
    """Piecewise-linear CDF of a solved law with the given grid and CDF table."""
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(cdf_values, dtype=float)
    return lsd_cdf(LsdSolution(1.0, DEFAULT_VARIANT, grid, np.zeros_like(grid), values, atom,
                               (float(grid[0]), float(grid[-1]))))


# G(x) = x on [0, 1]: the law of one knot at 1 with no atom
UNIFORM = tabulated([1.0], [1.0])

# a sample against a piecewise-linear CDF that need not end at 1, as the
# laws of wrong equation variants do not
sample_vs_law = st.tuples(
    st.lists(st.floats(-0.5, 4.0), min_size=1, max_size=20),
    st.lists(st.tuples(st.floats(0.01, 1.0), st.floats(0.0, 0.3)), min_size=1, max_size=12),
    st.floats(0.0, 0.6),
)


def sample_and_law(case):
    """The step CDF and the piecewise-linear CDF of a `sample_vs_law` case."""
    sample, cells, atom = case
    knots = np.cumsum([h for h, _ in cells])
    return EmpiricalCdf(sample), tabulated(knots, atom + np.cumsum([m for _, m in cells]), atom)


def no_warning(fn, *args):
    """fn(*args), with any warning (numpy's divide and invalid among them) an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(*args)


def brute_force_ks(a, b):
    """Oracle: sup over a fine grid plus both sample sets, from both sides."""
    fa, fb = EmpiricalCdf(a), EmpiricalCdf(b)
    pts = np.concatenate([a, b, np.linspace(min(map(min, (a, b))) - 1, max(map(max, (a, b))) + 1, 10_001)])
    best = 0.0
    for x in pts:
        best = max(best, abs(float(fa.cdf(x)) - float(fb.cdf(x))))
        best = max(best, abs(float(fa.cdf_left(x)) - float(fb.cdf_left(x))))
    return best


class TestKsDistance:
    def test_identical(self):
        f = EmpiricalCdf([0.0, 1.0, 2.0])
        assert ks_distance(f, f) == 0.0

    def test_point_masses(self):
        assert ks_distance(EmpiricalCdf([0.0]), EmpiricalCdf([1.0])) == 1.0

    def test_half_shift(self):
        got = ks_distance(EmpiricalCdf([0.0, 1.0]), EmpiricalCdf([0.0, 2.0]))
        assert got == 0.5
        assert got == brute_force_ks(np.array([0.0, 1.0]), np.array([0.0, 2.0]))

    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=8),
        st.lists(st.floats(-5, 5), min_size=1, max_size=8),
        st.lists(st.floats(-5, 5), min_size=1, max_size=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_metric_properties(self, a, b, c):
        fa, fb, fc = EmpiricalCdf(a), EmpiricalCdf(b), EmpiricalCdf(c)
        dab = ks_distance(fa, fb)
        assert 0.0 <= dab <= 1.0
        assert dab == ks_distance(fb, fa)
        assert dab <= ks_distance(fa, fc) + ks_distance(fc, fb) + 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a = rng.standard_normal(6)
            b = rng.standard_normal(9)
            assert abs(ks_distance(EmpiricalCdf(a), EmpiricalCdf(b)) - brute_force_ks(a, b)) <= 1e-12

    def test_sample_vs_uniform(self):
        assert ks_distance(EmpiricalCdf([0.25, 0.75]), UNIFORM) == 0.25

    @given(sample_vs_law)
    @settings(max_examples=60, deadline=None)
    def test_sample_vs_piecewise_linear(self, case):
        f, g = sample_and_law(case)
        # F - G is linear between the knots of either CDF: its supremum is at a
        # knot, approached from the right (the knot) or the left (the float below)
        xs = np.union1d(f.breakpoints(), g.breakpoints())
        probes = np.concatenate([xs, np.nextafter(xs, -np.inf)])
        brute = float(np.max(np.abs(f.cdf(probes) - g.cdf(probes))))
        assert abs(ks_distance(f, g) - brute) <= 1e-12


class TestWasserstein:
    def test_identical(self):
        f = EmpiricalCdf([0.0, 1.0])
        assert wasserstein1(f, f) == 0.0

    def test_point_masses(self):
        assert wasserstein1(EmpiricalCdf([0.0]), EmpiricalCdf([1.0])) == 1.0

    def test_split_vs_merged(self):
        # |F - G| is 1/2 on (0,1) and 1/2 on (1,2)
        f, g = EmpiricalCdf([0.0, 2.0]), EmpiricalCdf([1.0, 1.0])
        assert (ks_distance(f, g), wasserstein1(f, g)) == (0.5, 1.0)

    def test_translation(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(0, 1, 16)
        got = wasserstein1(EmpiricalCdf(a), EmpiricalCdf(a + 0.25))
        assert abs(got - 0.25) <= 1e-12

    def test_sample_vs_uniform(self):
        # |F - x| is a triangle of area 1/32 on each quarter of [0, 1]; every
        # cell changes sign, which a midpoint rule gets wrong
        got = no_warning(wasserstein1, EmpiricalCdf([0.25, 0.75]), UNIFORM)
        assert abs(got - 0.125) <= 1e-15

    def test_identical_piecewise_linear(self):
        g = tabulated([0.5, 1.0, 2.0], [0.4, 0.8, 1.0], atom=0.2)
        assert no_warning(wasserstein1, g, g) == 0.0

    @given(sample_vs_law)
    @settings(max_examples=60, deadline=None)
    def test_sample_vs_piecewise_linear(self, case):
        f, g = sample_and_law(case)
        got = no_warning(wasserstein1, f, g)
        # reference: between consecutive knots F is a step and G is linear,
        # so |F - G| is the trapezoid of its ends on each cell, once the cell
        # is split where F - G changes sign
        xs = np.union1d(f.breakpoints(), g.breakpoints())
        total = 0.0
        for lo, hi in zip(xs[:-1].tolist(), xs[1:].tolist()):
            d0 = float(f.cdf(lo)) - float(g.cdf(lo))
            d1 = float(f.cdf_left(hi)) - float(g.cdf_left(hi))
            pieces = [(lo, abs(d0)), (hi, abs(d1))]
            if d0 * d1 < 0.0:
                pieces.insert(1, (lo + (hi - lo) * d0 / (d0 - d1), 0.0))
            total += sum(0.5 * (a + b) * (xb - xa) for (xa, a), (xb, b) in zip(pieces, pieces[1:]))
        assert abs(got - total) <= 1e-12


class TestPairDistances:
    def test_empirical_knots_are_the_unique_values(self):
        rng = np.random.default_rng(7)
        sample = np.round(rng.standard_normal(200), 1)  # many ties
        sample[:3] = [-0.0, 0.0, -0.0]
        np.testing.assert_array_equal(EmpiricalCdf(sample).breakpoints(), np.unique(sample))


def test_spectrum_validation():
    with pytest.raises(ValueError, match="sorted"):
        EmpiricalSpectrum(np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        EmpiricalSpectrum(np.array([]))


@pytest.mark.parametrize("values", [[], np.empty(0)], ids=["list", "array"])
def test_input_checks_raise_with_their_message(values):
    with pytest.raises(ValueError, match="^empty sample$"):
        EmpiricalCdf(values)
