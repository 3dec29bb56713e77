import re

import numpy as np
import pytest
from scipy import signal

from lpspec.matrices import (
    MatrixShape,
    ShiftPolynomialPair,
    autocovariance_matrix,
    circulant,
    clipped_circulant,
    gram,
    innovation_matrix,
    segment_matrix,
    shift_representation_check,
    subdiagonal_shift,
    truncated_segment_matrix,
)
from lpspec.process import (
    CoefficientModel,
    InnovationSpec,
    ProcessSpec,
    SpectralDensity,
    autocovariance,
    coefficients,
    draw_innovations,
    simulate_record,
)
from lpspec.spectra import sym_eigenvalues


def make_spec(model, n, seed=0, horizon=None):
    from lpspec.process import default_horizon

    j = horizon if horizon is not None else default_horizon(model, n)
    return ProcessSpec(model, InnovationSpec(seed=seed), j)


class TestSegmentMatrix:
    def test_reshape_definition(self):
        shape = MatrixShape(2, 2)
        got = segment_matrix([1.0, 2.0, 3.0, 4.0], shape)
        np.testing.assert_array_equal(got, [[1.0, 2.0], [3.0, 4.0]])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            segment_matrix([1.0, 2.0, 3.0], MatrixShape(2, 2))

    def test_white_noise_equals_reshaped_draws(self):
        shape = MatrixShape(4, 8)
        spec = make_spec(CoefficientModel.white_noise(), shape.n, seed=13)
        x = segment_matrix(simulate_record(spec, shape.cells), shape)
        draws = draw_innovations(spec.innovations, spec.horizon + shape.cells)
        np.testing.assert_array_equal(x, draws[spec.horizon :].reshape(shape.p, shape.n))

    def test_adjacent_segment_correlation(self):
        # correlation of (row i last entry, row i+1 first entry) is gamma(1)/gamma(0)
        model = CoefficientModel.ma([0.5])
        shape = MatrixShape(9, 8)
        left, right = [], []
        for r in range(300):
            spec = make_spec(model, shape.n, seed=1000 + r)
            x = segment_matrix(simulate_record(spec, shape.cells), shape)
            left.extend(x[:-1, -1])
            right.extend(x[1:, 0])
        rho = np.corrcoef(left, right)[0, 1]
        n_pairs = len(left)
        sigma = (1.0 - 0.4**2) / np.sqrt(n_pairs)
        assert abs(rho - 0.4) <= 3.0 * sigma


class TestTruncatedSegmentMatrix:
    def test_ma1_identical(self):
        shape = MatrixShape(3, 6)
        spec = make_spec(CoefficientModel.ma([0.5]), shape.n, seed=4)
        x = segment_matrix(simulate_record(spec, shape.cells), shape)
        xt = truncated_segment_matrix(spec, shape)
        np.testing.assert_array_equal(x, xt)

    def test_explicit_unit_identical(self):
        shape = MatrixShape(2, 5)
        spec = make_spec(CoefficientModel.explicit([1.0]), shape.n, seed=4)
        x = segment_matrix(simulate_record(spec, shape.cells), shape)
        np.testing.assert_array_equal(x, truncated_segment_matrix(spec, shape))

    def test_ar1_exact_at_matching_horizon(self):
        # horizon = n means truncation at n changes nothing
        shape = MatrixShape(64, 64)
        spec = make_spec(CoefficientModel.ar1(0.5), shape.n, seed=8)
        assert spec.horizon == shape.n
        x = segment_matrix(simulate_record(spec, shape.cells), shape)
        np.testing.assert_array_equal(x, truncated_segment_matrix(spec, shape))

    def test_ar1_tail_bound(self):
        shape = MatrixShape(64, 64)
        spec = make_spec(CoefficientModel.ar1(0.9), shape.n, seed=8, horizon=200)
        x = segment_matrix(simulate_record(spec, shape.cells), shape)
        xt = truncated_segment_matrix(spec, shape)
        c = coefficients(spec.model, spec.horizon + 1)
        draws = draw_innovations(spec.innovations, spec.horizon + shape.cells)
        bound = np.sum(np.abs(c[shape.n + 1 :])) * np.max(np.abs(draws))
        diff = np.max(np.abs(x - xt))
        assert 0.0 < diff <= bound + 1e-12  # small allowance for fp rounding

    @pytest.mark.parametrize(
        "model,horizon",
        [(CoefficientModel.ar1(0.9), 200), (CoefficientModel.explicit([1.0, 0.5, 0.0, 0.0]), 40)],
    )
    def test_bitwise_reference_beyond_horizon(self, model, horizon):
        # horizon > n: the record's stream filtered by c_0..c_n, trailing zeros trimmed
        shape = MatrixShape(8, 3)
        spec = make_spec(model, shape.n, seed=8, horizon=horizon)
        draws = draw_innovations(spec.innovations, horizon + shape.cells)
        kernel = np.trim_zeros(coefficients(model, shape.n + 1), "b")
        full = signal.convolve(draws, kernel, mode="full", method="auto")
        ref = full[horizon : horizon + shape.cells].reshape(shape.p, shape.n)
        assert truncated_segment_matrix(spec, shape).tobytes() == ref.tobytes()


class TestInnovationMatrix:
    def test_index_bookkeeping(self):
        shape = MatrixShape(1, 2)
        spec = make_spec(CoefficientModel.explicit([1.0, 0.5, 0.25]), shape.n, seed=6, horizon=2)
        z = innovation_matrix(spec, shape)
        draws = draw_innovations(spec.innovations, spec.horizon + shape.cells)
        # rows hold (Z_{-1}, Z_0) and (Z_1, Z_2); Z_k sits at position k - 1 + horizon
        np.testing.assert_array_equal(z[0], draws[0:2])
        np.testing.assert_array_equal(z[1], draws[2:4])

    def test_lower_rows_match_white_noise_matrix(self):
        shape = MatrixShape(5, 7)
        spec = make_spec(CoefficientModel.white_noise(), shape.n, seed=21)
        x = segment_matrix(simulate_record(spec, shape.cells), shape)
        z = innovation_matrix(spec, shape)
        np.testing.assert_array_equal(z[1:], x)

    def test_rademacher_entries(self):
        shape = MatrixShape(3, 4)
        spec = ProcessSpec(
            CoefficientModel.white_noise(), InnovationSpec("rademacher", seed=1), shape.n
        )
        z = innovation_matrix(spec, shape)
        assert set(np.unique(z)) <= {-1.0, 1.0}

    def test_misalignment_rejected(self):
        shape = MatrixShape(2, 8)
        spec = ProcessSpec(CoefficientModel.ma([0.5]), InnovationSpec(seed=0), 4)
        with pytest.raises(ValueError, match="misalignment"):
            innovation_matrix(spec, shape)


class TestCirculants:
    def test_clipped_circulant_index_formula(self):
        c0, c1, c2 = 0.7, -1.3, 2.2
        omega = clipped_circulant([c0, c1, c2], 2)
        np.testing.assert_array_equal(omega, [[c2, c0, c1], [c1, c2, c0]])

    def test_gram_matches_autocovariance(self):
        omega = clipped_circulant([1.0, 0.5, 0.0], 2)
        g = omega @ omega.T
        np.testing.assert_allclose(np.diag(g), [1.25, 1.25], atol=1e-15)
        assert abs(g[0, 1] - 0.5) <= 1e-15

    def test_selection_matrix_case(self):
        omega = clipped_circulant([1.0], 4)
        np.testing.assert_allclose(omega @ omega.T, np.eye(4), atol=0)

    def test_circulant_2x2(self):
        a, b = 1.5, -0.5
        np.testing.assert_array_equal(circulant([a, b], 2), [[b, a], [a, b]])

    def test_reconstitution(self):
        c = coefficients(CoefficientModel.ma([0.5, 0.25]), 8)
        n = 7
        omega = clipped_circulant(c, n)
        natural = np.asarray(c[: n + 1])
        stacked = np.vstack([omega, natural])
        np.testing.assert_array_equal(stacked, circulant(c, n + 1))

    def test_identity_case(self):
        cc = circulant([1.0], 5)
        np.testing.assert_allclose(cc @ cc.T, np.eye(5), atol=0)

    def test_dft_eigenvalue_identity(self):
        # eig(C C^T) equals the spectral density sampled at the Fourier grid
        c = coefficients(CoefficientModel.ma([0.5, 0.25]), 16)
        m = 16
        cc = circulant(c, m)
        ev = np.sort(np.linalg.eigvalsh(cc @ cc.T))
        f = SpectralDensity.from_coefficients(c[:m])
        ref = np.sort(f(2.0 * np.pi * np.arange(m) / m))
        assert np.max(np.abs(ev - ref)) <= 1e-8


class TestToeplitz:
    def test_white_noise_identity(self):
        np.testing.assert_array_equal(autocovariance_matrix([1.0], 3), np.eye(3))

    def test_ma1_values(self):
        got = autocovariance_matrix([1.0, 0.5], 2)
        np.testing.assert_allclose(got, [[1.25, 0.5], [0.5, 1.25]], atol=1e-15)

    @pytest.mark.parametrize(
        "model",
        [
            CoefficientModel.ma([0.5, 0.25]),
            CoefficientModel.ar1(0.5),
            CoefficientModel.arma([0.3], [0.4]),
        ],
    )
    def test_positive_semidefinite(self, model):
        c = coefficients(model, 80)
        g = autocovariance_matrix(c, 24)
        ev = np.linalg.eigvalsh(g)
        assert ev.min() >= -1e-10 * max(1.0, ev.max())


class TestGram:
    def test_identity(self):
        np.testing.assert_allclose(gram(np.eye(2)), np.eye(2) / 2.0, atol=0)

    def test_ones(self):
        np.testing.assert_allclose(
            gram(np.ones((2, 2))), np.ones((2, 2)), atol=0
        )

    def test_divides_by_rows_not_columns(self):
        m = np.ones((2, 6))
        np.testing.assert_allclose(gram(m), 3.0 * np.ones((2, 2)), atol=0)

    def test_trace_identity(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((6, 11))
        g = gram(m)
        assert abs(np.trace(g) - np.sum(m * m) / 6.0) <= 1e-12 * np.sum(m * m)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("shape", [(7, 3), (128, 128), (96, 200)])
    def test_exactly_symmetric(self, layout, shape):
        # gram has no symmetrizing pass: numpy's M M^T must mirror one triangle
        p, n = shape
        m = np.random.default_rng(8).standard_normal((2 * p, 3 * n))
        m = {"C": m[:p, :n].copy(), "F": np.asfortranarray(m[:p, :n]), "strided": m[::2, ::3]}[layout]
        g = gram(m)
        np.testing.assert_array_equal(g, g.T)

    def test_gram_eigenvalues_nonnegative(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((32, 48))
        ev = sym_eigenvalues(gram(m)).eigenvalues
        assert ev.min() >= -1e-10 * max(1.0, ev.max())

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("blocks", [1, 3, 8])
    def test_column_blocks_accumulate_the_gram(self, layout, blocks):
        # divided by the row count, one block gives the upper triangle of
        # gram's syrk bits; more sum the 700 products in another order, which
        # moves each entry by a few units in the last place
        m = np.random.default_rng(blocks).standard_normal((2 * 130, 3 * 700))
        m = {"C": m[:130, :700].copy(), "F": np.asfortranarray(m[:130, :700]), "strided": m[::2, ::3]}[layout]
        out = np.zeros((130, 130))
        for cols in np.array_split(np.arange(700), blocks):
            assert gram(m[:, cols[0]:cols[-1] + 1], out=out) is out
        assert np.all(np.tril(out, -1) == 0.0)  # only the upper triangle is added to
        g = out / 130
        whole = np.triu(gram(m))
        if blocks == 1 and layout != "strided":  # numpy takes a strided product another way
            assert g.tobytes() == whole.tobytes()
        assert np.max(np.abs(g - whole)) <= 1e-14 * np.max(whole)


class TestShiftRepresentation:
    def test_nilpotent_and_reversal(self):
        pair = ShiftPolynomialPair(4, (1.0, 0.5, 0.25, 0.0, 0.0))
        k = pair.shift
        assert np.all(np.linalg.matrix_power(k, 4) == 0)
        assert pair.reversed_coeffs == (0.0, 0.0, 0.25, 0.5, 1.0)

    def test_hand_expandable_1x2(self):
        shape = MatrixShape(1, 2)
        spec = make_spec(
            CoefficientModel.explicit([1.0, 0.5, 0.25]), shape.n, seed=17, horizon=2
        )
        ok, dev = shift_representation_check(spec, shape)
        assert ok and dev <= 1e-12

    def test_ma2_exact(self):
        shape = MatrixShape(3, 4)
        spec = make_spec(CoefficientModel.ma([0.7, -0.3]), shape.n, seed=23)
        ok, dev = shift_representation_check(spec, shape)
        assert ok and dev <= 1e-13  # identical up to summation-order rounding

    def test_white_noise_matches_innovation_rows(self):
        shape = MatrixShape(4, 5)
        spec = make_spec(CoefficientModel.white_noise(), shape.n, seed=29)
        ok, _ = shift_representation_check(spec, shape)
        assert ok
        z = innovation_matrix(spec, shape)
        np.testing.assert_array_equal(truncated_segment_matrix(spec, shape), z[1:])

    def test_twenty_random_tuples(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            p = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
            order = int(rng.integers(0, 4))
            theta = rng.uniform(-1.0, 1.0, size=order)
            spec = make_spec(CoefficientModel.ma(theta), n, seed=int(rng.integers(0, 2**32)))
            ok, dev = shift_representation_check(spec, MatrixShape(p, n))
            assert ok, f"deviation {dev} at p={p} n={n} theta={theta}"

    def test_size_guard(self):
        shape = MatrixShape(200, 200)
        spec = make_spec(CoefficientModel.white_noise(), shape.n, seed=1)
        with pytest.raises(ValueError, match="1e4"):
            shift_representation_check(spec, shape)


def test_subdiagonal_shift_shape():
    k = subdiagonal_shift(3)
    np.testing.assert_array_equal(k, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: MatrixShape(0, 4), "shape requires p >= 1 and n >= 1"),
        (lambda: clipped_circulant([1.0], 0), "n must be >= 1"),
        (lambda: circulant([1.0], 0), "m must be >= 1"),
        (lambda: autocovariance_matrix([1.0], 0), "m must be >= 1"),
        (lambda: gram(np.ones(3)), "gram expects a 2-d matrix"),
        (lambda: ShiftPolynomialPair(0, (1.0,)), "order must be >= 1"),
        (lambda: ShiftPolynomialPair(2, (1.0, 0.5)), "need coefficients up to the order (zero-pad)"),
    ],
    ids=["shape", "clipped-circulant", "circulant", "autocovariance", "gram", "order",
         "coefficients"],
)
def test_input_checks_raise_with_their_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
