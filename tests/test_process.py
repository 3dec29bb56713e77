import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from lpspec.process import (
    _BLOCK,
    _DIRECT_TAPS,
    CoefficientModel,
    DecayAssumptionWarning,
    InnovationSpec,
    ProcessSpec,
    SpectralDensity,
    autocovariance,
    coefficients,
    decay_envelope_constant,
    default_horizon,
    draw_innovations,
    filtered_records,
    simulate_record,
    spectral_density,
    tail_energy,
    total_energy,
)


def long_division(num, den, count):
    """Independent oracle: power-series division num(z)/den(z)."""
    num = list(num) + [0.0] * count
    out = []
    work = num[:]
    for k in range(count):
        q = work[k] / den[0]
        out.append(q)
        for i, d in enumerate(den):
            if k + i < len(work):
                work[k + i] -= q * d
    return out


class TestCoefficients:
    def test_ma1(self):
        m = CoefficientModel.ma([0.5])
        assert coefficients(m, 3).tolist() == [1.0, 0.5, 0.0]

    def test_ar1_geometric(self):
        m = CoefficientModel.ar1(0.5)
        got = coefficients(m, 4)
        np.testing.assert_allclose(got, [1.0, 0.5, 0.25, 0.125], rtol=0, atol=0)
        oracle = long_division([1.0], [1.0, -0.5], 4)
        np.testing.assert_allclose(got, oracle, atol=1e-15)

    def test_arma_matches_long_division(self):
        m = CoefficientModel.arma(phi=[0.4, -0.2], theta=[0.3])
        got = coefficients(m, 12)
        oracle = long_division([1.0, 0.3], [1.0, -0.4, 0.2], 12)
        np.testing.assert_allclose(got, oracle, atol=1e-13)

    def test_farima_recurrence(self):
        with pytest.warns(DecayAssumptionWarning):
            m = CoefficientModel.farima(0.1)
        got = coefficients(m, 3)
        np.testing.assert_allclose(got, [1.0, 0.1, 0.055], atol=1e-15)

    def test_explicit_padded(self):
        m = CoefficientModel.explicit([2.0, -1.0])
        assert coefficients(m, 5).tolist() == [2.0, -1.0, 0.0, 0.0, 0.0]

    def test_white_noise(self):
        assert coefficients(CoefficientModel.white_noise(), 3).tolist() == [1.0, 0.0, 0.0]

    def test_noncausal_rejected_with_roots(self):
        with pytest.raises(ValueError, match="root"):
            CoefficientModel.ar1(1.2)
        with pytest.raises(ValueError, match="causal"):
            CoefficientModel.arma(phi=[1.5], theta=[])

    def test_subnormal_ar_coefficient_is_causal(self):
        # the root 1/phi overflows; the causality check must not
        assert CoefficientModel.ar1(2.2e-311).phi == (2.2e-311,)
        assert CoefficientModel.arma(phi=[0.5, -1e-310], theta=[0.4]).phi == (0.5, -1e-310)

    def test_explicit_leading_zero_rejected(self):
        with pytest.raises(ValueError, match="c_0"):
            CoefficientModel.explicit([0.0, 1.0])

    def test_farima_range(self):
        with pytest.raises(ValueError):
            CoefficientModel.farima(0.5)
        with pytest.raises(ValueError):
            CoefficientModel.farima(-0.6)


class TestAutocovariance:
    def test_white_noise(self):
        assert autocovariance([1.0], 0) == 1.0
        assert autocovariance([1.0], 1) == 0.0

    def test_ma1(self):
        assert autocovariance([1.0, 0.5], 0) == 1.25
        assert autocovariance([1.0, 0.5], 1) == 0.5
        assert autocovariance([1.0, 0.5], -1) == 0.5

    def test_ar1_truncated(self):
        c = coefficients(CoefficientModel.ar1(0.5), 61)
        assert abs(autocovariance(c, 0) - 4.0 / 3.0) <= 1e-12

    def test_empty_overlap(self):
        assert autocovariance([1.0, 0.5], 7) == 0.0


class TestSpectralDensity:
    def test_white_noise_flat(self):
        spec = ProcessSpec(CoefficientModel.white_noise(), InnovationSpec(), 0)
        f = spectral_density(spec)
        grid = np.linspace(0, 2 * np.pi, 64)
        np.testing.assert_allclose(f(grid), np.ones(64), atol=1e-14)

    def test_ma1_closed_form(self):
        spec = ProcessSpec(CoefficientModel.ma([0.5]), InnovationSpec(), 1)
        f = spectral_density(spec)
        assert abs(f(0.0) - 2.25) <= 1e-14
        grid = np.linspace(0, 2 * np.pi, 97)
        np.testing.assert_allclose(f(grid), 1.25 + np.cos(grid), atol=1e-12)

    def test_ar1_closed_form(self):
        spec = ProcessSpec(CoefficientModel.ar1(0.5), InnovationSpec(), 40)
        f = spectral_density(spec)
        assert abs(f(0.0) - 4.0) <= 1e-12

    def test_nonnegative_real(self):
        spec = ProcessSpec(CoefficientModel.arma([0.3], [0.7, -0.2]), InnovationSpec(), 60)
        f = spectral_density(spec)
        vals = f(np.linspace(0, 2 * np.pi, 257))
        assert np.all(vals >= 0)

    @given(
        st.lists(
            st.floats(min_value=-2.0, max_value=2.0).filter(lambda v: abs(v) > 1e-3),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_two_formula_agreement(self, cs):
        # sum_h gamma(h) e^{-ihw} against |sum_j c_j e^{-ijw}|^2, same truncation
        c = np.asarray(cs)
        f = SpectralDensity.from_coefficients(c)
        grid = np.linspace(0, 2 * np.pi, 37)
        direct = f(grid)
        h = np.arange(-(c.size - 1), c.size)
        gam = np.array([autocovariance(c, k) for k in h])
        series = np.real(np.exp(-1j * np.outer(grid, h)) @ gam)
        assert np.max(np.abs(series - direct)) <= 1e-10

    def test_mean_equals_gamma0(self):
        # (1/2pi) integral of f equals gamma(0); trapezoid on >2J points is exact
        c = coefficients(CoefficientModel.ar1(0.5), 41)
        f = SpectralDensity.from_coefficients(c)
        grid = np.linspace(0, 2 * np.pi, 128, endpoint=False)
        assert abs(np.mean(f(grid)) - autocovariance(c, 0)) <= 1e-10


class TestInnovations:
    def test_sigma4(self):
        assert InnovationSpec("gaussian").sigma4 == 3.0
        assert InnovationSpec("rademacher").sigma4 == 1.0
        assert InnovationSpec("uniform").sigma4 == 1.8

    def test_moments(self):
        for dist in ("gaussian", "rademacher", "uniform"):
            spec = InnovationSpec(dist, seed=11)
            z = draw_innovations(spec, 200_000)
            assert abs(np.mean(z)) < 0.01
            assert abs(np.var(z) - 1.0) < 0.01
            assert abs(np.mean(z**4) - spec.sigma4) < 0.1

    def test_unknown_distribution(self):
        with pytest.raises(ValueError, match="distribution"):
            InnovationSpec("cauchy")


class TestSimulateRecord:
    def test_white_noise_equals_draws(self):
        spec = ProcessSpec(CoefficientModel.explicit([1.0]), InnovationSpec(seed=3), 0)
        rec = simulate_record(spec, 100)
        np.testing.assert_array_equal(rec, draw_innovations(spec.innovations, 100))

    def test_deterministic(self):
        spec = ProcessSpec(CoefficientModel.ma([0.5]), InnovationSpec(seed=9), 8)
        np.testing.assert_array_equal(simulate_record(spec, 64), simulate_record(spec, 64))

    def test_ma1_sample_variance(self):
        spec = ProcessSpec(CoefficientModel.ma([0.5]), InnovationSpec(seed=5), 1)
        rec = simulate_record(spec, 10**6)
        assert abs(np.var(rec) - 1.25) / 1.25 <= 0.01

    def test_rademacher_sign_entries(self):
        spec = ProcessSpec(
            CoefficientModel.explicit([1.0]), InnovationSpec("rademacher", seed=2), 0
        )
        rec = simulate_record(spec, 512)
        assert set(np.unique(rec)) <= {-1.0, 1.0}

    def test_length_validation(self):
        spec = ProcessSpec(CoefficientModel.white_noise(), InnovationSpec(), 0)
        with pytest.raises(ValueError):
            simulate_record(spec, 0)
        with pytest.raises(ValueError, match="index range"):
            simulate_record(spec, 2**32)

    @pytest.mark.parametrize("distribution", ["gaussian", "rademacher", "uniform"])
    @pytest.mark.parametrize("taps", [1, 2, 7, 256])
    @pytest.mark.parametrize("beyond", [0, 300])
    def test_in_place_filter_across_block_edges(self, taps, beyond, distribution):
        # three blocks and a remainder, at the horizon taps - 1 and beyond it
        coeffs = np.random.default_rng(taps).uniform(0.5, 1.5, taps)
        spec = ProcessSpec(CoefficientModel.explicit(coeffs), InnovationSpec(distribution, seed=6),
                           taps - 1 + beyond)
        length = 3 * _BLOCK + 1234
        j = spec.horizon
        ref = np.convolve(draw_innovations(spec.innovations, j + length), coeffs)[j : j + length]
        assert simulate_record(spec, length).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("model", [CoefficientModel.farima(-0.2), CoefficientModel.ar1(0.99)])
    def test_long_kernel_record_is_one_fft_product(self, model):
        spec = ProcessSpec(model, InnovationSpec(seed=4), default_horizon(model, 64, 1e-6), 1e-6)
        kernel = spec.coefficient_array()
        assert kernel.size > _DIRECT_TAPS and kernel[-1] != 0.0
        j, length = spec.horizon, 5000
        draws = draw_innovations(spec.innovations, j + length)
        size = 1 << (draws.size + kernel.size - 2).bit_length()
        ref = np.fft.irfft(np.fft.rfft(draws, size) * np.fft.rfft(kernel, size), size)
        assert simulate_record(spec, length).tobytes() == ref[j : j + length].tobytes()

    def test_coefficient_array_is_the_kernel_a_record_is_filtered_by(self):
        # c_0..c_K: K is the order of a finite-order model and the horizon otherwise
        spec = ProcessSpec(CoefficientModel.ma([0.5]), InnovationSpec(), 1024)
        assert spec.coefficient_array().tolist() == [1.0, 0.5]
        spec = ProcessSpec(CoefficientModel.explicit([1.0, 0.5, 0.25, 0.0]), InnovationSpec(), 16)
        assert spec.coefficient_array().tolist() == [1.0, 0.5, 0.25]
        spec = ProcessSpec(CoefficientModel.ar1(0.9), InnovationSpec(), 131)
        assert spec.coefficient_array().size == 132

    def test_kernel_longer_than_the_horizon_rejected(self):
        spec = ProcessSpec(CoefficientModel.ma([0.5]), InnovationSpec(), 1)
        with pytest.raises(ValueError, match="horizon of at least 2, not 1"):
            next(filtered_records(spec, 10, (np.ones(3),)))

    def test_only_the_unit_kernel_leaves_its_draws_to_the_next(self):
        spec = ProcessSpec(CoefficientModel.ma([0.5]), InnovationSpec(seed=2), 1)
        records = filtered_records(spec, 100, (np.array([1.0, 0.0]), np.array([1.0, 0.5])))
        assert next(records).tobytes() == draw_innovations(spec.innovations, 101)[1:].tobytes()
        assert next(records).tobytes() == simulate_record(spec, 100).tobytes()
        with pytest.raises(ValueError, match="only the unit kernel"):
            next(filtered_records(spec, 100, (np.array([1.0, 0.5]),) * 2))


class TestHorizonAndTail:
    def test_default_horizon_finite_order(self):
        assert default_horizon(CoefficientModel.ma([0.5]), 16) == 16
        assert default_horizon(CoefficientModel.white_noise(), 8) == 8

    def test_default_horizon_ar1(self):
        # tail variance ratio is 4^{-(J+1)}; <= 1e-12 first holds at J = 19
        assert default_horizon(CoefficientModel.ar1(0.5), 8) == 19
        assert default_horizon(CoefficientModel.ar1(0.5), 64) == 64

    def test_tail_invariant_enforced(self):
        with pytest.raises(ValueError, match="tail"):
            ProcessSpec(CoefficientModel.ar1(0.9), InnovationSpec(), 4)

    @pytest.mark.parametrize(
        "model, order",
        [(CoefficientModel.ma([0.5]), 1), (CoefficientModel.explicit([1.0, 0.5, 0.25, 0.0]), 2),
         (CoefficientModel.ma([0.5, 0.0]), 1), (CoefficientModel.arma([0.0], [0.3, -0.2]), 2)],
    )
    def test_horizon_below_finite_order_rejected(self, model, order):
        with pytest.raises(ValueError, match=f"horizon {order - 1} is below the order {order}"):
            ProcessSpec(model, InnovationSpec(), order - 1)
        assert ProcessSpec(model, InnovationSpec(), order).horizon == order

    def test_farima_needs_relaxed_tolerance(self):
        m = CoefficientModel.farima(-0.3)
        with pytest.raises(ValueError, match="tail_tol"):
            default_horizon(m, 16, tail_tol=1e-12, max_horizon=4096)
        spec = ProcessSpec(m, InnovationSpec(), 2048, tail_tol=1e-3)
        rec = simulate_record(spec, 128)
        assert rec.shape == (128,)

    def test_total_energy_values(self):
        assert total_energy(CoefficientModel.white_noise()) == 1.0
        assert total_energy(CoefficientModel.ma([0.5])) == 1.25
        assert abs(total_energy(CoefficientModel.ar1(0.5)) - 4.0 / 3.0) < 1e-14
        m = CoefficientModel.farima(-0.2)
        c = coefficients(m, 200_000)
        assert abs(total_energy(m) - float(c @ c)) < 1e-4

    def test_total_energy_of_a_list_and_of_farima_zero(self):
        # sums of squares that binary floating point holds exactly
        assert total_energy(CoefficientModel.explicit([1.0, -0.5, 0.25, 0.0, 2.0])) == 5.3125
        assert total_energy(CoefficientModel.farima(0.0)) == 1.0

    def test_tail_energy_of_a_finite_order_model(self):
        m = CoefficientModel.ma([0.5, -0.25, 0.125])
        assert [tail_energy(m, h) for h in range(5)] == [0.328125, 0.078125, 0.015625, 0.0, 0.0]

    def test_tail_energy_monotone(self):
        m = CoefficientModel.ar1(0.5)
        assert tail_energy(m, 5) > tail_energy(m, 10) > 0


class TestDecayCheck:
    def test_envelope_constant(self):
        c = coefficients(CoefficientModel.ar1(0.5), 30)
        delta = 0.5
        big_c = decay_envelope_constant(c, delta)
        j = np.arange(30)
        assert np.all(np.abs(c) <= big_c * (j + 1.0) ** (-1.5) + 1e-15)
        assert np.any(np.abs(c) > 0.99 * big_c * (j + 1.0) ** (-1.5))

    def test_farima_positive_d_warns(self):
        with pytest.warns(DecayAssumptionWarning):
            CoefficientModel.farima(0.2)

    def test_farima_negative_d_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DecayAssumptionWarning)
            CoefficientModel.farima(-0.2)


class TestSerialization:
    def test_unknown_key_named(self):
        with pytest.raises(ValueError, match="thetaa"):
            CoefficientModel.from_json({"kind": "ma", "thetaa": [0.5]})

    def test_all_kinds_round_trip(self):
        models = [
            CoefficientModel.white_noise(),
            CoefficientModel.explicit([1.0, -0.5]),
            CoefficientModel.ma([0.5, 0.25]),
            CoefficientModel.ar1(0.5),
            CoefficientModel.arma([0.2], [0.4]),
        ]
        for m in models:
            assert CoefficientModel.from_json(m.to_json()) == m


def causal_ar(partials):
    """AR coefficients from partial autocorrelations in (-1, 1), which are
    always causal (the Durbin-Levinson recursion)."""
    phi = []
    for r in partials:
        phi = [a - r * b for a, b in zip(phi, reversed(phi))] + [r]
    return phi


def lfilter_coefficients(model, count):
    impulse = np.zeros(count)
    impulse[0] = 1.0
    return signal.lfilter([1.0, *model.theta], [1.0, *(-p for p in model.phi)], impulse)


class TestScipyReferences:
    """The numpy code against the scipy routines it replaced."""

    @given(
        partials=st.lists(st.floats(min_value=-0.95, max_value=0.95), max_size=2),
        theta=st.lists(st.floats(min_value=-2.0, max_value=2.0), max_size=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_coefficients_match_lfilter(self, partials, theta):
        model = CoefficientModel.arma(causal_ar(partials), theta)
        got = coefficients(model, 600)
        ref = lfilter_coefficients(model, 600)
        if any(model.phi):
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)
        else:
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("model", [CoefficientModel.ar1(0.5), CoefficientModel.ma([0.5])])
    def test_short_kernel_record_is_direct_convolution(self, model):
        spec = ProcessSpec(model, InnovationSpec(seed=4), default_horizon(model, 64))
        draws = draw_innovations(spec.innovations, spec.horizon + 20_000)
        ref = signal.convolve(draws, spec.coefficient_array(), method="auto")
        got = simulate_record(spec, 20_000)
        assert got.tobytes() == ref[spec.horizon : spec.horizon + 20_000].tobytes()

    def test_long_kernel_record_matches_convolve(self):
        model = CoefficientModel.ar1(0.99)
        spec = ProcessSpec(model, InnovationSpec(seed=4), default_horizon(model, 64))
        assert spec.horizon > 256
        draws = draw_innovations(spec.innovations, spec.horizon + 5000)
        ref = signal.convolve(draws, spec.coefficient_array(), method="auto")
        ref = ref[spec.horizon : spec.horizon + 5000]
        got = simulate_record(spec, 5000)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "model, horizon",
        [(CoefficientModel.ar1(0.9), 131), (CoefficientModel.ar1(0.99), 1374),
         (CoefficientModel.arma([0.5], [0.4]), 20), (CoefficientModel.arma([0.99], [0.4]), 1375)],
    )
    def test_default_horizons_unchanged(self, model, horizon):
        # the horizons of the lfilter coefficients and block sums (n = 1 shows J)
        assert default_horizon(model, 1) == horizon
        assert default_horizon(model, 256) == max(256, horizon)
