import cmath
import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpspec import lsd
from lpspec.lsd import (
    DEFAULT_VARIANT,
    ConvergenceError,
    EquationVariant,
    LsdSolution,
    NumericalError,
    SolverConfig,
    all_variants,
    law_range_violation,
    lsd_cdf,
    marchenko_pastur,
    quadrature_integral,
    solve_lsd,
    solve_stieltjes,
)
from lpspec.process import (
    CoefficientModel,
    InnovationSpec,
    ProcessSpec,
    SpectralDensity,
    default_horizon,
    spectral_density,
)
from lpspec.spectra import ks_distance

FLAT = SpectralDensity([1.0])
MA1 = SpectralDensity([1.0, 0.5])


def quadratic_root(z, c, y_eff):
    """Oracle: upper-half-plane root of c z s^2 + (z + c (1 - y_eff)) s + 1 = 0."""
    a = c * z
    b = z + c * (1.0 - y_eff)
    disc = np.sqrt(complex(b * b - 4.0 * a))
    for sign in (1.0, -1.0):
        s = (-b + sign * disc) / (2.0 * a)
        if s.imag > 0:
            return s
    raise AssertionError("no upper-half-plane root")


class TestVariants:
    def test_labels_and_parse(self):
        v = EquationVariant("raw", "yinv", "companion")
        assert EquationVariant.parse(v.label) == v
        assert len(all_variants()) == 8
        assert len({w.label for w in all_variants()}) == 8

    def test_invalid(self):
        with pytest.raises(ValueError):
            EquationVariant("weird", "y", "direct")
        with pytest.raises(ValueError):
            EquationVariant.parse("normalized-y")

    def test_scale(self):
        assert EquationVariant("normalized", "y", "direct").scale(0.5) == 0.5
        assert EquationVariant("normalized", "yinv", "direct").scale(0.5) == 2.0
        assert EquationVariant("raw", "y", "direct").scale(0.5) == pytest.approx(np.pi)


class TestQuadrature:
    def test_constant_normalized(self):
        got = quadrature_integral(FLAT, 1j)
        assert abs(got - (0.5 - 0.5j)) <= 1e-14

    def test_constant_raw(self):
        got = quadrature_integral(FLAT, 1j, EquationVariant("raw", "y", "direct"))
        assert abs(got - 2.0 * np.pi * (0.5 - 0.5j)) <= 1e-13

    def test_ma1_against_high_resolution_reference(self):
        s = 1j
        w = np.linspace(0.0, 2.0 * np.pi, 10**6 + 1)
        f = 1.25 + np.cos(w)
        reference = np.trapezoid(f / (1.0 + f * s), w) / (2.0 * np.pi)
        got = quadrature_integral(MA1, s)
        assert abs(got - reference) <= 1e-10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(quadrature_points=1)


class TestSolveStieltjes:
    def test_mp1_at_i(self):
        s = solve_stieltjes(FLAT, 1.0, 1j)
        oracle = quadratic_root(1j, 1.0, 1.0)
        assert abs(s - oracle) <= 1e-9
        assert abs(s - (0.3003 + 0.6248j)) <= 2e-4

    def test_mp1_near_axis(self):
        z = 2.0 + 1e-6j
        s = solve_stieltjes(FLAT, 1.0, z)
        assert abs(s - (-0.5 + 0.5j)) <= 1e-4

    def test_large_z_mass_asymptotics(self):
        z = 1e6j
        s = solve_stieltjes(FLAT, 1.0, z)
        assert abs(s - (-1.0 / z)) / abs(1.0 / z) <= 1e-4

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            solve_stieltjes(FLAT, 1.0, 1.0 - 1j)
        with pytest.raises(ValueError):
            solve_stieltjes(FLAT, -1.0, 1j)

    def test_residual_against_quadratic_twenty_points(self):
        # constant density level c: the solution satisfies
        # c z s^2 + (z + c(1 - y)) s + 1 = 0
        rng = np.random.default_rng(12)
        level = SpectralDensity([math.sqrt(2.0)])  # f == 2
        variant = EquationVariant("normalized", "y", "direct")  # the r = y equation
        for _ in range(20):
            z = complex(rng.uniform(-2.0, 6.0), 10 ** rng.uniform(-2, 1))
            for f, c, y in ((FLAT, 1.0, 1.0), (level, 2.0, 0.5)):
                s = solve_stieltjes(f, y, z, variant=variant)
                resid = c * z * s * s + (z + c * (1.0 - y)) * s + 1.0
                assert abs(resid) <= 1e-9
                assert s.imag > 0

    def test_uniqueness_probe(self):
        rng = np.random.default_rng(13)
        for z in (0.5 + 0.2j, 2.0 + 0.05j, 3.9 + 0.5j):
            baseline = solve_stieltjes(MA1, 1.0, z)
            for _ in range(10):
                s0 = complex(rng.uniform(-3, 3), rng.uniform(0.01, 3.0))
                s = solve_stieltjes(MA1, 1.0, z, s0=s0)
                assert abs(s - baseline) <= 1e-8

    def test_negative_density_rejected(self):
        bad = lambda w: np.cos(w)  # takes negative values
        with pytest.raises(ValueError, match="non-negative"):
            solve_stieltjes(bad, 1.0, 1j)


def flat(peak):
    """f = peak, as a callable: the trapezoid kernel sums it."""
    return lambda w: np.full_like(w, peak)


class TestPeakRange:
    """The solver handles peaks of f in [1e-101, 1e101] on both kernels."""

    @pytest.mark.parametrize("peak", [1e-101, 1e101])
    @pytest.mark.parametrize("y", [0.001, 1.0, 1000.0])
    def test_peaks_at_the_ends_of_the_range_solve(self, peak, y):
        sol = solve_lsd(flat(peak), y, config=SolverConfig(quadrature_points=64), grid_points=64)
        assert sol.support[1] > 0.0 and np.all(np.isfinite(sol.density))

    @pytest.mark.parametrize(
        "f, peak",
        [
            (SpectralDensity([1e-55]), "1e-110"),  # the exact kernel
            (SpectralDensity([1.0, 1e52]), "1e+104"),
            (flat(1e-102), "1e-102"),  # the trapezoid kernel
            (flat(1e102), "1e+102"),
        ],
    )
    def test_peak_outside_the_range_raises_naming_it(self, f, peak):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=f"^spectral density peak {re.escape(peak)} lies outside"):
                solve_lsd(f, 1.0)
            with pytest.raises(NumericalError, match="peak"):
                solve_stieltjes(f, 1.0, 1j)

    def test_subnormal_peak_raises_without_overflow(self):
        f = SpectralDensity([1e-160, 1e-161, 1e-162, 1e-163, 1e-164])  # order 4: trapezoid
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="peak"):
                solve_lsd(f, 1.0)


MA05, AR09 = SpectralDensity([1.0, 0.5]), SpectralDensity([1.0], [1.0, -0.9])


class TestRatioRange:
    """The solver handles aspect ratios y in [1e-16, 1e16]; each end of it and
    the ratios whose upper edge lies next to the kernel's pole solve without a
    warning, and a ratio outside raises one NumericalError naming it."""

    @pytest.mark.parametrize("f, y", [(AR09, 1e-16), (AR09, 1e16), (MA05, 1e8), (MA05, 1e16),
                                      (AR09, 1e6), (AR09, 1e10)])
    def test_ratios_up_to_the_ends_of_the_range_solve(self, f, y):
        # at y = 1e8 MA(0.5) has its upper edge root 1.3e-6 off the pole at
        # -1/max f, inside the old curvature step of 4.4e-6
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_lsd(f, y)
        assert law_range_violation(sol) is None and np.all(np.isfinite(sol.density))

    def test_upper_edge_curvature_that_is_not_positive_raises(self, monkeypatch):
        # with the midpoint means off, K2 of MA(0.5) keeps no digit at small
        # |s|, and far from any pole the difference reads about -1.2e19 at
        # y = 1e-12
        monkeypatch.setattr(lsd, "_NEAR", 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match=r"^edge search: z'' at the upper edge x = \S+ "
                                                       r"reads -\S+, not finite and positive$"):
                solve_lsd(MA05, 1e-12)

    @pytest.mark.parametrize("y, text", [(9.9e-17, "9.9e-17"), (1.1e16, "1.1e+16"), (1e-300, "1e-300"),
                                         (1e300, "1e+300"), (5e-324, "5e-324")])
    def test_ratio_outside_the_range_raises_naming_it(self, y, text):
        message = (f"^aspect ratio y = {re.escape(text)} lies outside "
                   + re.escape("[1e-16, 1e+16], the range the solver handles") + "$")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for variant in (DEFAULT_VARIANT, EquationVariant("raw", "y", "companion")):
                with pytest.raises(NumericalError, match=message):
                    solve_lsd(MA05, y, variant=variant)
            with pytest.raises(NumericalError, match=message):
                solve_stieltjes(MA05, y, 1j)


# laws whose MA degree exceeds their AR degree: the kernel's constant 1/s and
# its residue terms cancel as |s| max f -> 0, which small ratios reach
MA_DOMINANT = [
    ([1.0, 0.5], [1.0]), ([1.0, -2.0, 1.0], [1.0]), ([1.0, 1.0, 1.0], [1.0]),
    ([1.0, 0.5, 0.3, 0.2], [1.0]), ([1.0, 0.4, 0.3], [1.0, -0.5]),
    ([1.0, 0.3, 0.2, 0.1], [1.0, -0.4, 0.1]),
    # drawn at random, orders 1 to 3
    ([1.0, 0.013, 0.038, -0.47], [1.0]), ([1.0, -0.742], [1.0]),
    ([1.0, -0.212, -0.24, -0.953], [1.0]), ([1.0, -0.524], [1.0]), ([1.0, 0.235], [1.0]),
    ([1.0, 0.966, 0.722, 0.263], [1.0]), ([1.0, 0.684, -0.157], [1.0]), ([1.0, -0.943], [1.0]),
    ([1.0, 0.888, -0.356], [1.0]), ([1.0, -0.013, -0.454, 0.522], [1.0]),
    ([1.0, 0.217, 0.227, -0.537], [1.0]), ([1.0, -0.464, -0.237, 0.138], [1.0]),
]


def dense_values(f, points=1 << 16):
    """f at the midpoints of `points` equal panels of [0, pi]."""
    return f((np.arange(points) + 0.5) * (np.pi / points))


@pytest.mark.parametrize("ma, ar", MA_DOMINANT)
def test_ma_dominant_laws_solve_at_small_ratios(ma, ar):
    # the law has mean r mean f; the tabulated law, linear between nodes,
    # is read here (measured: within 6.7e-14)
    f = SpectralDensity(ma, ar)
    mean = np.mean(dense_values(f))
    for y in 10.0 ** np.arange(-16, -7):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_lsd(f, y)
        assert law_range_violation(sol) is None, y
        x, cdf = np.append(0.0, sol.grid), np.append(sol.atom_at_zero, sol.cdf_values)
        moment = np.sum(np.diff(cdf) * (x[1:] + x[:-1])) / 2.0
        assert abs(moment - mean / y) <= 1e-12 * mean / y, y


@pytest.mark.parametrize("ma, ar", [
    ([1.0, 0.5], [1.0]), ([1.0, 1.0, 1.0], [1.0]), ([1.0, 0.5, 0.3, 0.2], [1.0]),
    ([1.0, 0.5, 0.3], [1.0, -0.9]), ([1.0, 0.5, 0.3], [1.0, -0.99]),
])
def test_ma_dominant_kernel_at_small_s_matches_a_dense_mean(ma, ar):
    # the residue sum read K2 of MA(0.5) 2.9 off at s = -1e-8; the midpoint
    # rule aliases at about 0.99^(2n) at the AR root 0.99, so that law takes
    # more than 512 samples (measured: within 7e-13)
    f = SpectralDensity(ma, ar)
    kernel = lsd._kernel(f, SolverConfig())
    values = dense_values(f)
    s = np.array([-1e-6, -1e-8, 1e-8j, 1e-6 + 1e-8j])
    one = 1.0 + s[:, None] * values
    k1, k2, _ = kernel(s)
    for got, want in zip((k1, k2, kernel.arg_mean(s)), (np.mean(values / one, axis=1),
                                                        np.mean((values / one) ** 2, axis=1),
                                                        np.mean(np.angle(one), axis=1))):
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


class TestDensity:
    def test_mp1_bulk_value(self):
        # every node the march solves, the one next to the hard edge at y = 1
        # included; the edge nodes hold an exact 0
        for y in (0.5, 1.0, 2.0):
            sol = solve_lsd(FLAT, y)
            inside = (sol.grid > sol.support[0]) & (sol.grid < sol.support[1])
            exact = marchenko_pastur(y, 1.0 / y).density(sol.grid[inside])
            np.testing.assert_allclose(sol.density[inside], exact, rtol=1e-8, atol=0.0)

    def test_options_are_keyword_only(self):
        # the third positional slot once took a grid
        with pytest.raises(TypeError, match="positional"):
            solve_lsd(FLAT, 1.0, DEFAULT_VARIANT)


class TestMarchenkoPastur:
    def test_density_value(self):
        mp = marchenko_pastur(1.0)
        assert abs(mp.density(2.0) - 1.0 / (2.0 * np.pi)) <= 1e-15

    def test_support(self):
        mp = marchenko_pastur(1.0)
        assert mp.a == 0.0 and mp.b == 4.0

    def test_rank_deficiency_atom(self):
        mp = marchenko_pastur(4.0)
        assert mp.atom == 0.75
        assert float(mp.cdf(mp.a * 0.5)) == pytest.approx(0.75, abs=1e-12)

    def test_stieltjes_solves_quadratic(self):
        mp = marchenko_pastur(0.5, sigma2=2.0)
        rng = np.random.default_rng(14)
        for _ in range(10):
            z = complex(rng.uniform(-1, 7), 10 ** rng.uniform(-2, 1))
            m = mp.stieltjes(z)
            w = z / mp.sigma2
            resid = mp.y * w * (m * mp.sigma2) ** 2 + (w + mp.y - 1.0) * (m * mp.sigma2) + 1.0
            assert abs(resid) <= 1e-10
            assert m.imag > 0

    def test_cdf_monotone_normalized(self):
        mp = marchenko_pastur(0.25)
        xs = np.linspace(-1, mp.b + 1, 500)
        vals = np.asarray(mp.cdf(xs))
        assert np.all(np.diff(vals) >= -1e-15)
        assert vals[0] == 0.0
        assert vals[-1] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("y", [0.25, 1.0, 4.0])
    def test_cdf_is_the_table_interpolation(self, y):
        # the atom on [0, a), linear between table knots, exactly 1 beyond b
        mp = marchenko_pastur(y, sigma2=0.5)
        knots = mp.breakpoints()[1:]
        table = np.asarray(mp.cdf(knots))
        xs = np.concatenate(
            [[-1.0, -1e-300, 0.0, 0.5 * mp.a, mp.b, 1.5 * mp.b], 0.5 * (knots[1:] + knots[:-1])]
        )
        ref = np.interp(xs, knots, table, left=mp.atom, right=1.0)
        assert np.asarray(mp.cdf(xs)).tobytes() == np.where(xs < 0.0, 0.0, ref).tobytes()
        assert np.asarray(mp.cdf_left(xs)).tobytes() == np.where(xs <= 0.0, 0.0, ref).tobytes()
        assert float(mp.cdf(0.0)) == mp.atom
        assert float(mp.cdf(mp.b)) == table[-1]
        assert float(mp.cdf(1.5 * mp.b)) == 1.0

    @pytest.mark.parametrize("y, sigma2", [(0.25, 2.0), (0.5, 1.0), (1.0, 1.0), (2.0, 0.5),
                                           (1.00001, 1.0)])
    def test_table_matches_an_independent_quadrature(self, y, sigma2):
        # F(x) = atom + int rho(t^2) 2t dt over t = sqrt(x) from sqrt(a), by
        # adaptive quadrature; near y = 1 the integrand turns within a few
        # sqrt(a) of sqrt(a), so it is split there.  Points: through the
        # support, geometrically close to a, and between the outer knots;
        # and the table's own knots, those near either edge and every 16th.
        from scipy.integrate import quad

        mp = marchenko_pastur(y, sigma2)
        ra, c = math.sqrt(mp.a), math.pi * mp.sigma2 * mp.y
        knots = mp.breakpoints()[1:]
        mids = 0.5 * (knots[1:] + knots[:-1])
        xs = np.concatenate([np.linspace(mp.a, mp.b, 41), mids[:20], mids[-20:],
                             mp.a + (mp.b - mp.a) * np.geomspace(1e-14, 1.0, 29)])

        def rho_dx_dt(t):
            return math.sqrt(max((mp.b - t * t) * (t * t - mp.a), 0.0)) / (c * t)

        def integral(x):
            top = math.sqrt(min(x, mp.b))
            splits = [ra * k for k in (1.5, 3.0, 10.0, 1e2, 1e3, 1e4) if ra * k < top]
            return mp.atom + quad(rho_dx_dt, ra, top, points=splits or None, epsabs=1e-13,
                                  epsrel=1e-12, limit=500)[0]

        for x in xs:
            # measured: at most 9.4e-8, at y = 1, from linear interpolation
            # between the knots
            assert abs(float(mp.cdf(x)) - integral(x)) <= 1e-6
        for x in np.concatenate([knots[:32], knots[32:-32:16], knots[-32:]]):
            # the table is exact at its knots: measured at most 2.9e-14
            assert abs(float(mp.cdf(x)) - integral(x)) <= 1e-12

    @pytest.mark.parametrize("y, sigma2", [(math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0),
                                           (1.0, math.nan), (1.0, math.inf), (1.0, -1.0)])
    def test_ratio_and_scale_must_be_finite_and_positive(self, y, sigma2):
        with pytest.raises(ValueError, match="finite and positive"):
            marchenko_pastur(y, sigma2)


@pytest.fixture(scope="module")
def mp1_solution():
    return solve_lsd(FLAT, 1.0)


class TestSolveLsd:

    def test_cdf_matches_mp_oracle(self, mp1_solution):
        mp = marchenko_pastur(1.0)
        cdf = lsd_cdf(mp1_solution)
        xs = np.linspace(0.0, 4.5, 2001)
        sup = np.max(np.abs(np.asarray(cdf.cdf(xs)) - np.asarray(mp.cdf(xs))))
        assert sup <= 1e-5  # measured: 1.4e-6, between grid points

    def test_cdf_full_mass_at_right_edge(self, mp1_solution):
        cdf = lsd_cdf(mp1_solution)
        assert abs(float(cdf.cdf(4.0)) - 1.0) <= 1e-5  # measured: 0
        assert float(cdf.cdf(-1e-9)) == 0.0

    @pytest.mark.parametrize("y", [0.5, 2.0])
    def test_cdf_is_the_grid_interpolation(self, y):
        # atom at the origin, linear between grid points, last value beyond
        variant = EquationVariant("normalized", "yinv", "direct")
        sol = solve_lsd(MA1, y, variant=variant, config=SolverConfig(quadrature_points=128),
                        grid_points=128)
        cdf = lsd_cdf(sol)
        knots = np.concatenate([[0.0], sol.grid])
        vals = np.concatenate([[sol.atom_at_zero], sol.cdf_values])
        xs = np.concatenate(
            [[-1.0, -1e-300, 0.0, 0.5 * sol.grid[0], sol.grid[-1], 2.0 * sol.grid[-1]],
             0.5 * (knots[1:] + knots[:-1])]
        )
        ref = np.interp(xs, knots, vals, left=0.0, right=vals[-1])
        assert np.asarray(cdf.cdf(xs)).tobytes() == np.where(xs < 0.0, 0.0, ref).tobytes()
        assert np.asarray(cdf.cdf_left(xs)).tobytes() == np.where(xs <= 0.0, 0.0, ref).tobytes()
        assert float(cdf.cdf(0.0)) == sol.atom_at_zero
        assert float(cdf.cdf(2.0 * sol.grid[-1])) == sol.cdf_values[-1]
        np.testing.assert_array_equal(cdf.breakpoints(), knots)
        # the grid spans the computed support edges, where the density is 0
        assert sol.support == (float(sol.grid[0]), float(sol.grid[-1]))
        assert sol.density[0] == sol.density[-1] == 0.0
        assert np.all(sol.density[1:-1] > 0.0)

    def test_cdf_midpoint_value(self, mp1_solution):
        mp = marchenko_pastur(1.0)
        # measured: 3.8e-7
        assert abs(float(lsd_cdf(mp1_solution).cdf(2.0)) - float(mp.cdf(2.0))) <= 1e-5

    def test_mass_conservation(self, mp1_solution):
        assert abs(mp1_solution.mass() - 1.0) <= 1e-5  # measured: 0

    def test_density_nonnegative_before_clipping(self, mp1_solution):
        # nothing clips the density: it is Im s / pi at every grid point
        assert np.all(mp1_solution.density >= 0.0)

    def test_monotone_cdf_values(self, mp1_solution):
        assert np.all(np.diff(mp1_solution.cdf_values) >= 0)

    def test_support_estimate(self, mp1_solution):
        lo, hi = mp1_solution.support
        assert lo == 0.0
        assert abs(hi - 4.0) <= 1e-14

    def test_scaling_property_of_constant_density(self):
        # constant density at level 2: supports scale by the level
        level = SpectralDensity([math.sqrt(2.0)])
        sol = solve_lsd(level, 1.0)
        lo, hi = sol.support
        assert abs(hi - 8.0) <= 1e-14  # measured: 1.8e-15, one rounding

    def test_rank_deficient_ratio_recovers_atom(self):
        # at ratio 2 the law has a point mass 1 - 1/y = 1/2 at zero
        variant = EquationVariant("normalized", "yinv", "direct")
        sol = solve_lsd(FLAT, 2.0, variant=variant)
        assert sol.atom_at_zero == 0.5
        mp = marchenko_pastur(2.0, sigma2=0.5)
        xs = np.linspace(0.0, 3.2, 1500)
        sup = np.max(np.abs(np.asarray(lsd_cdf(sol).cdf(xs)) - np.asarray(mp.cdf(xs))))
        assert sup <= 1e-5  # measured: 3.4e-7

    def test_raw_normalization_misses_mp_at_unit_ratio(self):
        # without the 1/(2pi) the law is far from Marchenko-Pastur even at y=1
        sol = solve_lsd(FLAT, 1.0, variant=EquationVariant("raw", "y", "direct"), grid_points=512)
        mp = marchenko_pastur(1.0)
        xs = np.linspace(0.0, float(sol.grid[-1]), 2000)
        sup = np.max(np.abs(np.asarray(lsd_cdf(sol).cdf(xs)) - np.asarray(mp.cdf(xs))))
        assert sup >= 0.1

    def test_yinv_variant_matches_scaled_oracle(self):
        # at ratio 1/2 the white-noise law is Marchenko-Pastur with scale 2
        variant = EquationVariant("normalized", "yinv", "direct")
        sol = solve_lsd(FLAT, 0.5, variant=variant)
        mp = marchenko_pastur(0.5, sigma2=2.0)
        xs = np.linspace(0.0, 6.5, 1500)
        sup = np.max(np.abs(np.asarray(lsd_cdf(sol).cdf(xs)) - np.asarray(mp.cdf(xs))))
        assert sup <= 1e-5  # measured: 6.8e-7
        lo, hi = sol.support
        assert abs(lo - mp.a) <= 1e-14 and abs(hi - mp.b) <= 1e-14  # measured: 2.8e-17, 0

    @given(st.floats(0.1, 10.0))
    @example(1.0)
    @example(1.0000000000000002)  # a hard edge, up to rounding
    @example(0.9999999999999999)
    @settings(max_examples=25, deadline=None)
    def test_default_white_noise_law_is_marchenko_pastur(self, y):
        # two quadrature points integrate a flat density exactly
        sol = solve_lsd(FLAT, y, config=SolverConfig(quadrature_points=2), grid_points=256)
        mp = marchenko_pastur(y, 1.0 / y)
        # measured: at most 2.4e-5, near y = 1, over 880 ratios in [0.1, 10]
        assert ks_distance(lsd_cdf(sol), mp) <= 5e-5
        # the edges (1 -+ sqrt(y))^2 / y, the hard edge at y = 1 included
        assert abs(sol.support[0] - mp.a) <= 1e-8 and abs(sol.support[1] - mp.b) <= 1e-8
        assert sol.atom_at_zero == max(0.0, 1.0 - 1.0 / y)
        assert abs(sol.mass() - 1.0) <= 1e-5
        assert np.all(np.diff(sol.cdf_values) >= 0.0)

    @pytest.mark.parametrize("y", [0.1, 0.5, 2.0, 7.0, 0.99, 1.0, 1.01])
    def test_white_noise_companion_law_is_marchenko_pastur(self, y):
        # the companion law is that of the n x n X^T X / p, Marchenko-Pastur
        # at ratio n/p = 1/y and unit scale, with atom max(0, 1 - y)
        variant = EquationVariant("normalized", "yinv", "companion")
        sol = solve_lsd(FLAT, y, variant=variant, config=SolverConfig(quadrature_points=2))
        mp = marchenko_pastur(1.0 / y, 1.0)
        assert sol.variant == variant
        assert ks_distance(lsd_cdf(sol), mp) <= 1e-5
        assert abs(sol.atom_at_zero - max(0.0, 1.0 - y)) <= 1e-15
        assert abs(sol.support[0] - mp.a) <= 1e-8 and abs(sol.support[1] - mp.b) <= 1e-8

    @pytest.mark.parametrize("y", [0.5, 2.0])
    def test_companion_role_is_read_off_the_direct_law(self, y):
        config = SolverConfig(quadrature_points=64)
        for variant in all_variants():
            direct = solve_lsd(MA1, y, variant=replace(variant, role="direct"), config=config,
                               grid_points=128)
            want = direct.in_role(variant.role)
            got = solve_lsd(MA1, y, variant=variant, config=config, grid_points=128)
            assert got.variant == want.variant == variant
            for field in ("grid", "density", "cdf_values"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
            for field in ("atom_at_zero", "support"):
                assert getattr(got, field) == getattr(want, field)
            if variant.role == "companion":
                with pytest.raises(ValueError, match="direct-role"):
                    got.in_role("direct")
        with pytest.raises(ValueError, match="role"):
            direct.in_role("swapped")

    @pytest.mark.parametrize("y", [math.nan, math.inf, 0.0, -1.0])
    def test_ratio_must_be_finite_and_positive(self, y):
        with pytest.raises(ValueError, match="finite and positive"):
            solve_lsd(FLAT, y)
        with pytest.raises(ValueError, match="finite and positive"):
            solve_stieltjes(FLAT, y, 1j)

    def test_default_grid_properties(self):
        grid = solve_lsd(FLAT, 1.0, grid_points=128).grid
        assert grid.size == 128
        assert np.all(np.diff(grid) > 0)
        # the hard edge at 0 stays off the grid; the upper edge is its last point
        assert grid[0] > 0.0
        assert abs(grid[-1] - 4.0) <= 1e-12
        sol = solve_lsd(FLAT, 2.0, grid_points=128)
        assert sol.grid[0] == sol.support[0]

    def test_json_round_trip(self, mp1_solution):
        doc = json.loads(json.dumps(mp1_solution.to_json()))
        back = LsdSolution.from_json(doc)
        np.testing.assert_allclose(back.grid, mp1_solution.grid)
        np.testing.assert_allclose(back.density, mp1_solution.density)
        assert back.variant == mp1_solution.variant
        np.testing.assert_array_equal(back.cdf_values, mp1_solution.cdf_values)
        assert back.atom_at_zero == mp1_solution.atom_at_zero
        assert back.support == mp1_solution.support
        assert back.mass() == mp1_solution.mass()


def model_density(doc, tail_tol=1e-12):
    model = CoefficientModel.from_json(doc)
    horizon = default_horizon(model, 256, tail_tol=tail_tol)
    return spectral_density(ProcessSpec(model, InnovationSpec(), horizon, tail_tol=tail_tol))


@pytest.mark.parametrize(
    "doc, tail_tol",
    [
        ({"kind": "farima", "d": -0.2}, 1e-6),
        ({"kind": "ma", "theta": [-1.0]}, 1e-12),
        ({"kind": "ma", "theta": [1.0, 1.0, 1.0]}, 1e-12),
        ({"kind": "explicit", "coefficients": [1.0, -1.0]}, 1e-12),
    ],
)
def test_spectra_with_zeros_split_the_law_at_y_above_one(doc, tail_tol):
    f = model_density(doc, tail_tol)
    y = 2.0
    sol = solve_lsd(f, y)
    assert np.all(np.diff(sol.cdf_values) >= 0.0)
    if doc["kind"] != "farima":
        # a rational f is solved exactly: f > 0 off its zeros, so the law is
        # one interval from 0 with the exact atom 1 - 1/y
        assert sol.atom_at_zero == 0.5
        assert sol.support[0] == 0.0
        assert np.all(sol.density[1:-1] > 0.0)
        assert abs(sol.mass() - 1.0) <= 1e-6  # measured: 0
        return
    # FARIMA keeps the trapezoid: zeros or near-zeros of f give the discrete
    # population law small values whose clusters separate from the bulk at
    # y = 2, each its own support interval with the density 0 at its edges.
    # The atom of the discrete law: one minus 1/y times the share of the
    # quadrature samples above the rounding level of the largest
    samples = f(np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False))
    share = np.count_nonzero(samples > np.finfo(float).eps * samples.max()) / samples.size
    assert sol.atom_at_zero == max(0.0, 1.0 - (1.0 / y) * share)
    assert abs(sol.mass() - 1.0) <= 1e-3
    assert np.count_nonzero(sol.density[1:-1] == 0.0) >= 2  # at least one inner gap


@pytest.mark.parametrize("z, root", [(2.0 + 2e-6j, -0.5401556708555627 + 0.379641512481538j),
                                     (2.0 + 2e-9j, -0.5401561012512346 + 0.3796413842618218j)])
def test_trapezoid_root_near_the_axis_takes_no_nan_step(z, root):
    # Newton from -1/z tries s near 1e180, where |R| = |z| is smaller than at
    # the start but R'(s) = -1/s^2 + scale K2 is nan: the next step R/R' was
    # an invalid division
    f = model_density({"kind": "farima", "d": -0.2}, tail_tol=1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = solve_stieltjes(f, 1.5, z)
    assert abs(s - root) <= 1e-9


@pytest.mark.parametrize("y", [1.156, 1.178, 1.201])
def test_trapezoid_gap_search_lands_on_the_least_phi(y):
    # just above y = 1.15 phi dips below 1 between two values of FARIMA's
    # discrete law by a little; a search off phi's minimum missed that gap
    # and solved a wrong law (mass off by 9.5e-7 at 1.156) or none at all
    f = model_density({"kind": "farima", "d": -0.2}, tail_tol=1e-6)
    kernel, scale = lsd._kernel(f, SolverConfig()), 1.0 / y
    lo, vmin, hi = kernel.gaps(scale)
    assert lo.size == 1
    v = np.linspace(lo[0], hi[0], 2001)[1:-1]
    phi = lsd._pole_sums(v, kernel.t, kernel.w, scale, 2)
    assert abs(vmin[0] - v[np.argmin(phi)]) <= (hi[0] - lo[0]) / 2000
    sol = solve_lsd(f, y)
    assert abs(sol.mass() - 1.0) <= 1e-12  # measured: 0
    assert np.count_nonzero(sol.density[1:-1] == 0.0) == 2  # the edges of the gap


# inverse AR roots: real ones, or one conjugate pair, of modulus 0.05 to 0.95
_MODULUS = st.floats(0.05, 0.95)
_AR_ROOTS = st.one_of(
    st.lists(st.tuples(_MODULUS, st.sampled_from([-1.0, 1.0])).map(lambda r: r[0] * r[1]),
             max_size=2),
    st.tuples(_MODULUS, st.floats(0.0, math.pi)).map(
        lambda r: [r[0] * np.exp(1j * r[1]), r[0] * np.exp(-1j * r[1])]),
)


@given(roots=_AR_ROOTS, theta=st.lists(st.floats(-1.5, 1.5), max_size=2),
       y=st.floats(math.log(0.1), math.log(10.0)).map(math.exp))
@settings(max_examples=20, deadline=None)
# sqrt(x) grading lost 2.1e-3 and 1.2e-3 of the mass at the hard edge of
# these; the third read a zero of f as 8e-17 and solved a NaN lower edge
@example(roots=[0.875, 0.875], theta=[1.0], y=1.0)
@example(roots=[0.5, 0.9375], theta=[1.0], y=1.0)
@example(roots=[0.8348559379458956], theta=[1.2705904793504086, 1.0], y=1.0)
def test_random_causal_arma_laws_are_laws(roots, theta, y):
    # 1 - phi_1 z - phi_2 z^2 = prod (1 - root z)
    phi = [float(-c) for c in np.real(np.poly(roots))[1:]] if roots else []
    f = model_density({"kind": "arma", "phi": phi, "theta": theta})
    sol = solve_lsd(f, y)
    assert sol.atom_at_zero == max(0.0, 1.0 - 1.0 / y)  # f > 0 off a finite set
    assert abs(sol.mass() - 1.0) <= 1e-12  # F(b) = 1 up to rounding
    assert np.all(np.diff(sol.grid) > 0.0)
    assert np.all(sol.density >= 0.0)
    assert np.all(np.diff(sol.cdf_values) >= 0.0)


# AR(2) with a double inverse root 0.95, so f peaks sharply at 0 (f(0) =
# 1.6e5 ma(1)^2), and an MA part with zeros on the unit circle.  The bounds
# date from a mass integrated over the nodes (mass - 1 was at most as below,
# and in brackets on sqrt(x) nodes); read off the roots it measures 0 on all
@pytest.mark.parametrize("ma, bound", [
    ([1.0, 1.0], 5e-4),  # 1.9e-4 (7.4e-3)
    ([1.0, 1.0, 1.0], 5e-4),  # 2.1e-4 (8.7e-3)
    ([1.0, -1.5, 1.0], 5e-4),  # 2.0e-5 (9.9e-4)
    ([1.0, 2.0, 1.0], 2e-3),  # a zero of order 4: 9.4e-4 (4.5e-2)
])
@pytest.mark.parametrize("y", [0.999, 1.0, 1.001, 1.01, 2.0, 10.0])
def test_laws_spread_over_decades_keep_their_mass(ma, bound, y):
    f = SpectralDensity(ma, [1.0, -1.9, 0.9025])
    sol = solve_lsd(f, y)
    assert abs(sol.mass() - 1.0) <= bound
    assert np.all(np.diff(sol.grid) > 0.0) and np.all(sol.density >= 0.0)
    if sol.support[0] < lsd._FLOOR * sol.support[1]:
        # graded in decades down to the floor, a node inside the law whose
        # CDF holds the mass below it
        assert sol.grid[0] == pytest.approx(lsd._FLOOR * sol.support[1], rel=1e-12)
        assert sol.density[0] > 0.0 and sol.cdf_values[0] > sol.atom_at_zero


# laws whose sqrt(x) or decade nodes lost 1e-4 to 3e-3 of the mass to the
# trapezoid in theta and the power-law head, mostly at a zero of f of order
# 4 or 6: the last a trapezoid-kernel law (f ~ w^4 near 0) of 115 intervals.
# The finer grid nests the default one: at a hard edge the sqrt(x) nodes
# leave out the node at 0, so it takes 2 x 1024 points, else 2 x 1024 - 1.
@pytest.mark.parametrize("f, y, fine", [
    (SpectralDensity([1.0, -2.0, 1.0]), 1.0, 2048),
    (SpectralDensity([1.0, -2.0, 1.0], [1.0, -0.9]), 1.0, 2048),
    (SpectralDensity([1.0, 2.0, 1.0], [1.0, -1.9, 0.9025]), 1.01, 2047),
    (SpectralDensity([1.0, 3.0, 3.0, 1.0], [1.0, -1.9, 0.9025]), 1.01, 2047),
    (SpectralDensity([1.0, -2.0, 1.0, 0.0, 1e-4]), 1.614, 2047),
])
def test_cdf_at_a_node_does_not_depend_on_the_grid(f, y, fine):
    # the CDF at a node is read off that node's root alone
    coarse, finer = solve_lsd(f, y), solve_lsd(f, y, grid_points=fine)
    shared, i, j = np.intersect1d(coarse.grid, finer.grid, return_indices=True)
    assert shared.size > 100
    # measured: at most 1.4e-10 (1.1e-4 to 1.2e-3 on the trapezoid in theta)
    assert np.max(np.abs(coarse.cdf_values[i] - finer.cdf_values[j])) <= 1e-9


def test_rational_kernel_reads_a_zero_within_rounding_as_zero():
    # 1 + 1.27 z + z^2 has its roots on the unit circle: f vanishes, but
    # B/A at the least point rounds to about 8e-17
    f = SpectralDensity([1.0, 1.2705904793504086, 1.0], [1.0, -0.8348559379458956])
    assert lsd._kernel(f, SolverConfig()).low == 0.0
    sol = solve_lsd(f, 1.0)
    assert sol.support[0] == 0.0
    assert abs(sol.mass() - 1.0) <= 1e-3
    assert lsd._kernel(SpectralDensity([1.0, 0.5], [1.0, -0.5]), SolverConfig()).low == \
        pytest.approx(0.25 / 2.25, rel=1e-12)


def test_kernel_median_is_that_of_the_samples_of_f():
    f = lambda w: np.exp(np.sin(3.0 * np.asarray(w)))  # noqa: E731
    config = SolverConfig()
    samples = np.sort(f(lsd._frequencies(config)))
    assert lsd._Population(f, config).median == samples[samples.size // 2 - 1]
    # AR(0.9): f decreases on [0, pi], its median is f(pi/2) = 1/1.81
    ar = SpectralDensity([1.0], [1.0, -0.9])
    assert lsd._kernel(ar, config).median == pytest.approx(1.0 / 1.81, rel=1e-2)
    assert lsd._Population(ar, config).median == pytest.approx(1.0 / 1.81, rel=1e-2)


def kernel_at(f, s, config=SolverConfig()):
    """K1(s) = mean(f/(1+fs)) and K2(s) = mean(f^2/(1+fs)^2) from the solver's kernel."""
    k1, k2, _ = lsd._kernel(f, config)(np.array([complex(s)]))
    return complex(k1[0]), complex(k2[0])


def branch_root(square: complex, a: complex) -> complex:
    """sqrt(square) on the branch with Re(conj(a) sqrt) > 0."""
    root = cmath.sqrt(square)
    return -root if (a.conjugate() * root).real < 0.0 else root


_S = st.builds(complex, st.floats(-3.0, 3.0), st.floats(0.01, 3.0))


@given(phi=st.floats(-0.99, 0.99), s=_S)
@settings(max_examples=200, deadline=None)
def test_kernel_matches_the_ar1_closed_form(phi, s):
    # f = 1/(1 + phi^2 - 2 phi cos w): mean f/(1+fs) = 1/sqrt(A^2 - 4 phi^2), A = 1 + phi^2 + s
    a = 1.0 + phi * phi + s
    want = 1.0 / branch_root(a * a - 4.0 * phi * phi, a)
    got, _ = kernel_at(SpectralDensity([1.0], [1.0, -phi]), s)
    assert abs(got - want) <= 1e-12 * abs(want)


@given(theta=st.floats(-2.0, 2.0), s=_S)
@settings(max_examples=200, deadline=None)
def test_kernel_matches_the_ma1_closed_form(theta, s):
    # f = 1 + theta^2 + 2 theta cos w: mean f/(1+fs) = (1 - 1/sqrt(B^2 - 4 theta^2 s^2))/s,
    # B = 1 + s (1 + theta^2)
    b = 1.0 + s * (1.0 + theta * theta)
    want = (1.0 - 1.0 / branch_root(b * b - 4.0 * theta * theta * s * s, b)) / s
    got, _ = kernel_at(SpectralDensity([1.0, theta]), s)
    assert abs(got - want) <= 1e-12 * abs(want)


@given(roots=_AR_ROOTS, theta=st.lists(st.floats(-1.5, 1.5), max_size=2),
       s=st.builds(complex, st.floats(-3.0, 3.0), st.floats(0.05, 3.0)))
@settings(max_examples=100, deadline=None)
def test_kernel_of_random_causal_arma_matches_a_fine_trapezoid(roots, theta, s):
    phi = [float(-c) for c in np.real(np.poly(roots))[1:]] if roots else []
    f = SpectralDensity([1.0, *theta], [1.0, *(-p for p in phi)])
    values = f(np.arange(1 << 16) * (2.0 * np.pi / (1 << 16)))
    terms = values / (1.0 + values * s)
    got = kernel_at(f, s)
    for k, want in zip(got, (np.mean(terms), np.mean(terms * terms))):
        assert abs(k - want) <= 1e-10 * abs(want)


_ARG_MEAN_LAWS = [
    ([1.0], [1.0]), ([1.0, 0.5], [1.0]), ([1.0], [1.0, -0.9]), ([1.0, 0.4], [1.0, -0.5]),
    ([1.0, -2.0, 1.0], [1.0]), ([1.0, 1.0, 1.0], [1.0, -1.9, 0.9025]),
    ([1.0, 3.0, 3.0, 1.0], [1.0, -1.9, 0.9025]), ([1.0, 0.3, -0.2, 0.1], [1.0, -0.5, 0.2]),
]


@given(law=st.sampled_from(_ARG_MEAN_LAWS), s=_S)
@settings(max_examples=200, deadline=None)
def test_rational_arg_mean_matches_a_fine_midpoint_sum(law, s):
    # orders 0 to 3, with zeros of f of order 4 and 6 and a peak of 1e7
    f = SpectralDensity(*law)
    kernel = lsd._kernel(f, SolverConfig())
    assert isinstance(kernel, lsd._Rational)
    values = f((np.arange(1 << 16) + 0.5) * (2.0 * np.pi / (1 << 16)))
    want = np.mean(np.angle(1.0 + values * s))
    # measured: at most 2.5e-14
    assert abs(kernel.arg_mean(np.array([s]))[0] - want) <= 1e-12


@pytest.mark.parametrize("f, y", [
    (SpectralDensity([1.0, 0.5]), 2.0),
    (SpectralDensity([1.0], [1.0, -0.9]), 0.5),
    (SpectralDensity([1.0, -2.0, 1.0]), 1.0),
])
def test_cdf_increment_is_the_integral_of_the_density(f, y):
    # an independent check: adaptive quadrature of Im s / pi just above the
    # axis, each s a fresh `solve_stieltjes`, between two bulk nodes
    from scipy.integrate import quad

    sol = solve_lsd(f, y)
    i, j = sol.grid.size // 4, 3 * sol.grid.size // 4
    want = quad(lambda x: solve_stieltjes(f, y, complex(x, 1e-12)).imag / math.pi,
                sol.grid[i], sol.grid[j], epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    # measured: at most 5.3e-13
    assert abs(sol.cdf_values[j] - sol.cdf_values[i] - want) <= 1e-11


def test_ma_with_a_unit_root_solves_at_coarse_settings():
    # the exact kernel reads no quadrature points, so 64 of them cannot
    # stall the march at the zero of f
    f = model_density({"kind": "ma", "theta": [-1.0]})
    sol = solve_lsd(f, 0.5, variant=EquationVariant.parse("normalized-y-direct"),
                    config=SolverConfig(quadrature_points=64), grid_points=1024)
    assert sol.atom_at_zero == 0.5 and sol.support[0] == 0.0
    assert abs(sol.mass() - 1.0) <= 1e-6  # measured: 0
    assert law_range_violation(sol) is None


def count_kernel_calls(monkeypatch, kernel):
    calls = []
    evaluate = kernel.__call__
    monkeypatch.setattr(kernel, "__call__", lambda self, s: calls.append(len(s)) or evaluate(self, s))
    return calls


# the four laws of the benchmark's `law` workload, and laws of order 2 and 3
@pytest.mark.parametrize("doc, y", [
    ({"kind": "white_noise"}, 2.0),
    ({"kind": "ma", "theta": [0.5]}, 2.0),
    ({"kind": "ar1", "phi": 0.9}, 0.5),
    ({"kind": "arma", "phi": [0.5], "theta": [0.4]}, 1.5),
    ({"kind": "ma", "theta": [0.5, 0.3]}, 2.0),
    ({"kind": "ma", "theta": [0.5, 0.3, 0.2]}, 2.0),
])
def test_an_exact_law_is_solved_in_few_kernel_sweeps(doc, y, monkeypatch):
    # 9 sweeps find the edges (17 at order 3) and 2 more read z and z'' at
    # them; one batched Newton solves every node
    f = model_density(doc)
    calls = count_kernel_calls(monkeypatch, lsd._Rational)
    solve_lsd(f, y)
    assert len(calls) <= 40  # measured: 29-34 on the workload laws, 30 and 38 at order 2 and 3


def plain_bisect(g, lo, hi):
    """Oracle of `_bisect`: one halving per call of g."""
    for _ in range(lsd._BISECTIONS):
        mid = 0.5 * (lo + hi)
        up = g(mid[:, None])[:, 0] > 0.0
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    return 0.5 * (lo + hi)


_ROOTS = np.array([0.3, -2.5e-7, 1.0 / 3.0, 7.0, 7.0 + 1e-13])
_EDGES = np.array([0.0, -1.0, 0.25, 7.0, 7.0]), np.array([1.0, 1e-6, 0.5, 7.0 + 3e-13, 8.0])
# the cases take only correctly rounded arithmetic, whose result at a point
# does not depend on the layout of the array that holds it
_BISECT_CASES = {
    "increasing": (lambda v, r: (v - r) * (1.0 + (v - r) ** 2), *_EDGES),
    # a few ulps of noise: g is not monotone where it is near 0
    "noisy": (lambda v, r: v - r + 3.0 * np.spacing(r) * (np.fmod(v / np.spacing(r), 4.0) - 1.5),
              *_EDGES),
    "no sign change": (lambda v, r: v - r - 10.0 * (r > 0.0), *_EDGES),
    "nan": (lambda v, r: np.where(v < r, -1.0, np.nan), *_EDGES),
    "lo == hi": (lambda v, r: v - r, _EDGES[0], _EDGES[0]),
    "no bracket": (lambda v, r: v - r, np.empty(0), np.empty(0)),
}


@pytest.mark.parametrize("case", sorted(_BISECT_CASES))
@pytest.mark.parametrize("levels", range(1, 9))
def test_bisect_takes_the_points_and_choices_of_plain_bisection(case, levels):
    assert {lsd._Population.levels, *lsd._RATIONAL_LEVELS} <= set(range(1, 9))
    g, lo, hi = _BISECT_CASES[case]
    roots = _ROOTS[:lo.size, None]
    shapes = []
    got = lsd._bisect(lambda v: shapes.append(v.shape) or g(v, roots), lo, hi, levels)
    assert got.tobytes() == plain_bisect(lambda v: g(v, roots), lo, hi).tobytes()
    # levels halvings per call of g, and the remainder of _BISECTIONS in the last
    whole, rest = divmod(lsd._BISECTIONS, levels)
    widths = [2**levels - 1] * whole + [2**rest - 1] * bool(rest)
    assert shapes == [(lo.size, width) for width in widths]


@pytest.mark.parametrize("f, y, config", [
    (SpectralDensity([1.0, 0.5]), 2.0, SolverConfig()),
    (SpectralDensity([1.0, 1.0, 1.0]), 2.0, SolverConfig()),
    (SpectralDensity([1.0, 0.5, 0.3, 0.2]), 0.5, SolverConfig()),
    (model_density({"kind": "farima", "d": -0.2}, tail_tol=1e-6), 1.178, SolverConfig(256)),
])
def test_support_edges_are_those_of_plain_bisection(f, y, config, monkeypatch):
    # the kernel at a (brackets, points) array of v, raveled, is the kernel
    # at each v alone, to the bit
    kernel, scale = lsd._kernel(f, config), 1.0 / y
    got = np.array(lsd._support(kernel, scale))
    monkeypatch.setattr(lsd, "_bisect", lambda g, lo, hi, levels: plain_bisect(g, lo, hi))
    assert got.tobytes() == np.array(lsd._support(kernel, scale)).tobytes()


def test_trapezoid_edge_search_takes_one_point_per_bracket_and_sweep(monkeypatch):
    # the cost of the trapezoid kernel and of the pole sums grows with the
    # points of a sweep, so they keep plain bisection
    f = model_density({"kind": "farima", "d": -0.2}, tail_tol=1e-6)
    kernel, scale = lsd._kernel(f, SolverConfig()), 1.0 / 1.178
    calls = count_kernel_calls(monkeypatch, lsd._Population)
    sums = []
    pole_sums = lsd._pole_sums
    monkeypatch.setattr(lsd, "_pole_sums", lambda v, *args: sums.append(v.size) or pole_sums(v, *args))
    intervals = lsd._support(kernel, scale)
    # the gap search: one call per halving, one point per candidate gap, then
    # phi at its least points
    candidates = sums[0]
    assert candidates >= 1 and sums == [candidates] * lsd._BISECTIONS + [candidates]
    # the edge search: one call per halving, one point per edge, then z at
    # the edges and z' on either side of each upper edge
    edges = 2 * len(intervals)
    assert len(intervals) == 2
    assert calls == [edges] * lsd._BISECTIONS + [edges, edges]


@pytest.mark.parametrize("f, y", [
    (SpectralDensity([1.0, 0.5]), 2.0),
    (SpectralDensity([1.0], [1.0, -0.9]), 0.5),
    (SpectralDensity([1.0, 1.0, 1.0], [1.0, -1.9, 0.9025]), 1.0),
])
def test_nodes_the_batched_newton_leaves_are_followed_to_the_same_law(f, y, monkeypatch):
    want = solve_lsd(f, y)
    # four Newton steps leave most nodes to be followed from their neighbour
    monkeypatch.setattr(lsd, "_MAX_ITERATIONS", 4)
    follows = []
    follow = lsd._follow
    monkeypatch.setattr(lsd, "_follow", lambda *args: follows.append(args) or follow(*args))
    got = solve_lsd(f, y)
    assert len(follows) >= want.grid.size // 2  # measured: 664, 868 and 945 of 1024
    np.testing.assert_array_equal(got.grid, want.grid)
    assert np.max(np.abs(got.cdf_values - want.cdf_values)) <= 1e-10  # measured: at most 1.9e-12
    assert got.atom_at_zero == want.atom_at_zero


@pytest.mark.parametrize("label", ["normalized-yinv-direct", "normalized-y-direct"])
def test_coarse_trapezoid_with_a_zero_of_f_returns_promptly(label, monkeypatch):
    f = model_density({"kind": "farima", "d": -0.2}, tail_tol=1e-6)
    calls = count_kernel_calls(monkeypatch, lsd._Population)
    sol = solve_lsd(f, 0.5, variant=EquationVariant.parse(label),
                    config=SolverConfig(quadrature_points=64), grid_points=1024)
    assert law_range_violation(sol) is None
    assert abs(sol.mass() - 1.0) <= 1e-6
    assert len(calls) <= 2000  # measured: 70 and 81


def test_a_march_that_never_converges_raises_promptly(monkeypatch):
    # every Newton step fails: the split limit ends the march at the first
    # node, and the error names the node and the residual
    f = model_density({"kind": "farima", "d": -0.2}, tail_tol=1e-6)
    monkeypatch.setattr(lsd, "_MAX_ITERATIONS", 1)
    monkeypatch.setattr(lsd, "_RESIDUAL_TOL", 1e-30)
    calls = count_kernel_calls(monkeypatch, lsd._Population)
    with pytest.raises(ConvergenceError, match=r"density: solve failed at x = \d.*residual \d") as err:
        solve_lsd(f, 0.5, config=SolverConfig(quadrature_points=64))
    assert err.value.z.real > 0.0 and err.value.residual > 0.0
    assert len(calls) <= 2 * lsd._SPLITS + 2 * lsd._BISECTIONS


@pytest.mark.parametrize("points", [64, 65, 2048])
def test_trapezoid_kernel_of_an_even_density_is_the_full_trapezoid(points):
    # the kernel samples [0, pi] only, with double weight inside
    f = model_density({"kind": "farima", "d": -0.2}, tail_tol=1e-6)
    config = SolverConfig(quadrature_points=points)
    for s in (0.3 + 0.7j, -0.2 + 0.05j):
        got, _ = kernel_at(f, s, config)
        assert abs(got - quadrature_integral(f, s, config=config)) <= 1e-13 * abs(got)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: EquationVariant(ratio="x"), ValueError, "unknown ratio interpretation 'x'"),
        # a scalar-valued callable is broadcast over the frequency grid first
        (lambda: quadrature_integral(lambda w: -1.0, 0.5j), ValueError,
         "spectral density must be non-negative"),
        (lambda: quadrature_integral(lambda w: np.ones_like(w), -1.0), NumericalError,
         "integrand singular at s = (-1+0j)"),
        (lambda: solve_lsd(SpectralDensity([0.0]), 1.0), ValueError,
         "spectral density must not vanish identically"),
        (lambda: marchenko_pastur(1.0).stieltjes(1.0), ValueError, "stieltjes requires Im z > 0"),
    ],
    ids=["ratio", "scalar-density", "singular-integrand", "vanishing-density", "real-z"],
)
def test_input_checks_raise_with_their_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_scalar_valued_density_is_broadcast():
    s = 0.3 + 0.7j
    assert quadrature_integral(lambda w: 2.0, s) == quadrature_integral(lambda w: np.full_like(w, 2.0), s)
