import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpspec.lsd import (
    DEFAULT_VARIANT,
    ConvergenceError,
    EquationVariant,
    LsdSolution,
    SolverConfig,
    all_variants,
    default_grid,
    lsd_cdf,
    marchenko_pastur,
    quadrature_integral,
    solve_lsd,
    solve_stieltjes,
)
from lpspec.process import SpectralDensity
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
            SolverConfig(damping=0.0)
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


class TestDensity:
    @staticmethod
    def density(f, y, xs):
        return solve_lsd(f, y, x_grid=np.array(xs)).density

    def test_mp1_bulk_value(self):
        rho = self.density(FLAT, 1.0, [2.0])
        assert abs(rho[0] - 1.0 / (2.0 * np.pi)) <= 1e-6

    def test_outside_support(self):
        assert self.density(FLAT, 1.0, [100.0])[0] <= 1e-6
        assert self.density(FLAT, 1.0, [4.5])[0] <= 1e-4

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            self.density(FLAT, 1.0, [2.0, 1.0])
        with pytest.raises(ValueError):
            self.density(FLAT, 1.0, [-1.0, 1.0])


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


@pytest.fixture(scope="module")
def mp1_solution():
    return solve_lsd(FLAT, 1.0)


class TestSolveLsd:

    def test_cdf_matches_mp_oracle(self, mp1_solution):
        mp = marchenko_pastur(1.0)
        cdf = lsd_cdf(mp1_solution)
        xs = np.linspace(0.0, 4.5, 2001)
        sup = np.max(np.abs(np.asarray(cdf.cdf(xs)) - np.asarray(mp.cdf(xs))))
        assert sup <= 1e-3

    def test_cdf_full_mass_at_right_edge(self, mp1_solution):
        cdf = lsd_cdf(mp1_solution)
        assert abs(float(cdf.cdf(4.0)) - 1.0) <= 1e-3
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
        assert cdf.support() == (0.0, float(sol.grid[-1]))
        above_floor = sol.grid[sol.density > 1e-6]
        assert sol.support == (float(above_floor[0]), float(above_floor[-1]))

    def test_cdf_midpoint_value(self, mp1_solution):
        mp = marchenko_pastur(1.0)
        assert abs(float(lsd_cdf(mp1_solution).cdf(2.0)) - float(mp.cdf(2.0))) <= 1e-3

    def test_mass_conservation(self, mp1_solution):
        assert 0.995 <= mp1_solution.mass() <= 1.005

    def test_density_nonnegative_before_clipping(self, mp1_solution):
        assert mp1_solution.min_raw_density >= -1e-8

    def test_monotone_cdf_values(self, mp1_solution):
        assert np.all(np.diff(mp1_solution.cdf_values) >= 0)

    def test_transform_stays_upper_half_plane(self, mp1_solution):
        assert np.all(mp1_solution.s_values.imag > 0)

    def test_support_estimate(self, mp1_solution):
        lo, hi = mp1_solution.support
        assert lo <= 0.02
        assert abs(hi - 4.0) <= 0.02

    def test_scaling_property_of_constant_density(self):
        # constant density at level 2: supports scale by the level
        level = SpectralDensity([math.sqrt(2.0)])
        sol = solve_lsd(level, 1.0)
        lo, hi = sol.support
        assert abs(hi - 8.0) <= 0.05

    def test_rank_deficient_ratio_recovers_atom(self):
        # at ratio 2 the law has a point mass 1 - 1/y = 1/2 at zero
        variant = EquationVariant("normalized", "yinv", "direct")
        sol = solve_lsd(FLAT, 2.0, variant=variant)
        assert abs(sol.atom_at_zero - 0.5) <= 1e-3
        mp = marchenko_pastur(2.0, sigma2=0.5)
        xs = np.linspace(0.0, 3.2, 1500)
        sup = np.max(np.abs(np.asarray(lsd_cdf(sol).cdf(xs)) - np.asarray(mp.cdf(xs))))
        assert sup <= 1e-3

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
        assert sup <= 2e-3
        lo, hi = sol.support
        assert abs(lo - mp.a) <= 0.05
        assert abs(hi - mp.b) <= 0.05

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_default_white_noise_law_is_marchenko_pastur(self, y):
        # two quadrature points integrate a flat density exactly
        sol = solve_lsd(FLAT, y, config=SolverConfig(quadrature_points=2), grid_points=256)
        assert ks_distance(lsd_cdf(sol), marchenko_pastur(y, 1.0 / y)) <= 1e-2
        assert abs(sol.atom_at_zero - max(0.0, 1.0 - 1.0 / y)) <= 1e-2
        assert abs(sol.mass() - 1.0) <= 1e-2
        assert np.all(np.diff(sol.cdf_values) >= 0.0)

    def test_default_grid_properties(self):
        grid = default_grid(FLAT, 1.0, points=128)
        assert grid.size == 128
        assert np.all(np.diff(grid) > 0)
        assert grid[-1] >= 4.0

    def test_json_round_trip(self, mp1_solution):
        doc = json.loads(json.dumps(mp1_solution.to_json()))
        back = LsdSolution.from_json(doc)
        np.testing.assert_allclose(back.grid, mp1_solution.grid)
        np.testing.assert_allclose(back.density, mp1_solution.density)
        assert back.variant == mp1_solution.variant
        assert back.atom_at_zero == mp1_solution.atom_at_zero
        assert back.mass() == mp1_solution.mass()
        assert back.min_raw_density == mp1_solution.min_raw_density
