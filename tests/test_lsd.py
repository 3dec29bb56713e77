import cmath
import json
import math
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
        # support, geometrically close to a, and between the outer knots.
        from scipy.integrate import quad

        mp = marchenko_pastur(y, sigma2)
        ra, c = math.sqrt(mp.a), math.pi * mp.sigma2 * mp.y
        knots = mp.breakpoints()[1:]
        mids = 0.5 * (knots[1:] + knots[:-1])
        xs = np.concatenate([np.linspace(mp.a, mp.b, 41), mids[:20], mids[-20:],
                             mp.a + (mp.b - mp.a) * np.geomspace(1e-14, 1.0, 29)])

        def rho_dx_dt(t):
            return math.sqrt(max((mp.b - t * t) * (t * t - mp.a), 0.0)) / (c * t)

        for x in xs:
            top = math.sqrt(min(x, mp.b))
            splits = [ra * k for k in (1.5, 3.0, 10.0, 1e2, 1e3, 1e4) if ra * k < top]
            want = mp.atom + quad(rho_dx_dt, ra, top, points=splits or None, epsabs=1e-13,
                                  epsrel=1e-12, limit=500)[0]
            # measured: at most 9.4e-8, at y = 1 (1.2e-4 on a table of its own)
            assert abs(float(mp.cdf(x)) - want) <= 1e-6

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
        assert sup <= 1e-5  # measured: 1.5e-6

    def test_cdf_full_mass_at_right_edge(self, mp1_solution):
        cdf = lsd_cdf(mp1_solution)
        assert abs(float(cdf.cdf(4.0)) - 1.0) <= 1e-5  # measured: 5.0e-7
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
        # measured: 1.2e-6
        assert abs(float(lsd_cdf(mp1_solution).cdf(2.0)) - float(mp.cdf(2.0))) <= 1e-5

    def test_mass_conservation(self, mp1_solution):
        assert abs(mp1_solution.mass() - 1.0) <= 1e-5  # measured: -5.0e-7

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
        assert sup <= 1e-5  # measured: 4.8e-7

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
        assert sup <= 1e-5  # measured: 9.5e-7
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
            for field in ("atom_at_zero", "support", "density_mass"):
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
        assert abs(sol.mass() - 1.0) <= 1e-6  # measured: -2.5e-7 and -5.4e-7
        return
    # FARIMA keeps the trapezoid: zeros or near-zeros of f give the discrete
    # population law small values whose clusters separate from the bulk at
    # y = 2, each its own support interval with the density 0 at its edges.
    # The atom of the discrete law: one minus 1/y times the share of the
    # quadrature samples above the rounding level of the largest
    samples = f(np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False))
    share = np.count_nonzero(samples > np.finfo(float).eps * samples.max()) / samples.size
    assert sol.atom_at_zero == max(0.0, 1.0 - (1.0 / y) * share)
    assert abs(sol.atom_at_zero + sol.density_mass - 1.0) <= 1e-3
    assert np.count_nonzero(sol.density[1:-1] == 0.0) >= 2  # at least one inner gap


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
    assert abs(sol.mass() - 1.0) <= 1e-12  # measured: at most 2.3e-14
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
    assert abs(sol.mass() - 1.0) <= 1e-3
    assert np.all(np.diff(sol.grid) > 0.0)
    assert np.all(sol.density >= 0.0)
    assert np.all(np.diff(sol.cdf_values) >= 0.0)


# AR(2) with a double inverse root 0.95, so f peaks sharply at 0 (f(0) =
# 1.6e5 ma(1)^2), and an MA part with zeros on the unit circle
@pytest.mark.parametrize("ma, bound", [
    ([1.0, 1.0], 5e-4),  # measured: at most 1.9e-4 (7.4e-3 on sqrt(x) nodes)
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
        # graded in decades down to the floor, a node inside the law that
        # carries the mass below it
        assert sol.grid[0] == pytest.approx(lsd._FLOOR * sol.support[1], rel=1e-12)
        assert sol.density[0] > 0.0 and sol.cdf_values[0] > sol.atom_at_zero


def test_tail_mass_is_exact_on_a_power_law():
    xs = np.array([1e-10, 3e-10])
    rho = 2.0 * xs ** (-2.0 / 3.0)
    assert lsd._tail_mass(0.0, xs, rho) == pytest.approx(6.0 * xs[0] ** (1.0 / 3.0), rel=1e-12)
    a = 1e-12
    assert lsd._tail_mass(a, xs, rho) == pytest.approx(6.0 * (xs[0] ** (1.0 / 3.0) - a ** (1.0 / 3.0)),
                                                       rel=1e-12)


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


def test_ma_with_a_unit_root_solves_at_coarse_settings():
    # the exact kernel reads no quadrature points, so 64 of them cannot
    # stall the march at the zero of f
    f = model_density({"kind": "ma", "theta": [-1.0]})
    sol = solve_lsd(f, 0.5, variant=EquationVariant.parse("normalized-y-direct"),
                    config=SolverConfig(quadrature_points=64), grid_points=1024)
    assert sol.atom_at_zero == 0.5 and sol.support[0] == 0.0
    assert abs(sol.mass() - 1.0) <= 1e-6  # measured: -2.5e-7
    assert law_range_violation(sol) is None


def count_kernel_calls(monkeypatch, kernel):
    calls = []
    evaluate = kernel.__call__
    monkeypatch.setattr(kernel, "__call__", lambda self, s: calls.append(len(s)) or evaluate(self, s))
    return calls


# the four laws of the benchmark's `law` workload
@pytest.mark.parametrize("doc, y", [
    ({"kind": "white_noise"}, 2.0),
    ({"kind": "ma", "theta": [0.5]}, 2.0),
    ({"kind": "ar1", "phi": 0.9}, 0.5),
    ({"kind": "arma", "phi": [0.5], "theta": [0.4]}, 1.5),
])
def test_an_exact_law_is_solved_in_few_kernel_sweeps(doc, y, monkeypatch):
    # 52 sweeps find the edges; one batched Newton solves every node
    f = model_density(doc)
    calls = count_kernel_calls(monkeypatch, lsd._Rational)
    solve_lsd(f, y)
    assert len(calls) <= 100  # measured: 70-75


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
    assert np.max(np.abs(got.cdf_values - want.cdf_values)) <= 1e-10  # measured: at most 7.3e-13
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
