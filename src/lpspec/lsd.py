"""Limiting spectral law of the segmented-record covariance model.

The limiting law's Stieltjes transform s(z) is the unique map of the upper
half-plane into itself solving a fixed-point equation whose data are the
process spectral density f and the aspect ratio y = p/n:

    1/s(z) = -z + r * mean_{w in [0,2pi)} f(w) / (1 + f(w) s(z)),

where the coefficient r and the meaning of the solved transform depend on an
`EquationVariant`.  The variant has three axes because the source conventions
are ambiguous:

* normalization - whether the frequency integral carries a 1/(2pi);
* ratio         - whether r uses y as printed or its inverse;
* role          - whether the solved transform is the law itself or the
                  companion transform of the swapped-dimension Gram matrix
                  (related by the affine map s = (u + (1-r)/z) / r).

All eight combinations are implemented; the verification module adjudicates
them empirically against white-noise Monte Carlo, where the law must reduce
to the Marchenko-Pastur family.

The fixed-point iteration is damped (s <- (1-a) s + a T(s)); since T maps the
upper half-plane strictly into itself, the damped iterate cannot leave it.
Near spectral edges the plain damped iteration degrades to a nearly neutral
linear rate, so after a short damped warmup each step first tries a
safeguarded Newton correction on the analytic residual
R(s) = 1/s + z - r * mean(f/(1+fs)) (whose derivative falls out of the same
vectorized pass); the correction is accepted only if it stays in the upper
half-plane and strictly reduces |R|, otherwise the damped step is taken.
Cold starts close to the real axis are handled by a continuation ladder that
walks Im z down geometrically with warm restarts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvergenceError",
    "DEFAULT_VARIANT",
    "EquationVariant",
    "LsdSolution",
    "MarchenkoPasturLaw",
    "NumericalError",
    "SolverConfig",
    "all_variants",
    "default_grid",
    "lsd_cdf",
    "marchenko_pastur",
    "quadrature_integral",
    "solve_lsd",
    "solve_stieltjes",
]

_TWO_PI = 2.0 * math.pi
# density level above which a grid point belongs to the reported support
_DENSITY_FLOOR = 1e-6
# knots of the Marchenko-Pastur CDF table
_MP_TABLE_POINTS = 4096


class ConvergenceError(RuntimeError):
    """Fixed-point iteration failed to reach the residual tolerance."""

    def __init__(self, message: str, z: complex | None = None, residual: float | None = None):
        super().__init__(message)
        self.z = z
        self.residual = residual


class NumericalError(RuntimeError):
    """Quadrature or inversion hit a numerically unusable configuration."""


@dataclass(frozen=True)
class EquationVariant:
    """One reading of the fixed-point equation; see the module docstring."""

    normalization: str = "normalized"  # normalized | raw
    ratio: str = "yinv"                # y | yinv
    role: str = "direct"               # direct | companion

    def __post_init__(self) -> None:
        if self.normalization not in ("normalized", "raw"):
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if self.ratio not in ("y", "yinv"):
            raise ValueError(f"unknown ratio interpretation {self.ratio!r}")
        if self.role not in ("direct", "companion"):
            raise ValueError(f"unknown transform role {self.role!r}")

    @property
    def label(self) -> str:
        return f"{self.normalization}-{self.ratio}-{self.role}"

    @classmethod
    def parse(cls, label: str) -> "EquationVariant":
        parts = label.split("-")
        if len(parts) != 3:
            raise ValueError(
                f"variant {label!r} must look like 'normalized-yinv-direct' "
                "({normalized|raw}-{y|yinv}-{direct|companion})"
            )
        return cls(*parts)

    def effective_ratio(self, y: float) -> float:
        return y if self.ratio == "y" else 1.0 / y

    def scale(self, y: float) -> float:
        """Coefficient multiplying the mean of f/(1+fs) in the equation."""
        r = self.effective_ratio(y)
        return r * _TWO_PI if self.normalization == "raw" else r


# the variant calibration selects against white-noise Monte Carlo
DEFAULT_VARIANT = EquationVariant()


def all_variants() -> tuple[EquationVariant, ...]:
    return tuple(
        EquationVariant(norm, ratio, role)
        for norm in ("normalized", "raw")
        for ratio in ("y", "yinv")
        for role in ("direct", "companion")
    )


@dataclass(frozen=True)
class SolverConfig:
    quadrature_points: int = 2048
    max_iterations: int = 500
    damping: float = 0.5
    residual_tol: float = 1e-10
    epsilon_floor: float = 1e-6

    def __post_init__(self) -> None:
        if self.quadrature_points < 2:
            raise ValueError("quadrature_points must be >= 2")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("damping must lie in (0, 1]")
        if self.residual_tol <= 0 or self.epsilon_floor <= 0:
            raise ValueError("tolerances must be positive")


DEFAULT_CONFIG = SolverConfig()


def _density_values(f, config: SolverConfig) -> np.ndarray:
    grid = np.linspace(0.0, _TWO_PI, config.quadrature_points, endpoint=False)
    vals = np.asarray(f(grid), dtype=float)
    if vals.shape != grid.shape:
        vals = np.broadcast_to(vals, grid.shape).astype(float)
    if np.min(vals) < -1e-12:
        raise ValueError("spectral density must be non-negative")
    return np.clip(vals, 0.0, None)


def _integrand(f_vals: np.ndarray, s: complex) -> np.ndarray:
    """Samples of f/(1+fs) on the quadrature grid; rejects a singular 1+fs."""
    w = 1.0 + f_vals * s
    if float(np.min(np.abs(w))) < 1e-12:
        raise NumericalError(f"integrand singular at s = {s!r}")
    return f_vals / w


def quadrature_integral(f, s: complex, variant: EquationVariant = DEFAULT_VARIANT,
                        config: SolverConfig = DEFAULT_CONFIG) -> complex:
    """Frequency integral of f/(1+fs) over [0, 2pi], normalized per variant.

    Uniform trapezoid on the periodic grid; spectrally accurate for smooth f.
    """
    mean = complex(np.mean(_integrand(_density_values(f, config), complex(s))))
    return mean * _TWO_PI if variant.normalization == "raw" else mean


def _residual_parts(f_vals: np.ndarray, s: complex, z: complex, scale: float):
    """Residual R(s), the map target T(s), and the derivative R'(s)."""
    a = _integrand(f_vals, s)
    mean = complex(np.mean(a))
    residual = 1.0 / s + z - scale * mean
    target = 1.0 / (-z + scale * mean)
    deriv = -1.0 / (s * s) + scale * complex(np.mean(a * a))
    return residual, target, deriv


def _fixed_point(
    f_vals: np.ndarray,
    scale: float,
    z: complex,
    config: SolverConfig,
    s0: complex | None = None,
) -> tuple[complex, float, int]:
    """Solve 1/s = -z + scale * mean(f/(1+fs)) for the upper-half-plane root."""
    start = complex(s0) if s0 is not None and complex(s0).imag > 0 else -1.0 / z
    alpha = config.damping
    s = start
    abs_res = math.inf
    iterations = 0
    warmup = 3  # pure damped steps before Newton corrections kick in
    while alpha >= 1e-6:
        left_half_plane = False
        for _ in range(config.max_iterations):
            iterations += 1
            residual, target, deriv = _residual_parts(f_vals, s, z, scale)
            abs_res = abs(residual)
            if abs_res <= config.residual_tol:
                return s, abs_res, iterations
            nxt = None
            if iterations > warmup and abs(deriv) > 0.0 and np.isfinite(abs(deriv)):
                step = residual / deriv
                for shrink in (1.0, 0.5, 0.25, 0.125):
                    cand = s - shrink * step
                    if not (cand.imag > 0.0 and np.isfinite(cand.real) and np.isfinite(cand.imag)):
                        continue
                    cand_res, _, _ = _residual_parts(f_vals, cand, z, scale)
                    if abs(cand_res) < abs_res:
                        nxt = cand
                        break
            if nxt is None:
                nxt = (1.0 - alpha) * s + alpha * target
                if not (nxt.imag > 0.0 and np.isfinite(nxt.real) and np.isfinite(nxt.imag)):
                    left_half_plane = True
                    break
            s = nxt
        if not left_half_plane:
            raise ConvergenceError(
                f"no convergence at z = {z!r} after {iterations} iterations "
                f"(residual {abs_res:.3e})",
                z=z,
                residual=abs_res,
            )
        # numerical exit from the half-plane: restart more cautiously
        alpha *= 0.5
        s = -1.0 / z
    raise ConvergenceError(
        f"iteration kept leaving the upper half-plane at z = {z!r}", z=z, residual=abs_res
    )


def _solve_point(
    f_vals: np.ndarray,
    scale: float,
    z: complex,
    config: SolverConfig,
    s0: complex | None = None,
) -> tuple[complex, float, int]:
    """Solve at one z, falling back to continuation in Im z on failure.

    The ladder starts at a comfortable height and walks the imaginary part
    down geometrically, warm-starting each rung; it is only used when the
    direct (possibly warm-started) solve does not converge.
    """
    try:
        return _fixed_point(f_vals, scale, z, config, s0)
    except ConvergenceError:
        pass
    height = max(1.0, abs(z.real)) * 0.5
    warm: complex | None = None
    total = 0
    while True:
        rung = complex(z.real, max(z.imag, height))
        s, res, its = _fixed_point(f_vals, scale, rung, config, warm)
        total += its
        warm = s
        if height <= z.imag:
            return s, res, total
        height /= 8.0


def solve_stieltjes(
    f,
    y: float,
    z: complex,
    variant: EquationVariant = DEFAULT_VARIANT,
    config: SolverConfig = DEFAULT_CONFIG,
    s0: complex | None = None,
) -> complex:
    """Value of the solved transform at one point z of the upper half-plane.

    Returns the raw fixed-point solution of the variant's equation; for the
    companion role the conversion to the law's own transform happens in the
    density evaluation, not here.
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("solve_stieltjes requires Im z > 0")
    if y <= 0:
        raise ValueError("aspect ratio y must be positive")
    f_vals = _density_values(f, config)
    s, _, _ = _solve_point(f_vals, variant.scale(y), z, config, s0)
    return s


def _to_direct(u: complex, z: complex, y: float, variant: EquationVariant) -> complex:
    if variant.role == "direct":
        return u
    r = variant.effective_ratio(y)
    return (u + (1.0 - r) / z) / r


def _density_profile(f, y, xs, variant, config):
    """Density samples on a strictly increasing positive grid.

    Realizes rho(x) = (1/pi) * lim Im s(x + i eps) by linear Richardson
    extrapolation from eps and 2*eps (eps = config.epsilon_floor), marching
    along the grid with warm starts.  Returns the density with negative
    extrapolation noise clipped at zero, the unclipped density, and the
    law's transform at x + i eps.
    """
    if xs.ndim != 1 or xs.size < 1:
        raise ValueError("x_grid must be a non-empty 1-d array")
    if np.any(xs <= 0) or np.any(np.diff(xs) <= 0):
        raise ValueError("x_grid must be strictly increasing and positive")
    f_vals = _density_values(f, config)
    scale = variant.scale(y)
    eps = config.epsilon_floor
    ims = {}
    raw = None
    for factor in (2.0, 1.0):
        level = np.empty(xs.size)
        solved = np.empty(xs.size, dtype=complex)
        warm: complex | None = None
        # march downward: cold starts are benign beyond the upper edge
        for i in range(xs.size - 1, -1, -1):
            z = complex(xs[i], factor * eps)
            try:
                u, _, _ = _solve_point(f_vals, scale, z, config, warm)
            except ConvergenceError as exc:
                raise ConvergenceError(
                    f"density solve failed at x = {xs[i]!r}: {exc}", z=z, residual=exc.residual
                ) from exc
            warm = u
            solved[i] = _to_direct(u, z, y, variant)
            level[i] = solved[i].imag
        ims[factor] = level
        if factor == 1.0:
            raw = solved
    rho_raw = (2.0 * ims[1.0] - ims[2.0]) / math.pi
    return np.clip(rho_raw, 0.0, None), rho_raw, raw


def default_grid(f, y: float, variant: EquationVariant = DEFAULT_VARIANT,
                 points: int = 1024, config: SolverConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Quadratically graded grid covering the variant's support bound.

    The equation with coefficient r has support inside
    [0, max(f) * (1 + sqrt(r))^2]; grading concentrates points near zero
    where hard-edge densities blow up like x**(-1/2).  The grid stands off
    the origin by 100 * epsilon_floor: closer in, the near-axis evaluation
    smears any point mass at zero into a spurious density spike, which must
    be kept out of the integrated density so that the atom can be read off
    as the missing mass.
    """
    f_max = max(float(np.max(_density_values(f, config))), 1e-12)
    edge = 1.05 * f_max * (1.0 + math.sqrt(variant.scale(y))) ** 2
    lo = min(100.0 * config.epsilon_floor, 0.01 * edge)
    u = np.arange(1, points + 1) / points
    return lo + (edge - lo) * u * u


@dataclass(frozen=True)
class LsdSolution:
    """Solved law on a grid: transform values, density, CDF, atom, support."""

    y: float
    variant: EquationVariant
    grid: np.ndarray
    s_values: np.ndarray
    density: np.ndarray
    cdf_values: np.ndarray
    atom_at_zero: float
    support: tuple[float, float]
    min_raw_density: float = 0.0
    density_mass: float = 0.0

    def mass(self) -> float:
        """Atom plus integrated density (including the leading [0, x_0] cell)."""
        return self.atom_at_zero + self.density_mass

    def to_json(self) -> dict:
        return {
            "y": self.y,
            "variant": self.variant.label,
            "grid": [float(v) for v in self.grid],
            "s_re": [float(v.real) for v in self.s_values],
            "s_im": [float(v.imag) for v in self.s_values],
            "density": [float(v) for v in self.density],
            "cdf": [float(v) for v in self.cdf_values],
            "atom": self.atom_at_zero,
            "support": [self.support[0], self.support[1]],
            "min_raw_density": self.min_raw_density,
            "density_mass": self.density_mass,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "LsdSolution":
        s = np.asarray(doc["s_re"], dtype=float) + 1j * np.asarray(doc["s_im"], dtype=float)
        return cls(
            y=float(doc["y"]),
            variant=EquationVariant.parse(doc["variant"]),
            grid=np.asarray(doc["grid"], dtype=float),
            s_values=s,
            density=np.asarray(doc["density"], dtype=float),
            cdf_values=np.asarray(doc["cdf"], dtype=float),
            atom_at_zero=float(doc["atom"]),
            support=(float(doc["support"][0]), float(doc["support"][1])),
            min_raw_density=float(doc.get("min_raw_density", 0.0)),
            density_mass=float(doc.get("density_mass", 0.0)),
        )


def solve_lsd(
    f,
    y: float,
    x_grid=None,
    variant: EquationVariant = DEFAULT_VARIANT,
    config: SolverConfig = DEFAULT_CONFIG,
    grid_points: int = 1024,
) -> LsdSolution:
    """Full solve: density on a grid, cumulative CDF, zero atom, support.

    The atom at zero is 1 minus the integrated density (clipped to [0, 1]),
    which is stabler than reading it off the transform's asymptotics.  The
    support is the smallest grid interval holding every point with density
    above 1e-6.
    """
    if y <= 0:
        raise ValueError("aspect ratio y must be positive")
    xs = default_grid(f, y, variant, grid_points, config) if x_grid is None \
        else np.asarray(x_grid, dtype=float)
    rho, rho_raw, s_vals = _density_profile(f, y, xs, variant, config)
    segments = 0.5 * (rho[1:] + rho[:-1]) * np.diff(xs)
    head = _head_mass(xs, rho)
    cumulative = head + np.concatenate([[0.0], np.cumsum(segments)])
    total = float(cumulative[-1])
    atom = min(max(1.0 - total, 0.0), 1.0)
    cdf_vals = np.minimum(atom + cumulative, 1.0)
    passing = xs[rho > _DENSITY_FLOOR]
    return LsdSolution(
        y=float(y),
        variant=variant,
        grid=xs,
        s_values=s_vals,
        density=rho,
        cdf_values=cdf_vals,
        atom_at_zero=atom,
        support=(float(passing[0]), float(passing[-1])) if passing.size else (0.0, 0.0),
        min_raw_density=float(np.min(rho_raw)),
        density_mass=total,
    )


def _head_mass(xs: np.ndarray, rho: np.ndarray) -> float:
    """Mass of the leading cell [0, x_0], allowing a hard-edge power blowup.

    Fits rho ~ c x^g from the first two samples and integrates the power
    law; for a square-root edge this recovers the exact 2 rho(x0) x0, for
    densities vanishing at the origin it is ~0.  The exponent is clamped to
    [-0.5, 2]: nothing steeper than an inverse square root is a genuine
    edge profile here, and steeper fits indicate a smeared point mass that
    must not be booked as density.
    """
    if xs.size < 2 or rho[0] <= 0.0 or rho[1] <= 0.0:
        return 0.5 * float(rho[0]) * float(xs[0])
    g = math.log(rho[1] / rho[0]) / math.log(xs[1] / xs[0])
    g = min(max(g, -0.5), 2.0)
    return float(rho[0]) * float(xs[0]) / (g + 1.0)


class _TabulatedCdf:
    """Continuous CDF interpolated linearly through a table that starts at 0.

    Zero below the origin, `right` beyond the last knot.
    """

    is_step = False

    def __init__(self, knots: np.ndarray, values: np.ndarray, right: float,
                 support: tuple[float, float]):
        self._knots = knots
        self._values = values
        self._right = right
        self._support = support

    def _interp(self, xs: np.ndarray) -> np.ndarray:
        return np.interp(xs, self._knots, self._values, right=self._right)

    def cdf(self, x):
        xs = np.asarray(x, dtype=float)
        return np.where(xs < 0.0, 0.0, self._interp(xs))

    def cdf_left(self, x):
        xs = np.asarray(x, dtype=float)
        return np.where(xs <= 0.0, 0.0, self._interp(xs))

    def breakpoints(self) -> np.ndarray:
        return self._knots

    def support(self) -> tuple[float, float]:
        return self._support


def lsd_cdf(solution: LsdSolution) -> _TabulatedCdf:
    """CDF evaluable built from a solved law: the atom at zero, then the grid CDF."""
    values = np.concatenate([[solution.atom_at_zero], solution.cdf_values])
    return _TabulatedCdf(np.concatenate([[0.0], solution.grid]), values, values[-1],
                         (0.0, float(solution.grid[-1])))


# ---------------------------------------------------------------------------
# Closed-form Marchenko-Pastur family (the white-noise anchor law)
# ---------------------------------------------------------------------------


class MarchenkoPasturLaw(_TabulatedCdf):
    """Marchenko-Pastur law with aspect ratio y and scale sigma2.

    Density (2 pi sigma2 y x)^{-1} sqrt((b-x)(x-a)) on [a, b] with
    a = sigma2 (1-sqrt(y))^2, b = sigma2 (1+sqrt(y))^2, plus an atom of mass
    max(0, 1-1/y) at zero.  The CDF table integrates the closed form under
    the substitution x = a cos^2(t) + b sin^2(t), which removes the
    square-root edges.
    """

    def __init__(self, y: float, sigma2: float = 1.0):
        if y <= 0 or sigma2 <= 0:
            raise ValueError("y and sigma2 must be positive")
        self.y = float(y)
        self.sigma2 = float(sigma2)
        root = math.sqrt(self.y)
        self.a = self.sigma2 * (1.0 - root) ** 2
        self.b = self.sigma2 * (1.0 + root) ** 2
        self.atom = max(0.0, 1.0 - 1.0 / self.y)
        t = np.linspace(0.0, 0.5 * math.pi, _MP_TABLE_POINTS)
        x = self.a * np.cos(t) ** 2 + self.b * np.sin(t) ** 2
        span = self.b - self.a
        integrand = np.zeros_like(x)
        good = x > 0
        integrand[good] = span**2 * np.sin(2.0 * t[good]) ** 2 / (
            4.0 * math.pi * self.sigma2 * self.y * x[good]
        )
        if self.a == 0.0:
            # hard edge: the substituted integrand has the finite limit
            # span * cos^2(t) / (pi sigma2 y) as t -> 0
            integrand[0] = span / (math.pi * self.sigma2 * self.y)
        cum = np.concatenate(
            [[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(t))]
        )
        # the leading (0, atom) knot interpolates to the constant atom on [0, a)
        super().__init__(
            np.concatenate([[0.0], x]),
            np.concatenate([[self.atom], self.atom + cum]),
            1.0,
            (0.0 if self.atom > 0 else float(self.a), float(self.b)),
        )

    def density(self, x):
        xs = np.asarray(x, dtype=float)
        inside = (xs > self.a) & (xs < self.b) & (xs > 0)
        out = np.zeros_like(xs)
        xi = xs[inside]
        out[inside] = np.sqrt((self.b - xi) * (xi - self.a)) / (
            _TWO_PI * self.sigma2 * self.y * xi
        )
        return out if out.shape else float(out)

    def stieltjes(self, z: complex) -> complex:
        """Explicit root of the defining quadratic, upper-half-plane branch."""
        z = complex(z)
        if z.imag <= 0:
            raise ValueError("stieltjes requires Im z > 0")
        w = z / self.sigma2
        y = self.y
        # y w m^2 + (w + y - 1) m + 1 = 0 for the unit-scale law
        disc = np.sqrt(complex((w + y - 1.0) ** 2 - 4.0 * y * w))
        for sign in (1.0, -1.0):
            m = (-(w + y - 1.0) + sign * disc) / (2.0 * y * w)
            if m.imag > 0:
                return complex(m / self.sigma2)
        raise NumericalError(f"no upper-half-plane root at z = {z!r}")


def marchenko_pastur(y: float, sigma2: float = 1.0) -> MarchenkoPasturLaw:
    """Closed-form density/CDF/Stieltjes oracle for the Marchenko-Pastur law."""
    return MarchenkoPasturLaw(y, sigma2)
