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
* role          - whether the law is that of the p x p Gram matrix itself
                  (direct) or of the swapped-dimension n x n one (companion).

The role never enters the equation: the two Gram matrices share their nonzero
spectrum, so the companion law is read off the solved direct law, with CDF
1 - (1 - F)/r (`LsdSolution.in_role`).  All eight combinations are
implemented; the verification module adjudicates them empirically against
white-noise Monte Carlo, where the law must reduce to the Marchenko-Pastur
family.

The law is read off the explicit inverse z(s) = -1/s + r * mean(f/(1+fs))
on the real axis (Silverstein & Choi, J. Multivariate Anal. 54, 1995), with
the quadrature samples of f as a discrete law: values t_j > 0, weights w_j.
In v = -1/s, z = v (1 + r sum_j w_j t_j / (v - t_j)) and z'(s) has the sign
of 1 - phi(v), phi = r sum_j w_j t_j^2 / (v - t_j)^2.  A local maximum of z
opens a support interval and a local minimum closes one: phi falls through 1
once above the largest t_j (the upper edge), rises to r * share(f > 0) at
v = 0 below the smallest (the lower edge; a hard edge at 0 if that is 1), and
dips below 1 twice or never between neighbours (an inner gap).

`solve_lsd` makes one pass per support interval [a, b]: it builds nodes
graded in sqrt(x) by the cosine of an angle theta in [0, pi], follows the
root down them from the square-root expansion at b, and integrates the CDF
in the same theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

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
    "lsd_cdf",
    "marchenko_pastur",
    "quadrature_integral",
    "solve_lsd",
    "solve_stieltjes",
]

_TWO_PI = 2.0 * math.pi
# knots of the Marchenko-Pastur CDF table
_MP_TABLE_POINTS = 4096
# Newton: iterations per solve, step halvings per iteration (and splits per
# step of a march), and the residual relative to |z| + |1/s| that converges
_MAX_ITERATIONS, _HALVINGS, _RESIDUAL_TOL = 30, 30, 1e-12
# bisection steps per edge, matrix entries per pass of the edge search, and
# the grid points each support interval gets when the grid allows
_BISECTIONS, _SCAN_ENTRIES, _MIN_INTERVAL_POINTS = 50, 1 << 16, 16


class ConvergenceError(RuntimeError):
    """Newton or the edge search failed to reach a solution."""

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

    def __post_init__(self) -> None:
        if self.quadrature_points < 2:
            raise ValueError("quadrature_points must be >= 2")


DEFAULT_CONFIG = SolverConfig()


def _density_values(f, config: SolverConfig) -> np.ndarray:
    grid = np.linspace(0.0, _TWO_PI, config.quadrature_points, endpoint=False)
    vals = np.asarray(f(grid), dtype=float)
    if vals.shape != grid.shape:
        vals = np.broadcast_to(vals, grid.shape).astype(float)
    if np.min(vals) < -1e-12:
        raise ValueError("spectral density must be non-negative")
    return np.clip(vals, 0.0, None)


def _population(f, config: SolverConfig):
    """The quadrature samples of f as a discrete law: distinct positive values
    t, their weights w, and the share of positive samples (exact when 1)."""
    t, counts = np.unique(_density_values(f, config), return_counts=True)
    if t[-1] <= 0.0:
        raise ValueError("spectral density must not vanish identically")
    positive = t > np.finfo(float).eps * t[-1]  # rounding noise of a zero of f is a zero
    return t[positive], counts[positive] / counts.sum(), int(counts[positive].sum()) / counts.sum()


def _integrand(f_vals: np.ndarray, s: complex) -> np.ndarray:
    """f/(1+fs) at the given values of f; rejects a singular 1+fs."""
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


def _residual_parts(t: np.ndarray, w: np.ndarray, s: complex, z: complex, scale: float):
    """Residual R(s) = 1/s + z - scale * sum(w t/(1+ts)), its size and R'(s).

    The size takes Im R relative to Im s: Im R = Im z - Im s * B(s) is small
    near any real s with z(s) close to z, which is no root.
    """
    a = _integrand(t, s)
    residual = 1.0 / s + z - scale * complex(np.dot(a, w))
    size = abs(residual.real) + abs(residual.imag) * abs(s) / s.imag
    return residual, size, -1.0 / (s * s) + scale * complex(np.dot(a * a, w))


def _newton(t: np.ndarray, w: np.ndarray, scale: float, z: complex, s: complex):
    """Root of R from a start s with Im s > 0, and R' there.  Each step is
    halved until it stays in the upper half-plane and lowers the size of R."""
    residual, merit, deriv = _residual_parts(t, w, s, z, scale)
    for _ in range(_MAX_ITERATIONS):
        if merit <= _RESIDUAL_TOL * (abs(z) + abs(1.0 / s)):
            return s, deriv
        step = residual / deriv
        for _ in range(_HALVINGS):
            trial = s - step
            if trial.imag > 0.0 and math.isfinite(abs(trial)):
                try:
                    parts = _residual_parts(t, w, trial, z, scale)
                except NumericalError:
                    parts = (None, math.inf, None)
                if parts[1] < merit:
                    break
            step *= 0.5
        else:
            break
        s, (residual, merit, deriv) = trial, parts
    raise ConvergenceError(f"no convergence at z = {z!r} (residual {merit:.3e})",
                           z=z, residual=merit)


def _follow(t, w, scale: float, z_from: complex, s: complex, deriv, z_to: complex,
            curvature: float = 0.0):
    """Root at z_to and R' there, following the root s at z_from: Newton
    starts from the tangent ds/dz = -1/R'(s) (deriv = R'(s)) or, from a right
    edge (deriv None), from s + i sqrt(2 (z_from - z) / curvature); a step
    that fails is split in half."""
    targets = [z_to]
    while targets:
        z = targets[-1]
        if deriv is None:
            start = s + 1j * math.sqrt(2.0 * (z_from - z).real / curvature)
        else:
            start = s - (z - z_from) / deriv
            start = start if start.imag > 0.0 and math.isfinite(abs(start)) else s
        try:
            s, deriv = _newton(t, w, scale, z, start)
        except ConvergenceError:
            if len(targets) > _HALVINGS:
                raise
            targets.append(0.5 * (z + z_from))
            continue
        z_from = targets.pop()
    return s, deriv


def solve_stieltjes(f, y: float, z: complex, variant: EquationVariant = DEFAULT_VARIANT,
                    config: SolverConfig = DEFAULT_CONFIG, s0: complex | None = None) -> complex:
    """Value of the solved transform at one point z of the upper half-plane.

    Returns the root of the variant's equation, by Newton from `s0` (or
    -1/z) or else by following the root down from high above z.  The role
    does not enter the equation, so this is the transform of the direct-role
    law whatever the variant's role.
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("solve_stieltjes requires Im z > 0")
    if not 0.0 < y < math.inf:
        raise ValueError(f"aspect ratio y must be finite and positive, got {y!r}")
    t, w, _ = _population(f, config)
    scale = variant.scale(y)
    try:
        return _newton(t, w, scale, z, s0 if s0 is not None and s0.imag > 0 else -1.0 / z)[0]
    except ConvergenceError:
        top = complex(z.real, max(z.imag, 4.0 * (abs(z) + (1.0 + scale) * t[-1])))
        return _follow(t, w, scale, top, *_newton(t, w, scale, top, -1.0 / top), z)[0]


def _pole_sums(v: np.ndarray, t: np.ndarray, w: np.ndarray, scale: float, power: int) -> np.ndarray:
    """scale * sum_j w_j (t_j / (v - t_j))^power at each v, in blocks of rows."""
    out = []
    with np.errstate(divide="ignore"):
        for block in np.array_split(v, 1 + v.size * t.size // _SCAN_ENTRIES):
            ratio = term = t / (block[:, None] - t)
            for _ in range(power - 1):  # not **: a negative base takes a slow path
                term = term * ratio
            out.append(scale * (term @ w))
    return np.concatenate(out)


def _bisect(g, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sign changes of an increasing function g in (lo, hi), elementwise."""
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        up = g(mid) > 0.0
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    return 0.5 * (lo + hi)


# a support interval [a, b] (a = 0: a hard edge), the root at b and z'' there,
# which seed the density march, and the weight of the t_j whose clusters it holds
_Interval = NamedTuple("_Interval", [("a", float), ("b", float), ("s_b", float),
                                     ("curvature", float), ("weight", float)])


def _support(t: np.ndarray, w: np.ndarray, share: float, scale: float) -> list[_Interval]:
    """Support intervals of the law, from the critical points of z(s)."""
    def phi(v):
        return _pole_sums(v, t, w, scale, 2)

    reach = math.sqrt(scale * float(np.dot(w, t * t)))  # phi < 1 beyond it from every t_j
    # between two neighbouring t_j their terms alone keep phi above
    # (cbrt(A) + cbrt(B))^3 / gap^2, so only gaps where that is below 1 can dip
    near = scale * w * t * t
    gaps = np.flatnonzero((np.cbrt(near[:-1]) + np.cbrt(near[1:])) ** 3 < np.diff(t) ** 2)
    lo, hi = t[gaps], t[gaps + 1]
    vmin = _bisect(lambda v: -_pole_sums(v, t, w, scale, 3), lo, hi)  # phi' = 0
    dips = phi(vmin) < 1.0
    lo, hi, vmin = lo[dips], hi[dips], vmin[dips]
    # in v order the lower edge and the maxima of z open, the minima and the
    # upper edge close; below t_1 phi rises to scale * share at v = 0
    lower = (-reach, 0.0) if scale * share > 1.0 else (0.0, t[0])
    v_open = _bisect(lambda v: phi(v) - 1, np.append(lower[0], vmin), np.append(lower[1], hi))
    v_close = _bisect(lambda v: 1 - phi(v), np.append(lo, t[-1]), np.append(vmin, t[-1] + reach))
    # at a hard edge (scale * share = 1) z falls from 0 below t_1: the edge is 0
    opens = np.maximum(v_open * (1.0 + _pole_sums(v_open, t, w, scale, 1)), 0.0)
    closes = v_close * (1.0 + _pole_sums(v_close, t, w, scale, 1))
    edges = np.column_stack([opens, closes]).ravel()
    if np.any(np.diff(edges) <= 0.0):
        x = float(edges[np.argmax(np.diff(edges) <= 0.0)])
        residual = float(np.max(np.abs(phi(v_close) - 1.0)))
        raise ConvergenceError(f"edge search: support edges out of order at x = {x!r} "
                               f"(residual {residual:.3e})", z=complex(x), residual=residual)
    curvature = 2.0 * v_close**3 * (1.0 + _pole_sums(v_close, t, w, scale, 3))
    below = np.concatenate([[0.0], np.cumsum(w)])[np.searchsorted(t, v_close)]  # weight below b
    rows = zip(opens, closes, -1.0 / v_close, curvature, np.diff(below, prepend=0.0))
    return [_Interval(*map(float, row)) for row in rows]


def _grid_sizes(intervals: list[_Interval], points: int) -> np.ndarray:
    """Grid points per support interval: _MIN_INTERVAL_POINTS each (at most
    half the grid in all), the rest by weight, the remainder to the heaviest."""
    count = len(intervals)
    floor = min(_MIN_INTERVAL_POINTS, max(3, points // (2 * count)))
    if count * floor > points:
        raise ValueError(f"grid_points = {points} cannot resolve {count} support intervals "
                         f"(at least {3 * count} needed)")
    weights = np.array([iv.weight for iv in intervals])
    sizes = floor + ((points - count * floor) * weights / weights.sum()).astype(int)
    sizes[np.argmax(weights)] += points - sizes.sum()
    return sizes


def _interval_pass(t, w, scale: float, iv: _Interval, n: int):
    """Grid, density and continuous mass of one support interval [a, b]: n
    nodes (sqrt(a) + (sqrt(b) - sqrt(a)) (1 - cos theta) / 2)^2 at equally
    spaced theta in [0, pi], edges included but a hard edge at 0; the root
    followed down them from b; the trapezoid rule in theta, where rho dx/dtheta
    is smooth and vanishes at both edges."""
    hard = iv.a == 0.0
    theta = np.arange(n + hard) * (math.pi / (n - 1 + hard))
    ra, rb = math.sqrt(iv.a), math.sqrt(iv.b)
    rx = ra + (rb - ra) * 0.5 * (1.0 - np.cos(theta))
    xs = rx**2
    xs[0], xs[-1] = iv.a, iv.b
    u = np.zeros(xs.size - 2, dtype=complex)
    x_done, s, deriv = complex(iv.b), complex(iv.s_b), None
    for i in range(xs.size - 2, 0, -1):
        x = complex(xs[i])
        try:
            s, deriv = _follow(t, w, scale, x_done, s, deriv, x, iv.curvature)
        except ConvergenceError as exc:
            raise ConvergenceError(f"density: solve failed at x = {x.real!r}: {exc}",
                                   z=x, residual=exc.residual) from exc
        x_done, u[i - 1] = x, s
    rho = np.zeros(xs.size)
    rho[1:-1] = np.imag(u) / math.pi
    g = rho * rx * (rb - ra) * np.sin(theta)  # rho dx/dtheta
    mass = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(theta))])
    return xs[hard:], rho[hard:], mass[hard:]


@dataclass(frozen=True)
class LsdSolution:
    """Solved law on a grid: density, CDF, atom at zero and support hull."""

    y: float
    variant: EquationVariant
    grid: np.ndarray
    density: np.ndarray
    cdf_values: np.ndarray
    atom_at_zero: float
    support: tuple[float, float]
    density_mass: float

    def mass(self) -> float:
        """Atom plus the density integrated over the support."""
        return self.atom_at_zero + self.density_mass

    def in_role(self, role: str) -> "LsdSolution":
        """This direct-role law read in `role`.  The companion law, of the
        swapped-dimension Gram matrix, has CDF 1 - (1 - F)/r, r the effective
        ratio, computed as (F - (1 - r))/r so that a direct atom 1 - r reads 0."""
        variant = replace(self.variant, role=role)
        if self.variant.role != "direct":
            raise ValueError(f"a role is read off a direct-role law, not {self.variant.label}")
        if role == "direct":
            return self
        r = variant.effective_ratio(self.y)
        return LsdSolution(self.y, variant, self.grid, self.density / r,
                           (self.cdf_values - (1.0 - r)) / r, (self.atom_at_zero - (1.0 - r)) / r,
                           self.support, self.density_mass / r)

    def to_json(self) -> dict:
        return {"y": self.y, "variant": self.variant.label, "grid": self.grid.tolist(),
                "density": self.density.tolist(), "cdf": self.cdf_values.tolist(),
                "atom": self.atom_at_zero, "support": list(self.support),
                "density_mass": self.density_mass}

    @classmethod
    def from_json(cls, doc: dict) -> "LsdSolution":
        arrays = [np.asarray(doc[key], dtype=float) for key in ("grid", "density", "cdf")]
        support = tuple(map(float, doc["support"]))
        return cls(float(doc["y"]), EquationVariant.parse(doc["variant"]), *arrays,
                   float(doc["atom"]), support, float(doc["density_mass"]))


def solve_lsd(f, y: float, *, variant: EquationVariant = DEFAULT_VARIANT,
              config: SolverConfig = DEFAULT_CONFIG, grid_points: int = 1024) -> LsdSolution:
    """Full solve: support edges, density on a grid, atom at zero and CDF.

    The grid is `grid_points` nodes over the support intervals, one pass
    (`_interval_pass`) per interval.  The atom is exact, and nothing is
    clipped or renormalized: 1 - mass() is the quadrature error of the
    density.  The support is the hull of the support intervals.  The direct
    law is solved and the variant's role read off it (`LsdSolution.in_role`).
    """
    if not 0.0 < y < math.inf:
        raise ValueError(f"aspect ratio y must be finite and positive, got {y!r}")
    t, w, share = _population(f, config)
    scale = variant.scale(y)
    intervals = _support(t, w, share, scale)
    parts, below = [], 0.0  # below: the mass of the intervals done
    for iv, n in zip(intervals, _grid_sizes(intervals, grid_points)):
        xs, rho, mass = _interval_pass(t, w, scale, iv, n)
        parts.append((xs, rho, below + mass))
        below += mass[-1]
    xs, rho, cumulative = (np.concatenate(part) for part in zip(*parts))
    atom = float(max(0.0, 1.0 - scale * share))
    direct = LsdSolution(float(y), replace(variant, role="direct"), xs, rho, atom + cumulative,
                         atom, (intervals[0].a, intervals[-1].b), float(below))
    return direct.in_role(variant.role)


class _TabulatedCdf:
    """Continuous CDF interpolated linearly through a table that starts at 0.

    Zero below the origin, `right` beyond the last knot.
    """

    def __init__(self, knots: np.ndarray, values: np.ndarray, right: float):
        self._knots = knots
        self._values = values
        self._right = right

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


def lsd_cdf(solution: LsdSolution) -> _TabulatedCdf:
    """CDF evaluable built from a solved law: the atom at zero, then the grid CDF."""
    values = np.concatenate([[solution.atom_at_zero], solution.cdf_values])
    return _TabulatedCdf(np.concatenate([[0.0], solution.grid]), values, values[-1])


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
