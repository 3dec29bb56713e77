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

The law is read off the explicit inverse z(s) = -1/s + r * K(s) on the real
axis (Silverstein & Choi, J. Multivariate Anal. 54, 1995), where the kernel
K(s) = mean(f/(1+fs)) and its s-derivative are evaluated for a whole array
of s at once.  Two kernels compute them:

* exact (`_Rational`) - for an ARMA density f = |b|^2/|a|^2 of order up to
  _EXACT_ORDER, f is a ratio of polynomials in u = 2 cos w and K is a finite
  residue sum over the roots of |a|^2 + s|b|^2 (a midpoint mean over
  frequencies where the MA degree is higher and |s| max f < _NEAR);
* trapezoid (`_Population`) - for FARIMA, long coefficient lists and other
  callables, the quadrature samples of f form a discrete law: values
  t_j > 0, weights w_j.

In v = -1/s, z'(s) has the sign of 1 - phi(v), phi = -r K'(-1/v) / v^2.  A
local maximum of z opens a support interval and a local minimum closes one.
phi falls through 1 once above the largest value of f: the upper edge.
Below the smallest it rises from r * share(f > 0) at v = 0, so the lower
edge lies below v = 0 when that is above 1, at 0 when it is 1 or when f has
a zero, and between 0 and the smallest value otherwise.  A continuous f
gives one interval and the atom max(0, 1 - r); between neighbouring t_j of
the discrete law, phi dips below 1 twice or never (an inner gap).  Each edge
is where phi = 1 in a bracket between these points, found by bisection that
takes several halvings per kernel sweep (`_bisect`).

`solve_lsd` makes one pass per support interval [a, b]: it builds nodes
cosine-graded in sqrt(x), solves them all by one batched Newton from the
square-root expansion at b, and follows the root to any node that Newton
leaves from its neighbour above.  The density is Im s / pi, and the CDF is
read off the same root (integrate Im s dz by parts, z = -1/s + r K(s) with
K = d/ds mean log(1 + fs)): F(x) = (x Im s + arg s - r mean arg(1 + fs)) / pi,
with principal arguments, in [0, pi] as s and 1 + fs lie in the closed
upper half-plane.  At b, s < -1/max f is real, so F(b) = 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .process import SpectralDensity

__all__ = [
    "ConvergenceError",
    "DEFAULT_VARIANT",
    "EquationVariant",
    "LsdSolution",
    "MarchenkoPasturLaw",
    "NumericalError",
    "SolverConfig",
    "all_variants",
    "law_range_violation",
    "lsd_cdf",
    "marchenko_pastur",
    "quadrature_integral",
    "solve_lsd",
    "solve_stieltjes",
]

_TWO_PI = 2.0 * math.pi
_EPS = np.finfo(float).eps
# knots of the Marchenko-Pastur CDF table
_MP_TABLE_POINTS = 4096
# Newton: steps tried per point, splits of one march step (nested, and in
# all), and the residual relative to |z| + |1/s| that converges
_MAX_ITERATIONS, _HALVINGS, _SPLITS, _RESIDUAL_TOL = 60, 30, 64, 1e-12
# the largest rounding noise of K1, relative to K1, that the residual may keep
_NOISE_CAP = 1e-8
# halvings per edge, kernel.levels of them per kernel sweep (`_bisect`), matrix
# entries per block of the trapezoid kernel, and the grid points each support
# interval gets when the grid allows
_BISECTIONS, _SCAN_ENTRIES, _MIN_INTERVAL_POINTS = 50, 1 << 16, 16
# kernel.levels of the exact kernel of order up to 2, and of order 3, whose
# roots take an eigvals per point
_RATIONAL_LEVELS = 6, 3
# the highest order of a rational f whose kernel is summed by residues
_EXACT_ORDER = 3
# the peaks of f the solver handles: bisected at y in {0.1, 1, 10} on both
# kernels, it solves peaks from about 5e-109 to 1.3e102
_PEAK_RANGE = 1e-101, 1e101
# the aspect ratios it handles: swept in quarter decades over seven laws on
# both kernels and the four equations, it solves or raises one error without
# a floating-point warning from y = 1e-17 to 1e17, and overflows from about
# 1e-30 and 1e20 on
_RATIO_RANGE = 1e-16, 1e16
# frequencies on [0, pi] that sample a rational f for its median
_MEDIAN_SAMPLES = 512
# where |s| max f < _NEAR, a kernel whose MA degree exceeds its AR degree takes
# the midpoint mean over at most _NEAR_SAMPLES frequencies (`_Rational._near`)
_NEAR, _NEAR_SAMPLES = 0.1, 1 << 13
# an interval reaching below the median m of f is graded in decades
# (`_nodes`) where sqrt(m) < _DECADES_BELOW sqrt(b); that grading solves no
# node below _FLOOR b
_DECADES_BELOW, _FLOOR = 0.1, 1e-14


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
    """Frequencies of the trapezoid kernel and of `quadrature_integral`; the
    exact kernel of an ARMA density of order up to _EXACT_ORDER ignores them."""

    quadrature_points: int = 2048

    def __post_init__(self) -> None:
        if self.quadrature_points < 2:
            raise ValueError("quadrature_points must be >= 2")


DEFAULT_CONFIG = SolverConfig()


def _density_values(f, grid: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(grid), dtype=float)
    if vals.shape != grid.shape:
        vals = np.broadcast_to(vals, grid.shape).astype(float)
    if np.min(vals) < -1e-12:
        raise ValueError("spectral density must be non-negative")
    return np.clip(vals, 0.0, None)


def _frequencies(config: SolverConfig) -> np.ndarray:
    return np.linspace(0.0, _TWO_PI, config.quadrature_points, endpoint=False)


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
    mean = complex(np.mean(_integrand(_density_values(f, _frequencies(config)), complex(s))))
    return mean * _TWO_PI if variant.normalization == "raw" else mean


# ---------------------------------------------------------------------------
# The kernel: K1(s) = mean(f/(1+fs)) and K2(s) = mean(f^2/(1+fs)^2) = -K1'(s)
# and the mean of arg(1 + fs) (`arg_mean`) at a whole array of s.  Each
# kernel also knows the range [low, high] of f, its median, the share of
# frequencies where f > 0, and the inner gaps of its support.
# ---------------------------------------------------------------------------


def _cosine_poly(coeffs: np.ndarray) -> np.ndarray:
    """|c(e^{iw})|^2 as a polynomial in u = 2 cos w, in ascending powers:
    gamma_0 + sum_k gamma_k C_k(u) with gamma_k = sum_j c_j c_{j+k} and
    C_k(u) = 2 cos(k w) = u C_{k-1}(u) - C_{k-2}(u), C_0 = 2, C_1 = u."""
    gamma = np.correlate(coeffs, coeffs, "full")[coeffs.size - 1:]
    out, before, term = np.zeros(gamma.size), np.zeros(gamma.size), np.zeros(gamma.size)
    out[0], before[0] = gamma[0], 2.0
    term[min(1, gamma.size - 1)] = 1.0  # C_1 = u, unless f is constant
    for g in gamma[1:]:
        out += g * term
        before, term = term, np.concatenate([[0.0], term[:-1]]) - before
    return out


def _branch(u: np.ndarray) -> np.ndarray:
    """w = sqrt(u^2 - 4) on the branch with |u - w| < 2, where the root
    (u - w)/2 of zeta^2 - u zeta + 1 lies inside the unit disk; the mean over
    frequencies of 1/(2 cos w - u) is -1/w."""
    w = np.sqrt((u - 2.0) * (u + 2.0))
    return np.where((u.conj() * w).real < 0.0, -w, w)


class _Rational:
    """Exact kernel of f = B(u)/A(u), u = 2 cos w, summed by residues.

    At each s the m roots u_k of Q = A + sB give the partial fractions
    B/Q = c + sum_k r_k/(u - u_k) with r_k = B(u_k)/Q'(u_k).  The mean over w
    of 1/(u - c) is -1/w(c) (`_branch`), and the mean of a product of two
    poles is the divided difference of -1/w.
    """

    share = 1.0  # f > 0 off a finite set

    def __init__(self, ma: np.ndarray, ar: np.ndarray):
        num, den = _cosine_poly(ma), _cosine_poly(ar)
        self.order = m = max(num.size, den.size) - 1
        self.levels = _RATIONAL_LEVELS[m > 2]
        self.num, self.den = (np.pad(c, (0, m + 1 - c.size)) for c in (num, den))
        # f is extreme on [-2, 2] at an end or at a real root of B'A - BA'
        # (the real parts of its other roots only add samples of f)
        u = np.array([-2.0, 2.0])
        if m:
            powers = np.arange(1, m + 1)
            slope = np.convolve(self.num[1:] * powers, self.den) \
                - np.convolve(self.num, self.den[1:] * powers)
            u = np.append(u, np.clip(np.roots(slope[::-1]).real, -2.0, 2.0))
        den = np.polyval(self.den[::-1], u)
        vals = np.polyval(self.num[::-1], u) / den
        # a least value within the rounding of B's terms is a zero of f
        noise = 2.0 * (m + 1) * _EPS * np.polyval(np.abs(self.num[::-1]), np.abs(u)) / den
        least = int(np.argmin(vals))
        self.low = float(vals[least]) if vals[least] > noise[least] else 0.0
        self.high = float(vals.max())
        self.median = float(np.median(self._midpoints(_MEDIAN_SAMPLES)))
        # where A has the lower degree, c = 1/s and the residues cancel it as
        # |s| max f -> 0.  There the midpoint mean over n frequencies is exact
        # to rounding once rho^(2n) <= eps, rho the largest modulus of a root
        # zeta of A inside the unit disk, u = zeta + 1/zeta (`_branch`)
        self.samples, self.radius = None, 0.0  # no s is close
        if self.den[m] == 0.0:
            u = np.roots(self.den[::-1]).astype(complex)
            rho, n = np.abs(0.5 * (u - _branch(u))).max(initial=0.0), _MEDIAN_SAMPLES
            while rho ** (2 * n) > _EPS and n < _NEAR_SAMPLES:
                n *= 2
            if rho ** (2 * n) <= _EPS:
                self.samples, self.radius = self._midpoints(n), _NEAR / self.high

    def _midpoints(self, n: int) -> np.ndarray:
        """f at the midpoints of n equal panels of [0, pi]."""
        u = 2.0 * np.cos((np.arange(n) + 0.5) * (math.pi / n))
        return np.polyval(self.num[::-1], u) / np.polyval(self.den[::-1], u)

    def _near(self, s: np.ndarray):
        """K1, K2 and their noise eps |K1| as midpoint means over the samples,
        taken where |s| < radius = _NEAR / max f."""
        t, parts = self.samples, []
        for block in _blocks(s, t.size):
            a = t / (1.0 + block[:, None] * t)
            parts.append((a.mean(axis=1), (a * a).mean(axis=1)))
        k1, k2 = (np.concatenate(part) for part in zip(*parts))
        return k1, k2, _EPS * np.abs(k1)

    def _roots(self, q: np.ndarray) -> np.ndarray:
        """The m roots u_k of Q at each row of q, at order 2 without cancellation."""
        m = self.order
        if m < 2:
            return -q[:, :m] / q[:, m:]
        if m == 2:
            d = np.sqrt(q[:, 1] ** 2 - 4.0 * q[:, 2] * q[:, 0])
            t = -0.5 * (q[:, 1] + np.where((q[:, 1].conj() * d).real < 0.0, -d, d))
            return np.column_stack([t / q[:, 2], q[:, 0] / t])
        companion = np.zeros((q.shape[0], m, m), dtype=complex)
        companion[:, 1:, :-1] = np.eye(m - 1)
        companion[:, :, -1] = -q[:, :m] / q[:, m:]
        return np.linalg.eigvals(companion)

    def arg_mean(self, s) -> np.ndarray:
        """mean over w of arg(1 + fs) = Arg(q_m prod_k -(u_k + w_k)/2): the
        mean of log(u - u_k) is log(-(u_k + w_k)/2), w_k = `_branch(u_k)`,
        that of log A is real, and A + sB does not wind around 0."""
        s = np.asarray(s, dtype=complex)
        q = self.den + s[:, None] * self.num
        u = self._roots(q)
        arg = np.angle(q[:, -1] * np.prod(-0.5 * (u + _branch(u)), axis=1))
        close = np.abs(s) < self.radius
        if close.any():
            t = self.samples
            arg[close] = np.concatenate([np.angle(1.0 + block[:, None] * t).mean(axis=1)
                                         for block in _blocks(s[close], t.size)])
        return arg

    def __call__(self, s):
        s = np.asarray(s, dtype=complex)
        k1, k2, noise = self._residues(s)
        close = np.abs(s) < self.radius
        if close.any():
            k1[close], k2[close], noise[close] = self._near(s[close])
        return k1, k2, noise

    def _residues(self, s: np.ndarray):
        """K1, K2 and the rounding noise of K1 from the roots of Q."""
        m, num = self.order, self.num
        q = self.den + s[:, None] * num  # Q, ascending in u
        c = num[m] / q[:, m]  # B/Q at u = infinity
        if m == 0:
            return c, c * c, _EPS * np.abs(c)
        if m == 1:  # one pole: no pairs, and the root is off by eps 2|u|
            u = self._roots(q)[:, 0]
            r = (num[0] + num[1] * u) / q[:, 1]
            w = _branch(u)
            rg, rdg = -r / w, r * u / w**3
            noise = _EPS * (np.abs(c) + np.abs(rg) + 2.0 * np.abs(rdg * u))
            return c + rg, c * c + 2.0 * c * rg + r * rdg, noise
        if m == 2:
            return self._quadratic(q, c)
        u = self._roots(q)
        diff = u[:, :, None] - u[:, None, :]
        diff[:, range(m), range(m)] = 1.0
        slope = q[:, m:] * diff.prod(axis=2)  # Q'(u_k)
        r = np.polyval(num[::-1], u) / slope
        w = _branch(u)
        g, dg = -1.0 / w, u / w**3
        uj, uk, wj, wk = u[:, :, None], u[:, None, :], w[:, :, None], w[:, None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            # (g_j - g_k)/(u_j - u_k) = (u_j + u_k)/(w_j w_k (w_j + w_k)), which
            # is g' at j = k; a pair u, -u takes the first form
            pair = np.where(np.abs(wj + wk) >= np.abs(wj - wk), (uj + uk) / (wj * wk * (wj + wk)),
                            (g[:, :, None] - g[:, None, :]) / diff)
        rg = r * g
        # rounding noise of K1: eps in each term, and the error
        # eps (sum_j |q_j| |u|^j / |Q'(u)| + |u|) of each root, which g' magnifies
        # near u = +-2 and r_k magnifies by 1/|u_k - u_j| near another root
        spread = np.abs(q[:, m:])
        for coeff in np.abs(q[:, m - 1::-1].T):
            spread = spread * np.abs(u) + coeff[:, None]
        error = spread / np.abs(slope) + np.abs(u)  # at least the rounding of u
        near = ((error[:, :, None] + error[:, None, :]) / np.abs(diff)).sum(axis=2) - 2.0 * error
        terms = np.abs(r * dg) * error + np.abs(rg) * (1.0 + near)
        noise = _EPS * (np.abs(c) + terms.sum(axis=1))
        rg = rg.sum(axis=1)
        return c + rg, c * c + 2.0 * c * rg + np.einsum("sj,sk,sjk->s", r, r, pair), noise

    def _quadratic(self, q: np.ndarray, c: np.ndarray):
        """The order-2 kernel.  Where the two roots close in, within 1 of
        each other, the residues grow as 1/(u1 - u2) and cancel, so there
        K1 = c + (Bg)[u1, u2]/q2 and K2 = c^2 + 2c (K1 - c)
        + (B^2 g)[u1, u1, u2, u2]/q2^2, with the divided differences of the
        product by Leibniz's rule; elsewhere the partial fractions."""
        num, q2 = self.num, q[:, 2]
        u1, u2 = self._roots(q).T
        w1, w2 = _branch(u1), _branch(u2)
        g1, g2, dg1, dg2 = -1.0 / w1, -1.0 / w2, u1 / w1**3, u2 / w2**3
        b1, b2 = (num[0] + (num[1] + num[2] * u) * u for u in (u1, u2))
        b12, delta = num[1] + num[2] * (u1 + u2), u1 - u2  # B[u1, u2]
        r1, r2 = b1 / (q2 * delta), -b2 / (q2 * delta)
        close = np.abs(delta) < 1.0
        # roots on either side of the cut [-2, 2] (or a pair u, -u) differ
        # in g: there plain difference quotients are exact enough
        across = np.abs(w1 + w2) < np.abs(w1 - w2)
        with np.errstate(divide="ignore", invalid="ignore"):
            g12 = np.where(across, (g1 - g2) / delta, (u1 + u2) / (w1 * w2 * (w1 + w2)))
            g112, g122 = (dg1 - g12) / delta, (g12 - dg2) / delta
            leibniz = (b1 * b1 * (g112 - g122) / delta + (b1 + b2) * b12 * g122
                       + b12 * b12 * g12) / (q2 * q2)
        fractions = r1 * r1 * dg1 + r2 * r2 * dg2 + 2.0 * r1 * r2 * g12
        bg = 0.5 * (b12 * (g1 + g2) + (b1 + b2) * g12)  # (Bg)[u1, u2]
        k1 = c + np.where(close, bg / q2, r1 * g1 + r2 * g2)
        k2 = c * c + 2.0 * c * (k1 - c) + np.where(close & across, leibniz, fractions)
        # rounding noise of K1: eps in each term, and the error of each root,
        # eps (sum_j |q_j| |u|^j / |Q'(u)| + |u|), times the slope of K1 in
        # it; that of (Bg)[u1, u2] in u1 is (Bg)[u1, u1, u2], by Leibniz's rule
        a0, a1, a2 = np.abs(q.T) / np.abs(q2 * delta)
        e1, e2 = (a0 + np.abs(u) * (a1 + np.abs(u) * a2) + np.abs(u) for u in (u1, u2))
        s1, s2 = ((np.abs(b * g3) + np.abs((num[1] + 2.0 * num[2] * u) * g12) + np.abs(num[2] * g))
                  for b, g3, u, g in ((b1, g112, u1, g2), (b2, g122, u2, g1)))
        near = (0.5 * (np.abs(b12) * (np.abs(g1) + np.abs(g2)) + (np.abs(b1) + np.abs(b2)) * np.abs(g12))
                + e1 * s1 + e2 * s2) / np.abs(q2)
        far = np.abs(r1 * g1) + np.abs(r2 * g2) + e1 * np.abs(r1 * dg1) + e2 * np.abs(r2 * dg2)
        return k1, k2, _EPS * (np.abs(c) + np.where(close, near, far))

    def gaps(self, scale: float):
        """A continuous f leaves no gap inside the support."""
        return (np.empty(0),) * 3

    def weight_below(self, v: np.ndarray) -> np.ndarray:
        return np.full(v.shape, self.share)


class _Population:
    """Trapezoid kernel: the quadrature samples of f as a discrete law, with
    distinct values t_j > 0 (samples at the rounding level of the largest are
    zeros), weights w_j and their total `share`.  A SpectralDensity is even
    in w, so only its samples on [0, pi] are taken, with double weight inside."""

    levels = 1  # its cost grows with the points of a sweep

    def __init__(self, f, config: SolverConfig):
        q = config.quadrature_points
        grid = _frequencies(config)
        weights = np.ones(q)
        if isinstance(f, SpectralDensity):
            grid, weights = grid[:q // 2 + 1], weights[:q // 2 + 1]
            weights[1:(q + 1) // 2] = 2.0
        t, which = np.unique(_density_values(f, grid), return_inverse=True)
        if t[-1] <= 0.0:
            raise ValueError("spectral density must not vanish identically")
        positive = t > _EPS * t[-1]
        counts = np.bincount(which, weights)[positive]
        self.t, self.w, self.share = t[positive], counts / q, float(counts.sum()) / q
        self.low, self.high = float(self.t[0]), float(self.t[-1])
        # the zero samples, a share 1 - share, lie below every t
        half = np.searchsorted(np.cumsum(self.w), self.share - 0.5)
        self.median = float(self.t[half]) if self.share > 0.5 else 0.0

    @functools.cached_property
    def inverse(self) -> np.ndarray:
        """1/t, taken once `_kernel` has found the peak of f in range: a
        subnormal peak would overflow it."""
        return 1.0 / self.t

    def __call__(self, s):
        s = np.asarray(s)
        sums = []
        for block in _blocks(s, self.t.size):
            a = 1.0 / (self.inverse + block[:, None])  # t/(1 + ts)
            sums.append((a @ self.w, (a * a) @ self.w))
        k1, k2 = (np.concatenate(part) for part in zip(*sums))
        return k1, k2, _EPS * np.abs(k1)

    def arg_mean(self, s) -> np.ndarray:
        """mean of arg(1 + fs), in the blocks of `__call__`."""
        return np.concatenate([np.angle(1.0 + self.t * b[:, None]) @ self.w
                               for b in _blocks(s, self.t.size)])

    def gaps(self, scale: float):
        """Gaps (t_j, v, t_{j+1}) between neighbouring values where phi dips
        below 1 at v.  The terms of t_j and t_{j+1} alone keep phi above
        (cbrt(A) + cbrt(B))^3 / gap^2, so only gaps where that is below 1 can
        dip; v is where phi is least, where its slope, a negative multiple of
        sum_j w_j t_j^2 / (v - t_j)^3, changes sign."""
        t, w = self.t, self.w
        near = scale * w * t * t
        gaps = np.flatnonzero((np.cbrt(near[:-1]) + np.cbrt(near[1:])) ** 3 < np.diff(t) ** 2)
        lo, hi = t[gaps], t[gaps + 1]
        vmin = _bisect(lambda v: -_pole_sums(v.ravel(), t, w / t, scale, 3).reshape(v.shape),
                       lo, hi, self.levels)
        dips = _pole_sums(vmin, t, w, scale, 2) < 1.0
        return lo[dips], vmin[dips], hi[dips]

    def weight_below(self, v: np.ndarray) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(self.w)])[np.searchsorted(self.t, v)]


def _kernel(f, config: SolverConfig):
    """The exact kernel for a SpectralDensity of order up to _EXACT_ORDER,
    else the trapezoid kernel on config.quadrature_points frequencies.
    Raises NumericalError when the peak of f lies outside _PEAK_RANGE."""
    kernel = None
    if isinstance(f, SpectralDensity) and np.any(f.ma_coeffs) and np.any(f.ar_coeffs):
        # trailing coefficients below the rounding of the largest are zeros
        ma, ar = (c[:np.flatnonzero(np.abs(c) > _EPS * np.abs(c).max())[-1] + 1]
                  for c in (f.ma_coeffs, f.ar_coeffs))
        if max(ma.size, ar.size) - 1 <= _EXACT_ORDER:
            kernel = _Rational(ma, ar)
    if kernel is None:
        kernel = _Population(f, config)
    low, high = _PEAK_RANGE
    if not low <= kernel.high <= high:
        raise NumericalError(f"spectral density peak {kernel.high!r} lies outside "
                             f"[{low:g}, {high:g}], the range the solver handles")
    return kernel


def _scale(variant: EquationVariant, y: float) -> float:
    """The variant's coefficient at ratio y.  Raises ValueError for a y that
    is no ratio, and NumericalError for one outside _RATIO_RANGE."""
    if not 0.0 < y < math.inf:
        raise ValueError(f"aspect ratio y must be finite and positive, got {y!r}")
    low, high = _RATIO_RANGE
    if not low <= y <= high:
        raise NumericalError(f"aspect ratio y = {y!r} lies outside [{low:g}, {high:g}], "
                             "the range the solver handles")
    return variant.scale(y)


def _blocks(s: np.ndarray, columns: int) -> list[np.ndarray]:
    """The rows s of a matrix with `columns` columns in the blocks of at most
    about _SCAN_ENTRIES entries that np.array_split makes, without its cost
    where one block holds them all."""
    count = 1 + s.size * columns // _SCAN_ENTRIES
    return [s] if count == 1 else np.array_split(s, count)


def _pole_sums(v: np.ndarray, t: np.ndarray, w: np.ndarray, scale: float, power: int) -> np.ndarray:
    """scale * sum_j w_j (t_j / (v - t_j))^power at each v, in blocks of rows."""
    out = []
    with np.errstate(divide="ignore"):
        for block in _blocks(v, t.size):
            ratio = term = t / (block[:, None] - t)
            for _ in range(power - 1):  # not **: a negative base takes a slow path
                term = term * ratio
            out.append(scale * (term @ w))
    return np.concatenate(out)


# ---------------------------------------------------------------------------
# Newton on the residual R(s) = 1/s + z - scale K1(s), batched over points
# ---------------------------------------------------------------------------


def _residual_parts(kernel, scale: float, s: np.ndarray, z: np.ndarray):
    """R(s), its size, R'(s) and the size that converges, at each point.

    The size takes Im R relative to Im s: Im R = Im z - Im s * B(s) is small
    near any real s with z(s) close to z, which is no root.  It converges
    within _RESIDUAL_TOL of |z| + |1/s| plus the kernel's rounding noise (at
    most _NOISE_CAP of K1), which roots of A + sB near u = +-2 or near each
    other magnify.
    """
    k1, k2, noise = kernel(s)
    inverse = 1.0 / s
    residual = inverse + z - scale * k1
    weight = np.abs(s) / s.imag
    size = np.abs(residual.real) + np.abs(residual.imag) * weight
    noise = np.minimum(noise, _NOISE_CAP * np.abs(k1))
    floor = _RESIDUAL_TOL * (np.abs(z) + np.abs(inverse)) + scale * noise * (1.0 + weight)
    return residual, size, -1.0 / (s * s) + scale * k2, floor


def _newton(kernel, scale: float, z: np.ndarray, s: np.ndarray):
    """Roots of R at the points z from starts s with Im s > 0, all at once.

    Each sweep evaluates the kernel once, at one trial step per unconverged
    point; a step is kept if it stays in the upper half-plane, lowers the
    size of R and leaves R' finite and nonzero for the next step R/R', else
    it is halved for the next sweep.  A point gets at most
    _MAX_ITERATIONS trials.  Returns the roots, R' there, the residual sizes
    and the mask of the points that converged.
    """
    s = np.array(s, dtype=complex)
    residual, size, deriv, floor = _residual_parts(kernel, scale, s, z)
    step = residual / deriv
    for _ in range(_MAX_ITERATIONS):
        live = np.flatnonzero(~(size <= floor))
        if not live.size:
            break
        trial = s[live] - step[live]
        step[live] *= 0.5  # a kept step is replaced below
        fit = (trial.imag > 0.0) & np.isfinite(trial)
        live, trial = live[fit], trial[fit]
        if not live.size:
            continue
        with np.errstate(all="ignore"):
            parts = _residual_parts(kernel, scale, trial, z[live])
        better = (parts[1] < size[live]) & np.isfinite(parts[2]) & (parts[2] != 0.0)
        keep = live[better]
        s[keep] = trial[better]
        residual[keep], size[keep], deriv[keep], floor[keep] = (part[better] for part in parts)
        step[keep] = residual[keep] / deriv[keep]
    return s, deriv, size, size <= floor


def _follow(kernel, scale: float, z_from: complex, s: complex, deriv, z_to: complex,
            curvature: float = 0.0):
    """Root at z_to and R' there, following the root s at z_from: Newton
    starts from the tangent ds/dz = -1/R'(s) (deriv = R'(s)) or, from a right
    edge (deriv None), from s + i sqrt(2 (z_from - z) / curvature).  A step
    that fails is split in half, at most _HALVINGS deep and _SPLITS times."""
    targets = [z_to]
    for _ in range(_SPLITS):
        z = targets[-1]
        if deriv is None:
            start = s + 1j * math.sqrt(2.0 * (z_from - z).real / curvature)
        else:
            start = s - (z - z_from) / deriv
            start = start if start.imag > 0.0 and math.isfinite(abs(start)) else s
        root, slope, size, converged = _newton(kernel, scale, np.array([z]), np.array([start]))
        if converged[0]:
            s, deriv, z_from = complex(root[0]), complex(slope[0]), targets.pop()
            if not targets:
                return s, deriv
        elif len(targets) > _HALVINGS or 0.5 * (z + z_from) in (z, z_from):  # no split left
            break
        else:
            targets.append(0.5 * (z + z_from))
    raise ConvergenceError(f"no convergence at z = {z!r} (residual {size[0]:.3e})",
                           z=z, residual=float(size[0]))


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
    scale = _scale(variant, y)
    kernel = _kernel(f, config)
    start = s0 if s0 is not None and s0.imag > 0 else -1.0 / z
    top = complex(z.real, max(z.imag, 4.0 * (abs(z) + (1.0 + scale) * kernel.high)))
    roots, slopes, sizes, converged = _newton(kernel, scale, np.array([z, top]),
                                              np.array([start, -1.0 / top]))
    if converged[0]:
        return complex(roots[0])
    if not converged[1]:
        raise ConvergenceError(f"no convergence at z = {top!r} (residual {sizes[1]:.3e})",
                               z=top, residual=float(sizes[1]))
    return _follow(kernel, scale, top, complex(roots[1]), complex(slopes[1]), z)[0]


def _bisect(g, lo: np.ndarray, hi: np.ndarray, levels: int) -> np.ndarray:
    """Sign changes of an increasing function g in (lo, hi), elementwise.

    _BISECTIONS halvings, `levels` per call of g (the last may take fewer):
    g is evaluated on the (brackets, 2^levels - 1) array of inner dyadic
    points, each 0.5 (lo + hi) of its two parents, and bisection's choices
    are replayed on their signs, so every point and choice is bisection's.
    """
    points = np.column_stack([lo, hi])
    for done in range(0, _BISECTIONS, levels):
        width = 1 << min(levels, _BISECTIONS - done)
        ends, points = points, np.empty((lo.size, width + 1))
        points[:, ::width] = ends
        half = width
        while half > 1:  # the midpoints of each level from those of the last
            step, half = half, half // 2
            points[:, half::step] = 0.5 * (points[:, :-half:step] + points[:, step::step])
        up = g(points[:, 1:-1]) > 0.0
        while width > 1:  # g > 0 at the midpoint: keep the lower half
            width //= 2
            keep = up[:, width - 1:width]
            points = np.where(keep, points[:, :width + 1], points[:, width:])
            if width > 1:
                up = np.where(keep, up[:, :width - 1], up[:, width:])
    return 0.5 * (points[:, 0] + points[:, 1])


# a support interval [a, b] (a = 0: a hard edge), the root at b and z'' there,
# which seed the density march, and the weight of f's values it holds
_Interval = NamedTuple("_Interval", [("a", float), ("b", float), ("s_b", float),
                                     ("curvature", float), ("weight", float)])


def _support(kernel, scale: float) -> list[_Interval]:
    """Support intervals of the law, from the critical points of z(s): all
    brackets of phi = 1 are bisected at once, kernel.levels halvings per
    kernel sweep, more where a sweep's cost hardly grows with its points."""
    def z_phi(v):  # z and phi at v = -1/s, in the shape of v
        s = -1.0 / v
        k1, k2, _ = kernel(s.ravel())
        return v + scale * k1.real.reshape(v.shape), scale * (s * s * k2.reshape(v.shape)).real

    reach = math.sqrt(scale) * kernel.high  # phi < 1 beyond it from every value of f
    lo, vmin, hi = kernel.gaps(scale)
    # in v order the lower edge and the maxima of z open, the minima and the
    # upper edge close.  Below the lowest value of f phi rises to
    # scale * share at v = 0; where that is at most 1 and f has a zero, the
    # lower edge is 0
    hard = int(scale * kernel.share <= 1.0 and kernel.low == 0.0)
    lower = (-reach, 0.0) if scale * kernel.share > 1.0 else (0.0, kernel.low)
    opening = np.append(lower[0], vmin)[hard:], np.append(lower[1], hi)[hard:]
    closing = np.append(lo, kernel.high), np.append(vmin, kernel.high + reach)
    sign = np.repeat([1.0, -1.0], [opening[0].size, closing[0].size])
    brackets = map(np.concatenate, zip(opening, closing))
    v = _bisect(lambda v: sign[:, None] * (z_phi(v)[1] - 1.0), *brackets, kernel.levels)
    z, phi_v = z_phi(v)
    # at a hard edge (scale * share = 1) z falls from 0 below the lowest value
    opens = np.append(np.zeros(hard), np.maximum(z[sign > 0], 0.0))
    closes, v_close = z[sign < 0], v[sign < 0]
    edges = np.column_stack([opens, closes]).ravel()
    if np.any(np.diff(edges) <= 0.0):
        x = float(edges[np.argmax(np.diff(edges) <= 0.0)])
        residual = float(np.max(np.abs(phi_v - 1.0)))
        raise ConvergenceError(f"edge search: support edges out of order at x = {x!r} "
                               f"(residual {residual:.3e})", z=complex(x), residual=residual)
    # z'' at each upper edge, by a central difference of z'(s) = 1/s^2 - scale K2(s)
    # whose step stays off the kernel's pole at s = -1/max f
    s_b = -1.0 / v_close
    h = np.minimum(1e-5 * np.abs(s_b), 0.1 * np.abs(s_b + 1.0 / kernel.high))
    ends = np.concatenate([s_b - h, s_b + h])
    slopes = (1.0 / ends**2 - scale * kernel(ends)[1].real).reshape(2, -1)
    curvature = (slopes[1] - slopes[0]) / (2.0 * h)
    bad = np.flatnonzero(~(np.isfinite(curvature) & (curvature > 0.0)))
    if bad.size:
        x = float(closes[bad[0]])
        raise ConvergenceError(f"edge search: z'' at the upper edge x = {x!r} reads "
                               f"{curvature[bad[0]]:.3e}, not finite and positive", z=complex(x))
    weights = np.diff(kernel.weight_below(v_close), prepend=0.0)
    rows = zip(opens, closes, s_b, curvature, weights)
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


def _nodes(a: float, b: float, n: int, knee: float = math.inf) -> np.ndarray:
    """n nodes x of a law's interval [a, b], tau = (1 - cos theta)/2 at
    equally spaced theta in [0, pi].

    sqrt(x) runs from sqrt(a) to sqrt(b) linearly in tau, both edges exact,
    but at a hard edge a = 0 the node at 0, one of n + 1, is left out.  With
    a finite knee k, log(sqrt(x) + k) runs linearly in tau instead: below
    k^2 the nodes space as before, above it evenly in log x, so a law spread
    over many decades below b is resolved in each.  That map starts at the floor _FLOOR b
    where a lies below it, so its first node is inside the law.
    """
    ra, rb = math.sqrt(a), math.sqrt(b)
    hard = knee == math.inf and a == 0.0
    tau = 0.5 * (1.0 - np.cos(np.arange(n + hard) * (math.pi / (n - 1 + hard))))
    if knee == math.inf:
        rx = ra + (rb - ra) * tau
    else:
        start = max(ra, math.sqrt(_FLOOR * b))
        rx = start + (start + knee) * np.expm1(math.log((rb + knee) / (start + knee)) * tau)
    xs = rx**2
    xs[-1] = b
    if rx[0] == ra:
        xs[0] = a
    return xs[hard:]


def _interval_pass(kernel, scale: float, iv: _Interval, n: int, below: float):
    """Grid, density and CDF of one support interval [a, b]; F(a) = below.

    The nodes are those of `_nodes`, graded in decades above the knee
    sqrt(median of f) where that lies below _DECADES_BELOW sqrt(b) and
    above sqrt(a).  One batched Newton solves every node inside the law from
    the square-root expansion s_b + i sqrt(2 (b - x) / z''(s_b)) at b, and a
    node it leaves is followed from its neighbour above.  The CDF at each
    node inside the law and at b is read off its root (module docstring).
    """
    knee = math.sqrt(kernel.median)
    wide = knee < _DECADES_BELOW * math.sqrt(iv.b) and math.sqrt(iv.a) < knee
    xs = _nodes(iv.a, iv.b, n, knee if wide else math.inf)
    lo = int(xs[0] == iv.a)  # 0: the first node is inside the law
    inner = xs[lo:-1].astype(complex)
    start = iv.s_b + 1j * np.sqrt(2.0 * (iv.b - inner.real) / iv.curvature)
    u, slopes, _, converged = _newton(kernel, scale, inner, start)
    for i in np.flatnonzero(~converged)[::-1]:  # from node i + 1, or from b
        above = (complex(inner[i + 1]), complex(u[i + 1]), complex(slopes[i + 1])) \
            if i + 1 < inner.size else (complex(iv.b), complex(iv.s_b), None)
        x = complex(inner[i])
        try:
            u[i], slopes[i] = _follow(kernel, scale, *above, x, iv.curvature)
        except ConvergenceError as exc:
            raise ConvergenceError(f"density: solve failed at x = {x.real!r}: {exc}",
                                   z=x, residual=exc.residual) from exc
    roots = np.append(u, iv.s_b)  # real at b, where the density is 0
    rho, cdf = np.zeros(xs.size), np.full(xs.size, below)
    rho[lo:] = roots.imag / math.pi
    cdf[lo:] = (xs[lo:] * roots.imag + np.angle(roots) - scale * kernel.arg_mean(roots)) / math.pi
    return xs, rho, cdf


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

    def mass(self) -> float:
        """The CDF at the upper edge of the support."""
        return float(self.cdf_values[-1])

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
                           self.support)

    def to_json(self) -> dict:
        return {"y": self.y, "variant": self.variant.label, "grid": self.grid.tolist(),
                "density": self.density.tolist(), "cdf": self.cdf_values.tolist(),
                "atom": self.atom_at_zero, "support": list(self.support)}

    @classmethod
    def from_json(cls, doc: dict) -> "LsdSolution":
        arrays = [np.asarray(doc[key], dtype=float) for key in ("grid", "density", "cdf")]
        return cls(float(doc["y"]), EquationVariant.parse(doc["variant"]), *arrays,
                   float(doc["atom"]), tuple(map(float, doc["support"])))


# Slack of the invariant "atom and CDF in [0, 1]": both are exact up to rounding
_ROUNDING_SLACK = 1e-12


def law_range_violation(solution: LsdSolution) -> str | None:
    """Why a solved law leaves [0, 1], or None if its atom and CDF lie in it.

    A variant whose equation misses the rank-deficit atom reads a law below 0.
    """
    atom = solution.atom_at_zero
    low = min(atom, float(np.min(solution.cdf_values)))
    high = max(atom, float(np.max(solution.cdf_values)))
    if low >= -_ROUNDING_SLACK and high <= 1.0 + _ROUNDING_SLACK:
        return None
    return (f"invariant atom in [0, 1] and CDF in [0, 1] fails for variant "
            f"{solution.variant.label} at y = {solution.y!r}: atom {atom!r}, "
            f"CDF from {low!r} to {high!r}")


def solve_lsd(f, y: float, *, variant: EquationVariant = DEFAULT_VARIANT,
              config: SolverConfig = DEFAULT_CONFIG, grid_points: int = 1024) -> LsdSolution:
    """Full solve: support edges, density on a grid, atom at zero and CDF.

    The grid is `grid_points` nodes over the support intervals, one pass
    (`_interval_pass`) per interval.  The atom is exact, the CDF at each
    node is read off its root, and nothing is clipped or renormalized.  The
    support is the hull of the support intervals.  The direct law is solved
    and the variant's role read off it (`LsdSolution.in_role`).
    """
    scale = _scale(variant, y)
    kernel = _kernel(f, config)
    intervals = _support(kernel, scale)
    atom = float(max(0.0, 1.0 - scale * kernel.share))
    parts = []
    for iv, n in zip(intervals, _grid_sizes(intervals, grid_points)):
        parts.append(_interval_pass(kernel, scale, iv, n, parts[-1][2][-1] if parts else atom))
    xs, rho, cdf = (np.concatenate(part) for part in zip(*parts))
    direct = LsdSolution(float(y), replace(variant, role="direct"), xs, rho, cdf, atom,
                         (intervals[0].a, intervals[-1].b))
    return direct.in_role(variant.role)


class _TabulatedCdf:
    """Continuous CDF interpolated linearly through an atom at 0 and a table.

    The leading knot (0, atom) holds the atom on [0, first knot); zero below
    the origin, `right` beyond the last knot.
    """

    def __init__(self, atom: float, knots: np.ndarray, values: np.ndarray, right: float):
        self._knots = np.concatenate([[0.0], knots])
        self._values = np.concatenate([[atom], values])
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
    values = solution.cdf_values
    return _TabulatedCdf(solution.atom_at_zero, solution.grid, values, values[-1])


# ---------------------------------------------------------------------------
# Closed-form Marchenko-Pastur family (the white-noise anchor law)
# ---------------------------------------------------------------------------


class MarchenkoPasturLaw(_TabulatedCdf):
    """Marchenko-Pastur law with aspect ratio y and scale sigma2.

    Density (2 pi sigma2 y x)^{-1} sqrt((b-x)(x-a)) on [a, b] with
    a = sigma2 (1-sqrt(y))^2, b = sigma2 (1+sqrt(y))^2, plus an atom of mass
    max(0, 1-1/y) at zero.  The CDF is tabled on the solver's nodes
    (`_nodes`), hard edge at y = 1 included, by the identity of the module
    docstring at the closed-form root m of z = -1/m + 1/(1 + y m) (unit scale).
    """

    def __init__(self, y: float, sigma2: float = 1.0):
        if not (0.0 < y < math.inf and 0.0 < sigma2 < math.inf):
            raise ValueError(f"y and sigma2 must be finite and positive, got {y!r} and {sigma2!r}")
        self.y = float(y)
        self.sigma2 = float(sigma2)
        root = math.sqrt(self.y)
        self.a = self.sigma2 * (1.0 - root) ** 2
        self.b = self.sigma2 * (1.0 + root) ** 2
        self.atom = max(0.0, 1.0 - 1.0 / self.y)
        xs = _nodes(self.a, self.b, _MP_TABLE_POINTS)
        w, y = xs / self.sigma2, self.y
        m = -(w + y - 1.0) / (2.0 * y * w) + 1j * math.pi * self.sigma2 * self.density(xs)
        cdf = (w * m.imag + np.angle(m) - np.angle(1.0 + y * m) / y) / math.pi
        super().__init__(self.atom, xs, cdf, 1.0)

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
