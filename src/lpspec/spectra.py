"""Empirical spectra: eigenvalues, ESD/CDF views, Stieltjes transform, distances.

The distance functions operate on "CDF-evaluable" objects: anything exposing
``cdf(x)``, ``cdf_left(x)``, ``breakpoints()``, ``support()`` and an
``is_step`` flag.  `EmpiricalCdf` is the step-function implementation used for
eigenvalue spectra; the limiting-law module provides continuous ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigensolverError",
    "EmpiricalCdf",
    "EmpiricalSpectrum",
    "empirical_stieltjes",
    "ks_distance",
    "sym_eigenvalues",
    "wasserstein1",
]

_SYMMETRY_TOL = 1e-10
_TRACE_TOL = 1e-8


class EigensolverError(RuntimeError):
    """Dense symmetric eigensolver failed to converge."""


@dataclass(frozen=True)
class EmpiricalSpectrum:
    """Sorted eigenvalues of a symmetric matrix."""

    eigenvalues: np.ndarray

    def __post_init__(self) -> None:
        ev = np.asarray(self.eigenvalues, dtype=float)
        if ev.ndim != 1 or ev.size < 1:
            raise ValueError("spectrum needs at least one eigenvalue")
        if np.any(np.diff(ev) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        object.__setattr__(self, "eigenvalues", ev)

    def cdf(self) -> "EmpiricalCdf":
        return EmpiricalCdf(self.eigenvalues)


def sym_eigenvalues(matrix) -> EmpiricalSpectrum:
    """All eigenvalues of a symmetric matrix, ascending.

    Rejects non-symmetric input (relative tolerance 1e-10).  The result is
    validated through the trace identity; a violation indicates a failed
    factorization and raises EigensolverError.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    scale = max(1.0, float(np.max(np.abs(m))))
    asym = float(np.max(np.abs(m - m.T)))
    if asym > _SYMMETRY_TOL * scale:
        raise ValueError(f"matrix is not symmetric: max |M - M^T| = {asym:.3e}")
    try:
        ev = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hardware dependent
        raise EigensolverError(f"eigvalsh failed on {m.shape[0]}x{m.shape[1]} matrix: {exc}")
    trace = float(np.trace(m))
    if abs(float(np.sum(ev)) - trace) > _TRACE_TOL * max(1.0, abs(trace)):
        raise EigensolverError(
            f"eigenvalue sum {np.sum(ev):.12g} violates trace {trace:.12g}"
        )
    return EmpiricalSpectrum(ev)


def empirical_stieltjes(spectrum: EmpiricalSpectrum, z: complex) -> complex:
    """Stieltjes transform (1/p) sum 1/(lambda_i - z), defined for Im z > 0."""
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("empirical_stieltjes requires Im z > 0")
    return complex(np.mean(1.0 / (spectrum.eigenvalues - z)))


class EmpiricalCdf:
    """Step CDF of a finite sample."""

    is_step = True

    def __init__(self, values):
        vals = np.sort(np.asarray(values, dtype=float))
        if vals.size < 1:
            raise ValueError("empty sample")
        self.values = vals

    def cdf(self, x):
        return np.searchsorted(self.values, np.asarray(x, dtype=float), side="right") / self.values.size

    def cdf_left(self, x):
        return np.searchsorted(self.values, np.asarray(x, dtype=float), side="left") / self.values.size

    def breakpoints(self) -> np.ndarray:
        return np.unique(self.values)

    def support(self) -> tuple[float, float]:
        return float(self.values[0]), float(self.values[-1])


def _evaluation_points(f, g, grid_points: int) -> np.ndarray:
    parts = [f.breakpoints(), g.breakpoints()]
    lo = min(f.support()[0], g.support()[0])
    hi = max(f.support()[1], g.support()[1])
    if not (getattr(f, "is_step", False) and getattr(g, "is_step", False)) and hi > lo:
        parts.append(np.linspace(lo, hi, grid_points))
    parts.append(np.array([lo, hi]))
    return np.unique(np.concatenate(parts))


def ks_distance(f, g, grid_points: int = 4096) -> float:
    """Kolmogorov-Smirnov distance between two CDF-evaluable objects.

    Evaluates on the union of both step/knot point sets (from the right and
    the left, so step-vs-step comparisons are exact) plus a uniform grid over
    the joint support hull whenever a continuous CDF is involved.
    """
    xs = _evaluation_points(f, g, grid_points)
    d_right = float(np.max(np.abs(np.asarray(f.cdf(xs)) - np.asarray(g.cdf(xs)))))
    d_left = float(np.max(np.abs(np.asarray(f.cdf_left(xs)) - np.asarray(g.cdf_left(xs)))))
    return max(d_right, d_left)


def wasserstein1(f, g, grid_points: int = 4096) -> float:
    """First Wasserstein distance: integral of |F - G| over the support hull.

    Midpoint rule on the partition induced by all step/knot points (exact for
    pairs of step functions) refined with a uniform grid for continuous CDFs.
    """
    xs = _evaluation_points(f, g, grid_points)
    if xs.size < 2:
        return 0.0
    mids = 0.5 * (xs[1:] + xs[:-1])
    gaps = np.diff(xs)
    return float(np.sum(np.abs(np.asarray(f.cdf(mids)) - np.asarray(g.cdf(mids))) * gaps))

