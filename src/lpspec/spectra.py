"""Empirical spectra: eigenvalues, ESD/CDF views, Stieltjes transform, distances.

The distance functions operate on "CDF-evaluable" objects: anything exposing
``cdf(x)`` (from the right), ``cdf_left(x)`` (from the left) and
``breakpoints()``, and linear between consecutive breakpoints.  `EmpiricalCdf`
is the step-function implementation used for eigenvalue spectra; the
limiting-law module provides piecewise-linear ones.  Each distance is a pure
function of its two CDFs: the module keeps no state between calls.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from pathlib import Path

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


def sym_eigenvalues(matrix, *, overwrite: bool = False) -> EmpiricalSpectrum:
    """All eigenvalues of a symmetric matrix, ascending.

    Rejects non-symmetric input (relative tolerance 1e-10).  Eigenvalues off
    the trace identity, as from a failed factorization or a non-finite
    diagonal or lower triangle (NaN ones), raise EigensolverError.

    With `overwrite` the caller hands its matrix over, as an ensemble does a
    Gram: numpy's OpenBLAS runs dsyevd in place on its upper triangle (of a
    writeable C-ordered copy if need be) without the GIL, with `eigvalsh`'s
    bits at one BLAS thread.  By default, or without it, `eigvalsh` solves.
    """
    m = np.require(matrix, float, "CAW") if overwrite else np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    asym, rows = 0.0, max(1, 2**14 // max(len(m), 1))  # a block of differences is at most 128 KB
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN, which the trace check refuses
        for i in range(0, len(m), rows):  # max |M - M^T| on the upper triangle; a NaN propagates
            d = m[i:i + rows, i:] - m[i:, i:i + rows].T
            asym = float(np.abs(d, out=d).max(initial=asym))
        trace = float(np.trace(m))
    if asym and asym > _SYMMETRY_TOL * max(1.0, float(m.max()), -float(m.min())):
        raise ValueError(f"matrix is not symmetric: max |M - M^T| = {asym:.3e}")
    lib = _openblas() if overwrite else None
    if lib is None:
        try:
            ev = np.linalg.eigvalsh(m)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"eigvalsh failed on {m.shape[0]}x{m.shape[1]} matrix: {exc}")
    else:  # column-major 'L' is the row-major upper triangle
        ev = np.empty(len(m))
        info = lib.scipy_LAPACKE_dsyevd64_(102, b"N", b"L", len(m), m.ctypes.data, len(m), ev.ctypes.data)
        if info:
            raise EigensolverError(f"dsyevd failed on {len(m)}x{len(m)} matrix: info {info}")
    if not abs(float(np.sum(ev)) - trace) <= _TRACE_TOL * max(1.0, abs(trace)):  # or a NaN
        raise EigensolverError(f"eigenvalue sum {np.sum(ev):.12g} violates trace {trace:.12g}")
    return EmpiricalSpectrum(ev)


# numpy's bundled OpenBLAS entries: name -> (result type, argument types)
_I64, _PTR = ctypes.c_int64, ctypes.c_void_p
_ENTRIES = {
    "scipy_openblas_get_num_threads64_": (ctypes.c_int, []),
    "scipy_openblas_set_num_threads64_": (None, [ctypes.c_int]),
    "scipy_LAPACKE_dsyevd64_": (_I64, [ctypes.c_int, ctypes.c_char, ctypes.c_char, _I64, _PTR, _I64, _PTR]),
    "scipy_cblas_dsyrk64_": (None, [ctypes.c_int] * 3 + [_I64, _I64, ctypes.c_double, _PTR, _I64,
                                                          ctypes.c_double, _PTR, _I64]),
}


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS, loaded once per process: the library under
    numpy.libs with every entry of `_ENTRIES`, typed, or None."""
    for path in Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"):
        lib = ctypes.CDLL(str(path))
        if all(hasattr(lib, name) for name in _ENTRIES):
            for name, (restype, argtypes) in _ENTRIES.items():
                getattr(lib, name).restype, getattr(lib, name).argtypes = restype, argtypes
            return lib
    return None


def empirical_stieltjes(spectrum: EmpiricalSpectrum, z: complex) -> complex:
    """Stieltjes transform (1/p) sum 1/(lambda_i - z), defined for Im z > 0."""
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("empirical_stieltjes requires Im z > 0")
    return complex(np.mean(1.0 / (spectrum.eigenvalues - z)))


class EmpiricalCdf:
    """Step CDF of a finite sample."""

    def __init__(self, values):
        vals = np.sort(np.asarray(values, dtype=float))
        if vals.size < 1:
            raise ValueError("empty sample")
        self.values = vals
        self._knots = vals[np.concatenate([[True], np.diff(vals) != 0.0])]

    def cdf(self, x):
        return np.searchsorted(self.values, np.asarray(x, dtype=float), side="right") / self.values.size

    def cdf_left(self, x):
        return np.searchsorted(self.values, np.asarray(x, dtype=float), side="left") / self.values.size

    def breakpoints(self) -> np.ndarray:
        return self._knots


def _knot_differences(f, g) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The union knots of two CDF-evaluable objects, and F - G at each knot
    from the right and from the left.  F - G is linear between consecutive
    knots, so both distances are exact from these."""
    xs = np.union1d(f.breakpoints(), g.breakpoints())
    right = np.asarray(f.cdf(xs)) - np.asarray(g.cdf(xs))
    left = np.asarray(f.cdf_left(xs)) - np.asarray(g.cdf_left(xs))
    return xs, right, left


def ks_distance(f, g) -> float:
    """Kolmogorov-Smirnov distance between two CDF-evaluable objects (exact):
    the largest |F - G| at a knot, from the right or the left."""
    _, right, left = _knot_differences(f, g)
    return float(max(np.max(np.abs(right)), np.max(np.abs(left))))


def wasserstein1(f, g) -> float:
    """First Wasserstein distance: integral of |F - G| between the outer knots (exact).

    On each cell between knots F - G runs linearly from d0 (from the right
    at the left knot) to d1 (from the left at the right knot), so the cell
    adds h (|d0| + |d1|) / 2, or h (d0^2 + d1^2) / (2 (|d0| + |d1|)) when
    the sign changes.
    """
    xs, right, left = _knot_differences(f, g)
    d0, d1 = right[:-1], left[1:]
    a, b = np.abs(d0), np.abs(d1)
    cross = np.sign(d0) * np.sign(d1) < 0
    # a + b > 0 where the sign changes; the 1.0 fills the other cells, which may have a + b = 0
    mean = np.where(cross, (a * a + b * b) / np.where(cross, a + b, 1.0), a + b)
    return float(np.sum(0.5 * mean * np.diff(xs)))
