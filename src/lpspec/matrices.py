"""Structured matrices derived from a linear-process record.

Builders for the segmented data matrix (one long record reshaped into p rows
of n consecutive observations), its coefficient-truncated counterpart, the raw
innovation matrix, circulant and Toeplitz companions of the coefficient
sequence, and the row-normalized Gram matrix.  Everything is dense row-major;
the intended scale is p, n <= ~2000.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .process import ProcessSpec, autocovariance, draw_innovations, filtered_records
from .spectra import _openblas

__all__ = [
    "MatrixShape",
    "ShiftPolynomialPair",
    "autocovariance_matrix",
    "circulant",
    "clipped_circulant",
    "gram",
    "innovation_matrix",
    "segment_matrix",
    "shift_representation_check",
    "subdiagonal_shift",
    "truncated_segment_matrix",
]


@dataclass(frozen=True)
class MatrixShape:
    """Dimensions of the segmented matrix: p rows (segments) of length n."""

    p: int
    n: int

    def __post_init__(self) -> None:
        if self.p < 1 or self.n < 1:
            raise ValueError("shape requires p >= 1 and n >= 1")

    @property
    def cells(self) -> int:
        return self.p * self.n


def segment_matrix(record, shape: MatrixShape) -> np.ndarray:
    """The p consecutive length-n segments of a length-p*n record, as a view of it."""
    rec = np.asarray(record, dtype=float)
    if rec.ndim != 1 or rec.size != shape.cells:
        raise ValueError(f"record length {rec.size} does not match p*n = {shape.cells}")
    return rec.reshape(shape.p, shape.n)


def truncated_segment_matrix(spec: ProcessSpec, shape: MatrixShape) -> np.ndarray:
    """Segment matrix of the same record with coefficients cut at index n.

    Shares the innovation stream of ``simulate_record(spec, p*n)``, so for a
    horizon equal to n the result is bitwise identical to the untruncated
    matrix.
    """
    kernel = spec.coefficient_array()[: shape.n + 1]
    return next(filtered_records(spec, shape.cells, kernel)).reshape(shape.p, shape.n)


def innovation_matrix(spec: ProcessSpec, shape: MatrixShape) -> np.ndarray:
    """(p+1) x n matrix of raw innovations from the record's own stream.

    Row i holds the draws with indices (i-2)n+1 .. (i-1)n, so the first row
    carries the negative/zero indices 1-n .. 0 and rows 2..p+1 line up with
    the p record segments.  Requires horizon >= n; a shorter horizon means
    the record's stream never drew those indices.
    """
    if spec.horizon < shape.n:
        raise ValueError(
            f"stream misalignment: horizon {spec.horizon} < n = {shape.n}; the "
            "record's innovation stream does not cover indices down to 1-n"
        )
    j = spec.horizon
    draws = draw_innovations(spec.innovations, j + shape.cells)
    return draws[j - shape.n : j + shape.cells].reshape(shape.p + 1, shape.n).copy()


def clipped_circulant(coeffs, n: int) -> np.ndarray:
    """n x (n+1) wrap-around coefficient matrix: entry (i,j) is c[(n+j-i) mod (n+1)].

    Equals the full (n+1) x (n+1) circulant of the zero-padded coefficient
    list with its last row (the row carrying c_0..c_n in natural order)
    removed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    c = _padded(coeffs, n + 1)
    i = np.arange(1, n + 1)[:, None]
    j = np.arange(1, n + 2)[None, :]
    return c[(n + j - i) % (n + 1)]


def circulant(coeffs, m: int) -> np.ndarray:
    """m x m circulant with entry (i,j) = c[(m-1+j-i) mod m], zero-padded."""
    if m < 1:
        raise ValueError("m must be >= 1")
    c = _padded(coeffs, m)
    i = np.arange(1, m + 1)[:, None]
    j = np.arange(1, m + 1)[None, :]
    return c[(m - 1 + j - i) % m]


def _padded(coeffs, m: int) -> np.ndarray:
    c = np.asarray(coeffs, dtype=float)
    if c.size >= m:
        return c[:m].copy()
    return np.concatenate([c, np.zeros(m - c.size)])


def autocovariance_matrix(coeffs, m: int) -> np.ndarray:
    """Symmetric Toeplitz matrix of autocovariances gamma(|i-j|)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    gam = np.array([autocovariance(coeffs, h) for h in range(m)])
    idx = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
    return gam[idx]


def gram(matrix, out: np.ndarray | None = None) -> np.ndarray:
    """Row-normalized Gram matrix M M^T / p, where p is the row count.

    The product is divided by p in place, so the Gram is the only array made.
    Given `out`, a zeroed C-ordered float64 array, M M^T is added to its upper
    triangle instead (all of it without the OpenBLAS binding), undivided: the
    triangle that `sym_eigenvalues(out, overwrite=True)` reads."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError("gram expects a 2-d matrix")
    if out is None:
        # numpy forms m @ m.T with syrk and mirrors the triangle: exactly symmetric
        product = m @ m.T
        product /= m.shape[0]
        return product
    lib, a = _openblas(), np.asfortranarray(m)  # the transpose of a C-ordered block is a view
    if lib is None:
        out += a @ a.T
    else:  # row-major, upper, transposed: out += (a^T)^T a^T, with beta = 1
        lib.scipy_cblas_dsyrk64_(101, 121, 112, len(m), m.shape[1], 1.0, a.ctypes.data, len(m), 1.0,
                                 out.ctypes.data, len(m))
    return out


def subdiagonal_shift(m: int) -> np.ndarray:
    """m x m nilpotent shift with ones on the first subdiagonal."""
    return np.diag(np.ones(m - 1), -1) if m > 1 else np.zeros((1, 1))


@dataclass(frozen=True)
class ShiftPolynomialPair:
    """Shift matrix of order m with the coefficient polynomial and its reversal.

    `at_transposed_shift` evaluates ``sum_j c_j (K^T)^j`` and
    `at_shift_reversed` evaluates ``sum_j c_{m-j} K^j``; both are m x m.
    """

    order: int
    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if len(self.coeffs) < self.order + 1:
            raise ValueError("need coefficients up to the order (zero-pad)")

    @property
    def shift(self) -> np.ndarray:
        return subdiagonal_shift(self.order)

    @property
    def reversed_coeffs(self) -> tuple[float, ...]:
        return tuple(reversed(self.coeffs[: self.order + 1]))

    def at_transposed_shift(self) -> np.ndarray:
        return _matrix_poly(self.shift.T, self.coeffs[: self.order + 1])

    def at_shift_reversed(self) -> np.ndarray:
        return _matrix_poly(self.shift, self.reversed_coeffs)


def _matrix_poly(mat: np.ndarray, coeffs) -> np.ndarray:
    out = np.zeros_like(mat)
    power = np.eye(mat.shape[0])
    for k, c in enumerate(coeffs):
        if c != 0.0:
            out += c * power
        if k < len(coeffs) - 1:
            power = power @ mat
    return out


def shift_representation_check(
    spec: ProcessSpec, shape: MatrixShape, tol: float = 1e-12
) -> tuple[bool, float]:
    """Rebuild the truncated segment matrix from shift polynomials and compare.

    The truncated matrix equals a block product of two copies of the
    innovation matrix with the coefficient polynomial evaluated at the
    transposed shift and its reversal at the shift.  Both sides are built
    explicitly; returns (deviation <= tol, max abs deviation).  Intended as a
    test oracle for small shapes (p*n <= 1e4).
    """
    if shape.cells > 10**4:
        raise ValueError("shift_representation_check is limited to p*n <= 1e4")
    direct = truncated_segment_matrix(spec, shape)
    z = innovation_matrix(spec, shape)
    c = _padded(spec.coefficient_array(), shape.n + 1)
    pair = ShiftPolynomialPair(shape.n, tuple(c))
    p = shape.p
    selector = np.hstack(
        [np.zeros((p, 1)), np.eye(p), np.eye(p), np.zeros((p, 1))]
    )
    stacked = np.vstack([pair.at_transposed_shift(), pair.at_shift_reversed()])
    zero = np.zeros_like(z)
    rebuilt = selector @ np.block([[z, zero], [zero, z]]) @ stacked
    deviation = float(np.max(np.abs(direct - rebuilt)))
    return deviation <= tol, deviation

