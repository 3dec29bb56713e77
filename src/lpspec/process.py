"""Stationary linear processes: coefficients, simulation, and second-order structure.

A process is given by its causal moving-average representation
``X_t = sum_{j>=0} c_j Z_{t-j}`` with unit-variance innovations ``Z_t``.
This module owns

* the coefficient models (explicit list, MA(q), AR(1), ARMA, FARIMA(d)),
* innovation laws with known fourth moments,
* the autocovariance ``gamma(h) = sum_j c_j c_{j+|h|}`` and the spectral
  density ``f(w) = |sum_j c_j e^{-ijw}|^2``,
* finite-horizon record simulation with a reproducible innovation stream.

Simulation truncates the coefficient sequence at a horizon ``J``; a record of
length ``L`` consumes exactly ``J + L`` innovation draws, covering the index
range ``1-J .. L`` of the doubly infinite innovation sequence.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CoefficientModel",
    "InnovationSpec",
    "ProcessSpec",
    "SpectralDensity",
    "DecayAssumptionWarning",
    "autocovariance",
    "coefficients",
    "decay_envelope_constant",
    "default_horizon",
    "draw_innovations",
    "filtered_records",
    "simulate_record",
    "spectral_density",
    "total_energy",
    "tail_energy",
]

_CAUSALITY_TOL = 1e-10
_MAX_INDEX = 2**31
# Longest kernel convolved directly: at 256 taps that beats the FFT product
# from 17k to 2.1M draws (0.7 against 1.9 ms, 0.10 against 0.60 s).
_DIRECT_TAPS = 256
# Samples a direct filter writes back per block: the block's output is the
# only temporary beside the innovation buffer.
_BLOCK = 1 << 16


class DecayAssumptionWarning(UserWarning):
    """Coefficient sequence violates the polynomial-decay envelope."""


@dataclass(frozen=True)
class CoefficientModel:
    """Causal coefficient sequence, identified by `kind` plus parameters.

    Kinds: ``white_noise``, ``explicit``, ``ma``, ``ar1``, ``arma``,
    ``farima``.  AR/ARMA models must be causal: every root of the
    autoregressive polynomial ``1 - phi_1 z - ... - phi_p z^p`` has to lie
    strictly outside the closed unit disk.
    """

    kind: str
    coeffs: tuple[float, ...] = ()
    phi: tuple[float, ...] = ()
    theta: tuple[float, ...] = ()
    d: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("white_noise", "explicit", "ma", "ar1", "arma", "farima"):
            raise ValueError(f"unknown coefficient model kind {self.kind!r}")
        params = {"coefficients": self.coeffs, "phi": self.phi, "theta": self.theta, "d": (self.d,)}
        for key, values in params.items():
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"model: key {key!r} must be finite")
            if not math.isfinite(sum(v * v for v in values)):  # the density would overflow
                raise ValueError(f"model: key {key!r} is too large: its sum of squares overflows")
        if self.kind == "explicit":
            if not self.coeffs:
                raise ValueError("explicit model needs a non-empty coefficient list")
            if self.coeffs[0] == 0.0:
                raise ValueError("leading coefficient c_0 must be non-zero")
        if self.kind in ("ar1", "arma") and self.phi:
            bad = _noncausal_roots(self.phi)
            if bad:
                raise ValueError(
                    "autoregressive polynomial is not causal; roots inside or on "
                    f"the unit disk: {bad}"
                )
        if self.kind == "farima":
            if not (-0.5 < self.d < 0.5):
                raise ValueError(f"fractional order d={self.d} outside (-0.5, 0.5)")
            if self.d > 0.0:
                warnings.warn(
                    "long-memory fractional model (d > 0): coefficients decay like "
                    "j**(d-1) and violate the |c_j| <= C (j+1)**(-1-delta) envelope",
                    DecayAssumptionWarning,
                    stacklevel=2,
                )

    # -- constructors ---------------------------------------------------
    @classmethod
    def white_noise(cls) -> "CoefficientModel":
        return cls("white_noise")

    @classmethod
    def explicit(cls, coeffs) -> "CoefficientModel":
        return cls("explicit", coeffs=tuple(float(c) for c in coeffs))

    @classmethod
    def ma(cls, theta) -> "CoefficientModel":
        return cls("ma", theta=tuple(float(t) for t in theta))

    @classmethod
    def ar1(cls, phi: float) -> "CoefficientModel":
        return cls("ar1", phi=(float(phi),))

    @classmethod
    def arma(cls, phi, theta) -> "CoefficientModel":
        return cls("arma", phi=tuple(float(p) for p in phi), theta=tuple(float(t) for t in theta))

    @classmethod
    def farima(cls, d: float) -> "CoefficientModel":
        return cls("farima", d=float(d))

    # -- structure ------------------------------------------------------
    @property
    def finite_order(self) -> int | None:
        """Largest non-zero coefficient index, or None for infinite order."""
        if (self.kind == "farima" and self.d != 0.0) or any(self.phi):
            return None
        # without an AR part the coefficients are the list or (1, theta_1, ...)
        nz = np.nonzero(self.coeffs if self.kind == "explicit" else (1.0, *self.theta))[0]
        return int(nz[-1])

    def label(self) -> str:
        if self.kind == "white_noise":
            return "white_noise"
        if self.kind == "explicit":
            return f"explicit[{len(self.coeffs)}]"
        if self.kind == "ma":
            return f"ma({','.join(repr(t) for t in self.theta)})"
        if self.kind == "ar1":
            return f"ar1({self.phi[0]!r})"
        if self.kind == "arma":
            return f"arma(phi={list(self.phi)!r},theta={list(self.theta)!r})"
        return f"farima({self.d!r})"

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "explicit":
            out["coefficients"] = list(self.coeffs)
        elif self.kind == "ma":
            out["theta"] = list(self.theta)
        elif self.kind == "ar1":
            out["phi"] = self.phi[0]
        elif self.kind == "arma":
            out["phi"] = list(self.phi)
            out["theta"] = list(self.theta)
        elif self.kind == "farima":
            out["d"] = self.d
        return out

    @classmethod
    def from_json(cls, doc: dict) -> "CoefficientModel":
        if not isinstance(doc, dict):
            raise ValueError("model must be a JSON object")
        kind = doc.get("kind")
        if kind is None:
            raise ValueError("model: missing key 'kind'")
        allowed = {
            "white_noise": set(),
            "explicit": {"coefficients"},
            "ma": {"theta"},
            "ar1": {"phi"},
            "arma": {"phi", "theta"},
            "farima": {"d"},
        }
        if kind not in allowed:
            raise ValueError(f"model: unknown kind {kind!r}")
        unknown = set(doc) - allowed[kind] - {"kind"}
        if unknown:
            raise ValueError(f"model: unknown key {sorted(unknown)[0]!r}")
        if kind == "white_noise":
            return cls.white_noise()
        if kind == "explicit":
            return cls.explicit(_model_param(doc, "coefficients", many=True))
        if kind == "ma":
            return cls.ma(_model_param(doc, "theta", many=True))
        if kind == "ar1":
            return cls.ar1(_model_param(doc, "phi", many=False))
        if kind == "arma":
            return cls.arma(_model_param(doc, "phi", many=True, default=()),
                            _model_param(doc, "theta", many=True, default=()))
        return cls.farima(_model_param(doc, "d", many=False))


def _model_param(doc: dict, key: str, many: bool, default=None):
    """Model parameter `key` as a float or a tuple of floats; errors name the key."""
    if key not in doc:
        if default is None:
            raise ValueError(f"model: missing key {key!r}")
        return default
    try:
        values = tuple(doc[key]) if many else (doc[key],)
        if any(isinstance(v, bool) for v in values):
            raise TypeError("a boolean is not a number")
        values = tuple(float(v) for v in values)
    except (TypeError, ValueError):
        raise ValueError(
            f"model: key {key!r} must be {'a list of numbers' if many else 'a number'}"
        ) from None
    return values if many else values[0]


def _noncausal_roots(phi) -> list[complex]:
    """Roots of 1 - phi_1 z - ... - phi_p z^p with |root| <= 1 + tol."""
    # their reciprocals solve the monic w^p - phi_1 w^(p-1) - ... - phi_p = 0,
    # which a subnormal phi_p cannot overflow
    inverse = np.roots([1.0, *(-p for p in phi)])
    return [complex(1.0 / w) for w in inverse if abs(w) * (1.0 + _CAUSALITY_TOL) >= 1.0]


def coefficients(model: CoefficientModel, count: int) -> np.ndarray:
    """First `count` coefficients of the causal moving-average representation."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if model.kind == "explicit":
        c = np.zeros(count)
        src = np.asarray(model.coeffs)[:count]
        c[: src.size] = src
        return c
    if model.kind == "farima":  # c_j = c_{j-1} (j - 1 + d) / j
        j = np.arange(1, count)
        ratios = (j - 1.0 + model.d) / j
        return np.concatenate([[1.0], np.cumprod(ratios)]) if count > 1 else np.ones(1)
    # rational: white noise, MA, AR(1), ARMA
    # psi_k = theta_k + sum_i phi_i psi_{k-i}, summed from the highest lag
    # down, the order in which a direct-form IIR filter run on an impulse adds
    # the terms; p leading zeros give every lag a term.  Without an AR part
    # psi is (1, theta_1, ..., theta_q, 0, ...) exactly.
    theta = (1.0, *model.theta)[:count]
    p = len(model.phi)
    lags = [(i, model.phi[i - 1]) for i in range(p, 0, -1)]
    psi = [0.0] * p + [*theta] + [0.0] * (count - len(theta))
    for k in range(p + 1, p + count):
        acc = psi[k]
        for i, phi in lags:
            acc += phi * psi[k - i]
        psi[k] = acc
    return np.array(psi[p:])


@functools.lru_cache(maxsize=64)
def total_energy(model: CoefficientModel) -> float:
    """Sum of squared coefficients over the full (possibly infinite) sequence.

    Cached, as an ensemble asks for it once per replicate."""
    if model.kind == "explicit":
        return float(np.sum(np.square(model.coeffs)))
    if model.kind == "farima":  # closed form for the variance of the fractional filter
        if model.d == 0.0:
            return 1.0
        return math.gamma(1.0 - 2.0 * model.d) / math.gamma(1.0 - model.d) ** 2
    # rational: white noise, MA, AR(1), ARMA
    if model.kind == "ar1":
        phi = model.phi[0]
        return 1.0 / (1.0 - phi * phi)
    if not any(model.phi):
        return 1.0 + float(np.sum(np.square(model.theta)))
    # sum 4096-blocks until one is negligible; the coefficients are rebuilt
    # at twice the length each time the blocks run past them
    block, start, total, c = 4096, 0, 0.0, np.empty(0)
    while start < 2**22:
        if c.size < start + block:
            c = coefficients(model, min(2 * (start + block), 2**22))
        energy = float(c[start : start + block] @ c[start : start + block])
        total += energy
        if start > 0 and energy <= 1e-17 * total:
            return total
        start += block
    return total


def tail_energy(model: CoefficientModel, horizon: int) -> float:
    """Sum of squared coefficients beyond index `horizon`."""
    order = model.finite_order
    if order is not None:
        return 0.0 if horizon >= order else float(
            np.sum(np.square(coefficients(model, order + 1)[horizon + 1 :]))
        )
    c = coefficients(model, horizon + 1)
    return max(0.0, total_energy(model) - float(c @ c))


def default_horizon(
    model: CoefficientModel,
    n: int,
    tail_tol: float = 1e-12,
    max_horizon: int = 2**22,
) -> int:
    """Simulation horizon: max(n, smallest J with tail energy <= tail_tol * total).

    Finite-order models are exact for any J >= model order.  Raises if no
    horizon below `max_horizon` meets the tolerance (slowly decaying
    coefficients); pass a larger `tail_tol` in that case.
    """
    order = model.finite_order
    if order is not None:
        return max(n, order)
    total = total_energy(model)

    def short(c: np.ndarray, h: int) -> bool:  # the tail beyond h, from c_0..c_h
        return total - float(c[: h + 1] @ c[: h + 1]) <= tail_tol * total

    j = 1
    while j <= max_horizon:
        c = coefficients(model, j + 1)
        if short(c, j):
            lo, hi = j // 2, j
            while lo + 1 < hi:
                mid = (lo + hi) // 2
                if short(c, mid):
                    hi = mid
                else:
                    lo = mid
            return max(n, hi)
        j *= 2
    raise ValueError(
        f"no horizon <= {max_horizon} reaches tail tolerance {tail_tol:g} for "
        f"{model.label()}; relax tail_tol"
    )


def autocovariance(coeffs, h: int) -> float:
    """gamma(h) = sum_j c_j c_{j+|h|} over the available (truncated) list."""
    c = np.asarray(coeffs, dtype=float)
    h = abs(int(h))
    if h >= c.size:
        return 0.0
    return float(c[: c.size - h] @ c[h:])


def decay_envelope_constant(coeffs, delta: float) -> float:
    """Smallest C with |c_j| <= C (j+1)**(-1-delta) over the given list."""
    c = np.abs(np.asarray(coeffs, dtype=float))
    j = np.arange(c.size)
    return float(np.max(c * (j + 1.0) ** (1.0 + delta)))


_SQRT3 = math.sqrt(3.0)
_DISTRIBUTIONS = ("gaussian", "rademacher", "uniform")
_SIGMA4 = {"gaussian": 3.0, "rademacher": 1.0, "uniform": 1.8}


@dataclass(frozen=True)
class InnovationSpec:
    """Unit-variance innovation law plus the seed of its stream."""

    distribution: str = "gaussian"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.distribution not in _DISTRIBUTIONS:
            raise ValueError(
                f"unknown innovation distribution {self.distribution!r}; "
                f"choose from {_DISTRIBUTIONS}"
            )
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")

    @property
    def sigma4(self) -> float:
        """Fourth moment E Z^4 of the innovation law."""
        return _SIGMA4[self.distribution]


def draw_innovations(spec: InnovationSpec, count: int) -> np.ndarray:
    """Deterministic innovation stream of the given length."""
    rng = np.random.default_rng(int(spec.seed))
    if spec.distribution == "gaussian":
        return rng.standard_normal(count)
    if spec.distribution == "rademacher":
        return rng.integers(0, 2, size=count).astype(float) * 2.0 - 1.0
    return rng.uniform(-_SQRT3, _SQRT3, size=count)


@dataclass(frozen=True)
class ProcessSpec:
    """Simulatable process: coefficient model, innovations, truncation horizon.

    The constructor requires J >= the order of a finite-order model and, for
    infinite-order models, ``sum_{j>J} c_j^2 <= tail_tol * sum_j c_j^2``;
    slowly decaying (fractional) models need an explicitly relaxed `tail_tol`.
    """

    model: CoefficientModel
    innovations: InnovationSpec
    horizon: int
    tail_tol: float = 1e-12

    def __post_init__(self) -> None:
        if self.horizon < 0:
            raise ValueError("horizon must be non-negative")
        if not (0.0 < self.tail_tol < 1.0):
            raise ValueError("tail_tol must lie in (0, 1)")
        order = self.model.finite_order
        if order is None:
            ratio = tail_energy(self.model, self.horizon) / total_energy(self.model)
            if ratio > self.tail_tol:
                raise ValueError(
                    f"tail energy ratio {ratio:.3e} at horizon {self.horizon} exceeds "
                    f"tail_tol {self.tail_tol:g} for {self.model.label()}"
                )
        elif self.horizon < order:
            raise ValueError(f"horizon {self.horizon} is below the order {order} of "
                             f"{self.model.label()}")

    def coefficient_array(self) -> np.ndarray:
        """Fresh c_0..c_K, the record's kernel: K is the model's finite order, else J."""
        order = self.model.finite_order
        return coefficients(self.model, (self.horizon if order is None else order) + 1)


def simulate_record(spec: ProcessSpec, length: int) -> np.ndarray:
    """Simulate X_1..X_length with X_t = sum_{j=0}^{J} c_j Z_{t-j}.

    Draws the J + length innovations (indices 1-J .. length) and filters
    them by the spec's coefficients, through `filtered_records`; the result
    is bit-reproducible given (seed, horizon, distribution).  Up to
    `_DIRECT_TAPS` taps the record is a view into its J + length innovation
    buffer.  A Rademacher draw still holds an int64 and a float64 copy of
    the stream while it draws.
    """
    return next(filtered_records(spec, length, (spec.coefficient_array(),)))


def filtered_records(spec: ProcessSpec, length: int, kernels):
    """X_1..X_length filtered by each of `kernels` in turn, from one draw of
    the J + length innovations of the spec's stream (the spec's own
    coefficients are not read).  Read each record before asking for the next.

    Trailing zero coefficients are trimmed, and the K taps left must satisfy
    J >= K - 1, so that every kept output overlaps the kernel fully.  The
    unit kernel (white noise) leaves the draws as they are: its record is
    the draws themselves, which is what ``np.convolve`` writes.  Other
    kernels may overwrite the draws, so every kernel but the last must be
    the unit kernel.  Kernels of up to `_DIRECT_TAPS` taps filter the draws
    in place, from back to front one `_BLOCK` at a time: a block overwrites
    only draws that no block still to come reads, and each output is the dot
    product that ``np.convolve(draws, kernel)`` takes.  The record is then a
    view into the innovation buffer.  Longer kernels go through an FFT
    product at a power-of-two length, which moves the record at rounding
    level; the draws are released before the inverse transform.
    """
    j = spec.horizon
    if length < 1:
        raise ValueError("record length must be >= 1")
    if j + length > _MAX_INDEX:
        raise ValueError(f"record of length {length} at horizon {j} exceeds the "
                         "supported index range")
    trimmed = []
    for kernel in kernels:
        nz = np.nonzero(kernel)[0]
        kernel = kernel[: nz[-1] + 1] if nz.size else kernel[:1]
        if kernel.size > j + 1:
            raise ValueError(f"a kernel of {kernel.size} taps needs a horizon of at least "
                             f"{kernel.size - 1}, not {j}")
        trimmed.append(kernel)
    unit = [k.size == 1 and k[0] == 1.0 for k in trimmed]
    if not all(unit[:-1]):
        raise ValueError("only the unit kernel leaves the draws to the kernel after it")
    draws = draw_innovations(spec.innovations, j + length)
    for _ in trimmed[:-1]:
        yield draws[j:]
    kernel, taps = trimmed[-1], trimmed[-1].size
    if taps <= _DIRECT_TAPS:
        if not unit[-1]:
            for end in range(j + length, j, -_BLOCK):
                start = max(j, end - _BLOCK)
                draws[start:end] = np.convolve(draws[start - (taps - 1) : end], kernel, "valid")
        yield draws[j:]
        return
    size = 1 << (draws.size + taps - 2).bit_length()
    spectrum = np.fft.rfft(draws, size)
    del draws
    spectrum *= np.fft.rfft(kernel, size)
    yield np.fft.irfft(spectrum, size)[j : j + length]


class SpectralDensity:
    """Evaluable spectral density f on [0, 2*pi].

    Rational form ``f(w) = |ma(e^{-iw})|^2 / |ar(e^{-iw})|^2`` with the
    polynomials given in ascending powers.  A truncated coefficient list
    (ar = [1]) and a closed-form ARMA density are both instances.
    """

    def __init__(self, ma_coeffs, ar_coeffs=(1.0,)):
        self.ma_coeffs = np.asarray(ma_coeffs, dtype=float)
        self.ar_coeffs = np.asarray(ar_coeffs, dtype=float)
        if self.ma_coeffs.size == 0 or self.ar_coeffs.size == 0:
            raise ValueError("polynomials must be non-empty")

    @classmethod
    def from_coefficients(cls, coeffs) -> "SpectralDensity":
        return cls(coeffs)

    def __call__(self, omega):
        w = np.asarray(omega, dtype=float)
        e = np.exp(-1j * w)
        num = np.polyval(self.ma_coeffs[::-1], e)
        den = np.polyval(self.ar_coeffs[::-1], e)
        val = np.abs(num) ** 2 / np.abs(den) ** 2
        return val if val.shape else float(val)


def spectral_density(spec: ProcessSpec) -> SpectralDensity:
    """Spectral density of the process; closed form where the model has one."""
    model = spec.model
    if model.kind in ("white_noise", "ma", "ar1", "arma"):
        ma = np.concatenate([[1.0], model.theta])
        ar = np.concatenate([[1.0], [-p for p in model.phi]])
        return SpectralDensity(ma, ar)
    return SpectralDensity.from_coefficients(spec.coefficient_array())
