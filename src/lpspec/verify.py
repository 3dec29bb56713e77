"""Monte Carlo verification harness.

Ties simulation, eigenvalue extraction and the limiting-law solver together:
seeded ensembles of segmented-record covariance matrices, distances between
empirical and solved spectra, the first-trace-moment identity, empirical
adjudication of the equation variants, and convergence studies over growing
matrix sizes.

Per-replicate seeds are splitmix64(splitmix64(base_seed) + replicate_index
mod 2^64), so the whole report is a pure function of its configuration.  The
replicates of one base seed never share a stream, and mixing the base seed
before adding the index starts nearby base seeds such as s and s + 1 at
unrelated points of the 64-bit range, not on each other's streams.  Replicates
may run on a thread pool; assembly is an ordered reduction over replicate
indices, so the worker count cannot change a single output byte.

Ensembles that differ in their model alone draw the same innovation
streams, so one draw per replicate can serve several models when each of
them but the last is white noise, whose record is the draws themselves:
calibration filters its MA(0.5) confirmation from the first seed's
white-noise draws.
"""

from __future__ import annotations

import itertools
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .lsd import (
    DEFAULT_CONFIG,
    DEFAULT_VARIANT,
    EquationVariant,
    NumericalError,
    SolverConfig,
    all_variants,
    law_range_violation,
    lsd_cdf,
    solve_lsd,
)
from .matrices import MatrixShape, gram, segment_matrix
from .process import (
    CoefficientModel,
    InnovationSpec,
    ProcessSpec,
    default_horizon,
    filtered_records,
    simulate_record,
    spectral_density,
    total_energy,
)
from .spectra import (
    EigensolverError,
    EmpiricalCdf,
    EmpiricalSpectrum,
    ks_distance,
    sym_eigenvalues,
    wasserstein1,
)

__all__ = [
    "CalibrationError",
    "CalibrationVerdict",
    "EnsembleConfig",
    "EnsembleReport",
    "StudyResult",
    "TraceCheck",
    "calibrate_equation_variant",
    "convergence_study",
    "derive_seed",
    "run_ensemble",
    "splitmix64",
    "trace_moment_check",
]

log = logging.getLogger("lpspec.verify")

_MASK64 = (1 << 64) - 1
# memory budget of an ensemble: p * n * replicates matrix cells
_MAX_CELLS = 1 << 25
# pooled KS every non-selected variant must reach in a decisive calibration
_FAIL_THRESHOLD = 0.10


def splitmix64(value: int) -> int:
    """One SplitMix64 avalanche step (Steele-Lea-Flood constants)."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(base_seed: int, replicate: int) -> int:
    """Per-replicate stream seed: splitmix64(splitmix64(base_seed) + replicate)."""
    return splitmix64((splitmix64(int(base_seed)) + int(replicate)) & _MASK64)


class CalibrationError(RuntimeError):
    """Variant adjudication was not decisive; carries the evidence table."""

    def __init__(self, message: str, evidence: list | None = None):
        super().__init__(message)
        self.evidence = evidence or []


@dataclass(frozen=True)
class EnsembleConfig:
    """Everything a reproducible ensemble run depends on; its settings' defaults live here only."""

    model: CoefficientModel
    p: int
    n: int
    replicates: int
    base_seed: int
    distribution: str = "gaussian"
    variants: tuple[EquationVariant, ...] = (DEFAULT_VARIANT,)
    solver: SolverConfig = DEFAULT_CONFIG
    horizon: int | None = None
    tail_tol: float = 1e-12
    jobs: int = 1
    grid_points: int = 1024  # of each solved law; like `solver`, not in `to_json`
    _horizon: int = field(init=False, repr=False)  # `horizon`, or the model's default, found once

    def __post_init__(self) -> None:
        if self.p < 1 or self.n < 1:
            raise ValueError("p and n must be >= 1")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        cells = self.p * self.n * self.replicates
        if cells > _MAX_CELLS:
            raise ValueError(
                f"p*n*replicates = {cells} exceeds the memory budget of "
                f"{_MAX_CELLS} cells"
            )
        object.__setattr__(self, "_horizon", self.horizon if self.horizon is not None
                           else default_horizon(self.model, self.n, self.tail_tol))

    @property
    def shape(self) -> MatrixShape:
        return MatrixShape(self.p, self.n)

    @property
    def y(self) -> float:
        return self.p / self.n

    def resolved_horizon(self) -> int:
        return self._horizon

    def replicate_spec(self, replicate: int) -> ProcessSpec:
        return ProcessSpec(
            self.model,
            InnovationSpec(self.distribution, derive_seed(self.base_seed, replicate)),
            self.resolved_horizon(),
            self.tail_tol,
        )

    def to_json(self) -> dict:
        return {
            "model": self.model.to_json(),
            "p": self.p,
            "n": self.n,
            "replicates": self.replicates,
            "base_seed": int(self.base_seed),
            "distribution": self.distribution,
            "variants": [v.label for v in self.variants],
            "horizon": self.resolved_horizon(),
            "tail_tol": self.tail_tol,
        }


@dataclass(frozen=True)
class EnsembleReport:
    """Deterministic record of one ensemble run."""

    config: dict
    replicate_seeds: tuple[int, ...]
    eigenvalues: tuple[np.ndarray, ...]
    trace_stats: tuple[float, ...]
    failed_replicates: tuple[int, ...]
    per_replicate_ks: tuple[dict, ...]
    per_replicate_w1: tuple[dict, ...]
    pooled_ks: dict
    pooled_w1: dict

    def pooled_spectrum(self) -> EmpiricalSpectrum:
        return EmpiricalSpectrum(np.sort(np.concatenate(self.eigenvalues)))

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "replicate_seeds": [int(s) for s in self.replicate_seeds],
            "trace_stats": list(self.trace_stats),
            "failed_replicates": list(self.failed_replicates),
            "per_replicate_ks": list(self.per_replicate_ks),
            "per_replicate_w1": list(self.per_replicate_w1),
            "pooled_ks": self.pooled_ks,
            "pooled_w1": self.pooled_w1,
        }


def _candidate_laws(config: EnsembleConfig, y: float | None = None) -> dict:
    """Solved laws of the config's variants at ratio `y` (default: p/n): one
    solve per equation, each role read off the direct law."""
    f = spectral_density(config.replicate_spec(0))
    y = config.y if y is None else y
    laws = {}
    for equation in dict.fromkeys(replace(v, role="direct") for v in config.variants):
        laws[equation] = solve_lsd(f, y, variant=equation, config=config.solver,
                                   grid_points=config.grid_points)
    return {v.label: laws[replace(v, role="direct")].in_role(v.role) for v in config.variants}


def _scored_cdfs(config: EnsembleConfig, y: float | None = None) -> dict:
    """CDFs of the `_candidate_laws` an ensemble scores.  A law outside [0, 1],
    which no spectrum can approach, raises NumericalError, as `solve` refuses
    it; calibration records such laws in its evidence instead."""
    laws = _candidate_laws(config, y)
    for violation in filter(None, map(law_range_violation, laws.values())):
        raise NumericalError(violation)
    return {label: lsd_cdf(law) for label, law in laws.items()}


def _one_replicate(config: EnsembleConfig, replicate: int, kernels=None) -> list:
    """(eigenvalues, trace statistic) of one replicate of the config's model,
    or, given `kernels`, of each kernel's record from one draw of the
    config's stream (see `filtered_records`).  None stands in for a record
    whose eigensolve failed, which is logged.

    Each Gram is formed and eigensolved before the next record is filtered.
    The config's own record is then squared in place for the trace statistic
    and released before the eigensolve, so the replicate holds one record
    and one Gram.  The records of `kernels` share their draws, which the
    squaring would overwrite, so they take no trace statistic (None); the
    replicate holds the draws, one Gram and one filter block.
    """
    spec = config.replicate_spec(replicate)
    cells = config.shape.cells
    if kernels is None:  # a generator keeps no record it has yielded
        records = (simulate_record(spec, cells) for _ in range(1))
    else:
        records = filtered_records(spec, cells, kernels)
    p, n = config.p, config.n
    out = []
    for record in records:
        x = segment_matrix(record, config.shape)
        # at p > n, XX^T/p has the eigenvalues of X^TX/p = gram(X^T) n/p and p - n exact zeros
        g = gram(x) if p <= n else gram(x.T)
        trace_stat = _sum_of_squares(x) / (p * p) if kernels is None else None
        del x, record
        try:
            evs = sym_eigenvalues(g).eigenvalues
        except EigensolverError as exc:
            log.warning("replicate %d failed: %s", replicate, exc)
            out.append(None)
            continue
        finally:
            del g
        if p > n:
            evs = np.concatenate([np.zeros(p - n), evs * (n / p)])
        out.append((evs, trace_stat))
    return out


def _sum_of_squares(record: np.ndarray) -> float:
    """Sum of the squared entries of `record`, which is squared in place."""
    return float(np.sum(np.multiply(record, record, out=record)))


def _replicates(config: EnsembleConfig, kernels=None) -> list:
    """`_one_replicate` of every replicate, in replicate order.  Replicates
    may run on `config.jobs` threads; the order of the results is theirs."""
    def work(r: int) -> list:
        return _one_replicate(config, r, kernels)

    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            return list(pool.map(work, range(config.replicates)))
    return [work(r) for r in range(config.replicates)]


def _distance_tables(eigenvalues: np.ndarray, candidates: dict) -> tuple[dict, dict]:
    """KS and W1 distances of the empirical CDF of `eigenvalues` to each
    candidate law; with no candidates no CDF is built.  The CDF is built
    once and read by every distance."""
    cdf = EmpiricalCdf(eigenvalues) if candidates else None
    return ({label: ks_distance(cdf, law) for label, law in candidates.items()},
            {label: wasserstein1(cdf, law) for label, law in candidates.items()})


def run_ensemble(config: EnsembleConfig, candidates: dict | None = None) -> EnsembleReport:
    """Simulate, decompose and compare each replicate against candidate laws.

    `candidates` maps labels to CDF-evaluable objects; by default the
    config's variants are solved from the process spectral density, and one
    outside [0, 1] raises NumericalError before any replicate is simulated.
    An eigensolver failure aborts only its own replicate and is recorded.
    """
    if candidates is None:
        candidates = _scored_cdfs(config)
    return _report(config, (result for [result] in _replicates(config)), candidates)


def _report(config: EnsembleConfig, results, candidates: dict) -> EnsembleReport:
    """The report of the ensemble on `config` from the `_one_replicate`
    result of each replicate, in replicate order: a failed replicate is
    recorded, and every other is compared against `candidates`, alone and
    pooled.  Raises EigensolverError when every replicate failed."""
    eigenvalues: list[np.ndarray] = []
    trace_stats: list[float] = []
    failed: list[int] = []
    per_ks: list[dict] = []
    per_w1: list[dict] = []
    for r, result in enumerate(results):
        if result is None:
            failed.append(r)
            continue
        evs, trace_stat = result
        eigenvalues.append(evs)
        trace_stats.append(trace_stat)
        ks, w1 = _distance_tables(evs, candidates)
        per_ks.append(ks)
        per_w1.append(w1)
    if not eigenvalues:
        raise EigensolverError(f"eigensolve: all {config.replicates} replicates failed")
    pooled_ks, pooled_w1 = _distance_tables(np.concatenate(eigenvalues), candidates)
    return EnsembleReport(
        config=config.to_json(),
        replicate_seeds=tuple(derive_seed(config.base_seed, r) for r in range(config.replicates)),
        eigenvalues=tuple(eigenvalues),
        trace_stats=tuple(trace_stats),
        failed_replicates=tuple(failed),
        per_replicate_ks=tuple(per_ks),
        per_replicate_w1=tuple(per_w1),
        pooled_ks=pooled_ks,
        pooled_w1=pooled_w1,
    )


@dataclass(frozen=True)
class TraceCheck:
    """First-moment identity check: mean of tr(XX^T)/p^2 against (n/p) sum c_k^2."""

    values: tuple[float, ...]
    mean: float
    target: float
    relative_error: float
    passed: bool

    def to_json(self) -> dict:
        return asdict(self)


def trace_moment_check(
    config: EnsembleConfig, tolerance: float = 0.02, report: EnsembleReport | None = None
) -> TraceCheck:
    """Compare the mean normalized trace against its analytic expectation.

    No eigendecomposition is involved: tr(XX^T) is the sum of squared
    entries, and its expectation is (n/p) times the coefficient energy.
    Given the `report` of an ensemble run on `config`, its trace statistics
    are used; otherwise every replicate record is simulated here.
    """
    if report is not None:
        stats_ = list(report.trace_stats)
    else:  # one record at a time, squared in place
        stats_ = [_sum_of_squares(simulate_record(config.replicate_spec(r), config.shape.cells))
                  / (config.p * config.p) for r in range(config.replicates)]
    mean = float(np.mean(stats_))
    target = (config.n / config.p) * total_energy(config.model)
    rel = abs(mean - target) / abs(target)
    return TraceCheck(tuple(stats_), mean, target, rel, rel <= tolerance)


@dataclass(frozen=True)
class CalibrationVerdict:
    selected: EquationVariant
    evidence: tuple[dict, ...]
    confirmation: dict
    pass_threshold: float

    def to_json(self) -> dict:
        return {
            "selected": self.selected.label,
            "evidence": list(self.evidence),
            "confirmation": self.confirmation,
            "pass_threshold": self.pass_threshold,
            "fail_threshold": _FAIL_THRESHOLD,
        }


def calibrate_equation_variant(
    p: int,
    n: int,
    replicates: int = 10,
    base_seeds: tuple[int, ...] = (1, 2, 3),
    pass_threshold: float = 0.05,
    **settings,
) -> CalibrationVerdict:
    """Pick the equation variant that reproduces white-noise Monte Carlo.

    Solves the four equations of the eight variants once each for the flat
    spectral density and reads both roles off each law.  Runs one white-noise
    ensemble per base seed, and requires that exactly one variant
    reaches pooled KS <= pass_threshold while every other stays >= 0.10,
    identically across seeds.  A confirmation ensemble with a dependent
    process, the first-order moving average MA(0.5), must also pass.  It
    filters the innovation streams of the first seed's white-noise
    replicates, which it shares draw for draw (same seeds, same horizon), so
    each of those streams is drawn once for both ensembles.  The
    confirmation's law is solved, and its KS taken, only after a decisive
    verdict; a calibration that fails has still paid for the confirmation's
    Grams and eigensolves.  Only the pooled KS of each ensemble is read, so
    only it is computed: one KS distance per candidate law and ensemble,
    none per replicate.  Raises CalibrationError when the adjudication is
    ambiguous.  `settings` are passed on to every `EnsembleConfig`; the
    confirmation's spec is checked against them before any record is drawn.
    """
    y = p / n
    if abs(y - 1.0) < 0.05:
        raise ValueError(
            f"calibration degenerates at aspect ratio y = {y:g}: the ratio and "
            "role axes coincide at y = 1; use a ratio bounded away from one"
        )
    variants = all_variants()
    base_config = EnsembleConfig(
        model=CoefficientModel.white_noise(),
        p=p,
        n=n,
        replicates=replicates,
        base_seed=base_seeds[0],
        variants=variants,
        **settings,
    )
    confirm_config = replace(base_config, model=CoefficientModel.ma([0.5]))
    # one horizon for both (the one set, or n), so they can share their draws
    kernels = [c.replicate_spec(0).coefficient_array() for c in (base_config, confirm_config)]
    laws = _candidate_laws(base_config)
    candidates = {label: lsd_cdf(law) for label, law in laws.items()}
    in_range = {label: law_range_violation(law) is None for label, law in laws.items()}

    white, confirm = (_report(config, results, {}) for config, results
                      in zip((base_config, confirm_config), zip(*_replicates(base_config, kernels))))
    # one report per seed, each simulated only once the seed before is decided
    reports = itertools.chain([white], (run_ensemble(replace(base_config, base_seed=seed), {})
                                        for seed in base_seeds[1:]))
    evidence: list[dict] = []
    selections: list[str] = []
    for seed, report in zip(base_seeds, reports):
        cdf = EmpiricalCdf(np.concatenate(report.eigenvalues))
        pooled_ks = {label: ks_distance(cdf, law) for label, law in candidates.items()}
        passing = [v for v in variants if pooled_ks[v.label] <= pass_threshold]
        others_fail = all(
            pooled_ks[v.label] >= _FAIL_THRESHOLD
            for v in variants
            if v not in passing
        )
        evidence.extend(
            {"seed": int(seed), "variant": v.label, "ks_pooled": pooled_ks[v.label],
             "passed": v in passing, "law_in_range": in_range[v.label]}
            for v in variants
        )
        if len(passing) != 1 or not others_fail:
            raise CalibrationError(
                f"ambiguous calibration at seed {seed}: "
                f"{[v.label for v in passing]} passed, separation "
                f"{'ok' if others_fail else 'violated'}",
                evidence,
            )
        selections.append(passing[0].label)
    if len(set(selections)) != 1:
        raise CalibrationError(
            f"verdict unstable across seeds: {selections}", evidence
        )
    selected = EquationVariant.parse(selections[0])

    confirm_law = _scored_cdfs(replace(confirm_config, variants=(selected,)))[selected.label]
    confirm_ks = ks_distance(EmpiricalCdf(np.concatenate(confirm.eigenvalues)), confirm_law)
    confirmation = {
        "model": confirm_config.model.label(),
        "ks_pooled": confirm_ks,
        "passed": confirm_ks <= pass_threshold,
    }
    if not confirmation["passed"]:
        raise CalibrationError(
            f"selected variant {selected.label} failed the dependent-process "
            f"confirmation (KS = {confirm_ks:.4f})",
            evidence,
        )
    return CalibrationVerdict(
        selected=selected,
        evidence=tuple(evidence),
        confirmation=confirmation,
        pass_threshold=pass_threshold,
    )


@dataclass(frozen=True)
class StudyResult:
    """KS-versus-size table from a convergence study."""

    rows: tuple[dict, ...]
    spearman_rho: float

    def to_json(self) -> dict:
        return {"rows": list(self.rows), "spearman_rho": self.spearman_rho}


def _average_ranks(values) -> np.ndarray:
    """Ranks 1..len(values); tied values share the mean of their ranks."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)
    return (last - (counts - 1) / 2.0)[inverse]


def convergence_study(
    model: CoefficientModel,
    y: float,
    sizes,
    replicates: int = 5,
    base_seed: int = 0,
    variant: EquationVariant = DEFAULT_VARIANT,
    **settings,
) -> StudyResult:
    """Median KS distance to the solved law for each matrix size.

    The law depends only on (f, y), so it is solved once at the nominal y
    and reused across sizes, whose p/n only approximates y.  Returns per-size
    medians and interquartile ranges plus the Spearman rank correlation of
    median KS against n (negative under convergence; 0 where the medians do
    not vary).  `settings` are passed on to every `EnsembleConfig`.
    """
    sizes = [int(s) for s in sizes]
    if not sizes:
        raise ValueError("sizes must not be empty")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly ascending")
    configs = [
        EnsembleConfig(
            model=model,
            p=max(1, round(y * n)),
            n=n,
            replicates=replicates,
            base_seed=base_seed,
            variants=(variant,),
            **settings,
        )
        for n in sizes
    ]
    law = _scored_cdfs(configs[0], y)[variant.label]
    rows = []
    medians = []
    for config in configs:  # only the per-replicate KS is read
        report = run_ensemble(config, {})
        ks = np.array([ks_distance(EmpiricalCdf(evs), law) for evs in report.eigenvalues])
        q1, med, q3 = np.percentile(ks, [25, 50, 75])
        rows.append(
            {
                "n": config.n,
                "p": config.p,
                "ks_median": float(med),
                "ks_iqr": float(q3 - q1),
            }
        )
        medians.append(float(med))
    # the sizes ascend, so their ranks are their positions; element [1, 0], as
    # stats.spearmanr reads it: [0, 1] rounds differently
    ranks = _average_ranks(medians)
    rho = float(np.corrcoef(np.arange(1.0, len(ranks) + 1), ranks)[1, 0]) if np.ptp(ranks) else 0.0
    return StudyResult(tuple(rows), rho)
