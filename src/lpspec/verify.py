"""Monte Carlo verification harness.

Ties simulation, eigenvalue extraction and the limiting-law solver together:
seeded ensembles of segmented-record covariance matrices, distances between
empirical and solved spectra, the first-trace-moment identity, empirical
adjudication of the equation variants, and convergence studies over growing
matrix sizes.

Per-replicate seeds derive from the base seed through a SplitMix64 avalanche
of (base_seed XOR replicate_index), so replicate streams never collide and
the whole report is a pure function of its configuration.  Replicates may run
on a thread pool; assembly is an ordered reduction over replicate indices, so
the worker count cannot change a single output byte.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy import stats

from .lsd import (
    DEFAULT_CONFIG,
    DEFAULT_VARIANT,
    EquationVariant,
    SolverConfig,
    all_variants,
    lsd_cdf,
    solve_lsd,
)
from .matrices import MatrixShape, gram, segment_matrix
from .process import (
    CoefficientModel,
    InnovationSpec,
    ProcessSpec,
    default_horizon,
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
    """Per-replicate stream seed: splitmix64(base_seed XOR replicate)."""
    return splitmix64((int(base_seed) ^ int(replicate)) & _MASK64)


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

    @property
    def shape(self) -> MatrixShape:
        return MatrixShape(self.p, self.n)

    @property
    def y(self) -> float:
        return self.p / self.n

    def resolved_horizon(self) -> int:
        if self.horizon is not None:
            return self.horizon
        return default_horizon(self.model, self.n, self.tail_tol)

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


def _candidate_cdfs(config: EnsembleConfig, y: float | None = None) -> dict:
    """Solved laws of the config's variants at ratio `y` (default: p/n)."""
    f = spectral_density(config.replicate_spec(0))
    y = config.y if y is None else y
    return {
        v.label: lsd_cdf(solve_lsd(f, y, variant=v, config=config.solver,
                                   grid_points=config.grid_points))
        for v in config.variants
    }


def _one_replicate(config: EnsembleConfig, replicate: int):
    spec = config.replicate_spec(replicate)
    record = simulate_record(spec, config.shape.cells)
    x = segment_matrix(record, config.shape)
    trace_stat = float(np.sum(x * x)) / (config.p * config.p)
    evs = sym_eigenvalues(gram(x)).eigenvalues
    # Gram spectra are nonnegative; for p > n the exact-zero eigenvalues come
    # back as +-1e-16 rounding noise that would smear the atom at zero
    evs = np.where(np.abs(evs) <= 1e-10 * max(1.0, float(evs[-1])), 0.0, evs)
    return np.clip(evs, 0.0, None), trace_stat


def run_ensemble(config: EnsembleConfig, candidates: dict | None = None) -> EnsembleReport:
    """Simulate, decompose and compare each replicate against candidate laws.

    `candidates` maps labels to CDF-evaluable objects; by default the
    config's variants are solved from the process spectral density.  An
    eigensolver failure aborts only its own replicate and is recorded.
    """
    if candidates is None:
        candidates = _candidate_cdfs(config)

    def worker(r: int):
        try:
            return _one_replicate(config, r)
        except EigensolverError:
            return None

    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            raw = list(pool.map(worker, range(config.replicates)))
    else:
        raw = [worker(r) for r in range(config.replicates)]

    eigenvalues: list[np.ndarray] = []
    trace_stats: list[float] = []
    failed: list[int] = []
    per_ks: list[dict] = []
    per_w1: list[dict] = []
    for r, result in enumerate(raw):
        if result is None:
            failed.append(r)
            continue
        evs, trace_stat = result
        eigenvalues.append(evs)
        trace_stats.append(trace_stat)
        ecdf = EmpiricalCdf(evs)
        per_ks.append({label: ks_distance(ecdf, law) for label, law in candidates.items()})
        per_w1.append({label: wasserstein1(ecdf, law) for label, law in candidates.items()})
    if not eigenvalues:
        raise EigensolverError("all replicates failed")
    pooled = EmpiricalCdf(np.concatenate(eigenvalues))
    pooled_ks = {label: ks_distance(pooled, law) for label, law in candidates.items()}
    pooled_w1 = {label: wasserstein1(pooled, law) for label, law in candidates.items()}
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
    else:
        stats_ = []
        for r in range(config.replicates):
            record = simulate_record(config.replicate_spec(r), config.shape.cells)
            stats_.append(float(np.sum(record * record)) / (config.p * config.p))
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

    Solves all eight variants once for the flat spectral density, runs one
    white-noise ensemble per base seed, and requires that exactly one variant
    reaches pooled KS <= pass_threshold while every other stays >= 0.10,
    identically across seeds.  A confirmation ensemble with a dependent
    process, the first-order moving average MA(0.5), must also pass.
    Raises CalibrationError when the adjudication is ambiguous.  `settings`
    are passed on to every `EnsembleConfig`.
    """
    y = p / n
    if abs(y - 1.0) < 0.05:
        raise ValueError(
            f"calibration degenerates at aspect ratio y = {y:g}: the ratio and "
            "role axes coincide at y = 1; use a ratio bounded away from one"
        )
    variants = all_variants()
    white = CoefficientModel.white_noise()
    base_config = EnsembleConfig(
        model=white,
        p=p,
        n=n,
        replicates=replicates,
        base_seed=base_seeds[0],
        variants=variants,
        **settings,
    )
    candidates = _candidate_cdfs(base_config)

    evidence: list[dict] = []
    selections: list[str] = []
    for seed in base_seeds:
        report = run_ensemble(replace(base_config, base_seed=seed), candidates)
        passing = [v for v in variants if report.pooled_ks[v.label] <= pass_threshold]
        others_fail = all(
            report.pooled_ks[v.label] >= _FAIL_THRESHOLD
            for v in variants
            if v not in passing
        )
        evidence.extend(
            {"seed": int(seed), "variant": v.label, "ks_pooled": report.pooled_ks[v.label],
             "passed": v in passing}
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

    confirm = CoefficientModel.ma([0.5])
    confirm_report = run_ensemble(replace(base_config, model=confirm, variants=(selected,)))
    confirm_ks = confirm_report.pooled_ks[selected.label]
    confirmation = {
        "model": confirm.label(),
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
    median KS against n (negative under convergence).  `settings` are passed
    on to every `EnsembleConfig`.
    """
    sizes = [int(s) for s in sizes]
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
    candidates = _candidate_cdfs(configs[0], y) if configs else {}
    rows = []
    medians = []
    for config in configs:
        report = run_ensemble(config, candidates)
        ks = np.array([d[variant.label] for d in report.per_replicate_ks])
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
    if len(sizes) > 1:
        rho = float(stats.spearmanr(sizes, medians).statistic)
    else:
        rho = 0.0
    return StudyResult(tuple(rows), rho)
