"""The three benchmark workloads: CLI invocations, inputs and output checks.

Every workload drives the real ``lpspec`` CLI (``lpspec.cli.run``) in the
benchmark's own process with ``--jobs 1``, and passes ``--variant
normalized-yinv-direct`` wherever the command uses a variant, so a change of
the package default cannot move the benchmark.  The CLI seeds are drawn from
the benchmark seed; README.md in this directory says why each workload was
chosen.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

VARIANT = "normalized-yinv-direct"

# Output-check bounds on the accuracy KS (measured values: law 1e-5,
# mc 6e-4, calibrate 4e-3; the wrong variant reads 0.57 on mc).  Toy sizes
# only need to stay under calibration's own pass threshold.
KS_BOUND = {"law": 1e-3, "mc": 0.01, "calibrate": 0.01}
TOY_KS_BOUND = 0.05

# CLI seeds per run; the untraced window runs at least one iteration per seed
# and reports the median accuracy KS over them.
SEEDS_PER_RUN = 3

# Reduced solver for the self-test's toy sizes.
_TOY_SOLVER = {"quadrature_points": 128}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its output directory name, config file and flags."""

    name: str
    config: dict
    flags: tuple = ()

    @property
    def command(self) -> str:
        return self.config["command"]

    @property
    def replicates(self) -> int:
        return int(self.flags[self.flags.index("--replicates") + 1])

    def argv(self, config_path: Path, out: Path, seed: int, jobs: int) -> list[str]:
        argv = [self.command, "--config", str(config_path), "--out", str(out),
                "--seed", str(seed), "--jobs", str(jobs), *self.flags]
        if self.command in ("solve", "compare"):
            argv += ["--variant", VARIANT]
        return argv


@dataclass
class Check:
    """Outcome of the output checks of one workload iteration."""

    attempted: int = 0
    failed: int = 0
    ks: float | None = None
    problems: list | None = None

    def fail(self, message: str, operations: int = 1) -> None:
        self.failed += operations
        self.problems = (self.problems or []) + [message]


# ---------------------------------------------------------------------------
# law: four `solve` runs, pure limiting-law work
# ---------------------------------------------------------------------------

_LAW_CASES = (
    ("white", {"kind": "white_noise"}, 2.0),
    ("ma", {"kind": "ma", "theta": [0.5]}, 2.0),
    ("ar1", {"kind": "ar1", "phi": 0.9}, 0.5),
    ("arma", {"kind": "arma", "phi": [0.5], "theta": [0.4]}, 1.5),
)


def _law_invocations(toy: bool) -> list[Invocation]:
    out = []
    for name, model, y in _LAW_CASES:
        config = {"command": "solve", "model": model}
        flags = ("--y", repr(y))
        if toy:
            config["solver"] = _TOY_SOLVER
            flags += ("--grid-points", "128")
        out.append(Invocation(name, config, flags))
    return out


def _check_law(outdir: Path, codes: dict, invs: dict, check: Check) -> None:
    from lpspec.lsd import LsdSolution, lsd_cdf, marchenko_pastur
    from lpspec.spectra import ks_distance

    for name, _, y in _LAW_CASES:
        check.attempted += 1
        if codes[name] != 0:
            check.fail(f"solve {name} exited {codes[name]}")
            continue
        doc = json.loads((outdir / name / "lsd.json").read_text())
        if doc["variant"] != VARIANT:
            check.fail(f"solve {name} used variant {doc['variant']}")
            continue
        if name == "white":
            # white noise: the calibrated law is Marchenko-Pastur with
            # ratio y and scale 1/y in closed form
            check.ks = ks_distance(lsd_cdf(LsdSolution.from_json(doc)), marchenko_pastur(y, 1.0 / y))


# ---------------------------------------------------------------------------
# mc: one `compare`, eigensolve-dominated Monte Carlo at p > n
# ---------------------------------------------------------------------------


def _mc_invocations(toy: bool) -> list[Invocation]:
    p, n, reps = (512, 256, 2) if toy else (2048, 1024, 6)
    config = {"command": "compare", "model": {"kind": "ma", "theta": [0.5]}}
    if toy:
        config["solver"] = _TOY_SOLVER
    flags = ("--p", str(p), "--n", str(n), "--replicates", str(reps))
    return [Invocation("compare", config, flags)]


def _check_mc(outdir: Path, codes: dict, invs: dict, check: Check) -> None:
    replicates = invs["compare"].replicates
    check.attempted += 1
    if codes["compare"] != 0:
        check.attempted += replicates
        check.fail(f"compare exited {codes['compare']}", 1 + replicates)
        return
    report = json.loads((outdir / "compare" / "report.json").read_text())
    check.attempted += len(report["replicate_seeds"])
    if report["failed_replicates"]:
        check.fail(f"replicates {report['failed_replicates']} failed", len(report["failed_replicates"]))
    if not report["trace_check"]["passed"]:
        check.fail("trace moment check failed")
    check.ks = report["pooled_ks"][VARIANT]


# ---------------------------------------------------------------------------
# calibrate: the eight-variant adjudication at p < n
# ---------------------------------------------------------------------------


def _calibrate_invocations(toy: bool) -> list[Invocation]:
    p, n, reps = (64, 128, 4) if toy else (256, 512, 10)
    config = {"command": "calibrate"}
    if toy:
        config["solver"] = _TOY_SOLVER
    return [Invocation("calibrate", config, ("--p", str(p), "--n", str(n), "--replicates", str(reps)))]


def _check_calibrate(outdir: Path, codes: dict, invs: dict, check: Check) -> None:
    # three white-noise ensembles plus the confirmation ensemble; per-replicate
    # failures are not in the outputs, so replicates fail with the invocation
    replicates = 4 * invs["calibrate"].replicates
    check.attempted += 1 + replicates
    if codes["calibrate"] != 0:
        check.fail(f"calibrate exited {codes['calibrate']}", 1 + replicates)
        return
    verdict = json.loads((outdir / "calibrate" / "verdict.json").read_text())
    if verdict["selected"] != VARIANT:
        check.fail(f"calibration selected {verdict['selected']}")
    if not verdict["confirmation"]["passed"]:
        check.fail("calibration confirmation failed")
    winners = [e["ks_pooled"] for e in verdict["evidence"] if e["passed"]]
    if not winners:
        check.fail("no winning variant in the evidence")
        return
    check.ks = max(winners)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_invocations: Callable[[bool], list]
    check_outputs: Callable[[Path, dict, dict, Check], None]

    def invocations(self, toy: bool = False) -> list[Invocation]:
        return self.make_invocations(toy)

    def check(self, outdir: Path, codes: dict, invocations: list[Invocation],
              toy: bool = False) -> Check:
        """Check one iteration's outputs; `codes` maps invocation to exit code."""
        check = Check()
        self.check_outputs(outdir, codes, {inv.name: inv for inv in invocations}, check)
        bound = TOY_KS_BOUND if toy else KS_BOUND[self.name]
        if check.ks is not None and not check.ks <= bound:
            check.fail(f"accuracy KS {check.ks:.3g} exceeds its bound {bound:g}")
        return check


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "law",
            "four solve runs: pure lsd work with an exact Marchenko-Pastur reference",
            _law_invocations,
            _check_law,
        ),
        Workload(
            "mc",
            "compare MA(0.5) at p=2048, n=1024: eigensolve-dominated Monte Carlo at p > n",
            _mc_invocations,
            _check_mc,
        ),
        Workload(
            "calibrate",
            "8-variant calibration at p=256, n=512: duplicate law solves, many small p < n replicates",
            _calibrate_invocations,
            _check_calibrate,
        ),
    )
}

# Spans that must fire on each workload where the prediction table in
# README.md expects work; on law, which is pure lsd work, no other span may.
EXPECTED_SPANS = {
    "law": {"cli.run", "lsd.solve"},
    "mc": {"cli.run", "lsd.solve", "verify.ensemble", "verify.trace_check", "process.simulate",
           "matrices.segment", "matrices.gram", "spectra.eig", "spectra.distance"},
    "calibrate": {"cli.run", "lsd.solve", "verify.calibrate", "verify.ensemble", "process.simulate",
                  "matrices.segment", "matrices.gram", "spectra.eig", "spectra.distance"},
}


def cli_seeds(workload: str, seed: int, count: int = SEEDS_PER_RUN) -> list[int]:
    """CLI base seeds for one benchmark run, a pure function of its seed."""
    rng = random.Random(f"lpspec-bench/{workload}/{seed}")
    return [rng.getrandbits(32) for _ in range(count)]
