"""Benchmark worker: imports lpspec from the checkout and runs one workload.

run.py starts it with ``PYTHONPATH`` set to the checkout's ``src`` and the
BLAS thread count set in its environment, and reads the JSON it writes to
``--result``.  Modes:

* ``--probe``: import lpspec, print ``ready`` and exit (set-up timing);
* ``--trace 0``: the end-to-end window, which cycles through the run's CLI
  seeds for at least one iteration each and at least ``--seconds``;
* ``--trace 1``: a window of twice ``--seconds`` at the run's first CLI
  seed whose iterations alternate untraced and traced, giving per-layer
  metrics and the tracing overhead;
* ``--table``: one untraced window at the first CLI seed with ``--jobs``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import Tracer


def import_cli(root: Path):
    """Import lpspec.cli, insisting that it comes from the checkout."""
    import lpspec.cli

    src = (root / "src").resolve()
    where = Path(lpspec.__file__).resolve()
    if src not in where.parents:
        raise SystemExit(f"lpspec was imported from {where}, not from {src}")
    return lpspec.cli


class Runner:
    """Runs one workload's CLI invocations and checks their outputs."""

    def __init__(self, cli, workload, workdir: Path, jobs: int, toy: bool):
        self.cli = cli
        self.workload = workload
        self.invocations = workload.invocations(toy)
        self.jobs = jobs
        self.toy = toy
        self.out = workdir / "out"
        self.configs = {}
        (workdir / "configs").mkdir(parents=True, exist_ok=True)
        for inv in self.invocations:
            path = workdir / "configs" / f"{inv.name}.json"
            path.write_text(json.dumps(inv.config))
            self.configs[inv.name] = path

    def invoke(self, seed: int, tracer: Tracer | None = None):
        """Run every invocation once; return (seconds inside the CLI, exit codes)."""
        codes = {}
        run_s = 0.0
        if tracer is not None:
            tracer.install()
        try:
            for inv in self.invocations:
                out = self.out / inv.name
                shutil.rmtree(out, ignore_errors=True)
                argv = inv.argv(self.configs[inv.name], out, seed, self.jobs)
                start = time.perf_counter()
                try:
                    # looked up on the module so that a tracer's wrapper is used
                    codes[inv.name] = self.cli.run(argv)
                except Exception:  # a crash is a failed invocation, not a dead run
                    traceback.print_exc()
                    codes[inv.name] = "exception"
                run_s += time.perf_counter() - start
                if tracer is not None and out.is_dir():
                    tracer.count("cli.bytes_written", sum(f.stat().st_size for f in out.iterdir()))
        finally:
            if tracer is not None:
                tracer.uninstall()
        return run_s, codes

    def iteration(self, seed: int, tracer: Tracer | None = None) -> dict:
        run_s, codes = self.invoke(seed, tracer)
        check = self.workload.check(self.out, codes, self.invocations, self.toy)
        return {"seed": seed, "run_s": run_s, "attempted": check.attempted,
                "failed": check.failed, "ks": check.ks, "problems": check.problems or []}


def window(runner: Runner, seeds, seconds: float, budget: float, alternate: bool = False):
    """Iterate for `seconds`, covering every seed at least once.

    With `alternate`, every second iteration is traced (at least one of
    each), so that drift in the machine's speed hits both kinds alike.  No
    iteration starts once another one would overrun `budget` seconds, so a
    much slower program still ends the run in time.
    """
    least = 2 if alternate else len(seeds)
    iterations = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if iterations:
            if len(iterations) >= least and elapsed >= seconds:
                break
            if elapsed + elapsed / len(iterations) > budget:
                break
        tracer = Tracer() if alternate and len(iterations) % 2 else None
        it = runner.iteration(seeds[len(iterations) % len(seeds)], tracer)
        if tracer is not None:
            it["layers"] = tracer.metrics()
            it["spans"] = sorted(tracer.fired())
            it["missing"] = tracer.missing
        iterations.append(it)
    return iterations


def accuracy(iterations) -> tuple[float | None, list]:
    """Median accuracy KS over the seeds, and any seed that did not repeat."""
    per_seed = {}
    problems = []
    for it in iterations:
        if it["ks"] is None:
            continue
        first = per_seed.setdefault(it["seed"], it["ks"])
        if it["ks"] != first:
            problems.append(f"seed {it['seed']} gave KS {it['ks']!r}, earlier {first!r}")
    return (statistics.median(per_seed.values()) if per_seed else None), problems


def blas_info() -> dict:
    """BLAS vendor and version from numpy's build, and its live thread count."""
    import numpy as np

    info = dict(np.__config__.CONFIG["Build Dependencies"]["blas"])
    out = {"vendor": info.get("name"), "version": info.get("version"), "threads": None}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out["threads"] = fn()
                return out
    return out


def provenance() -> dict:
    import numpy as np
    import scipy

    import lpspec

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "lpspec": lpspec.__version__,
        "blas": blas_info(),
    }


def warm_up(cli, workdir: Path) -> None:
    """One toy compare and one toy solve, so lazy imports finish before timing."""
    warm = [workloads.WORKLOADS["mc"], workloads.WORKLOADS["law"]]
    for workload in warm:
        runner = Runner(cli, workload, workdir / f"warm-{workload.name}", 1, toy=True)
        runner.invocations = runner.invocations[:1]
        runner.invoke(0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--budget", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--table", action="store_true")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--result", type=Path)
    args = parser.parse_args(argv)

    root = Path.cwd()
    cli = import_cli(root)
    if args.probe:
        print("ready", flush=True)
        return 0

    workload = workloads.WORKLOADS[args.workload]
    seeds = workloads.cli_seeds(workload.name, args.seed)
    warm_up(cli, args.workdir)
    runner = Runner(cli, workload, args.workdir / "run", args.jobs, args.toy)
    result = {"provenance": provenance()}
    if args.trace:
        iterations = window(runner, seeds[:1], 2 * args.seconds, args.budget, alternate=True)
        traced = [it for it in iterations if "layers" in it]
        plain = [it for it in iterations if "layers" not in it]
        # means, so that the self times still add up to cli.run_s
        layers = {key: statistics.mean(it["layers"][key] for it in traced)
                  for key in traced[0]["layers"]}
        layers["tracing_overhead_s"] = (statistics.median(it["run_s"] for it in traced)
                                        - statistics.median(it["run_s"] for it in plain))
        result["layers"] = layers
        result["spans"] = sorted(set().union(*(it["spans"] for it in traced)))
        result["missing"] = traced[0]["missing"]
    elif args.table:
        iterations = window(runner, seeds[:1], args.seconds, args.budget)
        result["run_s"] = statistics.median(it["run_s"] for it in iterations)
    else:
        iterations = window(runner, seeds, args.seconds, args.budget)
        result["run_s"] = statistics.median(it["run_s"] for it in iterations)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ks, problems = accuracy(iterations)
    result["ks"] = ks
    result["iterations"] = len(iterations)
    result["attempted"] = sum(it["attempted"] for it in iterations)
    result["failed"] = sum(it["failed"] for it in iterations) + len(problems)
    result["problems"] = problems + [p for it in iterations for p in it["problems"]]
    args.result.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
