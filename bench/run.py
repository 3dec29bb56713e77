"""lpspec benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload {law,mc,calibrate} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; lpspec is imported from ``src/`` there
(nothing needs installing).  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json for ``--trace 0`` and its
per-layer metrics for ``--trace 1``.  The line before it is the run's
provenance.  Every measurement happens in worker processes (bench/worker.py)
whose BLAS thread count is set through their environment; this process
imports neither numpy nor lpspec.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SETUP_PROBES = 3
# Whole-run limit, kept under the 180 s the harness allows.
RUN_BUDGET_S = 165.0
# jobs x BLAS-thread table of the traced run: (label, jobs, BLAS threads or
# None for one per available CPU, which is OpenBLAS's default).
TABLE = (("j1_bnproc", 1, None), ("j1_b1", 1, 1), ("j2_b1", 2, 1))


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(root: Path, blas_threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    return env


def worker_cmd(*args) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "worker.py"), *map(str, args)]


def run_worker(root: Path, args: list, blas_threads: int, timeout: float) -> dict:
    """Run one worker to completion and return the JSON it wrote."""
    result = Path(args[args.index("--result") + 1])
    try:
        proc = subprocess.run(worker_cmd(*args), cwd=root, env=child_env(root, blas_threads),
                              stdout=sys.stderr, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {timeout:.0f} s: {args}")
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"worker exited {proc.returncode}: {args}")
    return json.loads(result.read_text())


def setup_seconds(root: Path, timeout: float) -> float:
    """Median time from process start until lpspec and its deps are imported."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(worker_cmd("--probe"), cwd=root, env=child_env(root, nproc()),
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.wait(timeout=timeout)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up probe failed (exit {proc.returncode})")
    return statistics.median(times)


def source_provenance(root: Path) -> dict:
    files = sorted((root / "src" / "lpspec").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines}


def measure(args, root: Path, work: Path) -> tuple[dict, dict]:
    deadline = time.perf_counter() + RUN_BUDGET_S

    def remaining() -> float:
        return deadline - time.perf_counter()

    common = ["--workload", args.workload, "--seed", args.seed] + (["--toy"] if args.toy else [])
    cores = nproc()
    prov = {"nproc": cores, **source_provenance(root)}

    if not args.trace:
        setup_s = setup_seconds(root, remaining())
        res = run_worker(root, common + ["--seconds", args.seconds, "--budget", remaining() - 15,
                                         "--workdir", work / "main", "--result", work / "main.json"],
                         cores, remaining())
        metrics = {
            "setup_s": setup_s,
            "run_s": res["run_s"],
            "peak_rss_mb": res["peak_rss_mb"],
            # no readable output counts as the largest possible KS distance
            "ks_error": 1.0 if res["ks"] is None else res["ks"],
        }
    else:
        # the traced worker gets 60% of the budget, the jobs x BLAS table the rest
        res = run_worker(root, common + ["--trace", 1, "--seconds", args.seconds,
                                         "--budget", remaining() * 0.6 - 10,
                                         "--workdir", work / "main", "--result", work / "main.json"],
                         cores, remaining())
        metrics = dict(res["layers"])
        table = {}
        for label, jobs, blas in TABLE:
            row = run_worker(root, common + ["--table", "--jobs", jobs,
                                             "--seconds", args.seconds / 4,
                                             "--budget", remaining() / (len(TABLE) - len(table)) - 5,
                                             "--workdir", work / label,
                                             "--result", work / f"{label}.json"],
                             blas or cores, remaining())
            table[label] = row["run_s"]
            metrics[f"jobs.{label}_s"] = row["run_s"]
            for key in ("attempted", "failed"):
                res[key] += row[key]
            res["problems"] += row["problems"]
        best_single = min(table["j1_bnproc"], table["j1_b1"])
        metrics["jobs.j2_beats_j1"] = int(table["j2_b1"] < best_single)
        metrics["src_lines"] = prov["src_lines"]
        prov["spans_fired"] = res["spans"]
        prov["targets_missing"] = res["missing"]
    prov.update(res["provenance"])
    prov["iterations"] = res["iterations"]
    prov["problems"] = res["problems"]
    attempted, failed = res["attempted"], res["failed"]
    if not args.trace:
        metrics["ok_share"] = (attempted - failed) / attempted
    out = {
        "correct": failed == 0 and not res["problems"] and res["ks"] is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    return out, prov


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lpspec benchmark (see bench/README.md)")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny sizes, for bench/selftest.py")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lpspec" / "__init__.py").is_file():
        print(f"error: {root} holds no src/lpspec to benchmark", file=sys.stderr)
        return 2
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        out, prov = measure(args, root, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()  # left in place while another run still uses it
        except OSError:
            pass
    print(json.dumps({"provenance": prov}, sort_keys=True))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
