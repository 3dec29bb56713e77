"""Self-test of the benchmark at toy sizes.

    python3 bench/selftest.py            # from the root of a checkout

Runs every workload through bench/run.py with ``--toy`` (tiny matrices and
grids, a reduced solver), untraced and traced, and checks that

* the printed metric names and units are exactly those of BENCHMARK.json;
* the outputs pass their checks;
* every span the prediction table expects fires on its workload, and the
  pure-lsd workload ``law`` fires no other;
* the layer self times add up to the traced ``cli.run_s``;
* a wrapped function the package no longer has reads 0 calls instead of
  breaking the tracer.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from tracing import SELF_TIME_METRICS, Tracer  # noqa: E402


def run_bench(root: Path, workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise AssertionError(f"run.py {workload} --trace {trace} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def check_missing_target(root: Path) -> None:
    """A target the package no longer defines is skipped and reads zero."""
    sys.path.insert(0, str(root / "src"))
    import lpspec.verify

    saved = lpspec.verify.gram
    del lpspec.verify.gram
    try:
        tracer = Tracer().install()
        tracer.uninstall()
    finally:
        lpspec.verify.gram = saved
    assert "lpspec.verify.gram" in tracer.missing, tracer.missing
    assert lpspec.verify.gram is saved
    metrics = tracer.metrics()
    assert metrics["matrices.gram_s"] == 0 and metrics["matrices.gram_gflop"] == 0, metrics
    assert metrics["spectra.eig_calls"] == 0, metrics


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(ok: bool, message: str) -> None:
        print(("ok   " if ok else "FAIL ") + message, flush=True)
        if not ok:
            failures.append(message)

    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    check_missing_target(root)
    check(True, "missing wrap target reads 0 calls")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            prov, out = run_bench(root, name, trace)
            units = {k: v["unit"] for k, v in out["metrics"].items()}
            check(units == expected[trace], f"{name} trace={trace}: metric names and units")
            check(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                      for v in out["metrics"].values()), f"{name} trace={trace}: finite values")
            check(out["correct"] and out["failed"] == 0 and out["attempted"] > 0,
                  f"{name} trace={trace}: outputs correct ({prov['problems'][:3]})")
            if not trace:
                continue
            fired = set(prov["spans_fired"])
            want = workloads.EXPECTED_SPANS[name]
            check(want <= fired, f"{name}: expected spans fire (missing {sorted(want - fired)})")
            if name == "law":
                check(fired == want, f"law: only lsd work ({sorted(fired - want)} also fired)")
            m = {k: v["value"] for k, v in out["metrics"].items()}
            total = sum(m[k] for k in SELF_TIME_METRICS)
            check(math.isclose(total, m["cli.run_s"], rel_tol=1e-9, abs_tol=1e-12),
                  f"{name}: self times add up to cli.run_s ({total:.6f} vs {m['cli.run_s']:.6f})")
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
