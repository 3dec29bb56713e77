import json
import logging
import math

import numpy as np
import pytest

from lpspec.cli import ConfigError, parse_config, run


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def strip_timestamp(text: str) -> str:
    doc = json.loads(text)
    doc.pop("timestamp", None)
    return json.dumps(doc, sort_keys=True)


class TestParseConfig:
    def test_minimal_solve_gets_defaults(self, tmp_path):
        path = write_config(tmp_path, {"command": "solve", "model": {"kind": "white_noise"}, "y": 1.0})
        cfg = parse_config(path, {})
        assert cfg["variant"] == "normalized-y-direct"
        assert cfg["grid_points"] == 1024
        assert cfg["seed"] == 0
        assert cfg["jobs"] == 1
        assert cfg["out"] == "out"

    def test_unknown_key_named(self, tmp_path):
        path = write_config(tmp_path, {"command": "solve", "ratoi": 1.0})
        with pytest.raises(ConfigError, match="ratoi"):
            parse_config(path, {})

    def test_unknown_solver_key_named(self, tmp_path):
        path = write_config(
            tmp_path,
            {"command": "solve", "model": {"kind": "white_noise"}, "y": 1.0,
             "solver": {"dampign": 0.5}},
        )
        with pytest.raises(ConfigError, match="dampign"):
            parse_config(path, {})

    def test_flag_overrides_file_with_notice(self, tmp_path, caplog):
        path = write_config(
            tmp_path, {"command": "compare", "model": {"kind": "white_noise"}, "p": 128, "n": 128}
        )
        with caplog.at_level(logging.INFO, logger="lpspec.cli"):
            cfg = parse_config(path, {"p": 256})
        assert cfg["p"] == 256
        assert any("overrides" in rec.message for rec in caplog.records)

    def test_bad_command(self, tmp_path):
        path = write_config(tmp_path, {"command": "explode"})
        with pytest.raises(ConfigError, match="command"):
            parse_config(path, {})

    def test_bad_variant(self):
        with pytest.raises(ConfigError, match="variant"):
            parse_config(None, {"command": "solve", "variant": "bogus"})

    def test_missing_config_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/nonexistent/config.json", {})


WHITE = {"kind": "white_noise"}


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"command": "compare", "model": WHITE, "p": 8, "n": 8, "tail_tol": "abc"}, "'tail_tol'"),
        ({"command": "solve", "model": WHITE, "y": 1.0, "tail_tol": "abc"}, "'tail_tol'"),
        ({"command": "solve", "model": {"kind": "ma", "theta": 5}, "y": 1.0}, "'theta'"),
        ({"command": "solve", "model": WHITE, "y": 1.0, "solver": {"damping": "x"}}, "'damping'"),
        ({"command": "solve", "model": WHITE, "y": 1.0, "solver": {"quadrature_points": "8"}},
         "'quadrature_points'"),
        ({"command": "calibrate", "p": 64, "n": 128, "seeds": 5}, "'seeds'"),
        ({"command": "solve", "model": WHITE, "y": 1.0, "variant": 5}, "'variant'"),
        ({"command": "solve", "model": WHITE, "y": [1]}, "'y'"),
        ({"command": "solve", "model": {"kind": "ar1"}, "y": 1.0}, "'phi'"),
        ({"command": "solve", "model": WHITE, "y": 1.0, "innovations": {"seed": [1]}}, "'seed'"),
        ({"command": "solve", "model": WHITE, "y": 1.0, "seed": None}, "'seed'"),
        ({"command": "solve", "model": WHITE, "y": 1.0, "out": 5}, "'out'"),
    ],
)
def test_malformed_value_exits_2_naming_key(tmp_path, caplog, doc, key):
    argv = [doc["command"], "--config", write_config(tmp_path, doc)]
    if "out" not in doc:
        argv += ["--out", str(tmp_path / "run")]
    with caplog.at_level(logging.ERROR, logger="lpspec.cli"):
        assert run(argv) == 2
    assert any(key in rec.getMessage() for rec in caplog.records)
    assert not (tmp_path / "run").exists()


class TestSolveCommand:
    def test_density_at_two(self, tmp_path):
        out = tmp_path / "run"
        code = run([
            "solve", "--y", "1.0", "--out", str(out),
            "--config", write_config(tmp_path, {"command": "solve", "model": {"kind": "white_noise"}}),
        ])
        assert code == 0
        rows = (out / "density.csv").read_text().strip().splitlines()
        assert rows[0] == "x,rho"
        data = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        rho_at_2 = np.interp(2.0, data[:, 0], data[:, 1])
        assert abs(rho_at_2 - 1.0 / (2.0 * math.pi)) <= 1e-3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert "timestamp" in manifest
        solution = json.loads((out / "lsd.json").read_text())
        assert solution["variant"] == "normalized-y-direct"
        assert abs(solution["atom"]) <= 1e-3

    def test_missing_y_fails_validation(self, tmp_path):
        out = tmp_path / "run"
        code = run([
            "solve", "--out", str(out),
            "--config", write_config(tmp_path, {"command": "solve", "model": {"kind": "white_noise"}}),
        ])
        assert code == 2
        assert not (out / "lsd.json").exists()

    def test_cdf_csv_written(self, tmp_path):
        out = tmp_path / "run"
        code = run([
            "solve", "--y", "1.0", "--grid-points", "256", "--out", str(out),
            "--config", write_config(tmp_path, {"command": "solve", "model": {"kind": "white_noise"}}),
        ])
        assert code == 0
        rows = (out / "cdf.csv").read_text().strip().splitlines()
        assert rows[0] == "x,F"
        assert float(rows[-1].split(",")[1]) == pytest.approx(1.0, abs=5e-3)

    def test_numerical_failure_exit_code(self, tmp_path):
        out = tmp_path / "run"
        code = run([
            "solve", "--y", "1.0", "--out", str(out),
            "--config", write_config(
                tmp_path,
                {"command": "solve", "model": {"kind": "white_noise"},
                 "solver": {"max_iterations": 1, "residual_tol": 1e-30}},
            ),
        ])
        assert code == 3
        assert not out.exists() or not any(out.iterdir())


class TestSimulateCommand:
    def test_outputs_and_headers(self, tmp_path):
        out = tmp_path / "run"
        code = run([
            "simulate", "--p", "16", "--n", "16", "--replicates", "2",
            "--seed", "7", "--out", str(out),
            "--config", write_config(tmp_path, {"command": "simulate", "model": {"kind": "ma", "theta": [0.5]}}),
        ])
        assert code == 0
        eig = (out / "eigenvalues.csv").read_text().strip().splitlines()
        assert eig[0] == "replicate,index,lambda"
        assert len(eig) == 1 + 2 * 16
        esd = (out / "esd.csv").read_text().strip().splitlines()
        assert esd[0] == "x,F"
        last = esd[-1].split(",")
        assert float(last[1]) == 1.0

    def test_budget_exceeded_no_partial_files(self, tmp_path):
        out = tmp_path / "run"
        code = run([
            "simulate", "--p", "100000", "--n", "1000", "--out", str(out),
            "--config", write_config(tmp_path, {"command": "simulate", "model": {"kind": "white_noise"}}),
        ])
        assert code == 2
        assert not out.exists() or not any(out.iterdir())


class TestCompareCommand:
    def test_report_contents(self, tmp_path):
        out = tmp_path / "run"
        code = run([
            "compare", "--p", "128", "--n", "128", "--replicates", "2",
            "--seed", "3", "--out", str(out),
            "--config", write_config(tmp_path, {"command": "compare", "model": {"kind": "white_noise"}}),
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pooled_ks"]["normalized-y-direct"] <= 0.1
        assert report["trace_check"]["passed"]
        assert len(report["replicate_seeds"]) == 2
        assert not (out / "eigenvalues.csv").exists()

    def test_eigenvalue_dump_flag(self, tmp_path):
        out = tmp_path / "run"
        code = run([
            "compare", "--p", "16", "--n", "16", "--replicates", "2",
            "--seed", "3", "--dump-eigenvalues", "--out", str(out),
            "--config", write_config(tmp_path, {"command": "compare", "model": {"kind": "white_noise"}}),
        ])
        assert code == 0
        rows = (out / "eigenvalues.csv").read_text().strip().splitlines()
        assert rows[0] == "replicate,index,lambda"
        assert len(rows) == 1 + 2 * 16

    def test_trace_check_reuses_ensemble_records(self, tmp_path, monkeypatch):
        from lpspec import verify

        calls = []
        simulate = verify.simulate_record

        def counting(spec, length):
            calls.append(spec.innovations.seed)
            return simulate(spec, length)

        monkeypatch.setattr(verify, "simulate_record", counting)
        out = tmp_path / "run"
        code = run([
            "compare", "--p", "32", "--n", "48", "--replicates", "3",
            "--seed", "5", "--out", str(out),
            "--config", write_config(tmp_path, {"command": "compare", "model": {"kind": "ma", "theta": [0.5]}}),
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["trace_check"]["values"] == report["trace_stats"]
        assert sorted(calls) == sorted(report["replicate_seeds"])

    def test_byte_identical_across_jobs(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"command": "compare", "model": {"kind": "ma", "theta": [0.5]},
             "p": 64, "n": 64, "replicates": 3, "seed": 11},
        )
        out1, out4 = tmp_path / "j1", tmp_path / "j4"
        assert run(["compare", "--config", cfg, "--jobs", "1", "--out", str(out1)]) == 0
        assert run(["compare", "--config", cfg, "--jobs", "4", "--out", str(out4)]) == 0
        r1 = (out1 / "report.json").read_bytes()
        r4 = (out4 / "report.json").read_bytes()
        assert r1 == r4
        m1 = strip_timestamp((out1 / "manifest.json").read_text())
        m4 = strip_timestamp((out4 / "manifest.json").read_text())
        # manifests echo the jobs flag; drop it before comparing
        d1, d4 = json.loads(m1), json.loads(m4)
        d1["config"].pop("jobs")
        d4["config"].pop("jobs")
        assert d1 == d4


class TestStudyCommand:
    def test_trend_rows(self, tmp_path):
        out = tmp_path / "run"
        code = run([
            "study", "--y", "1.0", "--sizes", "32,64", "--replicates", "2",
            "--seed", "5", "--out", str(out),
            "--config", write_config(tmp_path, {"command": "study", "model": {"kind": "white_noise"}}),
        ])
        assert code == 0
        rows = (out / "trend.csv").read_text().strip().splitlines()
        assert rows[0] == "n,p,ks_median,ks_iqr"
        assert len(rows) == 3


class TestCalibrateCommand:
    def test_degenerate_ratio_exit_code(self, tmp_path):
        out = tmp_path / "run"
        code = run([
            "calibrate", "--p", "64", "--n", "64", "--replicates", "2",
            "--out", str(out),
            "--config", write_config(tmp_path, {"command": "calibrate"}),
        ])
        assert code == 2

    def test_small_calibration_run(self, tmp_path):
        out = tmp_path / "run"
        code = run([
            "calibrate", "--p", "64", "--n", "128", "--replicates", "4",
            "--seed", "11", "--out", str(out),
            "--config", write_config(tmp_path, {"command": "calibrate"}),
        ])
        assert code == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["selected"] == "normalized-yinv-direct"
        evidence = (out / "evidence.csv").read_text().strip().splitlines()
        assert evidence[0] == "seed,variant,ks_pooled,passed"
        assert len(evidence) == 1 + 8 * 3


def test_benchmark_wrap_targets_resolve():
    # the benchmark tracer skips missing targets silently; a renamed call
    # site would zero its per-layer metrics without this check
    import ast
    import importlib
    from pathlib import Path

    source = (Path(__file__).resolve().parents[1] / "bench" / "tracing.py").read_text()
    targets = next(
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    )
    assert targets
    missing = [
        (module, attr) for module, attr, _ in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_public_surface_resolves():
    # every advertised name must exist: the __all__ of each module, the
    # package re-exports, and the names README's quickstart imports (parsed,
    # not executed: running the snippet takes seconds)
    import ast
    import importlib
    import pkgutil
    from pathlib import Path

    import lpspec

    missing = []
    for info in pkgutil.iter_modules(lpspec.__path__):
        module = importlib.import_module(f"lpspec.{info.name}")
        missing += [(module.__name__, name) for name in module.__all__ if not hasattr(module, name)]

    def imported(source, package=None):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                module = importlib.import_module(("." * node.level) + (node.module or ""), package)
                yield from ((module, alias.name) for alias in node.names)

    init_source = Path(lpspec.__file__).read_text()
    reexports = list(imported(init_source, "lpspec"))
    assert reexports
    missing += [("lpspec", name) for _, name in reexports if not hasattr(lpspec, name)]
    missing += [(m.__name__, name) for m, name in reexports if name not in m.__all__]

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    snippet = section.split("```python", 1)[1].split("```", 1)[0]
    quickstart = [(m, name) for m, name in imported(snippet) if m.__name__.startswith("lpspec")]
    assert quickstart
    missing += [(m.__name__, name) for m, name in quickstart if not hasattr(m, name)]
    assert missing == []
