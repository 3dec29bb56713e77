import json
import logging
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lpspec
from lpspec.cli import ConfigError, parse_config, run
from lpspec.spectra import EigensolverError


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
        assert cfg["variant"] == "normalized-yinv-direct"
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

    def test_largest_seeds_accepted(self, tmp_path):
        # seeds are u64; calibrate also runs seed + 1 and seed + 2
        for command, seed in (("compare", 2**64 - 1), ("calibrate", 2**64 - 3)):
            doc = {"command": command, "p": 8, "n": 16, "seed": seed}
            if command == "compare":
                doc["model"] = {"kind": "white_noise"}
            assert parse_config(write_config(tmp_path, doc), {})["seed"] == seed

    @pytest.mark.parametrize("command", ["compare", "solve"])
    def test_largest_jobs_and_grid_points_accepted(self, tmp_path, command):
        # parsed only; one past either bound exits 2 (test_malformed_value_exits_2_naming_key)
        doc = {"command": command, "model": {"kind": "white_noise"}, "jobs": 256,
               "grid_points": 2**16, **({"p": 8, "n": 8} if command == "compare" else {"y": 1.0})}
        cfg = parse_config(write_config(tmp_path, doc), {})
        assert (cfg["jobs"], cfg["grid_points"]) == (256, 2**16)


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
        ({"command": "compare", "model": WHITE, "p": 8, "n": 8, "innovations": {"seed": [1]}}, "'seed'"),
        ({"command": "solve", "model": WHITE, "y": 1.0, "seed": None}, "'seed'"),
        ({"command": "solve", "model": WHITE, "y": 1.0, "out": 5}, "'out'"),
        ({"command": "solve", "model": WHITE, "y": 1.0, "grid_points": 0}, "'grid_points'"),
        ({"command": "study", "model": WHITE, "y": 1.0, "sizes": []}, "sizes"),
        ({"command": "solve", "model": WHITE, "y": 1.0, "n": 0}, "'n'"),
        ({"command": "compare", "model": WHITE, "p": 0, "n": 8}, "'p'"),
        ({"command": "simulate", "model": WHITE, "p": 8, "n": 8, "replicates": 0}, "'replicates'"),
        ({"command": "compare", "model": WHITE, "p": 8, "n": 8, "seed": 2**64}, "'seed'"),
        ({"command": "solve", "model": WHITE, "y": 1.0, "seed": 2**70}, "'seed'"),
        ({"command": "calibrate", "p": 8, "n": 16, "seeds": [1, 2**64]}, "'seeds'"),
        ({"command": "calibrate", "p": 8, "n": 16, "seeds": [-1]}, "'seeds'"),
        # calibrate without seeds also runs seed + 1 and seed + 2
        ({"command": "calibrate", "p": 8, "n": 16, "seed": 2**64 - 2}, "'seed'"),
        # a boolean is no number
        ({"command": "solve", "model": WHITE, "y": True}, "'y'"),
        ({"command": "compare", "model": WHITE, "p": True, "n": 8}, "'p'"),
        ({"command": "solve", "model": WHITE, "y": 1.0, "seed": True}, "'seed'"),
        ({"command": "solve", "model": WHITE, "y": 1.0, "grid_points": True}, "'grid_points'"),
        ({"command": "compare", "model": WHITE, "p": 8, "n": 8, "jobs": False}, "'jobs'"),
        ({"command": "solve", "model": WHITE, "y": 1.0, "horizon": True}, "'horizon'"),
        ({"command": "solve", "model": WHITE, "y": 1.0, "tail_tol": True}, "'tail_tol'"),
        ({"command": "solve", "model": WHITE, "y": 1.0, "solver": {"quadrature_points": True}},
         "'quadrature_points'"),
        ({"command": "study", "model": WHITE, "y": 1.0, "sizes": [True, 16]}, "'sizes'"),
        ({"command": "calibrate", "p": 8, "n": 16, "seeds": [True]}, "'seeds'"),
        ({"command": "solve", "model": {"kind": "ma", "theta": [True]}, "y": 1.0}, "'theta'"),
        ({"command": "solve", "model": {"kind": "ar1", "phi": True}, "y": 1.0}, "'phi'"),
        # a fraction is no integer
        ({"command": "compare", "model": WHITE, "p": 8.9, "n": 8}, "'p'"),
        ({"command": "compare", "model": WHITE, "p": 8, "n": 8.5}, "'n'"),
        ({"command": "compare", "model": WHITE, "p": 8, "n": 8, "replicates": 2.5}, "'replicates'"),
        ({"command": "compare", "model": WHITE, "p": 8, "n": 8, "jobs": 1.5}, "'jobs'"),
        ({"command": "solve", "model": WHITE, "y": 1.0, "grid_points": 64.5}, "'grid_points'"),
        ({"command": "solve", "model": WHITE, "y": 1.0, "seed": 1.5}, "'seed'"),
        ({"command": "compare", "model": WHITE, "p": 8, "n": 8, "horizon": 16.5}, "'horizon'"),
        ({"command": "study", "model": WHITE, "y": 1.0, "sizes": [8.7, 16]}, "'sizes'"),
        ({"command": "calibrate", "p": 8, "n": 16, "seeds": [1, 2.5]}, "'seeds'"),
        # a flag is a JSON boolean, not a string or a number
        ({"command": "compare", "model": WHITE, "p": 8, "n": 8, "dump_eigenvalues": "false"},
         "'dump_eigenvalues'"),
        ({"command": "compare", "model": WHITE, "p": 8, "n": 8, "dump_eigenvalues": 0},
         "'dump_eigenvalues'"),
        # a ratio is finite
        ({"command": "solve", "model": WHITE, "y": math.nan}, "'y'"),
        ({"command": "solve", "model": WHITE, "y": math.inf}, "'y'"),
        ({"command": "solve", "model": WHITE, "y": "nan"}, "'y'"),
        ({"command": "solve", "model": WHITE, "y": "1e400"}, "'y'"),
        ({"command": "study", "model": WHITE, "y": math.nan, "sizes": [8, 16]}, "'y'"),
        # zero jobs is no "auto": solve would record it, compare not name the key
        ({"command": "solve", "model": WHITE, "y": 1.0, "jobs": 0}, "'jobs'"),
        ({"command": "compare", "model": WHITE, "p": 8, "n": 8, "jobs": 0}, "'jobs'"),
        # a negative horizon, or too few grid points for one support interval
        ({"command": "solve", "model": WHITE, "y": 1.0, "horizon": -1}, "'horizon'"),
        ({"command": "solve", "model": WHITE, "y": 1.0, "grid_points": 1}, "'grid_points'"),
        ({"command": "solve", "model": WHITE, "y": 1.0, "grid_points": 2}, "'grid_points'"),
        # a model parameter is finite
        ({"command": "solve", "model": {"kind": "ma", "theta": [math.nan]}, "y": 1.0}, "'theta'"),
        ({"command": "compare", "model": {"kind": "ma", "theta": [math.inf]}, "p": 8, "n": 8}, "'theta'"),
        ({"command": "study", "model": {"kind": "ma", "theta": [math.nan]}, "y": 1.0, "sizes": [8, 16]},
         "'theta'"),
        ({"command": "simulate", "model": {"kind": "ma", "theta": [math.nan]}, "p": 8, "n": 8}, "'theta'"),
        ({"command": "solve", "model": {"kind": "ar1", "phi": math.nan}, "y": 1.0}, "'phi'"),
        ({"command": "compare", "model": {"kind": "ar1", "phi": -math.inf}, "p": 8, "n": 8}, "'phi'"),
        ({"command": "solve", "model": {"kind": "arma", "phi": [math.nan], "theta": [0.5]}, "y": 1.0},
         "'phi'"),
        ({"command": "solve", "model": {"kind": "arma", "phi": [0.5], "theta": [math.nan]}, "y": 1.0},
         "'theta'"),
        ({"command": "solve", "model": {"kind": "farima", "d": math.nan}, "y": 1.0}, "'d'"),
        ({"command": "solve", "model": {"kind": "explicit", "coefficients": [1.0, math.inf]}, "y": 1.0},
         "'coefficients'"),
        # a horizon past the longest one `default_horizon` searches
        ({"command": "solve", "model": {"kind": "farima", "d": -0.2}, "y": 1.0, "tail_tol": 1e-6,
          "horizon": 2**31 - 1}, "'horizon'"),
        ({"command": "compare", "model": WHITE, "p": 8, "n": 8, "horizon": 2**31 - 1}, "'horizon'"),
        ({"command": "simulate", "model": WHITE, "p": 8, "n": 8, "horizon": 2**31 - 1}, "'horizon'"),
        ({"command": "calibrate", "p": 8, "n": 16, "horizon": 2**31 - 1}, "'horizon'"),
        ({"command": "study", "model": WHITE, "y": 1.0, "sizes": [8, 16], "horizon": 2**31 - 1},
         "'horizon'"),
        # a model parameter whose spectral density overflows
        ({"command": "solve", "model": {"kind": "ma", "theta": [1e200]}, "y": 1.0}, "'theta'"),
        ({"command": "compare", "model": {"kind": "ma", "theta": [1e200]}, "p": 8, "n": 8}, "'theta'"),
        ({"command": "solve", "model": {"kind": "explicit", "coefficients": [1.0, 1e154, 1e154]},
          "y": 1.0}, "'coefficients'"),
        # an n past the longest default horizon, which it would set
        ({"command": "solve", "model": WHITE, "y": 1.0, "n": 2**22 + 1}, "'n'"),
        ({"command": "compare", "model": WHITE, "p": 1, "n": 2**22 + 1}, "'n'"),
        # a list key is a JSON list, each element bounded as its scalar key:
        # a size is the n of one ensemble
        ({"command": "study", "model": WHITE, "y": 1e-6, "sizes": [2**22 + 1]}, "'sizes'"),
        ({"command": "study", "model": WHITE, "y": 1.0, "sizes": [0]}, "'sizes'"),
        ({"command": "study", "model": WHITE, "y": 1.0, "sizes": [-3]}, "'sizes'"),
        ({"command": "study", "model": WHITE, "y": 1.0, "sizes": "48"}, "'sizes'"),
        ({"command": "study", "model": WHITE, "y": 1.0, "sizes": {"8": 1, "16": 2}}, "'sizes'"),
        ({"command": "calibrate", "p": 8, "n": 16, "seeds": "123"}, "'seeds'"),
        ({"command": "calibrate", "p": 8, "n": 16, "seeds": {"5": 1}}, "'seeds'"),
        ({"command": "calibrate", "p": 8, "n": 16, "seeds": []}, "'seeds'"),
        # each job is one OS thread, and grid_points sizes every array of a law
        # solve: one past each bound is rejected before any thread or array exists
        ({"command": "compare", "model": WHITE, "p": 8, "n": 8, "jobs": 257}, "'jobs'"),
        ({"command": "solve", "model": WHITE, "y": 1.0, "jobs": 257}, "'jobs'"),
        ({"command": "compare", "model": WHITE, "p": 8, "n": 8, "grid_points": 2**16 + 1},
         "'grid_points'"),
        ({"command": "solve", "model": WHITE, "y": 1.0, "grid_points": 2**16 + 1}, "'grid_points'"),
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


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"command": "solve",', "config file is not valid JSON"),
        ('[{"command": "solve"}]', "config file must hold a JSON object"),
        ('{"command": "solve", "model": {"kind": "white_noise"}, "y": 1.0, "solver": 5}',
         "solver must be a JSON object"),
    ],
    ids=["not-json", "list", "solver-number"],
)
def test_malformed_config_file_exits_2(tmp_path, caplog, text, message):
    path = tmp_path / "config.json"
    path.write_text(text)
    with caplog.at_level(logging.ERROR, logger="lpspec.cli"):
        assert run(["solve", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
    assert any(message in rec.getMessage() for rec in caplog.records)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("case", ["out-is-a-file", "output-is-a-directory", "config-is-a-directory"])
def test_unusable_path_exits_2_naming_it_and_leaves_no_outputs(tmp_path, caplog, case):
    config = write_config(tmp_path, {"command": "solve", "model": WHITE, "y": 2.0, "grid_points": 64})
    out = tmp_path / "run"
    if case == "out-is-a-file":
        out.write_text("kept")
        bad = out
    elif case == "output-is-a-directory":  # written last but manifest.json
        bad = out / "lsd.json"
        bad.mkdir(parents=True)
    else:
        bad = config = tmp_path / "configs"
        bad.mkdir()
    with caplog.at_level(logging.ERROR, logger="lpspec.cli"):
        assert run(["solve", "--config", str(config), "--out", str(out)]) == 2
    [record] = caplog.records
    assert record.getMessage().startswith("validation error: ") and str(bad) in record.getMessage()
    if case == "out-is-a-file":
        assert out.read_text() == "kept"
    elif case == "output-is-a-directory":  # cdf.csv and density.csv were written before it
        assert [path.name for path in out.iterdir()] == ["lsd.json"]
    else:
        assert not out.exists()


def test_horizon_bound_is_the_longest_default_horizon(tmp_path):
    # n sets the default horizon, so it has the same bound
    import inspect

    from lpspec.process import default_horizon

    longest = inspect.signature(default_horizon).parameters["max_horizon"].default
    for key in ("horizon", "n"):
        doc = {"command": "compare", "model": WHITE, "p": 1, "n": 8, key: longest}
        assert parse_config(write_config(tmp_path, doc), {})[key] == longest
        with pytest.raises(ConfigError, match=f"key '{key}' must be at most {longest}$"):
            parse_config(write_config(tmp_path, {**doc, key: longest + 1}), {})


FARIMA_SOLVE = {"command": "solve", "model": {"kind": "farima", "d": -0.2}, "y": 1.0, "tail_tol": 1e-6}


@pytest.mark.parametrize("points", [2**16 + 1, 2**40])
def test_quadrature_points_above_its_bound_exits_2_naming_it(tmp_path, caplog, points):
    # the trapezoid kernel sizes its arrays by it: 2**40 ran out of memory
    doc = {**FARIMA_SOLVE, "solver": {"quadrature_points": 2**16}}
    assert parse_config(write_config(tmp_path, doc), {})["solver"] == {"quadrature_points": 2**16}
    out = tmp_path / "run"
    doc["solver"]["quadrature_points"] = points
    with caplog.at_level(logging.ERROR, logger="lpspec.cli"):
        assert run(["solve", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    assert [rec.getMessage() for rec in caplog.records] == [
        "validation error: solver: key 'quadrature_points' must be in [2, 65536]"]
    assert not out.exists()


def test_non_finite_y_literal_and_flag_exit_2_naming_key(tmp_path, caplog):
    path = tmp_path / "config.json"
    path.write_text('{"command": "solve", "model": {"kind": "white_noise"}, "y": 1e400}')
    out = ["--out", str(tmp_path / "run")]
    with caplog.at_level(logging.ERROR, logger="lpspec.cli"):
        assert run(["solve", "--config", str(path)] + out) == 2
        path.write_text('{"command": "solve", "model": {"kind": "white_noise"}}')
        assert run(["solve", "--config", str(path), "--y", "nan"] + out) == 2
    assert sum("'y'" in rec.getMessage() for rec in caplog.records) == 2
    assert not (tmp_path / "run").exists()


def test_integral_numbers_and_numeric_strings_still_parse(tmp_path):
    doc = {"command": "calibrate", "p": "8", "n": 16.0, "seeds": ["11", 12, 13.0]}
    cfg = parse_config(write_config(tmp_path, doc), {})
    assert (cfg["p"], cfg["n"]) == (8, 16)
    assert cfg["seeds"] == ["11", 12, 13.0]  # echoed as given


# the keys each command reads besides command, seed, jobs and out; the
# required ones come first
READS = {
    "simulate": ("model", "p", "n", "replicates", "innovations", "horizon", "tail_tol"),
    "solve": ("model", "y", "n", "variant", "solver", "grid_points", "horizon", "tail_tol"),
    "compare": ("model", "p", "n", "replicates", "innovations", "horizon", "tail_tol",
                "variant", "solver", "grid_points", "dump_eigenvalues"),
    "calibrate": ("p", "n", "replicates", "seeds", "innovations", "horizon", "tail_tol",
                  "solver", "grid_points"),
    "study": ("model", "y", "sizes", "replicates", "innovations", "horizon", "tail_tol",
              "variant", "solver", "grid_points"),
}
REQUIRED = {"simulate": 3, "solve": 2, "compare": 3, "calibrate": 2, "study": 3}
# a valid value for every key that some command reads
VALUES = {"model": WHITE, "innovations": {"dist": "uniform"}, "p": 8, "n": 16, "y": 0.5,
          "replicates": 2, "sizes": [8, 16], "seeds": [1, 2, 3],
          "variant": "normalized-yinv-direct", "solver": {"quadrature_points": 64},
          "grid_points": 64, "horizon": 16, "tail_tol": 1e-6, "dump_eigenvalues": True}
UNREAD = [(command, key) for command in READS for key in VALUES if key not in READS[command]]


def required_doc(command):
    return {"command": command, **{k: VALUES[k] for k in READS[command][:REQUIRED[command]]}}


@pytest.mark.parametrize("command, key", UNREAD)
def test_unread_key_exits_2_naming_key_and_command(tmp_path, caplog, command, key):
    out = tmp_path / "run"
    path = write_config(tmp_path, {**required_doc(command), key: VALUES[key]})
    with caplog.at_level(logging.ERROR, logger="lpspec.cli"):
        assert run([command, "--config", path, "--out", str(out)]) == 2
    message = " ".join(rec.getMessage() for rec in caplog.records)
    assert repr(key) in message and repr(command) in message
    assert not out.exists()


# the integer keys in the other forms they are accepted in: an integer
# string or an integral number
LOOSE = {"p": "8", "n": 16.0, "replicates": "2", "sizes": ["8", 16.0], "seeds": ["1", 2.0, 3],
         "grid_points": 64.0, "horizon": "16", "seed": "7", "jobs": 2.0}


@pytest.mark.parametrize("command", sorted(READS))
def test_full_key_doc_resolves_to_its_values_and_defaults(tmp_path, command):
    doc = {"command": command, **{k: VALUES[k] for k in READS[command]}}
    assert parse_config(write_config(tmp_path, doc), {}) == {**doc, "seed": 0, "jobs": 1, "out": "out"}
    loose = {**doc, **{k: v for k, v in LOOSE.items() if k in doc or k in ("seed", "jobs")}}
    want = {**doc, "seed": 7, "jobs": 2, "out": "out"}
    if "seeds" in doc:
        want["seeds"] = LOOSE["seeds"]  # echoed as given
    assert parse_config(write_config(tmp_path, loose), {}) == want


@pytest.mark.parametrize(
    "command, flags, key",
    [
        ("calibrate", ["--variant", "raw-y-direct"], "variant"),
        ("solve", ["--replicates", "2"], "replicates"),
        ("simulate", ["--grid-points", "64"], "grid_points"),
        ("study", ["--p", "8"], "p"),
        ("compare", ["--sizes", "8,16"], "sizes"),
    ],
)
def test_unread_flag_exits_2_naming_key(tmp_path, caplog, command, flags, key):
    out = tmp_path / "run"
    path = write_config(tmp_path, required_doc(command))
    with caplog.at_level(logging.ERROR, logger="lpspec.cli"):
        assert run([command, "--config", path, "--out", str(out), *flags]) == 2
    assert any(repr(key) in rec.getMessage() for rec in caplog.records)
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(READS))
def test_every_read_key_accepted_and_only_read_keys_resolved(tmp_path, command):
    doc = {"command": command, **{k: VALUES[k] for k in READS[command]}}
    cfg = parse_config(write_config(tmp_path, doc), {})
    assert set(cfg) == {"command", "seed", "jobs", "out", *READS[command]}
    first = READS[command][0]
    doc = {k: v for k, v in required_doc(command).items() if k != first}
    with pytest.raises(ConfigError, match=f"missing required key '{first}' for command '{command}'"):
        parse_config(write_config(tmp_path, doc), {})


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
        assert solution["variant"] == "normalized-yinv-direct"
        assert abs(solution["atom"]) <= 1e-3

    def test_flags_before_the_command(self, tmp_path):
        out = tmp_path / "run"
        config = write_config(tmp_path, {"command": "solve", "model": WHITE})
        assert run(["--y", "2.0", "--out", str(out), "solve", "--config", config]) == 0
        assert json.loads((out / "lsd.json").read_text())["y"] == 2.0

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

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch, caplog):
        from lpspec import lsd

        monkeypatch.setattr(lsd, "_MAX_ITERATIONS", 1)
        monkeypatch.setattr(lsd, "_RESIDUAL_TOL", 1e-30)
        out = tmp_path / "run"
        with caplog.at_level(logging.ERROR, logger="lpspec.cli"):
            code = run([
                "solve", "--y", "1.0", "--out", str(out),
                "--config", write_config(tmp_path, {"command": "solve", "model": {"kind": "white_noise"}}),
            ])
        assert code == 3
        assert not out.exists() or not any(out.iterdir())
        # the message names the stage, the point and the residual
        message = " ".join(rec.getMessage() for rec in caplog.records)
        assert re.search(r"density: solve failed at x = \d", message)
        assert re.search(r"residual \d\.\d+e[+-]\d+", message)

    def test_coarse_trapezoid_solve_returns_or_exits_3(self, tmp_path, monkeypatch, caplog):
        # FARIMA at 64 quadrature points: a zero of f on the trapezoid kernel
        from lpspec import lsd

        doc = {"command": "solve", "model": {"kind": "farima", "d": -0.2}, "y": 0.5,
               "tail_tol": 1e-6, "solver": {"quadrature_points": 64}}
        out = tmp_path / "run"
        assert run(["solve", "--out", str(out), "--config", write_config(tmp_path, doc)]) == 0
        assert json.loads((out / "lsd.json").read_text())["atom"] == 0.0
        monkeypatch.setattr(lsd, "_MAX_ITERATIONS", 1)
        monkeypatch.setattr(lsd, "_RESIDUAL_TOL", 1e-30)
        out = tmp_path / "failed"
        with caplog.at_level(logging.ERROR, logger="lpspec.cli"):
            code = run(["solve", "--out", str(out), "--config", write_config(tmp_path, doc)])
        assert code == 3
        message = " ".join(rec.getMessage() for rec in caplog.records)
        assert re.search(r"density: solve failed at x = \d.*residual \d\.\d+e[+-]\d+", message)

    def test_grid_too_coarse_for_the_support_intervals_exits_2(self, tmp_path, caplog):
        # the trapezoid kernel splits FARIMA(-0.2)'s law at y = 2 into 4 intervals
        cfg = write_config(tmp_path, {"command": "solve", "model": {"kind": "farima", "d": -0.2},
                                      "y": 2.0, "tail_tol": 1e-6, "grid_points": 5})
        with caplog.at_level(logging.ERROR, logger="lpspec.cli"):
            assert run(["solve", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        assert any("grid_points = 5 cannot resolve 4 support intervals" in rec.getMessage()
                   for rec in caplog.records)
        assert not (tmp_path / "run").exists()

    def test_law_outside_unit_interval_exit_code(self, tmp_path, caplog):
        # raw-y-companion of AR(1) phi = 0.9 at y = 0.5 reads an atom of -1
        out = tmp_path / "run"
        doc = {"command": "solve", "model": {"kind": "ar1", "phi": 0.9}, "y": 0.5,
               "variant": "raw-y-companion"}
        with caplog.at_level(logging.ERROR, logger="lpspec.cli"):
            code = run(["solve", "--out", str(out), "--config", write_config(tmp_path, doc)])
        assert code == 3
        assert not (out / "lsd.json").exists()
        assert not out.exists() or not any(out.iterdir())
        message = " ".join(rec.getMessage() for rec in caplog.records)
        assert "atom in [0, 1] and CDF in [0, 1]" in message
        assert "raw-y-companion" in message and "y = 0.5" in message

    def test_decreasing_cdf_exit_code(self, tmp_path, monkeypatch, caplog):
        # a law whose CDF falls between two nodes, though it stays in [0, 1]
        from lpspec import cli
        from lpspec.lsd import DEFAULT_VARIANT, LsdSolution

        law = LsdSolution(0.5, DEFAULT_VARIANT, np.array([1.0, 2.0, 3.0, 4.0]), np.ones(4),
                          np.array([0.25, 0.5, 0.375, 1.0]), 0.0, (1.0, 4.0))
        monkeypatch.setattr(cli, "solve_lsd", lambda *args, **kwargs: law)
        out = tmp_path / "run"
        doc = {"command": "solve", "model": {"kind": "ma", "theta": [0.5]}, "y": 0.5}
        with caplog.at_level(logging.ERROR, logger="lpspec.cli"):
            assert run(["solve", "--out", str(out), "--config", write_config(tmp_path, doc)]) == 3
        assert not out.exists() or not any(out.iterdir())
        assert [rec.getMessage() for rec in caplog.records] == [
            "numerical failure: invariant monotone CDF fails for variant normalized-yinv-direct "
            "at y = 0.5: F falls from 0.5 to 0.375 at x = 3.0"]


@pytest.mark.parametrize(
    "command, model, peak",
    [
        ("solve", {"kind": "ma", "theta": [1e52]}, "1e+104"),
        ("solve", {"kind": "explicit", "coefficients": [1e-55]}, "1e-110"),
        ("compare", {"kind": "ma", "theta": [1e52]}, "1e+104"),
    ],
)
def test_density_peak_outside_the_solver_range_exits_3(tmp_path, caplog, command, model, peak):
    doc = {"command": command, "model": model, **({"y": 1.0} if command == "solve" else {"p": 8, "n": 8})}
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with caplog.at_level(logging.ERROR, logger="lpspec.cli"):
            assert run([command, "--out", str(out), "--config", write_config(tmp_path, doc)]) == 3
    assert [rec.getMessage() for rec in caplog.records] == [
        f"numerical failure: spectral density peak {peak} lies outside [1e-101, 1e+101], "
        "the range the solver handles"]
    assert not out.exists() or not any(out.iterdir())


SWEEP_RATIOS = [5e-324, 1e-300, *(10.0**k for k in range(-16, 17)), 1e300]


@pytest.mark.parametrize("model", [{"kind": "white_noise"}, {"kind": "ma", "theta": [0.5]},
                                   {"kind": "ar1", "phi": 0.9},
                                   {"kind": "arma", "phi": [0.5], "theta": [0.4]}],
                         ids=lambda model: model["kind"])
def test_solve_across_aspect_ratios_warns_never(tmp_path, caplog, model):
    # each ratio writes a law in [0, 1] or exits 3 with one log line; every
    # ratio from 1e-8 to 1e8 solves, and one outside [1e-16, 1e16] is refused
    for i, y in enumerate(SWEEP_RATIOS):
        out = tmp_path / str(i)
        caplog.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with caplog.at_level(logging.ERROR, logger="lpspec.cli"):
                code = run(["solve", "--out", str(out),
                            "--config", write_config(tmp_path, {"command": "solve", "model": model, "y": y})])
        messages = [rec.getMessage() for rec in caplog.records]
        assert code in ((0,) if 1e-8 <= y <= 1e8 else (0, 3)), (y, messages)
        assert len(messages) == bool(code), (y, messages)
        if code:
            assert messages[0].startswith("numerical failure: ")
            assert not out.exists() or not any(out.iterdir())
        if not 1e-16 <= y <= 1e16:
            assert messages == [f"numerical failure: aspect ratio y = {y!r} lies outside [1e-16, 1e+16], "
                                "the range the solver handles"]


# SHA-256 of the files `solve` writes for the four laws of the benchmark's
# `law` workload, one trapezoid-kernel law and one law whose density peaks at
# 1e100, near the top of the range the solver handles.  The solve is deterministic,
# so they pin every byte.  The density.csv digests date from before the
# writers shared their float texts; lsd.json and cdf.csv changed when the
# CDF came to be read off the solved roots.
SOLVE_DIGESTS = {
    "white": ({"kind": "white_noise"}, 2.0, {}, {
        "lsd.json": "14be67a4e8bbe03b947797dd926f0f8296eba5b9a5b1fe7e549425b4aa065101",
        "density.csv": "31f61f6af669f183cc64499f4d2cc9f67992e688e841f313ee7ae796115ae21e",
        "cdf.csv": "5a7795221a6f0efe7ed6b69ea955e7b8d47e0c511600981417086b2f8694b3fd"}),
    "ma": ({"kind": "ma", "theta": [0.5]}, 2.0, {}, {
        "lsd.json": "6e095436c069466838f2ff10d9bbb864af9c10c08c3ca65f633a607f0437f712",
        "density.csv": "d94df669608cc664d24cae895ec06204f1a1eea035372c4cc65073c62df4b4ee",
        "cdf.csv": "97c184f1dda08b30e502373d6f1d0eda5577a54ade1dcdd761558c4901a8bc38"}),
    "ar1": ({"kind": "ar1", "phi": 0.9}, 0.5, {}, {
        "lsd.json": "6b5c7f971418eac626d84c75f012399a76410b75133ae81fe981c62be527157d",
        "density.csv": "6664c88e39f0bbab9dc9071adc435eefd75a70357f5af492efc7a3992a4b3d9a",
        "cdf.csv": "0d6de71c4189523fc6cdba9465768640692c3d6a08945d5fd5be1fc64fa0ae9a"}),
    "arma": ({"kind": "arma", "phi": [0.5], "theta": [0.4]}, 1.5, {}, {
        "lsd.json": "c7bb2b90aef6baad45b03ebf20ad54540bbcbc4353265904a81a7a3edc972071",
        "density.csv": "2a5eed700a40cf833e65ea4ffac014e6c56a77592b6ff42e01f8425216b947d1",
        "cdf.csv": "dba9e56a27ba31fa8b335bf37d6e8bf78f6f3c6ce90f27bbecf7fdceb4a94f7a"}),
    "farima": ({"kind": "farima", "d": -0.2}, 1.5, {"tail_tol": 1e-6}, {
        "lsd.json": "5e15d688a1d4503393fed2d6758f6c255c0e79c4f098e9572f4755f99e6efce5",
        "density.csv": "40d31fcc51db5508e15e268b595d0f3d2db21d1e257d32bd7108d924a3eba8fc",
        "cdf.csv": "4babe7f651b171b8890d6a092aa2473daf6c12503bb7e45bd2398f38221178b6"}),
    "peak": ({"kind": "ma", "theta": [1e50]}, 1.0, {}, {
        "lsd.json": "e1375587f63937131d34a95262ff87a7665b053688918af6878c36bda94090c2",
        "density.csv": "5645003431689087d3dd0dedccd09efa344043f2ba950af2f9d1535d05174aa9",
        "cdf.csv": "730dafad4c9b3f4ae521159eb22d6a1ba312e13bcda5555db751d41074422d81"}),
}

# SHA-256 of every file but manifest.json that one run of each ensemble
# command writes; the runs are seeded and every ensemble runs at one BLAS
# thread, so they pin every byte.  FARIMA(-0.2) at tail_tol 1e-6 has
# a 1183-tap kernel, so its records take the FFT filter path.
ENSEMBLE_DIGESTS = {
    "compare-ma": ({"command": "compare", "model": {"kind": "ma", "theta": [0.5]}, "p": 48, "n": 64,
                    "replicates": 3, "seed": 11, "dump_eigenvalues": True}, {
        "eigenvalues.csv": "16aea858083bc209388d11d908596989a94b7e2f316493e1ad317f0f18addb0a",
        "report.json": "e7476b91c127eae3dbe79c529ce145be101fdab1a95ffc6cd9c765cee4742f09"}),
    "compare-ar1-rademacher": ({"command": "compare", "model": {"kind": "ar1", "phi": 0.9}, "p": 96,
                                "n": 48, "replicates": 3, "seed": 5,
                                "innovations": {"dist": "rademacher"}}, {
        "report.json": "5838d2147c52b93cca1cb96eaa634196c127690abb39a24b81e41f81c02a8b5c"}),
    "compare-farima": ({"command": "compare", "model": {"kind": "farima", "d": -0.2}, "p": 32,
                        "n": 64, "replicates": 2, "seed": 3, "tail_tol": 1e-6}, {
        "report.json": "673f69dceb349edd6843b13649fa20c3585ec96396b738d66ef1112d6d1e7356"}),
    "calibrate": ({"command": "calibrate", "p": 64, "n": 128, "replicates": 4, "seed": 11}, {
        "evidence.csv": "50e69a378206a6d1752a0e3d66c7294d84ac113f6a80b07643dafb91331672bc",
        "verdict.json": "48e11102ab232788ca99d8eb7c1afe924ace42cbe6e2720085d3302fd663b6e9"}),
    "simulate-arma": ({"command": "simulate", "model": {"kind": "arma", "phi": [0.5], "theta": [0.4]},
                       "p": 24, "n": 16, "replicates": 3, "seed": 11}, {
        "eigenvalues.csv": "d225a47f7193d3e1cf3a3e7fb00a07172ab62dad1330b156ae00c7523520d29e",
        "esd.csv": "6477d7e27799ad423eb04345f61d94bba483180b165676f66f2bb92734b83722"}),
    "study-ma": ({"command": "study", "model": {"kind": "ma", "theta": [0.5]}, "y": 0.5,
                  "sizes": [16, 32], "replicates": 3, "seed": 11}, {
        "study.json": "966f15e340fa3cfbb303f5aba8bd14d5589f8d5ab2abd3783ba4802cdff5b99f",
        "trend.csv": "b610f0319f063fa26a7cdd3292c191e99f796c15b9f12038c808b4763e38b696"}),
}


class TestOutputText:
    FLOATS = [0.5, -0.0, 0.0, 5e-324, 1e300, -1e-300, 1.0 / 3.0, math.nan, math.inf, -math.inf]

    def test_json_writer_is_json_dumps(self):
        from lpspec.cli import _floats, _json_text

        docs = [
            {},
            {"floats": self.FLOATS, "ints": [0, -7, 2**64 - 1], "flags": [True, False],
             "text": "a \"quoted\"\nline, caf\u00e9", "none": None, "empty": [], "nothing": {},
             "nested": {"b": [[], [1.5, [{}]], {"z": {"y": [math.nan]}}], "a": {"x": -0.0}},
             "scalar": 1e-7},
        ]
        for doc in docs:
            assert _json_text(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        lists = {"grid": self.FLOATS, "empty": [], "one": [2.5]}
        doc = {**lists, "atom": 0.25, "support": [0.0, 1.0]}
        texts = {key: _floats(values) for key, values in lists.items()}
        assert _json_text(doc, texts) == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_csv_writer_keeps_the_cell_rule(self):
        from lpspec.cli import _cells, _csv_text, _floats

        rows = [(3, "normalized-y-direct", 0.1, True), (2**64 - 1, "raw", np.float64(1e-17), False),
                *((k, "x", v, None) for k, v in enumerate(self.FLOATS))]
        # repr for floats and str otherwise; an np.float64 is written as the
        # number it holds, not as numpy's repr "np.float64(...)"
        want = "a,b,c,d\n" + "".join(
            ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) + "\n"
            for row in rows)
        assert _csv_text(["a", "b", "c", "d"], map(_cells, zip(*rows))) == want
        assert _floats(np.array(self.FLOATS)) == _cells(self.FLOATS)
        assert _csv_text(["x", "F"], [[], []]) == "x,F\n"
        assert _csv_text(["a"], [["", "b", ""]]) == "a\n\nb\n\n"  # an empty row is a row

    @pytest.mark.parametrize("law", sorted(SOLVE_DIGESTS))
    def test_solve_outputs_keep_their_bytes(self, tmp_path, law):
        import hashlib

        model, y, extra, digests = SOLVE_DIGESTS[law]
        out = tmp_path / law
        config = write_config(tmp_path, {"command": "solve", "model": model, "y": y, **extra})
        assert run(["solve", "--config", config, "--out", str(out),
                    "--variant", "normalized-yinv-direct"]) == 0
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in digests}
        assert got == digests

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("name", sorted(ENSEMBLE_DIGESTS))
    def test_ensemble_outputs_keep_their_bytes(self, tmp_path, name, jobs):
        import hashlib

        doc, digests = ENSEMBLE_DIGESTS[name]
        out = tmp_path / name
        assert run([doc["command"], "--config", write_config(tmp_path, doc), "--out", str(out),
                    "--jobs", str(jobs)]) == 0
        got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out.iterdir() if path.name != "manifest.json"}
        assert got == digests


def test_cached_parser_keeps_no_state_between_runs(tmp_path):
    from lpspec.cli import build_parser

    assert build_parser() is build_parser()
    config = write_config(tmp_path, {"command": "solve", "model": WHITE, "y": 2.0})
    first, second = tmp_path / "first", tmp_path / "second"
    assert run(["solve", "--config", config, "--out", str(first), "--y", "0.5",
                "--grid-points", "64"]) == 0
    assert run(["solve", "--config", config, "--out", str(second)]) == 0
    configs = [json.loads((out / "manifest.json").read_text())["config"] for out in (first, second)]
    assert (configs[0]["y"], configs[0]["grid_points"]) == (0.5, 64)
    assert (configs[1]["y"], configs[1]["grid_points"]) == (2.0, 1024)
    assert len(json.loads((second / "lsd.json").read_text())["grid"]) == 1024


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

    def test_p_rows_per_replicate_at_p_above_n(self, tmp_path):
        # the n x n side gives n eigenvalues; the p - n exact zeros are written too
        out = tmp_path / "run"
        doc = {"command": "simulate", "model": {"kind": "ma", "theta": [0.5]},
               "p": 24, "n": 10, "replicates": 2}
        assert run(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "eigenvalues.csv").read_text().splitlines()[1:]]
        assert [(rep, idx) for rep, idx, _ in rows] == [(str(r), str(i)) for r in range(2) for i in range(24)]
        assert [float(lam) == 0.0 for _, _, lam in rows] == ([True] * 14 + [False] * 10) * 2

    def test_budget_exceeded_no_partial_files(self, tmp_path):
        out = tmp_path / "run"
        code = run([
            "simulate", "--p", "100000", "--n", "1000", "--out", str(out),
            "--config", write_config(tmp_path, {"command": "simulate", "model": {"kind": "white_noise"}}),
        ])
        assert code == 2
        assert not out.exists() or not any(out.iterdir())

    def test_budget_counts_the_replicates_in_flight(self, tmp_path, caplog):
        # one 4096 x 4096 record fits the budget, two at once do not
        out = tmp_path / "run"
        code = run([
            "compare", "--p", "4096", "--n", "4096", "--replicates", "2", "--jobs", "2",
            "--out", str(out),
            "--config", write_config(tmp_path, {"command": "compare", "model": {"kind": "white_noise"}}),
        ])
        assert code == 2
        assert "p*n*min(jobs, replicates) + p*replicates = 33562624" in caplog.text
        assert not out.exists() or not any(out.iterdir())

    def test_byte_identical_across_jobs(self, tmp_path):
        cfg = write_config(tmp_path, {"command": "simulate", "model": {"kind": "ma", "theta": [0.5]},
                                      "p": 24, "n": 16, "replicates": 3, "seed": 11})
        out1, out2 = tmp_path / "j1", tmp_path / "j2"
        assert run(["simulate", "--config", cfg, "--jobs", "1", "--out", str(out1)]) == 0
        assert run(["simulate", "--config", cfg, "--jobs", "2", "--out", str(out2)]) == 0
        for name in ("eigenvalues.csv", "esd.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


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
        assert report["pooled_ks"]["normalized-yinv-direct"] <= 0.1
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

        def counting(spec, length, *block):
            calls.append(spec.innovations.seed)
            return simulate(spec, length, *block)

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

    def test_byte_identical_across_jobs_at_gram_side_256(self, tmp_path):
        # from a Gram side of 256 the eigenvalue bits depend on the BLAS thread
        # count; every ensemble runs at one thread whatever count the process
        # has, so one digest holds at 1 and 2 threads and jobs.  At p > n the
        # record is streamed into the n x n Gram, two pieces of 256 rows here
        import hashlib

        from lpspec.spectra import _openblas

        cfg = write_config(
            tmp_path,
            {"command": "compare", "model": {"kind": "ma", "theta": [0.5]},
             "p": 512, "n": 256, "replicates": 3, "seed": 7},
        )
        lib = _openblas()
        before = lib.scipy_openblas_get_num_threads64_()
        digests = set()
        try:
            for threads in (1, 2):
                lib.scipy_openblas_set_num_threads64_(threads)
                for jobs in ("1", "2"):
                    out = tmp_path / f"t{threads}j{jobs}"
                    assert run(["compare", "--config", cfg, "--jobs", jobs, "--out", str(out)]) == 0
                    digests.add(hashlib.sha256((out / "report.json").read_bytes()).hexdigest())
        finally:
            lib.scipy_openblas_set_num_threads64_(before)
        assert digests == {"84f4ea3af855517ef0006f3c86a4695626520f39762a5551f8911841158038c1"}

    def test_horizon_below_model_order_exit_code(self, tmp_path, caplog):
        # a horizon of 0 would simulate white noise against the MA(0.5) law
        out = tmp_path / "run"
        doc = {"command": "compare", "model": {"kind": "ma", "theta": [0.5]},
               "p": 8, "n": 8, "horizon": 0}
        with caplog.at_level(logging.ERROR, logger="lpspec.cli"):
            code = run(["compare", "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        message = " ".join(rec.getMessage() for rec in caplog.records)
        assert "horizon 0 is below the order 1" in message


    def test_eigensolver_failure_exit_code(self, tmp_path, monkeypatch, caplog):
        from lpspec import verify

        def failing(matrix, **kwargs):
            raise EigensolverError("synthetic failure")

        monkeypatch.setattr(verify, "sym_eigenvalues", failing)
        out = tmp_path / "run"
        with caplog.at_level(logging.ERROR, logger="lpspec.cli"):
            code = run([
                "compare", "--p", "16", "--n", "16", "--replicates", "2", "--out", str(out),
                "--config", write_config(tmp_path, {"command": "compare", "model": {"kind": "white_noise"}}),
            ])
        assert code == 3
        assert not out.exists() or not any(out.iterdir())
        message = " ".join(rec.getMessage() for rec in caplog.records if rec.name == "lpspec.cli")
        assert "eigensolve: all 2 replicates failed" in message


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

    def test_tied_medians_write_rho_zero_as_strict_json(self, tmp_path):
        # p = 1 at both sizes, so every KS is 1: rho was NaN, which JSON lacks
        doc = {"command": "study", "model": WHITE, "y": 1e-6, "sizes": [4, 8], "replicates": 2}
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["study", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        assert json.loads((out / "study.json").read_text(), parse_constant=reject)["spearman_rho"] == 0.0

    def test_byte_identical_across_jobs(self, tmp_path):
        cfg = write_config(tmp_path, {"command": "study", "model": {"kind": "ma", "theta": [0.5]},
                                      "y": 0.5, "sizes": [16, 32], "replicates": 3, "seed": 11})
        out1, out2 = tmp_path / "j1", tmp_path / "j2"
        assert run(["study", "--config", cfg, "--jobs", "1", "--out", str(out1)]) == 0
        assert run(["study", "--config", cfg, "--jobs", "2", "--out", str(out2)]) == 0
        for name in ("trend.csv", "study.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# a non-default value for every ensemble setting the config carries
SETTINGS = {"horizon": 40, "tail_tol": 1e-8, "grid_points": 256,
            "innovations": {"dist": "uniform"}, "solver": {"quadrature_points": 64}}
MA05 = {"kind": "ma", "theta": [0.5]}


@pytest.mark.parametrize(
    "doc",
    [
        {"command": "simulate", "model": MA05, "p": 16, "n": 16, "replicates": 2},
        {"command": "compare", "model": MA05, "p": 16, "n": 16, "replicates": 2},
        {"command": "calibrate", "p": 64, "n": 128, "replicates": 4, "seed": 11},
        {"command": "study", "model": MA05, "y": 0.5, "sizes": [16, 32], "replicates": 2},
    ],
    ids=lambda doc: doc["command"],
)
def test_settings_reach_every_ensemble(tmp_path, monkeypatch, doc):
    from lpspec import cli, verify
    from lpspec.lsd import SolverConfig

    configs, solves = [], []
    ensemble, solve = verify.run_ensemble, verify.solve_lsd

    def recording_ensemble(config, *args, **kwargs):
        configs.append(config)
        return ensemble(config, *args, **kwargs)

    def recording_solve(f, y, **kwargs):
        solves.append(kwargs)
        return solve(f, y, **kwargs)

    monkeypatch.setattr(cli, "run_ensemble", recording_ensemble)
    monkeypatch.setattr(verify, "run_ensemble", recording_ensemble)
    monkeypatch.setattr(verify, "solve_lsd", recording_solve)
    simulate = doc["command"] == "simulate"
    # simulate solves no law, so it reads neither `solver` nor `grid_points`
    settings = {k: v for k, v in SETTINGS.items()
                if not (simulate and k in ("solver", "grid_points"))}
    argv = [doc["command"], "--config", write_config(tmp_path, {**doc, **settings}),
            "--out", str(tmp_path / "run")]
    assert run(argv) == 0
    solver = SolverConfig(quadrature_points=64)
    assert configs
    for config in configs:
        assert (config.horizon, config.tail_tol, config.distribution) == (40, 1e-8, "uniform")
        if not simulate:
            assert (config.grid_points, config.solver) == (256, solver)
    assert bool(solves) == (not simulate)
    assert all((kw["grid_points"], kw["config"]) == (256, solver) for kw in solves)


def test_study_honours_tail_tol(tmp_path):
    # the default tail_tol 1e-12 needs a horizon beyond 2**22 for FARIMA(-0.2)
    doc = {"command": "study", "model": {"kind": "farima", "d": -0.2}, "y": 1.0,
           "sizes": [16, 32], "replicates": 2, "tail_tol": 1e-6,
           "solver": {"quadrature_points": 64}, "grid_points": 128}
    out = tmp_path / "run"
    assert run(["study", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    assert len((out / "trend.csv").read_text().strip().splitlines()) == 3


AR09 = {"kind": "ar1", "phi": 0.9}


@pytest.mark.parametrize(
    "doc, searches",
    [
        ({"command": "compare", "model": AR09, "p": 64, "n": 128, "replicates": 6}, 1),
        ({"command": "study", "model": AR09, "y": 0.5, "sizes": [32, 64, 128], "replicates": 6}, 3),
    ],
    ids=lambda case: case["command"] if isinstance(case, dict) else str(case),
)
def test_one_horizon_search_per_ensemble(tmp_path, monkeypatch, doc, searches):
    # AR(0.9) has infinite order: each config searches its horizon once, and
    # its replicates, its law and its report read that one
    from lpspec import verify

    calls = []
    search = verify.default_horizon
    monkeypatch.setattr(verify, "default_horizon", lambda *args: calls.append(args) or search(*args))
    cfg = write_config(tmp_path, doc)
    assert run([doc["command"], "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert len(calls) == searches


@pytest.mark.parametrize("command", ["compare", "study"])
def test_ensemble_law_outside_unit_interval_exits_3_before_any_replicate(
        tmp_path, monkeypatch, caplog, command):
    # raw-yinv-companion of MA(0.5) at y = 2 reads an atom of -1, as `solve` refuses
    from lpspec import verify

    monkeypatch.setattr(verify, "_one_lane", lambda *args: pytest.fail("simulated a replicate"))
    doc = {"command": command, "model": {"kind": "ma", "theta": [0.5]},
           "variant": "raw-yinv-companion", "replicates": 2,
           **({"p": 64, "n": 32} if command == "compare" else {"y": 2.0, "sizes": [16, 32]})}
    out = tmp_path / "run"
    with caplog.at_level(logging.ERROR, logger="lpspec.cli"):
        assert run([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 3
    messages = [rec.getMessage() for rec in caplog.records]
    assert len(messages) == 1
    assert messages[0].startswith("numerical failure: invariant atom in [0, 1] and CDF in [0, 1] "
                                  "fails for variant raw-yinv-companion at y = 2.0: atom -1.0")
    assert not out.exists() or not any(out.iterdir())


class TestCalibrateCommand:
    def test_degenerate_ratio_exit_code(self, tmp_path):
        out = tmp_path / "run"
        code = run([
            "calibrate", "--p", "64", "--n", "64", "--replicates", "2",
            "--out", str(out),
            "--config", write_config(tmp_path, {"command": "calibrate"}),
        ])
        assert code == 2

    def test_ambiguous_calibration_exit_code(self, tmp_path, caplog):
        # at p = 4, n = 8 one replicate cannot tell the variants apart
        out = tmp_path / "run"
        with caplog.at_level(logging.ERROR, logger="lpspec.cli"):
            code = run([
                "calibrate", "--p", "4", "--n", "8", "--replicates", "1", "--out", str(out),
                "--config", write_config(tmp_path, {"command": "calibrate"}),
            ])
        assert code == 3
        assert not out.exists() or not any(out.iterdir())
        message = " ".join(rec.getMessage() for rec in caplog.records)
        assert "ambiguous calibration at seed 0" in message

    @staticmethod
    def scripted_ks(monkeypatch, passing):
        """Replace `ks_distance` in `lpspec.verify`: at the i-th seed only
        `passing[i]` passes (KS 0, every other variant 0.5), and the
        confirmation reads 0.5."""
        import lpspec.verify as verify_mod
        from lpspec.lsd import all_variants

        labels = [v.label for v in all_variants()]
        calls = []

        def ks(cdf, law):
            seed, variant = divmod(len(calls), len(labels))
            calls.append(1)
            return 0.0 if seed < len(passing) and labels[variant] == passing[seed] else 0.5

        monkeypatch.setattr(verify_mod, "ks_distance", ks)

    def assert_refused(self, tmp_path, monkeypatch, caplog, passing, message):
        from lpspec.verify import CalibrationError, calibrate_equation_variant

        settings = {"replicates": 1, "grid_points": 64}
        self.scripted_ks(monkeypatch, passing)
        with pytest.raises(CalibrationError) as err:
            calibrate_equation_variant(p=8, n=16, base_seeds=(5, 6), **settings)
        assert str(err.value) == message
        evidence = err.value.evidence
        assert [(e["seed"], e["variant"]) for e in evidence if e["passed"]] == list(zip((5, 6), passing))
        assert len(evidence) == 2 * 8 and {e["ks_pooled"] for e in evidence} == {0.0, 0.5}

        self.scripted_ks(monkeypatch, passing)
        out = tmp_path / "run"
        doc = {"command": "calibrate", "p": 8, "n": 16, "seeds": [5, 6], **settings}
        with caplog.at_level(logging.ERROR, logger="lpspec.cli"):
            code = run(["calibrate", "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert code == 3
        assert message in " ".join(rec.getMessage() for rec in caplog.records)
        assert not (out / "verdict.json").exists() and not (out / "evidence.csv").exists()

    def test_unstable_verdict_exit_code(self, tmp_path, monkeypatch, caplog):
        passing = ("normalized-yinv-direct", "normalized-y-direct")
        self.assert_refused(tmp_path, monkeypatch, caplog, passing,
                            f"verdict unstable across seeds: {list(passing)}")

    def test_failed_confirmation_exit_code(self, tmp_path, monkeypatch, caplog):
        passing = ("normalized-yinv-direct",) * 2
        self.assert_refused(tmp_path, monkeypatch, caplog, passing,
                            "selected variant normalized-yinv-direct failed the "
                            "dependent-process confirmation (KS = 0.5000)")

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

    def test_byte_identical_across_jobs(self, tmp_path):
        # the first seed's pass shares its draws with the confirmation on the pool
        cfg = write_config(tmp_path, {"command": "calibrate", "p": 64, "n": 128,
                                      "replicates": 4, "seed": 11})
        out1, out2 = tmp_path / "j1", tmp_path / "j2"
        assert run(["calibrate", "--config", cfg, "--jobs", "1", "--out", str(out1)]) == 0
        assert run(["calibrate", "--config", cfg, "--jobs", "2", "--out", str(out2)]) == 0
        for name in ("verdict.json", "evidence.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_confirmation_horizon_rejected_before_any_draw(self, tmp_path, monkeypatch, caplog):
        # a horizon of 0 suits white noise but not the MA(0.5) confirmation
        from lpspec import process

        monkeypatch.setattr(process, "draw_innovations", lambda *args: pytest.fail("drew a record"))
        out = tmp_path / "run"
        doc = {"command": "calibrate", "p": 64, "n": 128, "replicates": 4, "horizon": 0}
        with caplog.at_level(logging.ERROR, logger="lpspec.cli"):
            code = run(["calibrate", "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert code == 2
        message = " ".join(rec.getMessage() for rec in caplog.records)
        assert "horizon 0 is below the order 1 of ma(0.5)" in message


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


def test_benchmark_invocations_parse(tmp_path):
    # every operation of a benchmark workload fails if the CLI rejects one of
    # its flags or config keys; parse them all without running them
    import importlib.util
    import sys
    from pathlib import Path

    from lpspec.cli import build_parser

    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    parsed = []
    for workload in workloads.WORKLOADS.values():
        seed = workloads.cli_seeds(workload.name, 0)[0]
        for toy in (False, True):
            for inv in workload.invocations(toy):
                config = write_config(tmp_path, inv.config)
                argv = inv.argv(Path(config), tmp_path / "out", seed=seed, jobs=2)
                args = build_parser().parse_args(argv)
                parse_config(args.config, {k: v for k, v in vars(args).items() if k != "config"})
                parsed.append(inv.command)
    assert sorted(set(parsed)) == ["calibrate", "compare", "solve"]
    assert len(parsed) == 2 * (4 + 1 + 1)


@pytest.mark.parametrize("name", ["law", "mc", "calibrate"])
def test_benchmark_expected_spans_fire(tmp_path, monkeypatch, name):
    # a refactor that drops a traced call site would zero its per-layer
    # metrics; run each workload at toy sizes under the benchmark's tracer
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import tracing
    import workloads

    seed = workloads.cli_seeds(name, 7)[0]
    tracer = tracing.Tracer().install()
    try:
        for inv in workloads.WORKLOADS[name].invocations(toy=True):
            config = Path(write_config(tmp_path, inv.config, f"{inv.name}.json"))
            # looked up on the module at call time: that is the name the tracer wraps
            assert lpspec.cli.run(inv.argv(config, tmp_path / inv.name, seed, jobs=1)) == 0
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    expected = workloads.EXPECTED_SPANS[name]
    if name == "law":  # pure lsd work
        assert tracer.fired() == expected
    else:
        assert expected <= tracer.fired(), expected - tracer.fired()


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


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # scipy.signal and scipy.stats alone took about 1 s of a 1.6 s CLI start
    heavy = ("scipy.signal", "scipy.stats", "scipy.linalg", "scipy.special")
    code = f"import sys, lpspec.cli; print([m for m in {heavy!r} if m in sys.modules])"
    src = str(Path(lpspec.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_every_command_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: with its import blocked, every command
    # still runs, and the manifest records no scipy version
    runs = {
        "white": {"command": "solve", "model": WHITE, "y": 2.0, "grid_points": 64},
        "farima": {"command": "solve", "model": {"kind": "farima", "d": -0.2}, "y": 2.0,
                   "tail_tol": 1e-4, "grid_points": 64, "solver": {"quadrature_points": 64}},
        "compare": {"command": "compare", "model": {"kind": "ma", "theta": [0.5]}, "p": 32, "n": 16,
                    "replicates": 2, "grid_points": 64},
        "simulate": {"command": "simulate", "model": {"kind": "explicit",
                     "coefficients": [1.0, 0.5, 0.25, 0.1, 0.05, 0.02]}, "p": 16, "n": 16},
        "study": {"command": "study", "model": {"kind": "ma", "theta": [1.0, 1.0, 1.0]}, "y": 0.5,
                  "sizes": [16, 32], "replicates": 2, "grid_points": 64},
        "calibrate": {"command": "calibrate", "p": 64, "n": 128, "replicates": 4, "seed": 11},
    }
    argvs = []
    for name, doc in runs.items():
        argvs.append([doc["command"], "--config", write_config(tmp_path, doc, f"{name}.json"),
                      "--out", str(tmp_path / name)])
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from lpspec.cli import run\n"
        f"print([run(argv) for argv in {argvs!r}])\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n"
    )
    src = str(Path(lpspec.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300, check=True)
    codes, polynomial = proc.stdout.splitlines()
    assert codes == str([0] * len(runs))
    assert polynomial == "[]"
    for name in runs:
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert set(manifest["versions"]) == {"lpspec", "numpy", "python"}


def test_manifest_records_blas_build_and_live_threads(tmp_path):
    # eigenvalue bits depend on the BLAS thread count at a Gram side of 256 or
    # more, so the manifest records it as the run found it
    config = write_config(tmp_path, {"command": "solve", "model": WHITE, "y": 2.0, "grid_points": 64})
    argv = ["solve", "--config", config, "--out", str(tmp_path / "run")]
    code = f"from lpspec.cli import run; raise SystemExit(run({argv!r}))"
    src = str(Path(lpspec.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           "OPENBLAS_NUM_THREADS": "1"}
    subprocess.run([sys.executable, "-c", code], env=env, timeout=120, check=True)
    blas = json.loads((tmp_path / "run" / "manifest.json").read_text())["blas"]
    build = np.__config__.CONFIG["Build Dependencies"]["blas"]
    assert (blas["vendor"], blas["version"]) == (build["name"], build["version"])
    assert blas["threads"] == (1 if build["name"] == "scipy-openblas" else None)


def test_numpy_is_the_only_runtime_dependency():
    # the modules the package imports at any scope, less the standard
    # library and itself, are exactly the declared run-time dependencies
    import ast

    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    imported = set()
    for path in (root / "src" / "lpspec").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    imported -= set(sys.stdlib_module_names) | {"lpspec"}
    with open(root / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.split(r"[<>=!~;\[ ]", dep, maxsplit=1)[0] for dep in declared}
    assert imported == names == {"numpy"}
