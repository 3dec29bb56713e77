"""Command-line front end.

Commands: simulate | solve | compare | calibrate | study.  Experiments are
described by a JSON config file and/or flags (flags win, with a logged
notice).  Each command accepts only the keys it reads (`_KEYS`), so the
manifest.json every run writes echoes only settings that took effect, plus
tool versions and numpy's BLAS with its thread count at run start, which
changes no output byte (every ensemble runs at one thread, see `verify`);
the manifest's "timestamp" field is the only output that may differ between
identical runs.

Exit codes: 0 success, 2 validation error (an unreadable config or unwritable
outputs among them), 3 numerical failure.  A failed run leaves none of its outputs.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .lsd import (
    ConvergenceError,
    DEFAULT_VARIANT,
    EquationVariant,
    NumericalError,
    SolverConfig,
    law_range_violation,
    lsd_cdf,
    solve_lsd,
)
from .process import (
    MAX_HORIZON,
    CoefficientModel,
    InnovationSpec,
    ProcessSpec,
    default_horizon,
    spectral_density,
)
from .spectra import EigensolverError
from .verify import (
    CalibrationError,
    EnsembleConfig,
    EnsembleReport,
    _openblas,
    calibrate_equation_variant,
    convergence_study,
    run_ensemble,
    trace_moment_check,
)

__all__ = ["main", "run", "parse_config"]

log = logging.getLogger("lpspec.cli")

# keys every command accepts
_GLOBAL_KEYS = ("command", "seed", "jobs", "out")

# command -> (required keys, optional keys) that it reads besides the global
# ones; every other key is rejected
_KEYS = {
    "simulate": (("model", "p", "n"), ("replicates", "innovations", "horizon", "tail_tol")),
    "solve": (("model", "y"), ("n", "variant", "solver", "grid_points", "horizon", "tail_tol")),
    "compare": (("model", "p", "n"), ("replicates", "innovations", "horizon", "tail_tol", "variant",
                                      "solver", "grid_points", "dump_eigenvalues")),
    "calibrate": (("p", "n"), ("replicates", "seeds", "innovations", "horizon", "tail_tol",
                               "solver", "grid_points")),
    "study": (("model", "y", "sizes"), ("replicates", "innovations", "horizon", "tail_tol",
                                        "variant", "solver", "grid_points")),
}
_COMMANDS = tuple(_KEYS)

# nested object -> its keys -> value type
_OBJECT_KEYS = {"solver": {"quadrature_points": int}, "innovations": {"dist": str}}

_KIND_NAMES = {int: "an integer", float: "a number", str: "a string"}

# filled in for the commands that read the key
_DEFAULTS = {
    "seed": 0,
    "replicates": 1,
    "jobs": EnsembleConfig.jobs,
    "variant": DEFAULT_VARIANT.label,
    "grid_points": EnsembleConfig.grid_points,
    "out": "out",
    "dump_eigenvalues": False,
}

# integer key -> (least, most) accepted value; a list key bounds each element.
# `n` sets the default horizon, so it and each of `sizes` (the `n` of one
# ensemble) are bounded by the longest horizon `default_horizon` searches;
# each job is one OS thread; `grid_points` sizes every array of a law solve,
# so it stops at 16 times the Marchenko-Pastur oracle's 4096 nodes, and
# `quadrature_points`, the key of `solver`, sizes every array of the trapezoid
# kernel, so it stops at 32 times its default 2048; seeds are u64
_INT_RANGES = {"p": (1, math.inf), "n": (1, MAX_HORIZON), "replicates": (1, math.inf),
               "jobs": (1, 256), "grid_points": (3, 2**16), "seed": (0, 2**64 - 1),
               "horizon": (0, MAX_HORIZON), "sizes": (1, MAX_HORIZON), "seeds": (0, 2**64 - 1),
               "quadrature_points": (2, 2**16)}
_INT_LISTS = ("sizes", "seeds")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _check_type(value, kind: type, what: str) -> None:
    """Reject a JSON value of the wrong type; integers count as numbers and
    booleans as neither."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ConfigError(f"{what} must be {_KIND_NAMES[kind]}")


def _converted(cfg: dict, key: str, convert, what: str):
    try:
        return convert(cfg[key])
    except (TypeError, ValueError):
        raise ConfigError(f"key {key!r} must be {what}") from None


def _number(value) -> float:
    """A number or a numeric string as a float; a boolean is no number."""
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _integer(value) -> int:
    """An integer, an integral number or an integer string as an int."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _int_list(values) -> list[int]:
    """A JSON list of integers, each read by `_integer`."""
    if not isinstance(values, list):
        raise TypeError(f"{values!r} is not a list")
    return [_integer(v) for v in values]


def parse_config(path: str | None = None, flags: dict | None = None) -> dict:
    """Merge a JSON config file with flag overrides into a validated config.

    Keys the command does not read are rejected by name, missing required
    keys last; flag values override file values with a logged notice.
    Returns the resolved config with the defaults of the keys it reads.
    """
    cfg: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    for key, value in (flags or {}).items():
        if value is None:
            continue
        if key in cfg and cfg[key] != value:
            log.info("flag --%s=%r overrides config value %r", key, value, cfg[key])
        cfg[key] = value

    command = cfg.get("command")
    if command not in _KEYS:
        raise ConfigError(f"command must be one of {_COMMANDS}, got {command!r}")
    required, optional = _KEYS[command]
    reads = {*_GLOBAL_KEYS, *required, *optional}
    unread = set(cfg) - reads
    if unread:
        raise ConfigError(f"unknown key {sorted(unread)[0]!r} for command {command!r}")
    for key, default in _DEFAULTS.items():
        if key in reads:
            cfg.setdefault(key, default)
    if "solver" in reads:
        cfg.setdefault("solver", {})

    for name, types in _OBJECT_KEYS.items():
        if name not in cfg:
            continue
        if not isinstance(cfg[name], dict):
            raise ConfigError(f"{name} must be a JSON object")
        unknown = set(cfg[name]) - set(types)
        if unknown:
            raise ConfigError(f"{name}: unknown key {sorted(unknown)[0]!r}")
        for key, value in cfg[name].items():
            _check_type(value, types[key], f"{name}: key {key!r}")
            if key in _INT_RANGES and not _INT_RANGES[key][0] <= value <= _INT_RANGES[key][1]:
                raise ConfigError(f"{name}: key {key!r} must be in {list(_INT_RANGES[key])}")
    if "model" in cfg:
        cfg["model"] = CoefficientModel.from_json(cfg["model"]).to_json()
    if "innovations" in cfg:  # no stream seed: every stream derives from `seed`
        dist = cfg["innovations"].get("dist", "gaussian")
        InnovationSpec(dist)  # rejects an unknown law
        cfg["innovations"] = {"dist": dist}

    for key in ("variant", "out"):
        if key in cfg:
            _check_type(cfg[key], str, f"key {key!r}")
    if "variant" in cfg:
        try:
            EquationVariant.parse(cfg["variant"])
        except ValueError as exc:
            raise ConfigError(str(exc))

    # null means "not given" only for keys without a default
    for key, (least, most) in _INT_RANGES.items():
        if key in cfg and (cfg[key] is not None or key in _DEFAULTS):
            listed = key in _INT_LISTS
            values = _converted(cfg, key, _int_list if listed else lambda v: [_integer(v)],
                                "a list of integers" if listed else "an integer")
            each = " a list of integers, each" if listed else ""
            if min(values, default=least) < least:
                raise ConfigError(f"key {key!r} must be{each} at least {least}")
            if max(values, default=most) > most:
                raise ConfigError(f"key {key!r} must be{each} at most {most}")
            if key != "seeds":  # checked, not stored: the manifest echoes the seeds as given
                cfg[key] = values if listed else values[0]
    if cfg.get("seeds") == []:
        raise ConfigError("key 'seeds' must be a non-empty list of integers")
    if command == "calibrate" and cfg.get("seeds") is None and cfg["seed"] > 2**64 - 3:
        raise ConfigError("key 'seed' must be at most 2**64 - 3 for calibrate, which runs seed + 2")
    if cfg.get("y") is not None:
        cfg["y"] = _converted(cfg, "y", _number, "a number")
        if not 0.0 < cfg["y"] < math.inf:
            raise ConfigError("key 'y' must be finite and positive")
    if "tail_tol" in cfg:
        _check_type(cfg["tail_tol"], float, "key 'tail_tol'")
    if not isinstance(cfg.get("dump_eigenvalues", False), bool):
        raise ConfigError("key 'dump_eigenvalues' must be a boolean")
    missing = [key for key in required if cfg.get(key) is None]
    if missing:
        raise ConfigError(f"missing required key {missing[0]!r} for command {command!r}")
    return cfg


def _variant(cfg: dict) -> EquationVariant:
    return EquationVariant.parse(cfg["variant"])


def _model(cfg: dict) -> CoefficientModel:
    return CoefficientModel.from_json(cfg["model"])


def _settings(cfg: dict) -> dict:
    """The `EnsembleConfig` settings the config supplies; the rest keep its defaults."""
    settings = {key: cfg[key] for key in ("horizon", "tail_tol", "jobs", "grid_points") if key in cfg}
    if "solver" in cfg:
        settings["solver"] = SolverConfig(**cfg["solver"])
    if "innovations" in cfg:
        settings["distribution"] = cfg["innovations"]["dist"]
    return settings


def _ensemble_config(cfg: dict, variants: tuple[EquationVariant, ...]) -> EnsembleConfig:
    return EnsembleConfig(
        model=_model(cfg),
        p=cfg["p"],
        n=cfg["n"],
        replicates=cfg["replicates"],
        base_seed=cfg["seed"],
        variants=variants,
        **_settings(cfg),
    )


# json's text for the floats whose repr is no JSON number
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _floats(values) -> list[str]:
    """Each value as its shortest round-trip repr, the text both the JSON and
    the CSV outputs hold for a float."""
    return list(map(float.__repr__, np.asarray(values, dtype=float).tolist()))


def _cells(values) -> list[str]:
    """CSV cells: a float (np.float64 among them) as its repr, anything else by str."""
    return [float.__repr__(v) if isinstance(v, float) else str(v) for v in values]


def _csv_text(header: list[str], columns) -> str:
    """A header row, then one row per position of the equally long string columns."""
    return "\n".join([",".join(header), *map(",".join, zip(*columns)), ""])


def _records_csv(header: list[str], records) -> str:
    """One row per record, holding its values under the header's keys."""
    return _csv_text(header, [_cells(record[key] for record in records) for key in header])


def _json_text(doc: dict, floats: dict[str, list[str]] | None = None) -> str:
    """`json.dumps(doc, sort_keys=True, indent=2)` and a newline, for string keys.

    The `_floats` texts in `floats` stand for the doc's lists under the same
    keys and are joined as they are, so that a long float list is formatted
    once for every output that holds it; the other values go through json.
    """
    floats = floats or {}
    items = []
    for key in sorted(doc):
        texts = floats.get(key)
        if texts:
            value = "[\n    " + ",\n    ".join(map(_JSON_NONFINITE.get, texts, texts)) + "\n  ]"
        else:
            value = json.dumps(doc[key], sort_keys=True, indent=2).replace("\n", "\n  ")
        items.append(f"  {json.dumps(key)}: {value}")
    return "{\n" + ",\n".join(items) + "\n}\n" if items else "{}\n"


def _eigenvalues_csv(report: EnsembleReport) -> str:
    replicate, index, value = [], [], []
    for r, evs in enumerate(report.eigenvalues):
        replicate += [str(r)] * evs.size
        index += map(str, range(evs.size))
        value += _floats(evs)
    return _csv_text(["replicate", "index", "lambda"], [replicate, index, value])


def _cmd_simulate(cfg: dict) -> dict[str, str]:
    config = _ensemble_config(cfg, variants=())
    report = run_ensemble(config, candidates={})
    pooled = report.pooled_spectrum().eigenvalues
    esd = np.arange(1, pooled.size + 1) / pooled.size
    return {
        "eigenvalues.csv": _eigenvalues_csv(report),
        "esd.csv": _csv_text(["x", "F"], [_floats(pooled), _floats(esd)]),
    }


def _cmd_solve(cfg: dict) -> dict[str, str]:
    model = _model(cfg)
    tail = {"tail_tol": cfg["tail_tol"]} if "tail_tol" in cfg else {}
    horizon = cfg.get("horizon")
    if horizon is None:
        horizon = default_horizon(model, cfg.get("n") or 256, **tail)
    f = spectral_density(ProcessSpec(model, InnovationSpec(), horizon, **tail))
    variant = _variant(cfg)
    solution = solve_lsd(
        f,
        cfg["y"],
        variant=variant,
        config=SolverConfig(**cfg["solver"]),
        grid_points=cfg["grid_points"],
    )
    violation = law_range_violation(solution)
    if violation:
        raise NumericalError(violation)
    grid, density, cdf = map(_floats, (solution.grid, solution.density, solution.cdf_values))
    return {
        "lsd.json": _json_text(solution.to_json(), {"grid": grid, "density": density, "cdf": cdf}),
        "density.csv": _csv_text(["x", "rho"], [grid, density]),
        "cdf.csv": _csv_text(["x", "F"], [grid, cdf]),
    }


def _cmd_compare(cfg: dict) -> dict[str, str]:
    config = _ensemble_config(cfg, variants=(_variant(cfg),))
    report = run_ensemble(config)
    trace = trace_moment_check(config, report=report)
    doc = report.to_json()
    doc["trace_check"] = trace.to_json()
    out = {"report.json": _json_text(doc)}
    if cfg["dump_eigenvalues"]:
        out["eigenvalues.csv"] = _eigenvalues_csv(report)
    return out


def _cmd_calibrate(cfg: dict) -> dict[str, str]:
    seeds = cfg.get("seeds")
    if seeds is None:
        base = cfg["seed"]
        seeds = (base, base + 1, base + 2)
    verdict = calibrate_equation_variant(
        p=cfg["p"],
        n=cfg["n"],
        replicates=cfg["replicates"],
        base_seeds=tuple(int(s) for s in seeds),
        **_settings(cfg),
    )
    return {
        "evidence.csv": _records_csv(["seed", "variant", "ks_pooled", "passed"], verdict.evidence),
        "verdict.json": _json_text(verdict.to_json()),
    }


def _cmd_study(cfg: dict) -> dict[str, str]:
    result = convergence_study(
        model=_model(cfg),
        y=cfg["y"],
        sizes=cfg["sizes"],
        replicates=cfg["replicates"],
        base_seed=cfg["seed"],
        variant=_variant(cfg),
        **_settings(cfg),
    )
    return {
        "trend.csv": _records_csv(["n", "p", "ks_median", "ks_iqr"], result.rows),
        "study.json": _json_text(result.to_json()),
    }


_DISPATCH = {
    "simulate": _cmd_simulate,
    "solve": _cmd_solve,
    "compare": _cmd_compare,
    "calibrate": _cmd_calibrate,
    "study": _cmd_study,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One parser for every command; flags may come before or after it.

    A flag left out parses as None, so the config file's value stands.  The
    parser is built on the first call and shared by every later one: parsing
    leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="lpspec",
        description="Spectra of segmented linear-process covariance matrices",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="base seed (u64)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--jobs", type=int, help="concurrent replicates")
    parser.add_argument("--variant",
                        help="equation variant, {normalized|raw}-{y|yinv}-{direct|companion}")
    parser.add_argument("--p", type=int)
    parser.add_argument("--n", type=int)
    parser.add_argument("--y", type=float)
    parser.add_argument("--replicates", type=int)
    parser.add_argument("--grid-points", type=int)
    parser.add_argument("--sizes", type=lambda s: [int(v) for v in s.split(",")],
                        help="comma-separated size list (study)")
    parser.add_argument("--dump-eigenvalues", action="store_const", const=True)
    return parser


def _blas() -> dict:
    """numpy's BLAS vendor and version, and the live thread count of its
    bundled OpenBLAS (None where that library or its getter is missing)."""
    build = np.__config__.CONFIG["Build Dependencies"]["blas"]
    lib = _openblas()
    return {"vendor": build.get("name"), "version": build.get("version"),
            "threads": lib.scipy_openblas_get_num_threads64_() if lib is not None else None}


def run(argv=None) -> int:
    """Entry point returning the process exit status."""
    blas = _blas()
    args = build_parser().parse_args(argv)
    flags = {key: value for key, value in vars(args).items() if key != "config"}
    written: list[Path] = []
    try:
        cfg = parse_config(args.config, flags)
        artifacts = _DISPATCH[cfg["command"]](cfg)
        manifest = {
            "blas": blas,
            "command": cfg["command"],
            "config": {k: v for k, v in sorted(cfg.items()) if k != "out"},
            "versions": {
                "lpspec": __version__,
                "numpy": np.__version__,
                "python": sys.version.split()[0],
            },
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        }
        artifacts["manifest.json"] = _json_text(manifest)
        outdir = Path(cfg["out"])
        outdir.mkdir(parents=True, exist_ok=True)
        for name, text in sorted(artifacts.items()):
            path = outdir / name
            path.write_text(text)
            written.append(path)
        return 0
    except (ConfigError, ValueError, OSError) as exc:  # OSError: a config or output path
        _cleanup(written)
        log.error("validation error: %s", exc)
        return 2
    except (ConvergenceError, NumericalError, EigensolverError, CalibrationError) as exc:
        _cleanup(written)
        log.error("numerical failure: %s", exc)
        return 3


def _cleanup(paths: list[Path]) -> None:
    for path in paths:
        try:
            path.unlink()
        except OSError:
            pass


def main() -> None:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    sys.exit(run())


if __name__ == "__main__":
    main()
