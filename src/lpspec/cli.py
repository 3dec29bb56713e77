"""Command-line front end.

Subcommands: simulate | solve | compare | calibrate | study.  Experiments are
described by a JSON config file and/or flags (flags win, with a logged
notice).  Every run writes a manifest.json echoing the resolved config plus
tool versions; the manifest's "timestamp" field is the only output that may
differ between identical runs.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import logging
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .lsd import (
    ConvergenceError,
    DEFAULT_VARIANT,
    EquationVariant,
    NumericalError,
    SolverConfig,
    lsd_cdf,
    solve_lsd,
)
from .process import CoefficientModel, InnovationSpec, ProcessSpec, default_horizon, spectral_density
from .spectra import EigensolverError
from .verify import (
    CalibrationError,
    EnsembleConfig,
    EnsembleReport,
    calibrate_equation_variant,
    convergence_study,
    run_ensemble,
    trace_moment_check,
)

__all__ = ["main", "run", "parse_config"]

log = logging.getLogger("lpspec.cli")

_COMMANDS = ("simulate", "solve", "compare", "calibrate", "study")

# solver key -> value type
_SOLVER_KEYS = {"quadrature_points": int, "max_iterations": int,
                "damping": float, "residual_tol": float, "epsilon_floor": float}

_KIND_NAMES = {int: "an integer", float: "a number", str: "a string"}

_DEFAULTS = {
    "seed": 0,
    "replicates": 1,
    "jobs": EnsembleConfig.jobs,
    "variant": DEFAULT_VARIANT.label,
    "grid_points": EnsembleConfig.grid_points,
    "out": "out",
    "dump_eigenvalues": False,
}

_TOP_KEYS = set(_DEFAULTS) | {"command", "model", "innovations", "p", "n", "y", "sizes",
                              "seeds", "solver", "horizon", "tail_tol"}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _check_type(value, kind: type, what: str) -> None:
    """Reject a JSON value of the wrong type; integers count as numbers."""
    if not isinstance(value, (int, float) if kind is float else kind):
        raise ConfigError(f"{what} must be {_KIND_NAMES[kind]}")


def _converted(cfg: dict, key: str, convert, what: str):
    try:
        return convert(cfg[key])
    except (TypeError, ValueError):
        raise ConfigError(f"key {key!r} must be {what}") from None


def _int_list(values) -> list[int]:
    return [int(v) for v in values]


def _require(cfg: dict, key: str):
    if key not in cfg or cfg[key] is None:
        raise ConfigError(f"missing required key {key!r} for command {cfg.get('command')!r}")
    return cfg[key]


def parse_config(path: str | None = None, flags: dict | None = None) -> dict:
    """Merge a JSON config file with flag overrides into a validated config.

    Unknown keys are rejected by name; flag values override file values with
    a logged notice.  Returns the resolved config with defaults filled in.
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
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r}")
    for key, value in (flags or {}).items():
        if value is None:
            continue
        if key in cfg and cfg[key] != value:
            log.info("flag --%s=%r overrides config value %r", key, value, cfg[key])
        cfg[key] = value

    command = cfg.get("command")
    if command not in _COMMANDS:
        raise ConfigError(f"command must be one of {_COMMANDS}, got {command!r}")
    for key, default in _DEFAULTS.items():
        cfg.setdefault(key, default)

    solver_cfg = cfg.get("solver", {})
    if not isinstance(solver_cfg, dict):
        raise ConfigError("solver must be a JSON object")
    unknown = set(solver_cfg) - set(_SOLVER_KEYS)
    if unknown:
        raise ConfigError(f"solver: unknown key {sorted(unknown)[0]!r}")
    for key, value in solver_cfg.items():
        _check_type(value, _SOLVER_KEYS[key], f"solver: key {key!r}")
    cfg["solver"] = solver_cfg

    if "model" in cfg:
        cfg["model"] = CoefficientModel.from_json(cfg["model"]).to_json()
    if "innovations" in cfg:
        cfg["innovations"] = InnovationSpec.from_json(cfg["innovations"]).to_json()

    for key in ("variant", "out"):
        _check_type(cfg[key], str, f"key {key!r}")
    try:
        EquationVariant.parse(cfg["variant"])
    except ValueError as exc:
        raise ConfigError(str(exc))

    # null means "not given" only for keys without a default
    for key in ("p", "n", "replicates", "jobs", "grid_points", "seed", "horizon"):
        if key in cfg and (cfg[key] is not None or key in _DEFAULTS):
            cfg[key] = _converted(cfg, key, int, "an integer")
            if key != "horizon" and cfg[key] < 0:
                raise ConfigError(f"key {key!r} must be non-negative")
    if cfg["grid_points"] < 1:
        raise ConfigError("key 'grid_points' must be at least 1")
    if cfg.get("y") is not None:
        cfg["y"] = _converted(cfg, "y", float, "a number")
        if cfg["y"] <= 0:
            raise ConfigError("key 'y' must be positive")
    if "tail_tol" in cfg:
        _check_type(cfg["tail_tol"], float, "key 'tail_tol'")
    if cfg.get("sizes") is not None:
        cfg["sizes"] = _converted(cfg, "sizes", _int_list, "a list of integers")
    if cfg.get("seeds") is not None:
        # checked, not stored: the manifest echoes the seeds as given
        if not _converted(cfg, "seeds", _int_list, "a non-empty list of integers"):
            raise ConfigError("key 'seeds' must be a non-empty list of integers")
    return cfg


def _variant(cfg: dict) -> EquationVariant:
    return EquationVariant.parse(cfg["variant"])


def _model(cfg: dict) -> CoefficientModel:
    return CoefficientModel.from_json(_require(cfg, "model"))


def _settings(cfg: dict) -> dict:
    """The `EnsembleConfig` settings the config supplies; the rest keep its defaults."""
    settings = {key: cfg[key] for key in ("horizon", "tail_tol", "jobs", "grid_points") if key in cfg}
    settings["solver"] = SolverConfig(**cfg["solver"])
    if "innovations" in cfg:
        settings["distribution"] = cfg["innovations"]["dist"]
    return settings


def _ensemble_config(cfg: dict, variants: tuple[EquationVariant, ...]) -> EnsembleConfig:
    return EnsembleConfig(
        model=_model(cfg),
        p=_require(cfg, "p"),
        n=_require(cfg, "n"),
        replicates=cfg["replicates"],
        base_seed=cfg["seed"],
        variants=variants,
        **_settings(cfg),
    )


def _csv_text(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _eigenvalues_csv(report: EnsembleReport) -> str:
    rows = []
    for r, evs in enumerate(report.eigenvalues):
        rows.extend((r, i, float(v)) for i, v in enumerate(evs))
    return _csv_text(["replicate", "index", "lambda"], rows)


def _cmd_simulate(cfg: dict) -> dict[str, str]:
    config = _ensemble_config(cfg, variants=())
    report = run_ensemble(config, candidates={})
    pooled = report.pooled_spectrum().eigenvalues
    esd_rows = [(float(x), (k + 1) / pooled.size) for k, x in enumerate(pooled)]
    return {
        "eigenvalues.csv": _eigenvalues_csv(report),
        "esd.csv": _csv_text(["x", "F"], esd_rows),
    }


def _cmd_solve(cfg: dict) -> dict[str, str]:
    model = _model(cfg)
    y = _require(cfg, "y")
    settings = _settings(cfg)
    tail = {"tail_tol": settings["tail_tol"]} if "tail_tol" in settings else {}
    horizon = settings.get("horizon")
    if horizon is None:
        horizon = default_horizon(model, cfg.get("n") or 256, **tail)
    spec = ProcessSpec(model, InnovationSpec(seed=cfg["seed"]), horizon, **tail)
    f = spectral_density(spec)
    solution = solve_lsd(
        f,
        y,
        variant=_variant(cfg),
        config=settings["solver"],
        grid_points=settings["grid_points"],
    )
    density_rows = list(zip((float(x) for x in solution.grid), (float(v) for v in solution.density)))
    cdf_rows = list(zip((float(x) for x in solution.grid), (float(v) for v in solution.cdf_values)))
    return {
        "lsd.json": _json_text(solution.to_json()),
        "density.csv": _csv_text(["x", "rho"], density_rows),
        "cdf.csv": _csv_text(["x", "F"], cdf_rows),
    }


def _cmd_compare(cfg: dict) -> dict[str, str]:
    config = _ensemble_config(cfg, variants=(_variant(cfg),))
    report = run_ensemble(config)
    trace = trace_moment_check(config, report=report)
    doc = report.to_json()
    doc["trace_check"] = trace.to_json()
    out = {"report.json": _json_text(doc)}
    if cfg.get("dump_eigenvalues"):
        out["eigenvalues.csv"] = _eigenvalues_csv(report)
    return out


def _cmd_calibrate(cfg: dict) -> dict[str, str]:
    seeds = cfg.get("seeds")
    if seeds is None:
        base = cfg["seed"]
        seeds = (base, base + 1, base + 2)
    verdict = calibrate_equation_variant(
        p=_require(cfg, "p"),
        n=_require(cfg, "n"),
        replicates=cfg["replicates"],
        base_seeds=tuple(int(s) for s in seeds),
        **_settings(cfg),
    )
    rows = [
        (e["seed"], e["variant"], e["ks_pooled"], e["passed"])
        for e in verdict.evidence
    ]
    return {
        "evidence.csv": _csv_text(["seed", "variant", "ks_pooled", "passed"], rows),
        "verdict.json": _json_text(verdict.to_json()),
    }


def _cmd_study(cfg: dict) -> dict[str, str]:
    result = convergence_study(
        model=_model(cfg),
        y=_require(cfg, "y"),
        sizes=_require(cfg, "sizes"),
        replicates=cfg["replicates"],
        base_seed=cfg["seed"],
        variant=_variant(cfg),
        **_settings(cfg),
    )
    rows = [(r["n"], r["p"], r["ks_median"], r["ks_iqr"]) for r in result.rows]
    return {
        "trend.csv": _csv_text(["n", "p", "ks_median", "ks_iqr"], rows),
        "study.json": _json_text(result.to_json()),
    }


_DISPATCH = {
    "simulate": _cmd_simulate,
    "solve": _cmd_solve,
    "compare": _cmd_compare,
    "calibrate": _cmd_calibrate,
    "study": _cmd_study,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpspec",
        description="Spectra of segmented linear-process covariance matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", type=str, default=None, help="JSON config file")
        cmd.add_argument("--seed", type=int, default=None, help="base seed (u64)")
        cmd.add_argument("--out", type=str, default=None, help="output directory")
        cmd.add_argument("--jobs", type=int, default=None, help="concurrent replicates")
        cmd.add_argument(
            "--variant",
            type=str,
            default=None,
            help="equation variant, {normalized|raw}-{y|yinv}-{direct|companion}",
        )
        cmd.add_argument("--p", type=int, default=None)
        cmd.add_argument("--n", type=int, default=None)
        cmd.add_argument("--y", type=float, default=None)
        cmd.add_argument("--replicates", type=int, default=None)
        cmd.add_argument("--grid-points", dest="grid_points", type=int, default=None)
        cmd.add_argument(
            "--sizes",
            type=lambda s: [int(v) for v in s.split(",")],
            default=None,
            help="comma-separated size list (study)",
        )
        cmd.add_argument("--dump-eigenvalues", dest="dump_eigenvalues",
                         action="store_const", const=True, default=None)
    return parser


def run(argv=None) -> int:
    """Entry point returning the process exit status."""
    args = build_parser().parse_args(argv)
    flags = {key: value for key, value in vars(args).items() if key != "config"}
    written: list[Path] = []
    try:
        cfg = parse_config(args.config, flags)
        artifacts = _DISPATCH[cfg["command"]](cfg)
        manifest = {
            "command": cfg["command"],
            "config": {k: v for k, v in sorted(cfg.items()) if k != "out"},
            "versions": {
                "lpspec": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
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
    except (ConfigError, ValueError) as exc:
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
