"""Spans and counters recorded around the calls into each lpspec module.

The tracer wraps the names where the *calling* module looks them up (for
example ``lpspec.verify.sym_eigenvalues``, which ``verify`` resolves through
its own globals) and restores them afterwards; nothing under ``src/`` is
edited.  A target the package no longer has is skipped, so its metrics read
zero instead of breaking the benchmark.

Every span records its name, start, end, parent span and the identifier of
the CLI invocation it belongs to.  Spans are kept in memory and turned into
metrics once a workload iteration ends.  A span's self time is its duration
minus the durations of its direct children; the traced runs use ``jobs=1``,
so children nest strictly inside their parent and the self times of all
spans add up to the duration of the root ``cli.run`` spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass, field

# (calling module, attribute, span name).  Both ``cli`` and ``verify`` import
# the functions they call by name, so each call site is wrapped separately.
TARGETS = (
    ("lpspec.cli", "run", "cli.run"),
    ("lpspec.cli", "run_ensemble", "verify.ensemble"),
    ("lpspec.cli", "trace_moment_check", "verify.trace_check"),
    ("lpspec.cli", "calibrate_equation_variant", "verify.calibrate"),
    ("lpspec.cli", "convergence_study", "verify.study"),
    ("lpspec.cli", "solve_lsd", "lsd.solve"),
    ("lpspec.verify", "run_ensemble", "verify.ensemble"),
    ("lpspec.verify", "solve_lsd", "lsd.solve"),
    ("lpspec.verify", "simulate_record", "process.simulate"),
    ("lpspec.verify", "segment_matrix", "matrices.segment"),
    ("lpspec.verify", "gram", "matrices.gram"),
    ("lpspec.verify", "sym_eigenvalues", "spectra.eig"),
    ("lpspec.verify", "ks_distance", "spectra.distance"),
    ("lpspec.verify", "wasserstein1", "spectra.distance"),
)

SPAN_NAMES = tuple(sorted({span for _, _, span in TARGETS}))

# Spans whose self time is booked to each layer; the layers partition the
# spans, so their self times add up to cli.run.
LAYER_SPANS = {
    "cli": ("cli.run",),
    "verify": ("verify.ensemble", "verify.trace_check", "verify.calibrate", "verify.study"),
    "lsd": ("lsd.solve",),
    "process": ("process.simulate",),
    "matrices": ("matrices.segment", "matrices.gram"),
    "spectra": ("spectra.eig", "spectra.distance"),
}


def _record_key(args, kwargs):
    # (model, innovation stream, horizon, length): equal keys simulate
    # bit-identical records
    spec = args[0] if args else kwargs["spec"]
    length = args[1] if len(args) > 1 else kwargs["length"]
    return (
        json.dumps(spec.model.to_json(), sort_keys=True),
        spec.innovations.distribution,
        int(spec.innovations.seed),
        int(spec.horizon),
        int(length),
    )


def _law_key(args, kwargs):
    # (density, y, equation scale, grid): the role axis of the variant does
    # not enter the equation, so two roles with one scale solve one law
    f = args[0] if args else kwargs["f"]
    y = float(args[1] if len(args) > 1 else kwargs["y"])
    x_grid = args[2] if len(args) > 2 else kwargs.get("x_grid")
    variant = args[3] if len(args) > 3 else kwargs.get("variant")
    config = args[4] if len(args) > 4 else kwargs.get("config")
    grid_points = args[5] if len(args) > 5 else kwargs.get("grid_points", 1024)
    if variant is None:
        from lpspec.lsd import DEFAULT_VARIANT as variant
    density = (
        tuple(float(c) for c in getattr(f, "ma_coeffs", ())),
        tuple(float(c) for c in getattr(f, "ar_coeffs", ())),
    ) if hasattr(f, "ma_coeffs") else repr(f)
    if x_grid is None:
        grid = ("default", int(grid_points), repr(config))
        size = int(grid_points)
    else:
        grid = tuple(float(v) for v in x_grid)
        size = len(grid)
    return (density, y, float(variant.scale(y)), grid), size


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    trace: int = 0
    child_time: float = 0.0


@dataclass
class Tracer:
    """In-memory span and counter store, plus the wrappers that feed it."""

    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    record_keys: set = field(default_factory=set)
    law_keys: set = field(default_factory=set)
    installed: list = field(default_factory=list)
    missing: list = field(default_factory=list)
    stack: list = field(default_factory=list)

    # -- recording ---------------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _observe(self, span: str, args, kwargs, result) -> None:
        if span == "process.simulate":
            self.record_keys.add(_record_key(args, kwargs))
        elif span == "lsd.solve":
            key, size = _law_key(args, kwargs)
            self.law_keys.add(key)
            self.count("lsd.grid_point_solves", 2 * size)  # eps and 2*eps levels
        elif span == "matrices.gram":
            p, n = (args[0] if args else kwargs["matrix"]).shape
            self.count("matrices.gram_gflop", 2.0 * p * p * n / 1e9)
        elif span == "spectra.eig":
            d = (args[0] if args else kwargs["matrix"]).shape[0]
            self.count("spectra.eig_gflop", 4.0 / 3.0 * d**3 / 1e9)
        elif span == "verify.ensemble":
            self.count("verify.replicates", len(result.replicate_seeds))
            self.count("verify.failed_replicates", len(result.failed_replicates))

    def wrap(self, fn, span_name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            index = len(tracer.spans)
            trace = tracer.spans[parent].trace if parent is not None else index
            span = Span(span_name, time.perf_counter(), parent=parent, trace=trace)
            tracer.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    tracer.spans[parent].child_time += span.end - span.start
                tracer.count(span_name + ".calls")
            tracer._observe(span_name, args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, targets=TARGETS) -> "Tracer":
        for module_name, attr, span in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(original, span))
            self.installed.append((module, attr, original))
        return self

    def uninstall(self) -> None:
        while self.installed:
            module, attr, original = self.installed.pop()
            setattr(module, attr, original)

    # -- metrics -----------------------------------------------------------

    def self_times(self) -> dict:
        out = {name: 0.0 for name in SPAN_NAMES}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + (span.end - span.start - span.child_time)
        return out

    def root_time(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded since construction."""
        st = self.self_times()
        c = self.counters.get
        sim_calls = c("process.simulate.calls", 0)
        solve_calls = c("lsd.solve.calls", 0)
        layer_self = {
            layer: sum(st.get(s, 0.0) for s in spans) for layer, spans in LAYER_SPANS.items()
        }
        return {
            "cli.run_s": self.root_time(),
            "cli.self_s": layer_self["cli"],
            "cli.bytes_written": c("cli.bytes_written", 0),
            "verify.self_s": layer_self["verify"],
            "verify.ensemble_s": st["verify.ensemble"],
            "verify.trace_check_s": st["verify.trace_check"],
            "verify.replicates": c("verify.replicates", 0),
            "verify.failed_replicates": c("verify.failed_replicates", 0),
            "lsd.solve_s": st["lsd.solve"],
            "lsd.solve_calls": solve_calls,
            "lsd.unique_laws": len(self.law_keys),
            "lsd.unique_law_ratio": len(self.law_keys) / solve_calls if solve_calls else 1.0,
            "lsd.grid_point_solves": c("lsd.grid_point_solves", 0),
            "process.simulate_s": st["process.simulate"],
            "process.simulate_calls": sim_calls,
            "process.unique_records": len(self.record_keys),
            "process.unique_record_ratio": len(self.record_keys) / sim_calls if sim_calls else 1.0,
            "matrices.segment_s": st["matrices.segment"],
            "matrices.gram_s": st["matrices.gram"],
            "matrices.gram_gflop": c("matrices.gram_gflop", 0.0),
            "spectra.eig_s": st["spectra.eig"],
            "spectra.eig_calls": c("spectra.eig.calls", 0),
            "spectra.eig_gflop": c("spectra.eig_gflop", 0.0),
            "spectra.distance_s": st["spectra.distance"],
            "spectra.distance_calls": c("spectra.distance.calls", 0),
        }

    def fired(self) -> set:
        return {span.name for span in self.spans}


# Self-time metrics that partition cli.run_s.
SELF_TIME_METRICS = (
    "cli.self_s",
    "verify.self_s",
    "lsd.solve_s",
    "process.simulate_s",
    "matrices.segment_s",
    "matrices.gram_s",
    "spectra.eig_s",
    "spectra.distance_s",
)
