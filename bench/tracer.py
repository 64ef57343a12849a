"""Spans around calls into the drivencavity layers, recorded from outside the package.

`Tracer.install` rebinds each traced public function in every loaded
`drivencavity` module that holds it (the package imports with
`from .x import y`, so a call goes through whichever module-level name the
caller sees).  Spans stay in memory until the run ends; `per_layer_metrics`
turns them into calls, inclusive seconds and self seconds per function, plus
the counts read from return values and exceptions.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    error: str | None = None


def _steady_state_raw_done(tracer, args, kwargs, result, error):
    dim = len(args[0]) if args else len(kwargs["H"])
    tracer.maxima["dynamics.steady_state_raw.max_dim"] = max(
        tracer.maxima.get("dynamics.steady_state_raw.max_dim", 0), dim)
    if error is None:
        route = "nullspace" if result[3] == "nullspace" else "integration"
        tracer.counts[f"dynamics.steady_state_raw.route.{route}"] += 1


def _evolve_done(tracer, args, kwargs, result, error):
    if error is None:
        tracer.counts["dynamics.evolve.rhs_evals"] += result.stats.n_rhs_evals


def _gap_done(tracer, args, kwargs, result, error):
    if error is None and result is None:
        tracer.counts["sectors.coherence_block_gap.unchecked"] += 1


def _sector_done(tracer, args, kwargs, result, error):
    if type(error).__name__ == "SectorError":
        tracer.counts["sectors.sector_error"] += 1


# (module, public name, hook called after each call with its result or error).
# A dotted name is a method or classmethod of a class defined in that module.
TARGETS = (
    ("model", "build_generator", None),
    ("model", "initial_state", None),
    ("dynamics", "steady_state_raw", _steady_state_raw_done),
    ("dynamics", "steady_state", None),
    ("dynamics", "liouvillian_matrix_raw", None),
    ("dynamics", "evolve", _evolve_done),
    ("dynamics", "evolve_spectral", None),
    ("dynamics", "residual_norm", None),
    ("sectors", "two_atom_steady_state", _sector_done),
    ("sectors", "coherence_block_gap", _gap_done),
    ("scenarios", "choose_truncation", None),
    ("scenarios", "scenario_steady_state", None),
    ("scenarios", "OutputTable.to_csv", None),
    ("correlations", "correlation_report", None),
    ("correlations", "quantum_discord_bruteforce", None),
    ("correlations", "field_statistics", None),
    ("hilbert", "partial_trace", None),
    ("hilbert", "DensityMatrix.from_matrix", None),
)

PACKAGE = "drivencavity"
SPAN_NAMES = tuple(f"{mod}.{name}" for mod, name, _ in TARGETS)
COUNTERS = (
    "dynamics.steady_state_raw.route.nullspace",
    "dynamics.steady_state_raw.route.integration",
    "dynamics.evolve.rhs_evals",
    "sectors.coherence_block_gap.unchecked",
    "sectors.sector_error",
    "scenarios.OutputTable.to_csv.bytes",
)
MAXIMA = ("dynamics.steady_state_raw.max_dim",)
RATIOS = ("scenarios.useful_solve_frac", "correlations.oracle_frac")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = [f"{span}.{kind}" for span in SPAN_NAMES for kind in ("calls", "s", "self_s")]
    return names + list(COUNTERS) + list(MAXIMA) + list(RATIOS) + ["trace.wall_s"]


class Tracer:
    """Single-threaded span recorder; sweep points must run with workers = 1."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: defaultdict = defaultdict(float)
        self.maxima: dict = {}
        self._stack: list[int] = []
        self._op: int | None = None
        self._restore: list = []

    def _open(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(sid, name, self.clock(), 0.0, parent, self._op))
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, error: BaseException | None = None):
        span = self.spans[sid]
        span.end = self.clock()
        if error is not None:
            span.error = f"{type(error).__name__}: {error}"
        self._stack.pop()

    def run_op(self, op_id: int, label: str, fn, *args):
        """Call fn(*args) under a root span named op:<label> that owns op_id."""
        self._op = op_id
        sid = self._open(f"op:{label}")
        try:
            result = fn(*args)
        except BaseException as exc:
            self._close(sid, exc)
            raise
        finally:
            self._op = None
        self._close(sid)
        return result

    def wrap(self, name: str, fn, hook=None):
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(sid, exc)
                if hook is not None:
                    hook(self, args, kwargs, None, exc)
                raise
            self._close(sid)
            if hook is not None:
                hook(self, args, kwargs, result, None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Rebind every traced function in each loaded drivencavity module."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, attr, hook in TARGETS:
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            span_name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = inspect.getattr_static(cls, meth)
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(span_name, raw.__func__, hook))
                else:
                    new = self.wrap(span_name, raw, hook)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(span_name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans) -> dict:
    """Span id -> its duration minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and do
    not overlap each other.
    """
    covered: defaultdict = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return {span.id: (span.end - span.start) - covered[span.id] for span in spans}


def _has_ancestor(span, by_id, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if by_id[parent].name == name:
            return True
        parent = by_id[parent].parent
    return False


def per_layer_metrics(tracer: Tracer, passes: int, wall_s: float) -> dict:
    """Per-pass calls, seconds, self seconds and counts; ratios and maxima as measured."""
    own = self_times(tracer.spans)
    calls: defaultdict = defaultdict(int)
    incl: defaultdict = defaultdict(float)
    excl: defaultdict = defaultdict(float)
    for span in tracer.spans:
        calls[span.name] += 1
        incl[span.name] += span.end - span.start
        excl[span.name] += own[span.id]
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name] / passes
        out[f"{name}.s"] = incl[name] / passes
        out[f"{name}.self_s"] = excl[name] / passes
    for name in COUNTERS:
        out[name] = tracer.counts[name] / passes
    for name in MAXIMA:
        out[name] = tracer.maxima.get(name, 0)

    by_id = {span.id: span for span in tracer.spans}
    solves = [s for s in tracer.spans if s.name == "scenarios.scenario_steady_state"]
    useful = [s for s in solves if not _has_ancestor(s, by_id, "scenarios.choose_truncation")]
    out["scenarios.useful_solve_frac"] = len(useful) / len(solves) if solves else 0.0
    reports = {s.id for s in tracer.spans if s.name == "correlations.correlation_report"}
    oracle = {s.parent for s in tracer.spans
              if s.name == "correlations.quantum_discord_bruteforce" and s.parent in reports}
    out["correlations.oracle_frac"] = len(oracle) / len(reports) if reports else 0.0
    out["trace.wall_s"] = wall_s
    return out
