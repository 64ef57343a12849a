"""Workloads, the per-op loop, the correctness gate and the statistics of the benchmark.

Every op is one sweep point (or one whole table) run the way `sim` runs it:
`load_config` -> `run_scenario` -> `OutputTable.to_csv`.  The loop is closed
with one client: the next op starts when the previous one has finished.
Nothing here imports drivencavity, so the tests run without it.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

ATOL = 1e-8                  # absolute tolerance of the gate; solver residual tol is 1e-9
PLATEAU_TOL = 0.02           # same tolerance as acceptance criterion 1
PLATEAUS = {"g-g/eps=10": 0.33, "e-g/eps=10": 0.126}   # paper's strong-drive discord plateaus
GATED_COLUMNS = ("qd_ss", "eof_ss", "n_max", "qd", "eof", "purity", "n_bar",
                 "purity_N1", "purity_N2", "purity_N3")


@dataclass(frozen=True)
class Op:
    label: str
    overrides: tuple


@dataclass
class OpResult:
    label: str
    seconds: float
    error: str | None = None
    csv: str | None = None


class PointFailed(RuntimeError):
    """The scenario finished but reported failed sweep points."""


def _fmt(x: float) -> str:
    return f"{x:g}"


WORKLOAD_NAMES = ("driven-sweep", "thermal-sweep", "transient", "rk-evolve")


def workloads() -> dict:
    """Workload name -> its pinned ops (why each exists: bench/README.md)."""
    import numpy as np  # imported late: BLAS threads are pinned before numpy loads

    eps_grid = [float(e) for e in np.geomspace(1e-3, 10.0, 13)]   # 3 points/decade
    driven = tuple(
        Op(f"{init}/eps={_fmt(eps)}",
           ("scenario=fig2-sweep", "g_list=0.1", f"initial_list={init}",
            "sweep_param=epsilon", f"sweep_values={eps!r}", "timestamp=false"))
        for init in ("e-g", "g-g") for eps in eps_grid)
    thermal = tuple(
        Op(f"{init}/n_th={_fmt(nth)}",
           ("scenario=fig3-thermal", "g=0.1", f"initial_list={init}",
            "sweep_param=n_th", f"sweep_values={nth!r}", "timestamp=false"))
        for init in ("e-g", "g-g") for nth in (0.0, 0.5, 1.0, 2.0, 3.0, 5.0))
    transient = (Op("fig1", ("scenario=fig1-purity", "timestamp=false")),)
    rk = tuple(
        Op(init,
           ("scenario=custom", "custom_mode=evolve", "n_atoms=2", "g=0.1", "epsilon=1",
            "n_max=16", "t_lo=0.1", "t_hi=300", "points_per_decade=8",
            f"initial_atoms={init}", "timestamp=false"))
        for init in ("all-g", "e-g", "all-e"))
    return dict(zip(WORKLOAD_NAMES, (driven, thermal, transient, rk)))


def run_op(op: Op, execute) -> OpResult:
    """Time execute(op); an exception is recorded against the op, never raised."""
    t0 = time.perf_counter()
    try:
        csv = execute(op)
    except Exception as exc:  # per-op failure accounting: record and go on
        return OpResult(op.label, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}")
    return OpResult(op.label, time.perf_counter() - t0, csv=csv)


def run_passes(ops, execute, seconds: float, rng) -> list:
    """Whole passes over ops, each in a fresh seeded order, for about `seconds`.

    At least one pass runs; another starts only if it should end in time.
    Returns [(pass wall seconds, [OpResult, ...]), ...].
    """
    passes = []
    start = time.perf_counter()
    while True:
        order = list(ops)
        rng.shuffle(order)
        t0 = time.perf_counter()
        results = [run_op(op, execute) for op in order]
        wall = time.perf_counter() - t0
        passes.append((wall, results))
        if time.perf_counter() - start + wall > seconds:
            return passes


def parse_csv(text: str):
    """(metadata {key: value}, columns {name: [float, ...]}) of a table written by to_csv."""
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].partition(" = ")
            if sep:
                meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append([float(v) for v in line.split(",")])
    columns = {name: [row[k] for row in rows] for k, name in enumerate(header or [])}
    return meta, columns


def reference_entry(result: OpResult) -> dict:
    """What the gate remembers of one op: the gated columns and n_max, or the error."""
    if result.error is not None:
        return {"error": result.error}
    meta, columns = parse_csv(result.csv)
    return {
        "columns": {k: v for k, v in columns.items() if k in GATED_COLUMNS},
        "meta": {k: v for k, v in meta.items() if k.startswith("n_max_used")},
    }


def check_op(result: OpResult, ref: dict | None) -> list[str]:
    """Mismatches of one op against its reference entry ([] when it agrees).

    An op whose reference is an error may fail again; if it succeeds, its new
    values are unchecked, so that is a mismatch until the reference is
    rewritten.  An op with reference values must succeed and match them
    within ATOL.
    """
    if ref is None:
        return [f"{result.label}: no reference entry"]
    if "error" in ref:
        if result.error is None:
            return [f"{result.label}: known failure now succeeds; rewrite "
                    f"bench/reference.json with bench/make_reference.py"]
        return []
    if result.error is not None:
        return [f"{result.label}: failed, reference succeeded: {result.error}"]
    got = reference_entry(result)
    problems = []
    for key, want in ref["meta"].items():
        if got["meta"].get(key) != want:
            problems.append(f"{result.label}: {key} = {got['meta'].get(key)}, want {want}")
    for name, want in ref["columns"].items():
        have = got["columns"].get(name)
        if have is None or len(have) != len(want):
            problems.append(f"{result.label}: column {name} missing or of wrong length")
            continue
        worst = max((abs(a - b) for a, b in zip(have, want)), default=0.0)
        if not worst <= ATOL:
            problems.append(f"{result.label}: column {name} differs by {worst:.3e} > {ATOL:g}")
    plateau = PLATEAUS.get(result.label)
    if plateau is not None:
        qd = got["columns"].get("qd_ss", [math.nan])[0]
        if not abs(qd - plateau) <= PLATEAU_TOL:
            problems.append(f"{result.label}: QD {qd:.4f} off the paper plateau "
                            f"{plateau} +- {PLATEAU_TOL}")
    return problems


# Tail percentiles above the median, lowest first, as (name, quantile).
TAIL_LADDER = (("p75", Fraction(3, 4)), ("p90", Fraction(9, 10)), ("p95", Fraction(19, 20)),
               ("p99", Fraction(99, 100)), ("p99.9", Fraction(999, 1000)))


def tail_percentile(n: int):
    """Highest ladder percentile with at least ten of n samples beyond it, or None."""
    best = None
    for name, q in TAIL_LADDER:
        if n * (1 - q) >= 10:
            best = (name, q)
    return best


def op_time_stats(passes) -> dict:
    """Median and tail percentile of successful op times pooled over passes."""
    times = [r.seconds for _, results in passes for r in results if r.error is None]
    out = {"samples": len(times), "p50": statistics.median(times) if times else math.nan}
    tail = tail_percentile(len(times))
    if tail is not None:
        import numpy as np

        out[tail[0]] = float(np.percentile(times, float(100 * tail[1])))
    return out
