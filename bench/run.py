#!/usr/bin/env python3
"""drivencavity benchmark: time-to-table of pinned `sim` workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S]      # every workload, both modes

Run from the repository root; the package is imported from ./src.  One run
makes whole passes over the workload's ops (order permuted by the seed) for
about S seconds, checks every op against bench/reference.json and prints one
JSON object as its last line.  With --trace 0 it reports the end-to-end
metrics; with --trace 1 it wraps the package's public functions and reports
per-layer metrics instead.  Details and spans go to bench/out/.  See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
import tracer as tracing

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"
MANIFEST = BENCH_DIR.parent / "BENCHMARK.json"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 5
# One BLAS thread: with two, the many small products of the RK and sector routes
# swing by 30 % from run to run on a shared 2-core machine; with one, by 1-2 %.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare(workload: str):
    """Set-up that every run pays: pin BLAS, import the package from ./src, build configs.

    Returns (scenarios module, ops).
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    src = Path.cwd() / "src"
    if not (src / "drivencavity" / "__init__.py").is_file():
        raise SystemExit(f"error: no drivencavity sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import drivencavity.scenarios as scenarios
    if Path(scenarios.__file__).resolve().parent != (src / "drivencavity").resolve():
        raise SystemExit(f"error: imported drivencavity from {scenarios.__file__}, not {src}")
    ops = harness.workloads()[workload]
    for op in ops:
        scenarios.load_config(None, op.overrides)
    return scenarios, ops


def measure_setup(workload: str) -> list[float]:
    """Wall seconds from process start to ready-for-the-first-op, in fresh processes."""
    code = (f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import run; "
            f"run.prepare({workload!r}); print('ready', flush=True)")
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe exited with code {proc.returncode}")
        times.append(elapsed)
    return times


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def execute(scenarios, op) -> str:
    """One op as `sim` runs it; returns the CSV text, raises on any failed point."""
    cfg = scenarios.load_config(None, op.overrides)
    table = scenarios.run_scenario(cfg)
    buf = io.StringIO()
    table.to_csv(buf, timestamp=cfg.timestamp)
    failures = getattr(table, "failures", [])
    if failures:
        raise harness.PointFailed("; ".join(f"{p}: {m}" for p, m in failures))
    return buf.getvalue()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    scenarios, ops = prepare(name)
    references = json.loads(REFERENCE.read_text())[name]
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}"

    tracer = tracing.Tracer() if trace else None
    op_ids = {op.label: k for k, op in enumerate(ops)}

    def run_one(op):
        if tracer is None:
            return execute(scenarios, op)
        csv = tracer.run_op(op_ids[op.label], op.label, execute, scenarios, op)
        tracer.counts["scenarios.OutputTable.to_csv.bytes"] += len(csv.encode())
        return csv

    if tracer is not None:
        tracer.install()
    passes = harness.run_passes(ops, run_one, seconds, random.Random(seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    walls = [wall for wall, _ in passes]
    results = [r for _, rs in passes for r in rs]
    failed = [r for r in results if r.error is not None]
    mismatches = [m for r in results for m in harness.check_op(r, references.get(r.label))]
    op_stats = harness.op_time_stats(passes)

    if trace:
        values = tracing.per_layer_metrics(tracer, len(passes), statistics.median(walls))
        tracer.write_jsonl(OUT_DIR / f"spans-{tag}.jsonl")
        setup = []
    else:
        setup = measure_setup(name)
        values = {
            "wall_s": statistics.median(walls),
            "op_s.p50": op_stats["p50"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
    units = manifest_units()
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    env = environment()
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "env": env,
        "passes": len(passes), "pass_wall_s": walls, "op_s": op_stats, "setup_s": setup,
        "peak_rss_mb": peak_rss_mb, "attempted": len(results), "failed": len(failed),
        "failures": [{"op": r.label, "error": r.error} for r in failed],
        "mismatches": mismatches, "metrics": metrics,
        "ops": [{"op": r.label, "seconds": r.seconds, "error": r.error} for r in results],
    }
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")

    print(f"env {json.dumps(env)}")
    print(f"{name} seed {seed} trace {int(trace)}: {len(passes)} pass(es) of {len(ops)} ops")
    for r in failed:
        print(f"FAILED {r.label}: {r.error}")
    for m in mismatches:
        print(f"MISMATCH {m}")
    print(f"failed_frac = {len(failed)}/{len(results)}")
    tails = [k for k in op_stats if k not in ("samples", "p50")]
    print(f"op_s tail: " + (", ".join(f"{k} = {op_stats[k]:.4f} s" for k in tails) if tails
          else f"none (no percentile above p50 has 10 of {op_stats['samples']} samples beyond)"))
    for key, m in metrics.items():
        print(f"metric {key} = {m['value']:.6g} {m['unit']} (n={_samples(key, detail)})")
    print(json.dumps({"correct": not mismatches, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 1 if mismatches else 0


def manifest_units() -> dict:
    """Metric name -> unit, as BENCHMARK.json lists it."""
    manifest = json.loads(MANIFEST.read_text())
    return {m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]}


def _samples(key: str, detail: dict) -> int:
    return {"op_s.p50": detail["op_s"]["samples"],
            "setup_s": len(detail["setup_s"])}.get(key, detail["passes"])


def run_suite(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process; one summary."""
    status = 0
    for name in harness.WORKLOAD_NAMES:
        for trace in (0, 1):
            (OUT_DIR / f"result-{name}-seed{seed}-trace{trace}.json").unlink(missing_ok=True)
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                status = 1
                sys.stdout.write(proc.stdout)
                sys.stderr.write(proc.stderr)
        status |= _summarise(name, seed)
    return status


def _summarise(name: str, seed: int) -> int:
    try:
        plain, traced = (json.loads((OUT_DIR / f"result-{name}-seed{seed}-trace{t}.json")
                                    .read_text()) for t in (0, 1))
    except FileNotFoundError as exc:
        print(f"== {name}: no result ({exc.filename})")
        return 1
    print(f"== {name} (seed {seed}, {plain['passes']} untraced / {traced['passes']} traced passes)")
    print(f"   failed_frac = {plain['failed']}/{plain['attempted']}")
    for f in plain["failures"]:
        print(f"   FAILED {f['op']}: {f['error']}")
    for key, m in plain["metrics"].items():
        print(f"   {key:<12} {m['value']:>12.6g} {m['unit']:<3} (n={_samples(key, plain)})")
    for k in (k for k in plain["op_s"] if k not in ("samples", "p50")):
        print(f"   op_s.{k:<7} {plain['op_s'][k]:>12.6g} s   (n={plain['op_s']['samples']})")
    traced_wall = traced["metrics"]["trace.wall_s"]["value"]
    print(f"   tracing overhead = {traced_wall - plain['metrics']['wall_s']['value']:+.4f} s "
          f"on wall_s {plain['metrics']['wall_s']['value']:.4f} s")
    shares = sorted(((m["value"] / traced_wall, k[:-len(".self_s")])
                     for k, m in traced["metrics"].items() if k.endswith(".self_s")), reverse=True)
    print("   self-time share: " + ", ".join(f"{k} {s:.1%}" for s, k in shares[:3]))
    for m in plain["mismatches"] + traced["mismatches"]:
        print(f"   MISMATCH {m}")
    return 1 if plain["mismatches"] or traced["mismatches"] else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; omit to run them all")
    parser.add_argument("--seed", type=int, default=0, help="permutes op order")
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_suite(args.seed, args.seconds)
    if args.workload not in harness.WORKLOAD_NAMES:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
