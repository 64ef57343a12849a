"""The benchmark's correctness gate on every workload, as tests.

Each op of `bench/harness.workloads()` (`driven-sweep`, `thermal-sweep`,
`transient`, `rk-evolve`) runs as `bench/run.py` runs it (`load_config` ->
`run_scenario` -> `to_csv`, a table with failed points counting as a failed
op) and is checked by `harness.check_op` against `bench/reference.json`: an
op whose reference is an error must fail again.  A drift of a gated output on
the steady or the time-evolution path then fails here, not only in the
benchmark.
"""

import functools
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from drivencavity import scenarios

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))  # run.py imports harness and tracer by name
_spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
bench_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)
harness = bench_run.harness

REFERENCE = json.loads(bench_run.REFERENCE.read_text())
OPS = [(workload, op) for workload, ops in harness.workloads().items() for op in ops]


@pytest.mark.parametrize("workload, op", OPS, ids=[f"{w}/{op.label}" for w, op in OPS])
def test_op_passes_the_gate(workload, op):
    result = harness.run_op(op, functools.partial(bench_run.execute, scenarios))
    assert harness.check_op(result, REFERENCE[workload].get(op.label)) == []
