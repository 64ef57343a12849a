"""Tests of the benchmark's own arithmetic: python3 -m pytest bench/tests"""

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import tracer as tracing  # noqa: E402


class TestTailPercentile:
    @pytest.mark.parametrize("n, name", [
        (0, None), (19, None), (39, None), (40, "p75"), (99, "p75"), (100, "p90"),
        (199, "p90"), (200, "p95"), (999, "p95"), (1000, "p99"), (10000, "p99.9"),
    ])
    def test_highest_percentile_with_ten_samples_beyond(self, n, name):
        tail = harness.tail_percentile(n)
        assert (tail and tail[0]) == name
        if tail is not None:
            assert n * (1 - tail[1]) >= 10

    def test_op_stats_pool_passes_and_skip_failures(self):
        ok = [harness.OpResult("a", float(k)) for k in range(30)]
        failed = harness.OpResult("b", 99.0, error="X: boom")
        passes = [(1.0, ok[:15] + [failed]), (1.0, ok[15:])]
        stats = harness.op_time_stats(passes)
        assert stats["samples"] == 30
        assert stats["p50"] == 14.5
        assert "p75" not in stats
        stats = harness.op_time_stats(passes + [(1.0, ok[:10])])
        assert stats["samples"] == 40 and "p75" in stats


def _span(sid, parent, start, end, name="f"):
    return tracing.Span(sid, name, start, end, parent, op=0)


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            _span(0, None, 0.0, 10.0),
            _span(1, 0, 1.0, 3.0),
            _span(2, 0, 4.0, 8.0),
            _span(3, 2, 5.0, 6.0),
            _span(4, 2, 6.5, 7.0),
        ]
        own = tracing.self_times(spans)
        assert own == pytest.approx({0: 4.0, 1: 2.0, 2: 2.5, 3: 1.0, 4: 0.5})
        assert sum(own.values()) == pytest.approx(10.0)

    def test_tracer_records_parents_and_errors(self):
        ticks = iter(range(100))
        t = tracing.Tracer(clock=lambda: float(next(ticks)))
        inner = t.wrap("inner", lambda x: x + 1)

        def outer_fn():
            inner(1)
            raise ValueError("boom")

        outer = t.wrap("outer", outer_fn)
        with pytest.raises(ValueError):
            t.run_op(7, "op-a", outer)
        names = {s.name: s for s in t.spans}
        assert names["outer"].parent == names["op:op-a"].id
        assert names["inner"].parent == names["outer"].id
        assert all(s.op == 7 for s in t.spans)
        assert names["outer"].error == "ValueError: boom"
        own = tracing.self_times(t.spans)
        assert own[names["outer"].id] == pytest.approx(
            (names["outer"].end - names["outer"].start) - (names["inner"].end - names["inner"].start))


class TestFailureAccounting:
    def test_forced_exception_is_recorded_and_the_loop_goes_on(self):
        ops = [harness.Op(f"op{k}", ()) for k in range(5)]
        seen = []

        def execute(op):
            seen.append(op.label)
            if op.label == "op2":
                raise ZeroDivisionError("forced")
            return "x\n1.0\n"

        passes = harness.run_passes(ops, execute, seconds=0.0, rng=random.Random(3))
        assert len(passes) == 1
        results = passes[0][1]
        assert sorted(seen) == [op.label for op in ops]
        failed = [r for r in results if r.error is not None]
        assert [(r.label, r.error) for r in failed] == [("op2", "ZeroDivisionError: forced")]
        assert sum(r.csv is not None for r in results) == 4

    def test_seed_only_permutes_order(self):
        ops = [harness.Op(f"op{k}", ()) for k in range(8)]
        orders = []
        for seed in (1, 1, 2):
            passes = harness.run_passes(ops, lambda op: "", 0.0, random.Random(seed))
            orders.append([r.label for r in passes[0][1]])
        assert orders[0] == orders[1] != orders[2]
        assert sorted(orders[2]) == sorted(op.label for op in ops)


class TestGate:
    CSV = "# drivencavity 0.1.0\n# n_max_used = 16\nkt,qd,eof\n1.0,0.25,0.0\n2.0,0.5,0.125\n"

    def test_reference_round_trip(self):
        ok = harness.OpResult("e-g", 1.0, csv=self.CSV)
        ref = harness.reference_entry(ok)
        assert ref == {"columns": {"qd": [0.25, 0.5], "eof": [0.0, 0.125]},
                       "meta": {"n_max_used": "16"}}
        assert harness.check_op(ok, ref) == []

    def test_mismatch_and_regressed_failure(self):
        ref = harness.reference_entry(harness.OpResult("e-g", 1.0, csv=self.CSV))
        off = harness.OpResult("e-g", 1.0, csv=self.CSV.replace("0.125", "0.1250001"))
        assert any("column eof" in m for m in harness.check_op(off, ref))
        other_n = harness.OpResult("e-g", 1.0, csv=self.CSV.replace("= 16", "= 32"))
        assert any("n_max_used" in m for m in harness.check_op(other_n, ref))
        broken = harness.OpResult("e-g", 1.0, error="StateError: x")
        assert harness.check_op(broken, ref)

    def test_known_failure_may_fail_but_not_succeed_unrecorded(self):
        ref = {"error": "ConvergenceError: too large"}
        assert harness.check_op(harness.OpResult("x", 1.0, error="ConvergenceError: y"), ref) == []
        fixed = harness.check_op(harness.OpResult("x", 1.0, csv=self.CSV), ref)
        assert len(fixed) == 1 and "known failure now succeeds" in fixed[0]

    def test_plateau_spot_check(self):
        csv = "g,qd_ss\n0.1,0.30\n"
        ref = {"columns": {"qd_ss": [0.30]}, "meta": {}}
        assert harness.check_op(harness.OpResult("e-g/eps=10", 1.0, csv=csv), ref)
        assert not harness.check_op(harness.OpResult("g-g/eps=10", 1.0, csv=csv.replace("0.30", "0.33")),
                                    {"columns": {"qd_ss": [0.33]}, "meta": {}})


class TestManifest:
    def test_benchmark_json_matches_the_harness(self):
        manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert [w["name"] for w in manifest["workloads"]] == list(harness.WORKLOAD_NAMES)
        assert [m["name"] for m in manifest["per_layer"]] == tracing.metric_names()
        assert list(tracing.per_layer_metrics(tracing.Tracer(), 1, 1.0)) == tracing.metric_names()
        assert [m["name"] for m in manifest["end_to_end"]] == [
            "wall_s", "op_s.p50", "setup_s", "peak_rss_mb"]

    def test_reference_covers_every_op(self):
        reference = json.loads((BENCH / "reference.json").read_text())
        for name, ops in harness.workloads().items():
            assert sorted(reference[name]) == sorted(op.label for op in ops)


class TestInstall:
    def test_rebinds_every_importing_module_and_restores(self):
        sys.path.insert(0, str(ROOT / "src"))
        import drivencavity.dynamics as dynamics
        import drivencavity.scenarios as scenarios
        import drivencavity.sectors as sectors
        from drivencavity.hilbert import DensityMatrix, HilbertLayout

        original = dynamics.steady_state_raw
        from_matrix = DensityMatrix.from_matrix
        t = tracing.Tracer()
        t.install()
        try:
            assert sectors.steady_state_raw is dynamics.steady_state_raw is not original
            assert scenarios.two_atom_steady_state.__wrapped__ is not None
            rho = DensityMatrix.from_matrix(HilbertLayout(1, 0), [[1, 0], [0, 0]])
            assert isinstance(rho, DensityMatrix)
        finally:
            t.uninstall()
        assert sectors.steady_state_raw is original
        assert DensityMatrix.from_matrix == from_matrix
        assert [s.name for s in t.spans] == ["hilbert.DensityMatrix.from_matrix"]
