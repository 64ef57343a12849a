import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_bench_tracer_targets_resolve(monkeypatch):
    # a traced bench run rebinds each target by name; a renamed function
    # would make it crash
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclasses look themselves up
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, name, _ in tracer.TARGETS:
        obj = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        for attr in name.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), f"{module}.{name}"
