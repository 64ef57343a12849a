import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from drivencavity.scenarios import load_config, run_scenario

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture
def tracer(monkeypatch):
    """bench/tracer.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_targets_resolve(tracer):
    # a traced bench run rebinds each target by name; a renamed function
    # would make it crash
    assert tracer.TARGETS
    for module, name, _ in tracer.TARGETS:
        obj = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        for attr in name.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), f"{module}.{name}"


def test_traced_fig3_point_checks_every_coherence_gap(tracer):
    # the hooks read arguments and results: a crash there fails a traced run
    scfg = load_config(None, ["scenario=fig3-thermal", "g=0.1", "initial_list=e-g",
                              "sweep_param=n_th", "sweep_values=0.5", "timestamp=false"])
    t = tracer.Tracer()
    t.install()
    try:
        table = t.run_op(0, "fig3", run_scenario, scfg)
    finally:
        t.uninstall()
    assert not table.failures
    metrics = tracer.per_layer_metrics(t, passes=1, wall_s=0.0)
    assert metrics["dynamics.steady_state_raw.calls"] > 0
    assert metrics["sectors.coherence_block_gap.calls"] > 0
    assert metrics["sectors.coherence_block_gap.unchecked"] == 0


def test_traced_three_atom_steady_point_goes_through_the_collective_basis(tracer):
    # every N reaches the steady solver through sectors, under the traced name
    scfg = load_config(None, ["scenario=custom", "custom_mode=steady", "n_atoms=3",
                              "g=0.1", "n_max=3", "initial_atoms=e-g", "timestamp=false"])
    t = tracer.Tracer()
    t.install()
    try:
        table = t.run_op(0, "custom", run_scenario, scfg)
    finally:
        t.uninstall()
    assert not table.failures
    metrics = tracer.per_layer_metrics(t, passes=1, wall_s=0.0)
    assert metrics["sectors.two_atom_steady_state.calls"] > 0
