import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from drivencavity import dynamics, scenarios, sectors
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


def _traced_fig3_point(tracer, n_th):
    """(table, per-layer metrics) of one traced e-g fig3 point at n_th."""
    scfg = load_config(None, ["scenario=fig3-thermal", "g=0.1", "initial_list=e-g",
                              "sweep_param=n_th", f"sweep_values={n_th}", "timestamp=false"])
    t = tracer.Tracer()
    t.install()
    try:
        table = t.run_op(0, "fig3", run_scenario, scfg)
    finally:
        t.uninstall()
    return table, tracer.per_layer_metrics(t, passes=1, wall_s=0.0)


def test_traced_fig3_point_checks_every_coherence_gap(tracer):
    # the hooks read arguments and results: a crash there fails a traced run
    table, metrics = _traced_fig3_point(tracer, 0.5)
    assert not table.failures
    assert metrics["dynamics.steady_state_raw.calls"] > 0
    assert metrics["sectors.coherence_block_gap.calls"] > 0
    assert metrics["sectors.coherence_block_gap.unchecked"] == 0


def test_traced_fig3_point_refused_at_the_cap(tracer):
    # the steady_state_raw hook also reads a call that raises: n_th 5 is refused
    # at n_max 256, after the probes below it were solved
    table, metrics = _traced_fig3_point(tracer, 5.0)
    assert [msg for _, msg in table.failures] == [
        "dimension 771 too large for the null-space route"]
    assert metrics["dynamics.steady_state_raw.route.nullspace"] > 0
    assert metrics["dynamics.steady_state_raw.max_dim"] == 1028


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


def test_traced_rk_point_builds_the_whole_liouvillian(tracer, monkeypatch):
    # with no spectral support allowed, custom evolve takes the Runge-Kutta
    # route, whose whole-space L a traced bench run also builds
    monkeypatch.setattr(dynamics, "SPECTRAL_MAX_SUPPORT", 0)
    scfg = load_config(None, ["scenario=custom", "custom_mode=evolve", "n_atoms=2", "g=0.1",
                              "epsilon=1", "n_max=3", "t_lo=0.1", "t_hi=1",
                              "points_per_decade=2", "initial_atoms=e-g", "timestamp=false"])
    t = tracer.Tracer()
    t.install()
    try:
        table = t.run_op(0, "custom", run_scenario, scfg)
    finally:
        t.uninstall()
    assert not table.failures
    metrics = tracer.per_layer_metrics(t, passes=1, wall_s=0.0)
    assert metrics["dynamics.liouvillian_matrix_raw.calls"] > 0
    assert metrics["dynamics.evolve.rhs_evals"] > 0


def test_sectors_binds_what_the_benchmark_reads():
    # bench/tracer.py wraps two of these and the benchmark's own tests check
    # the third; each is a dynamics function, and scenarios solves through the alias
    public = {name for name in vars(sectors) if not name.startswith("_")}
    assert public == {"two_atom_steady_state", "steady_state_raw", "coherence_block_gap"}
    assert sectors.two_atom_steady_state is dynamics.steady_state
    assert scenarios.two_atom_steady_state is dynamics.steady_state
    assert sectors.steady_state_raw is dynamics.steady_state_raw
    assert sectors.coherence_block_gap is dynamics.coherence_block_gap


def test_scenarios_import_leaves_scipy_integrate_unloaded():
    # only Runge-Kutta evolution needs scipy.integrate, which also loads
    # scipy.optimize; the other routes should not pay for importing it
    src = str(Path(scenarios.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import drivencavity.scenarios; "
            "print('scipy.integrate' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "False"
