import io
import math

import numpy as np
import pytest

from drivencavity.correlations import XStateError, correlation_report
from drivencavity.dynamics import EvolutionError
from drivencavity.hilbert import DensityMatrix, HilbertLayout
from drivencavity.model import ConfigError, SystemConfig, initial_state
from drivencavity.scenarios import (
    OutputTable,
    ScenarioConfigError,
    TruncationError,
    atoms_pattern,
    choose_truncation,
    load_config,
    log_grid,
    parse_float_list,
    run_scenario,
    scenario_steady_state,
    window_report,
)
from drivencavity import cli, dynamics, scenarios


class TestLoadConfig:
    def test_defaults(self):
        cfg = load_config(None, [])
        assert cfg.scenario == "custom"
        assert cfg.n_atoms == 2
        assert cfg.integrator_tol == 1e-9

    def test_file_with_comments_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# a comment line\n"
            "scenario = fig2-sweep\n"
            "g = 0.05   # inline comment\n"
            "\n"
            "workers=3\n"
        )
        cfg = load_config(str(path), ["g=0.07", "timestamp=no"])
        assert cfg.scenario == "fig2-sweep"
        assert cfg.g == 0.07          # override wins over the file
        assert cfg.workers == 3
        assert cfg.timestamp is False

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("coupling = 0.1\n")
        with pytest.raises(ScenarioConfigError):
            load_config(str(path))

    def test_bad_value_rejected(self):
        with pytest.raises(ScenarioConfigError):
            load_config(None, ["g=strong"])
        with pytest.raises(ScenarioConfigError):
            load_config(None, ["timestamp=maybe"])
        with pytest.raises(ScenarioConfigError):
            load_config(None, ["just-a-token"])

    def test_bad_scenario_and_sweep_param(self):
        with pytest.raises(ScenarioConfigError):
            load_config(None, ["scenario=fig9"])
        with pytest.raises(ScenarioConfigError):
            load_config(None, ["sweep_param=delta"])

    @pytest.mark.parametrize("args", [
        ["scenario=custom", "sweep_param=g", "sweep_values=0.1"],
        ["scenario=fig3-thermal", "sweep_param=epsilon"],
        ["scenario=fig1-purity", "sweep_param=n_th"],
        ["scenario=fig2-sweep", "sweep_values=1,2"],
    ], ids=["custom-g", "fig3-epsilon", "fig1-n_th", "values-without-param"])
    def test_sweep_the_scenario_ignores_rejected(self, args):
        with pytest.raises(ScenarioConfigError):
            load_config(None, args)

    @pytest.mark.parametrize("scenario", ["fig2-sweep", "fig3-thermal"])
    @pytest.mark.parametrize("n_atoms", [1, 3])
    def test_pair_scenarios_need_two_atoms(self, scenario, n_atoms):
        with pytest.raises(ScenarioConfigError, match="n_atoms must be 2"):
            load_config(None, [f"scenario={scenario}", f"n_atoms={n_atoms}"])

    def test_fixed_keys_accept_only_the_value_used(self, tmp_path):
        # a key the scenario fixes may be set, but only to the value it computes at
        cfg = load_config(None, ["scenario=fig3-thermal", "frame=thermal", "epsilon=0",
                                 "delta=0.0"])
        assert (cfg.frame, cfg.epsilon, cfg.delta) == ("thermal", 0.0, 0.0)
        assert load_config(None, ["scenario=fig2-sweep", "n_th=0"]).n_th == 0.0
        path = tmp_path / "fig2.cfg"
        path.write_text("scenario = fig2-sweep\nframe = thermal\n")
        with pytest.raises(ScenarioConfigError, match="computes at frame = displaced"):
            load_config(str(path))
        # a fixed key left unset keeps its default
        assert load_config(None, ["scenario=fig3-thermal"]).epsilon == 1.0

    def test_each_scenario_sweeps_its_parameters(self):
        for scenario, params in [("fig2-sweep", ("epsilon", "g")), ("fig3-thermal", ("n_th",))]:
            for param in params:
                cfg = load_config(None, [f"scenario={scenario}", f"sweep_param={param}",
                                         "sweep_values=0.5"])
                assert cfg.sweep_param == param


class TestHelpers:
    def test_atoms_pattern_tokens(self):
        assert atoms_pattern("all-e", 3) == "eee"
        assert atoms_pattern("all-g", 2) == "gg"
        assert atoms_pattern("e-g", 2) == "eg"
        assert atoms_pattern("ge", 2) == "ge"
        amps = atoms_pattern("custom:0.5,0.5,0.5,0.5", 2)
        assert np.allclose(amps, 0.5)
        with pytest.raises(ScenarioConfigError):
            atoms_pattern("custom:1,0", 2)
        with pytest.raises(ScenarioConfigError):
            atoms_pattern("xyz", 2)

    def test_parse_float_list(self):
        assert parse_float_list("1, 2.5,1e-3,") == [1.0, 2.5, 1e-3]

    def test_log_grid_endpoints(self):
        grid = log_grid(0.1, 1e3, 5)
        assert np.isclose(grid[0], 0.1)
        assert np.isclose(grid[-1], 1e3)
        assert grid.size == 21
        assert np.all(np.diff(grid) > 0)

    def test_window_report(self):
        lo, hi = window_report(SystemConfig(n_atoms=1, g=0.01))
        assert lo == 1.0 and np.isclose(hi, 1e4)
        lo, hi = window_report(SystemConfig(n_atoms=2, g=1.0))
        assert hi <= lo  # no semiclassical regime at strong coupling


class TestOutputTable:
    def table(self):
        return OutputTable(columns=["x", "y"], rows=[[1.0, 2.0], [3.0, 4.0]],
                           metadata=["note = hello"])

    def test_column_access(self):
        assert np.allclose(self.table().column("y"), [2.0, 4.0])

    def test_csv_layout(self):
        buf = io.StringIO()
        self.table().to_csv(buf, timestamp=False)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("# drivencavity ")
        assert lines[1] == "# note = hello"
        assert lines[2] == "x,y"
        assert lines[3].split(",")[0] == "1.00000000000000000e+00"

    def test_timestamp_line_optional(self):
        with_ts, without_ts = io.StringIO(), io.StringIO()
        self.table().to_csv(with_ts, timestamp=True)
        self.table().to_csv(without_ts, timestamp=False)
        assert any(l.startswith("# generated:") for l in with_ts.getvalue().splitlines())
        assert not any(l.startswith("# generated:") for l in without_ts.getvalue().splitlines())

    def test_byte_identical_without_timestamp(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        self.table().to_csv(p1, timestamp=False)
        self.table().to_csv(p2, timestamp=False)
        assert p1.read_bytes() == p2.read_bytes()

    def test_full_precision_roundtrip(self):
        x = math.pi * 1e-7
        table = OutputTable(columns=["x"], rows=[[x]])
        buf = io.StringIO()
        table.to_csv(buf, timestamp=False)
        back = float(buf.getvalue().splitlines()[-1])
        assert back == x


class TestChooseTruncation:
    @staticmethod
    def chosen_n_max(cfg, tol):
        chosen, rho, observed, report = choose_truncation(
            cfg, lambda c: scenario_steady_state(c, "gg"), tol)
        assert rho.layout == chosen.layout()  # the state solved at the chosen n_max
        again, again_report = scenarios._probe_observables(chosen, rho)
        assert np.array_equal(observed, again) and report == again_report
        return chosen.n_max

    def test_driven_weak_coupling_needs_few_photons(self):
        # displaced frame keeps the field near vacuum even at strong drive
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, frame="displaced")
        n = self.chosen_n_max(cfg, tol=1e-6)
        assert n <= 8

    def test_thermal_occupancy_forces_large_truncation(self):
        cfg = SystemConfig(n_atoms=2, g=0.1, n_th=5.0, frame="thermal")
        n = self.chosen_n_max(cfg, tol=1e-4)
        assert n >= 30

    @pytest.mark.parametrize("cfg", [
        SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, frame="displaced"),
        SystemConfig(n_atoms=2, g=0.1, n_th=3.0, frame="thermal"),
    ], ids=["from-4", "thermal-start"])
    def test_failure_names_the_largest_n_max_probed(self, cfg, monkeypatch):
        # observables that never settle: probing doubles n_max while it is at most 256
        probed = []

        def solve(c):
            probed.append(c.n_max)
            return None

        monkeypatch.setattr(scenarios, "_probe_observables",
                            lambda c, rho: (np.array([float(c.n_max)]), None))
        with pytest.raises(TruncationError) as failure:
            choose_truncation(cfg, solve)
        assert 256 < probed[-1] <= 512 and probed == sorted(probed)
        assert str(failure.value) == f"observables not converged in n_max up to {probed[-1]}"

    def test_monotone_in_tolerance(self):
        cfg = SystemConfig(n_atoms=2, g=0.1, n_th=1.0, frame="thermal")
        loose = self.chosen_n_max(cfg, tol=1e-3)
        tight = self.chosen_n_max(cfg, tol=1e-5)
        assert tight >= loose

    @pytest.mark.parametrize("scenario", ["custom", "fig2-sweep"])
    def test_one_report_per_probe(self, scenario, tmp_path, monkeypatch):
        # the row takes the report of the probe that chose n_max, so each
        # solved state gets exactly one correlation report
        report, solve = scenarios.correlation_report, scenarios.scenario_steady_state
        reports, solves = [], []
        monkeypatch.setattr(scenarios, "correlation_report",
                            lambda rho: reports.append(rho) or report(rho))
        monkeypatch.setattr(scenarios, "scenario_steady_state",
                            lambda *args, **kw: solves.append(args) or solve(*args, **kw))
        args = (["custom", "--set", "custom_mode=steady", "--set", "initial_atoms=e-g"]
                if scenario == "custom" else
                ["fig2-sweep", "--set", "sweep_param=epsilon", "--set", "sweep_values=1.0",
                 "--set", "initial_list=e-g"])
        code = cli.main(args + ["--set", "g=0.1", "--set", "g_list=0.1",
                                "--out", str(tmp_path / "out.csv"), "--no-timestamp"])
        assert code == 0
        assert len(solves) >= 2 and len(reports) == len(solves)


class TestScenarioRuns:
    def test_fig1_purity_columns_and_ranges(self):
        cfg = load_config(None, ["scenario=fig1-purity", "t_hi=10", "points_per_decade=3"])
        table = run_scenario(cfg)
        assert table.columns == ["kt", "purity_N1", "purity_N2", "purity_N3"]
        for n in (1, 2, 3):
            p = table.column(f"purity_N{n}")
            assert np.all((p > 0.9) & (p < 1.0 + 1e-9))
        # early-time purity ordering: more atoms decohere faster
        assert table.column("purity_N1")[-1] > table.column("purity_N3")[-1]

    def test_fig1_correlations_start_uncorrelated(self):
        cfg = load_config(None, ["scenario=fig1-correlations", "t_hi=10",
                                 "points_per_decade=3"])
        table = run_scenario(cfg)
        assert table.columns == ["kt", "qd_N2", "eof_N2"]
        assert table.column("qd_N2")[0] < 1e-3
        assert np.all(table.column("eof_N2") < 0.05)

    def test_fig2_single_point(self):
        cfg = load_config(None, [
            "scenario=fig2-sweep", "g_list=0.1", "sweep_param=epsilon",
            "sweep_values=1.0", "initial_list=e-g",
        ])
        table = run_scenario(cfg)
        assert table.columns == ["g", "initial_code", "epsilon", "qd_ss",
                                 "eof_ss", "residual", "n_max"]
        assert len(table.rows) == 1
        assert abs(table.column("qd_ss")[0] - 0.126) < 0.01
        assert table.column("eof_ss")[0] < 1e-3
        assert table.failures == []

    def test_fig2_workers_deterministic(self):
        args = ["scenario=fig2-sweep", "g_list=0.1", "sweep_param=epsilon",
                "sweep_values=0.5,1.0", "initial_list=g-g"]
        serial = run_scenario(load_config(None, args + ["workers=1"]))
        parallel = run_scenario(load_config(None, args + ["workers=2"]))
        assert serial.rows == parallel.rows

    def test_fig3_single_point(self):
        cfg = load_config(None, [
            "scenario=fig3-thermal", "g=0.1", "sweep_param=n_th",
            "sweep_values=0.5", "initial_list=g-g", "truncation_tol=1e-4",
        ])
        table = run_scenario(cfg)
        assert table.columns == ["n_th", "initial_code", "qd_ss", "eof_ss",
                                 "residual", "n_max"]
        assert table.column("eof_ss")[0] < 1e-6
        assert 0.1 < table.column("qd_ss")[0] < 0.33

    def test_initial_code_counts_the_excited_atoms(self):
        cfg = load_config(None, ["scenario=fig2-sweep", "g_list=0.1", "sweep_param=epsilon",
                                 "sweep_values=1.0", "initial_list=ee,ge,e-g,g-g"])
        assert list(run_scenario(cfg).column("initial_code")) == [2.0, 1.0, 1.0, 0.0]

    @pytest.mark.parametrize("args", [
        ["scenario=fig2-sweep", "g_list=0.1", "sweep_param=epsilon", "sweep_values=1.0",
         "initial_list=e-g"],
        ["scenario=fig3-thermal", "g=0.1", "sweep_param=n_th", "sweep_values=0.5",
         "initial_list=g-g", "truncation_tol=1e-4"],
        ["scenario=custom", "custom_mode=steady", "g=0.1", "epsilon=1.0"],
    ], ids=["fig2", "fig3", "custom"])
    def test_chosen_truncation_solved_once(self, args, monkeypatch):
        # the row reuses the state the truncation probe solved at the chosen
        # n_max: one solve per doubled probe truncation, none repeated
        solved = []
        solve = scenarios.scenario_steady_state

        def counting(cfg, *a, **kw):
            solved.append(cfg.n_max)
            return solve(cfg, *a, **kw)

        monkeypatch.setattr(scenarios, "scenario_steady_state", counting)
        table = run_scenario(load_config(None, args))
        if "n_max" in table.columns:
            n_max = int(table.column("n_max")[0])
        else:  # custom records the truncation as metadata
            n_max = int(table.metadata[-1].removeprefix("n_max_used = "))
        assert len(solved) == len(set(solved))
        assert solved[-2:] == [n_max, 2 * n_max]
        assert all(b == 2 * a for a, b in zip(solved, solved[1:]))
        # the reused state is the one a fresh solve at that n_max gives
        solved.clear()
        fixed = run_scenario(load_config(None, args + [f"n_max={n_max}"]))
        assert solved == [n_max]
        assert fixed.rows == table.rows

    def test_custom_steady(self):
        cfg = load_config(None, ["scenario=custom", "custom_mode=steady",
                                 "g=0.1", "epsilon=1.0"])
        table = run_scenario(cfg)
        assert "qd" in table.columns and "n_bar" in table.columns
        assert len(table.rows) == 1

    @pytest.mark.parametrize("atoms", ["egg", "ggg", "eee", "eggg"])
    def test_custom_steady_three_atoms(self, atoms):
        # N = 3 and 4 have degenerate kernels, one dimension per ordered pair of copies of
        # a J multiplet: the collective basis solves each copy and coherence block
        cfg = load_config(None, ["scenario=custom", "custom_mode=steady",
                                 f"n_atoms={len(atoms)}", "g=0.1", "n_max=3",
                                 f"initial_atoms={atoms}"])
        table = run_scenario(cfg)
        assert table.failures == []
        assert len(table.rows) == 1
        assert table.column("residual")[0] < 1e-12

    def test_custom_evolve(self):
        cfg = load_config(None, ["scenario=custom", "custom_mode=evolve",
                                 "g=0.1", "epsilon=1.0", "t_hi=10",
                                 "points_per_decade=2", "n_max=4"])
        table = run_scenario(cfg)
        assert table.columns[0] == "kt"
        assert len(table.rows) == table.column("kt").size

    def test_custom_bad_mode(self):
        with pytest.raises(ScenarioConfigError, match="custom_mode"):
            load_config(None, ["scenario=custom", "custom_mode=adiabatic", "n_max=4"])

    def test_custom_evolve_at_the_automatic_truncation(self):
        # n_max = 0: evolve at the n_max the steady-state harness converges at
        args = ["scenario=custom", "custom_mode=evolve", "g=0.1", "epsilon=1.0", "t_hi=10",
                "points_per_decade=2", "initial_atoms=e-g"]
        scfg = load_config(None, args + ["n_max=0"])
        table = run_scenario(scfg)
        chosen = choose_truncation(scfg.system(), lambda c: scenario_steady_state(c, "eg"),
                                   scfg.truncation_tol)[0].n_max
        assert table.metadata[-1] == f"n_max_used = {chosen}"
        assert run_scenario(load_config(None, args + [f"n_max={chosen}"])).rows == table.rows

    def test_fig2_sweeps_the_coupling(self):
        # sweep_param=g replaces g_list; each g keeps its own epsilon grid
        table = run_scenario(load_config(None, [
            "scenario=fig2-sweep", "g_list=1.0", "sweep_param=g", "sweep_values=0.05,0.1",
            "eps_lo=0.1", "eps_hi=10", "points_per_decade=1", "initial_list=g-g"]))
        assert table.failures == []
        assert list(table.column("g")) == [0.05] * 3 + [0.1] * 3
        assert list(table.column("epsilon")) == pytest.approx([0.1, 1.0, 10.0] * 2)

    def test_atoms_only_layout_is_its_own_atomic_reduction(self):
        cfg = load_config(None, ["frame=effective-atomic"]).system()
        rho = initial_state(cfg, "eg")
        assert not rho.layout.has_field
        assert scenarios.atomic_reduction(rho) is rho

    def test_atoms_only_table_claims_no_truncation(self):
        table = run_scenario(load_config(None, ["frame=effective-atomic"]))
        assert table.failures == [] and len(table.rows) == 1
        assert not any(line.startswith("n_max_used") for line in table.metadata)
        assert table.columns == ["purity", "qd", "eof", "concurrence", "residual"]


class TestCli:
    def test_fig2_writes_csv(self, tmp_path):
        out = tmp_path / "fig2.csv"
        code = cli.main([
            "fig2-sweep", "--set", "g_list=0.1", "--set", "sweep_param=epsilon",
            "--set", "sweep_values=1.0", "--set", "initial_list=e-g",
            "--out", str(out), "--no-timestamp",
        ])
        assert code == 0
        text = out.read_text()
        assert text.splitlines()[0].startswith("# drivencavity")
        assert "qd_ss" in text
        assert "# generated:" not in text

    @pytest.mark.parametrize("scenario, args, used, per_row", [
        ("fig1-correlations", ["t_hi=1", "points_per_decade=2"], {"frame": "displaced"},
         ("n_atoms",)),
        ("fig2-sweep", ["g_list=0.1", "sweep_param=epsilon", "sweep_values=1.0",
                        "initial_list=e-g"],
         {"frame": "displaced", "n_th": "0.0"}, ("g", "epsilon")),
        ("fig3-thermal", ["g=0.1", "sweep_param=n_th", "sweep_values=0.5",
                          "initial_list=g-g", "truncation_tol=1e-4"],
         {"frame": "thermal", "epsilon": "0.0", "delta": "0.0", "g": "0.1"}, ("n_th",)),
    ], ids=["fig1", "fig2", "fig3"])
    def test_metadata_echoes_the_values_used(self, tmp_path, scenario, args, used, per_row):
        # a fixed key reads its fixed value, and a key set per row or column has
        # no scalar line
        out = tmp_path / "table.csv"
        argv = [scenario, "--out", str(out), "--no-timestamp"]
        for item in args:
            argv += ["--set", item]
        assert cli.main(argv) == 0
        meta = dict(line[2:].split(" = ", 1) for line in out.read_text().splitlines()
                    if line.startswith("# ") and " = " in line)
        assert {key: meta.get(key) for key in used} == used
        assert not set(per_row) & set(meta)

    def test_failed_points_keep_finished_rows(self, tmp_path, capsys, monkeypatch):
        # the null-space cap makes the truncation probes of the hotter points
        # fail; the cooler point's row survives and failures keep point order
        monkeypatch.setattr(dynamics, "SPARSE_NULLSPACE_MAX_DIM", 40)
        out = tmp_path / "fig3.csv"
        code = cli.main([
            "fig3-thermal", "--set", "g=0.1", "--set", "sweep_param=n_th",
            "--set", "sweep_values=3,0.1,2", "--set", "initial_list=g-g",
            "--set", "truncation_tol=1e-3", "--workers", "2",
            "--out", str(out), "--no-timestamp",
        ])
        assert code == 1
        lines = out.read_text().splitlines()
        failed = [line for line in lines if line.startswith("# FAILED point")]
        assert [line.split(":")[0] for line in failed] == [
            "# FAILED point ('g-g', 3.0)", "# FAILED point ('g-g', 2.0)"]
        rows = [line for line in lines if not line.startswith("#")][1:]
        assert len(rows) == 1 and float(rows[0].split(",")[0]) == 0.1
        assert "2 sweep point(s) failed" in capsys.readouterr().err

    def test_failed_report_costs_one_point(self, tmp_path, capsys, monkeypatch):
        # the second point's correlation report raises: its row is lost, the
        # first point's row stays, and sim exits 1
        report, calls = scenarios.correlation_report, []

        def second_fails(rho):
            calls.append(rho)
            if len(calls) == 2:
                raise XStateError("X block has eigenvalue -1.000e-06")
            return report(rho)

        monkeypatch.setattr(scenarios, "correlation_report", second_fails)
        out = tmp_path / "fig2.csv"
        code = cli.main([
            "fig2-sweep", "--set", "g_list=0.1", "--set", "sweep_param=epsilon",
            "--set", "sweep_values=0.5,1.0", "--set", "initial_list=e-g", "--set", "n_max=4",
            "--out", str(out), "--no-timestamp",
        ])
        assert code == 1
        lines = out.read_text().splitlines()
        assert "# FAILED point (0.1, 'e-g', 1.0): X block has eigenvalue -1.000e-06" in lines
        rows = [line for line in lines if not line.startswith("#")][1:]
        assert len(rows) == 1 and float(rows[0].split(",")[2]) == 0.5
        assert "1 sweep point(s) failed" in capsys.readouterr().err

    def test_steady_tables_run_no_eigensolver(self, tmp_path, monkeypatch):
        # every block, the 75-unknown coherence block of the fig2 points too, is
        # decided by one sparse LU and a norm estimate: with the eigensolvers
        # raising, each table is the one written without the patch
        argvs = {
            "fig2": ["fig2-sweep", "--set", "g_list=0.1", "--set", "sweep_param=epsilon",
                     "--set", "sweep_values=1,2", "--set", "initial_list=e-g",
                     "--set", "n_max=4"],
            "fig3": ["fig3-thermal", "--set", "nth_list=1", "--set", "initial_list=e-g"],
        }

        def tables(tag):
            out = {}
            for name, argv in argvs.items():
                path = tmp_path / f"{name}-{tag}.csv"
                assert cli.main(argv + ["--out", str(path), "--no-timestamp"]) == 0
                out[name] = path.read_text()
            return out

        plain = tables("plain")

        def no_eigensolver(*args, **kwargs):
            raise AssertionError("an eigensolver ran on the steady path")

        for module, name in ((dynamics.spla, "eigs"), (dynamics.la, "eigvals"),
                             (dynamics.la, "schur")):
            monkeypatch.setattr(module, name, no_eigensolver)
        patched = tables("patched")
        assert patched == plain
        assert not any("FAILED" in text for text in patched.values())

    def test_failed_custom_run_is_a_failed_point(self, tmp_path, monkeypatch):
        def failing(rho):
            raise XStateError("X block has eigenvalue -1.000e-06")

        monkeypatch.setattr(scenarios, "correlation_report", failing)
        out = tmp_path / "custom.csv"
        code = cli.main(["custom", "--set", "custom_mode=steady", "--set", "n_max=4",
                         "--set", "g=0.1", "--out", str(out), "--no-timestamp"])
        assert code == 1
        lines = out.read_text().splitlines()
        assert lines[-2] == "# FAILED point ('steady', 'all-g'): X block has eigenvalue -1.000e-06"
        assert lines[-1].startswith("purity,qd,eof,concurrence")

    def test_failed_fig1_n_costs_its_column(self, tmp_path, capsys, monkeypatch):
        # propagation at N = 2 raises: N = 1 and 3 keep their columns, sim exits 1
        propagate = scenarios.propagate

        def n2_fails(gen, rho0, t_grid, tol):
            if gen.layout.atom_count == 2:
                raise EvolutionError("integrator failed: step size too small")
            return propagate(gen, rho0, t_grid, tol)

        monkeypatch.setattr(scenarios, "propagate", n2_fails)
        out = tmp_path / "fig1.csv"
        code = cli.main(["fig1-purity", "--set", "t_hi=10", "--set", "points_per_decade=3",
                         "--out", str(out), "--no-timestamp"])
        assert code == 1
        lines = out.read_text().splitlines()
        assert "# FAILED point 2: integrator failed: step size too small" in lines
        assert "# n_max_used_N1 = 6" in lines and "# n_max_used_N3 = 6" in lines
        rows = [line for line in lines if not line.startswith("#")]
        assert rows[0] == "kt,purity_N1,purity_N3"
        assert len(rows) == 1 + log_grid(0.1, 10, 3).size
        assert "1 sweep point(s) failed" in capsys.readouterr().err

    def test_fig1_workers_deterministic(self, tmp_path):
        tables = {}
        for workers in ("1", "2"):
            out = tmp_path / f"fig1-{workers}.csv"
            assert cli.main(["fig1-purity", "--set", "t_hi=10", "--set", "points_per_decade=3",
                             "--workers", workers, "--out", str(out), "--no-timestamp"]) == 0
            tables[workers] = out.read_text().splitlines()
        differ = [(a, b) for a, b in zip(tables["1"], tables["2"]) if a != b]
        assert differ == [("# workers = 1", "# workers = 2")]
        assert len(tables["1"]) == len(tables["2"])

    @pytest.mark.parametrize("argv", [
        ["custom", "--set", "frame=thermal", "--set", "epsilon=1"],
        ["fig2-sweep", "--set", "g_list=-0.1"],
        ["window", "--set", "g=-1"],
        ["custom", "--set", "n_th=1"],
        ["fig1-purity", "--set", "n_th=1"],
        ["custom", "--set", "frame=lab-rotating", "--set", "n_th=0.5",
         "--set", "custom_mode=evolve"],
        ["custom", "--set", "frame=effective-atomic", "--set", "delta=0.5"],
        ["window", "--set", "n_th=1"],
        ["fig2-sweep", "--set", "n_th=1"],
        ["fig2-sweep", "--set", "frame=lab-rotating"],
        ["fig1-purity", "--set", "frame=effective-atomic"],
        ["fig3-thermal", "--set", "epsilon=5"],
        ["fig3-thermal", "--delta", "0.5"],
    ], ids=["thermal-drive", "negative-g-list", "window-negative-g", "custom-nth", "fig1-nth",
            "lab-evolve-nth", "effective-delta", "window-nth", "fig2-nth", "fig2-frame",
            "fig1-frame", "fig3-epsilon", "fig3-delta"])
    def test_physical_config_error_exits_2(self, argv, capsys, monkeypatch):
        # one error line, and no point has built its generator
        built = []
        monkeypatch.setattr(scenarios, "build_generator", built.append)
        monkeypatch.setattr(scenarios, "scenario_steady_state", lambda *a, **kw: built.append(a))
        assert cli.main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert built == []

    def test_bad_point_rejected_before_any_solve(self, capsys, monkeypatch):
        # every point's system is checked before the first point is solved
        solved = []
        solve = scenarios.scenario_steady_state

        def counting(cfg, *a, **kw):
            solved.append(cfg)
            return solve(cfg, *a, **kw)

        monkeypatch.setattr(scenarios, "scenario_steady_state", counting)
        code = cli.main(["fig2-sweep", "--set", "g_list=0.1,-0.1", "--set", "initial_list=e-g",
                         "--set", "sweep_param=epsilon", "--set", "sweep_values=0.5,1,2,5"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert solved == []

    @pytest.mark.parametrize("argv, key", [
        (["fig1-purity", "--set", "t_lo=0"], "t_lo"),
        (["fig1-purity", "--set", "t_lo=10", "--set", "t_hi=1"], "t_lo"),
        (["custom", "--set", "custom_mode=evolve", "--set", "t_hi=inf", "--set", "n_max=4"],
         "t_hi"),
        (["fig2-sweep", "--set", "eps_lo=0", "--set", "g_list=0.1", "--set", "initial_list=e-g"],
         "eps_lo"),
        (["fig3-thermal", "--set", "truncation_tol=0", "--set", "nth_list=0.5"],
         "truncation_tol"),
        (["custom", "--set", "custom_mode=evolve", "--set", "integrator_tol=0", "--set", "n_max=16",
          "--set", "g=0.1", "--set", "t_hi=10"], "integrator_tol"),
        (["custom", "--set", "residual_tol=0", "--set", "n_max=4"], "residual_tol"),
        (["fig2-sweep", "--set", "sweep_param=epsilon", "--set", "sweep_values=abc"],
         "sweep_values"),
        (["fig3-thermal", "--set", "nth_list=1,x"], "nth_list"),
        (["custom", "--set", "n_max=-3"], "n_max"),
        (["fig1-purity", "--set", "points_per_decade=0"], "points_per_decade"),
        (["custom", "--set", "initial_atoms=custom:1,abc,0,0", "--set", "n_max=4"],
         "initial_atoms"),
        # an infinite tolerance turns its check off
        (["custom", "--set", "n_max=4", "--set", "residual_tol=inf"], "residual_tol"),
        (["fig3-thermal", "--set", "truncation_tol=inf", "--set", "nth_list=1",
          "--set", "initial_list=e-g"], "truncation_tol"),
        (["custom", "--set", "custom_mode=evolve", "--set", "integrator_tol=inf",
          "--set", "n_max=16", "--set", "g=0.1", "--set", "t_hi=10"], "integrator_tol"),
    ], ids=["t_lo-zero", "t-descending", "t_hi-inf", "eps_lo-zero", "truncation_tol-zero",
            "integrator_tol-zero", "residual_tol-zero", "sweep_values-text", "nth_list-text",
            "n_max-negative", "points_per_decade-zero", "custom-amplitudes", "residual_tol-inf",
            "truncation_tol-inf", "integrator_tol-inf"])
    def test_bad_value_exits_2_before_any_build(self, argv, key, capsys, monkeypatch):
        # one error line naming the key, and no point has built its generator
        built = []
        monkeypatch.setattr(scenarios, "build_generator", built.append)
        monkeypatch.setattr(scenarios, "scenario_steady_state", lambda *a, **kw: built.append(a))
        assert cli.main(argv + ["--no-timestamp"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]
        assert built == []

    @pytest.mark.parametrize("argv, key", [
        (["custom", "--set", "n_max=4", "--set", "epsilon=inf"], "epsilon"),
        (["custom", "--set", "n_max=4", "--set", "g=nan"], "g"),
        (["custom", "--set", "n_max=4", "--set", "delta=nan"], "delta"),
        (["custom", "--set", "n_max=4", "--set", "delta_atom=-inf"], "delta_atom"),
        (["custom", "--set", "n_max=4", "--set", "frame=thermal", "--set", "epsilon=0",
          "--set", "n_th=nan"], "n_th"),
        (["fig2-sweep", "--set", "g_list=nan"], "g_list"),
        (["fig2-sweep", "--set", "g_list=0.1", "--set", "sweep_param=epsilon",
          "--set", "sweep_values=1,nan"], "sweep_values"),
        (["fig3-thermal", "--set", "nth_list=0.5,inf"], "nth_list"),
    ], ids=["epsilon-inf", "g-nan", "delta-nan", "delta_atom-inf", "n_th-nan", "g_list-nan",
            "sweep_values-nan", "nth_list-inf"])
    def test_non_finite_physics_exits_2_before_any_build(self, argv, key, capsys, monkeypatch):
        # NaN passes every comparison, so each value is tested for finiteness:
        # one error line naming the key, and no point has built its generator
        built = []
        monkeypatch.setattr(scenarios, "build_generator", built.append)
        assert cli.main(argv + ["--no-timestamp"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {key}")
        assert built == []
        with pytest.raises(ConfigError, match=f"^{key}"):
            load_config(None, [f"scenario={argv[0]}"] + argv[2::2])

    @pytest.mark.parametrize("argv, key", [
        (["fig3-thermal", "--set", "nth_list=,"], "nth_list"),
        (["fig2-sweep", "--set", "g_list="], "g_list"),
        (["fig3-thermal", "--set", "initial_list=,"], "initial_list"),
        (["fig2-sweep", "--set", "sweep_param=epsilon", "--set", "sweep_values=,"], "sweep_values"),
        (["fig3-thermal", "--set", "sweep_param=n_th", "--set", "sweep_values= "], "sweep_values"),
    ], ids=["nth_list", "g_list", "initial_list", "sweep_values-eps", "sweep_values-nth"])
    def test_empty_list_exits_2_before_any_build(self, argv, key, capsys, monkeypatch):
        # an empty list would run as a table with a header and no rows
        built = []
        monkeypatch.setattr(scenarios, "build_generator", built.append)
        assert cli.main(argv + ["--no-timestamp"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {key} has no values"]
        assert built == []

    def test_sweep_values_may_stay_empty_without_sweep_param(self):
        assert load_config(None, ["scenario=fig2-sweep", "sweep_values="]).sweep_values == ""

    @pytest.mark.parametrize("scenario", ["fig2-sweep", "fig3-thermal"])
    def test_pair_table_refuses_custom_amplitudes(self, scenario):
        # the list splits on commas, so amplitudes could only arrive one to a token
        with pytest.raises(ScenarioConfigError) as exc:
            load_config(None, [f"scenario={scenario}", "initial_list=e-g,custom:0,1,1,0"])
        message = str(exc.value)
        assert "custom amplitudes" in message and "'custom:0'" in message
        assert all(token in message for token in ("all-e", "all-g", "g-g", "e-g", "eg"))

    def test_bad_initial_token_rejected_before_any_solve(self, capsys, monkeypatch):
        # the good e-g points would solve first if tokens were read point by point
        solved = []
        solve = scenarios.scenario_steady_state
        monkeypatch.setattr(scenarios, "scenario_steady_state",
                            lambda *a, **kw: solved.append(a) or solve(*a, **kw))
        code = cli.main(["fig2-sweep", "--set", "g_list=0.1", "--set", "initial_list=e-g,xx",
                         "--set", "sweep_param=epsilon", "--set", "sweep_values=0.5"])
        assert code == 2
        assert capsys.readouterr().err == "error: cannot interpret initial_list='xx' for 2 atoms\n"
        assert solved == []

    @pytest.mark.parametrize("argv", [
        ["fig2-sweep", "--set", "n_atoms=1", "--set", "g_list=0.1", "--set", "initial_list=e-g",
         "--set", "sweep_param=epsilon", "--set", "sweep_values=0.5"],
        ["fig3-thermal", "--set", "n_atoms=3", "--set", "nth_list=0.5"],
    ], ids=["fig2-N1", "fig3-N3"])
    def test_pair_scenario_with_other_atom_number_exits_2(self, argv, capsys, monkeypatch):
        # refused before any point is solved, not after all of them
        solved = []
        monkeypatch.setattr(scenarios, "scenario_steady_state", lambda *a, **kw: solved.append(a))
        assert cli.main(argv) == 2
        assert "n_atoms must be 2" in capsys.readouterr().err
        assert solved == []

    def test_cli_flag_equivalent_to_set(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["custom", "--set", "custom_mode=steady", "--set", "n_max=4",
                "--no-timestamp"]
        assert cli.main(base + ["--set", "g=0.1", "--out", str(out1)]) == 0
        assert cli.main(base + ["--g", "0.1", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_file_plus_override(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("custom_mode = steady\nn_max = 4\ng = 0.2\n")
        code = cli.main(["custom", "--config", str(path), "--set", "epsilon=2.0",
                         "--no-timestamp"])
        assert code == 0
        text = capsys.readouterr().out
        assert "# g = 0.2" in text
        assert "# epsilon = 2.0" in text

    def test_bad_key_exits_2(self, capsys):
        assert cli.main(["custom", "--set", "coupling=1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, capsys):
        assert cli.main(["custom", "--config", "/nonexistent/x.cfg"]) == 2

    def test_window_subcommand(self, capsys):
        assert cli.main(["window", "--set", "g=0.01", "--set", "n_atoms=1"]) == 0
        out = capsys.readouterr().out
        assert "window_lo = 1" in out
        assert "window_hi = 10000" in out

    def test_window_degenerate_warning(self, capsys):
        assert cli.main(["window", "--set", "g=2.0"]) == 0
        assert "degenerate" in capsys.readouterr().out


def _gibbs_pair(n_th: float, singlet_weight: float) -> DensityMatrix:
    """Atomic state of the thermal-frame steady state, in closed form.

    H conserves the excitation number N = a^dag a + S_z + 1, and the
    reservoir's rates n_th + 1 and n_th balance exp(-beta N) with
    exp(-beta) = n_th / (n_th + 1), so the triplet sector relaxes to that Gibbs
    state at any g, delta_atom and truncation: its atomic marginal weighs |gg>,
    |T0> and |ee> as 1 : x : x^2.  The singlet keeps its weight.
    """
    x = n_th / (n_th + 1.0)
    s2 = 1.0 / math.sqrt(2.0)
    kets = np.array([[0, 0, 0, 1], [0, s2, s2, 0], [1, 0, 0, 0]], dtype=complex)  # gg, T0, ee
    singlet = np.array([0, s2, -s2, 0], dtype=complex)
    p = np.array([1.0, x, x * x]) / (1.0 + x + x * x)
    m = (1.0 - singlet_weight) * np.einsum("k,ki,kj->ij", p, kets, kets.conj())
    m += singlet_weight * np.outer(singlet, singlet.conj())
    return DensityMatrix.from_matrix(HilbertLayout(atom_count=2), m)


@pytest.mark.parametrize("g, delta_atom", [(0.1, 0.0), (0.3, 0.8)])
def test_fig3_rows_match_gibbs_closed_form(g, delta_atom):
    table = run_scenario(load_config(None, [
        "scenario=fig3-thermal", f"g={g}", f"delta_atom={delta_atom}", "sweep_param=n_th",
        "sweep_values=0,0.5,2,3", "initial_list=e-g,g-g"]))
    assert table.failures == []
    assert len(table.rows) == 8
    weights = {1.0: 0.5, 0.0: 0.0}   # singlet weight of e-g and g-g, by initial_code
    for row in table.rows:
        n_th, code, qd, eof = row[:4]
        rep = correlation_report(_gibbs_pair(n_th, weights[code]))
        assert abs(qd - rep.qd) < 1e-10
        assert abs(eof - rep.eof) < 1e-10
