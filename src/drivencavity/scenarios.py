"""Scenario runner: configuration, truncation harness, sweep pipelines, CSV output.

Scenarios reproduce the three standard plots (time evolution of purity and
correlations, stationary correlations versus drive strength, stationary
correlations versus reservoir temperature) plus a generic custom pipeline.
Driven steady states are computed in the displaced frame, where the field
stays near vacuum and a small Fock truncation suffices even for strong
driving; atomic reductions are unchanged by the field-only displacement.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .hilbert import DensityMatrix, StateError, partial_trace
from .model import (
    ConfigError,
    SystemConfig,
    build_generator,
    derived_params,
    initial_state,
)
from .dynamics import (
    ConvergenceError,
    EvolutionError,
    propagate,
    residual_norm,
)
from .correlations import XStateError, correlation_report, field_statistics
from .sectors import two_atom_steady_state  # dynamics.steady_state, under its traced name

SCENARIOS = ("fig1-purity", "fig1-correlations", "fig2-sweep", "fig3-thermal", "custom")
SWEEPABLE = {"fig2-sweep": ("epsilon", "g"), "fig3-thermal": ("n_th",)}


class ScenarioConfigError(ConfigError):
    """Invalid scenario configuration: unknown key, unparsable value, bad token."""


class TruncationError(RuntimeError):
    """Observables failed to converge in the Fock truncation by n_max = 256."""


@dataclass
class ScenarioConfig:
    """Flat key=value configuration; every key is also a CLI flag."""

    scenario: str = "custom"
    n_atoms: int = 2
    g: float = 0.01
    epsilon: float = 1.0
    delta: float = 0.0
    delta_atom: float = 0.0
    n_th: float = 0.0
    n_max: int = 0                     # 0 = choose automatically
    frame: str = "displaced"
    initial_atoms: str = "all-g"       # all-e | all-g | e-g | custom:a0,a1,...
    sweep_param: str = ""
    sweep_values: str = ""             # comma-separated floats
    output_path: str = ""
    integrator_tol: float = 1e-9
    residual_tol: float = 1e-9
    truncation_tol: float = 1e-6
    workers: int = 1
    timestamp: bool = True
    # time grids (fig1 / custom evolution)
    t_lo: float = 0.1
    t_hi: float = 1e6
    points_per_decade: int = 12
    # fig2 defaults
    g_list: str = "0.01,0.1,1.0"
    eps_lo: float = 1e-3
    eps_hi: float = 10.0
    # fig3 defaults
    nth_list: str = "0,0.25,0.5,1,2,3,5,7,10"
    initial_list: str = "e-g,g-g"
    # custom pipeline
    custom_mode: str = "steady"        # steady | evolve

    def system(self, **overrides) -> SystemConfig:
        kw = dict(
            n_atoms=self.n_atoms, g=self.g, epsilon=self.epsilon, delta=self.delta,
            delta_atom=self.delta_atom, n_th=self.n_th,
            n_max=self.n_max if self.n_max > 0 else 8, frame=self.frame,
        )
        kw.update(overrides)
        return SystemConfig(**kw)


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _coerce(name: str, kind, raw: str):
    if kind is bool:
        low = raw.strip().lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ScenarioConfigError(f"cannot parse boolean {name}={raw!r}")
    try:
        return kind(raw)
    except ValueError as exc:
        raise ScenarioConfigError(f"cannot parse {name}={raw!r} as {kind.__name__}") from exc


def config_schema() -> dict:
    return {f.name: f.type if isinstance(f.type, type) else type(f.default)
            for f in fields(ScenarioConfig)}


def load_config(path: str | None = None, overrides=()) -> ScenarioConfig:
    """Build a ScenarioConfig from a key=value file plus key=value overrides."""
    schema = config_schema()
    values: dict = {}

    def _apply(key: str, raw: str, where: str):
        key = key.strip()
        if key not in schema:
            raise ScenarioConfigError(f"unknown configuration key {key!r} ({where})")
        values[key] = _coerce(key, schema[key], raw.strip())

    if path is not None:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ScenarioConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, raw = line.split("=", 1)
                _apply(key, raw, f"{path}:{lineno}")
    for item in overrides:
        if "=" not in item:
            raise ScenarioConfigError(f"override {item!r} is not key=value")
        key, raw = item.split("=", 1)
        _apply(key, raw, "override")
    cfg = ScenarioConfig(**values)
    if cfg.scenario not in SCENARIOS:
        raise ScenarioConfigError(f"unknown scenario {cfg.scenario!r}, expected one of {SCENARIOS}")
    swept = SWEEPABLE.get(cfg.scenario, ())
    if cfg.sweep_param and cfg.sweep_param not in swept:
        raise ScenarioConfigError(
            f"scenario {cfg.scenario} sweeps {swept or 'no parameter'}, not {cfg.sweep_param!r}")
    if cfg.sweep_values and not cfg.sweep_param:
        raise ScenarioConfigError("sweep_values given without sweep_param")
    if cfg.scenario in ("fig2-sweep", "fig3-thermal") and cfg.n_atoms != 2:
        raise ScenarioConfigError(f"scenario {cfg.scenario} tabulates two-atom QD and EoF: "
                                  f"n_atoms must be 2, not {cfg.n_atoms}")
    return cfg


def parse_float_list(raw: str) -> list[float]:
    return [float(tok) for tok in raw.split(",") if tok.strip()]


def atoms_pattern(token: str, n_atoms: int):
    """Resolve an initial-atoms token to a pattern string or amplitude vector."""
    if token == "all-e":
        return "e" * n_atoms
    if token in ("all-g", "g-g"):
        return "g" * n_atoms
    if token == "e-g":
        return "e" + "g" * (n_atoms - 1)
    if token.startswith("custom:"):
        amps = np.array([complex(tok) for tok in token[len("custom:"):].split(",")])
        if amps.size != 2**n_atoms:
            raise ScenarioConfigError(
                f"custom amplitudes have length {amps.size}, expected {2**n_atoms}"
            )
        return amps
    if token and all(c in "eg" for c in token) and len(token) == n_atoms:
        return token
    raise ScenarioConfigError(f"cannot interpret initial_atoms={token!r} for {n_atoms} atoms")


@dataclass
class OutputTable:
    columns: list
    rows: list
    metadata: list = field(default_factory=list)
    failures: list = field(default_factory=list)   # (point, message) per failed sweep point

    def column(self, name: str) -> np.ndarray:
        idx = self.columns.index(name)
        return np.array([row[idx] for row in self.rows])

    def to_csv(self, path_or_file, timestamp: bool = True):
        own = isinstance(path_or_file, (str, os.PathLike))
        fh = open(path_or_file, "w") if own else path_or_file
        try:
            fh.write(f"# drivencavity {__version__}\n")
            if timestamp:
                fh.write(f"# generated: {datetime.now(timezone.utc).isoformat()}\n")
            for line in self.metadata:
                fh.write(f"# {line}\n")
            fh.write(",".join(self.columns) + "\n")
            for row in self.rows:
                fh.write(",".join(f"{v:.17e}" for v in row) + "\n")
        finally:
            if own:
                fh.close()


def _config_metadata(cfg: ScenarioConfig) -> list:
    return [f"{f.name} = {getattr(cfg, f.name)}" for f in fields(cfg)]


def log_grid(lo: float, hi: float, points_per_decade: int) -> np.ndarray:
    n = max(2, int(round(math.log10(hi / lo) * points_per_decade)) + 1)
    return np.geomspace(lo, hi, n)


def window_report(cfg: SystemConfig):
    """Semiclassical time window (units 1/kappa); degenerate when hi <= lo."""
    p = derived_params(cfg)
    return p.window_lo, p.window_hi


def empty_cavity_field(cfg: SystemConfig):
    """Initial field state representing an empty lab-frame cavity.

    In the displaced frame an empty cavity is the coherent state |-alpha>;
    in the thermal frame the reservoir-equilibrated field is the natural
    starting point; otherwise plain vacuum.
    """
    if cfg.frame == "displaced":
        return -derived_params(cfg).alpha
    if cfg.frame == "thermal":
        return "thermal"
    return "vacuum"


def scenario_steady_state(cfg: SystemConfig, atoms_init,
                          residual_tol: float = 1e-9) -> DensityMatrix:
    """Steady state reached from atoms (x) frame-appropriate field initial state,
    solved block by block in the collective (Dicke) basis for every N."""
    gen = build_generator(cfg)
    rho0 = initial_state(cfg, atoms_init, field=empty_cavity_field(cfg))
    return two_atom_steady_state(gen, rho0, residual_tol=residual_tol).rho_ss


def atomic_reduction(rho: DensityMatrix) -> DensityMatrix:
    layout = rho.layout
    if not layout.has_field:
        return rho
    keep = tuple(range(1, layout.n_factors))
    return partial_trace(rho, keep=keep)


def _pair_report(cfg: SystemConfig, rho: DensityMatrix):
    """The atom pair's CorrelationReport, or None unless N = 2."""
    return correlation_report(atomic_reduction(rho)) if cfg.n_atoms == 2 else None


def _probe_observables(cfg: SystemConfig, rho: DensityMatrix):
    """(QD, EoF, n_bar, which the truncation harness compares, the pair's
    CorrelationReport they come from).  Unless N = 2 the report is None and
    QD = EoF = 0."""
    rep = _pair_report(cfg, rho)
    n_bar = field_statistics(partial_trace(rho, keep=(0,))).n_bar if rho.layout.has_field else 0.0
    return np.array([rep.qd, rep.eof, n_bar] if rep else [0.0, 0.0, n_bar]), rep


def choose_truncation(cfg: SystemConfig, solve, tol: float = 1e-6):
    """(config at the smallest n_max whose doubling moves every probe observable
    by < tol, the state `solve(config)` gave there, its probe observables, the
    pair's CorrelationReport they come from or None).

    Probing doubles n_max up to 256 from 4, or in the thermal frame from
    where the thermal occupancy tail drops below 10 tol.
    """
    n = 4
    if cfg.frame == "thermal":
        n = 2 if cfg.n_th <= 0 else max(
            2, math.ceil(math.log(10.0 * tol) / math.log(cfg.n_th / (cfg.n_th + 1.0))))

    def probe(n_max):
        c = replace(cfg, n_max=n_max)
        rho = solve(c)
        return (c, rho, *_probe_observables(c, rho))

    chosen = probe(n)
    while n <= 256:
        doubled = probe(2 * n)
        if np.max(np.abs(doubled[2] - chosen[2])) < tol:
            return chosen
        n, chosen = 2 * n, doubled
    raise TruncationError("observables not converged in n_max up to 256")


def _steady_solver(scfg: ScenarioConfig, atoms_init):
    return lambda c: scenario_steady_state(c, atoms_init, residual_tol=scfg.residual_tol)


def _steady_point(scfg: ScenarioConfig, sys_cfg: SystemConfig, atoms_init):
    """(config at the resolved n_max, steady state there, the pair's
    CorrelationReport or None unless N = 2, its residual).

    n_max is scfg.n_max when set; otherwise `choose_truncation` chooses it and
    hands back the report it probed there, so each state gets one report.  A
    layout with no field has nothing to truncate.  The residual is recomputed
    from the unrotated generator, independently of the solve.
    """
    solve = _steady_solver(scfg, atoms_init)
    if scfg.n_max > 0 or not sys_cfg.layout().has_field:
        cfg, rho = sys_cfg, solve(sys_cfg)
        report = _pair_report(cfg, rho)
    else:
        cfg, rho, _, report = choose_truncation(sys_cfg, solve, scfg.truncation_tol)
    return cfg, rho, report, residual_norm(build_generator(cfg), rho)


def _map_points(func, points, workers: int):
    """Evaluate sweep points, concurrently when asked; order-deterministic."""
    if workers <= 1 or len(points) <= 1:
        return [func(p) for p in points]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, points))


# Numerical failures of one sweep point; they cost that point, not the table.
_POINT_ERRORS = (TruncationError, ConvergenceError, EvolutionError, StateError, XStateError)


def _sweep(scfg: ScenarioConfig, columns: list, points: list, solve, notes=()) -> OutputTable:
    """The table of a sweep: `solve(point)` returns (rows, metadata lines) of one point.

    Metadata: the configuration, the `notes`, then per point in point order
    its own lines or, when it raises one of _POINT_ERRORS, a FAILED line.
    Rows keep point order too, also when points run concurrently.
    """
    def attempt(point):
        try:
            return solve(point), None
        except _POINT_ERRORS as exc:
            return None, str(exc)

    table = OutputTable(columns=columns, rows=[],
                        metadata=_config_metadata(scfg) + list(notes))
    for point, (done, msg) in zip(points, _map_points(attempt, points, scfg.workers)):
        if msg is None:
            rows, lines = done
            table.rows += rows
            table.metadata += lines
        else:
            table.metadata.append(f"FAILED point {point}: {msg}")
            table.failures.append((point, msg))
    return table


def run_fig1(scfg: ScenarioConfig, which: str) -> OutputTable:
    """Time evolution from all-excited atoms: purity for N = 1..3, or QD/EoF for N = 2.

    One sweep point per N, whose columns are written under `kt` once all
    points are done; a failed N costs its own columns only.
    """
    grid = log_grid(scfg.t_lo, scfg.t_hi, scfg.points_per_decade)
    t_eval = np.concatenate(([0.0], grid))
    cfgs = {n: scfg.system(n_atoms=n, frame="displaced",
                           n_max=scfg.n_max if scfg.n_max > 0 else 6)
            for n in ((1, 2, 3) if which == "purity" else (2,))}

    def solve(n):
        cfg = cfgs[n]
        rho0 = initial_state(cfg, "e" * n, field=empty_cavity_field(cfg))
        traj = propagate(build_generator(cfg), rho0, t_eval, scfg.integrator_tol)
        reduced = [atomic_reduction(s) for s in traj.states[1:]]
        if which == "purity":
            cols = [(f"purity_N{n}", [float(np.real(np.trace(r.matrix @ r.matrix)))
                                      for r in reduced])]
        else:
            reports = [correlation_report(r) for r in reduced]
            cols = [("qd_N2", [rep.qd for rep in reports]),
                    ("eof_N2", [rep.eof for rep in reports])]
        return cols, [f"n_max_used_N{n} = {cfg.n_max}"]

    table = _sweep(scfg, [], list(cfgs), solve)
    columns = dict(table.rows)
    table.columns = ["kt", *columns]
    table.rows = [list(row) for row in zip(grid, *columns.values())]
    return table


_INIT_CODE = {"e-g": 1.0, "g-g": 0.0, "all-g": 0.0, "all-e": 2.0}


def _pair_row(scfg: ScenarioConfig, sys_cfg: SystemConfig, init: str) -> list:
    """[QD, EoF, residual, n_max] of one two-atom steady-state point."""
    cfg, _, rep, res = _steady_point(scfg, sys_cfg, atoms_pattern(init, scfg.n_atoms))
    return [float(rep.qd), float(rep.eof), res, float(cfg.n_max)]


def run_fig2(scfg: ScenarioConfig) -> OutputTable:
    """Stationary QD/EoF versus drive strength, per coupling and initial state."""
    g_values = parse_float_list(scfg.g_list)
    initials = [tok.strip() for tok in scfg.initial_list.split(",") if tok.strip()]
    if scfg.sweep_param == "epsilon" and scfg.sweep_values:
        eps_values = parse_float_list(scfg.sweep_values)
    else:
        eps_values = list(log_grid(scfg.eps_lo, scfg.eps_hi, scfg.points_per_decade))
    if scfg.sweep_param == "g" and scfg.sweep_values:
        g_values = parse_float_list(scfg.sweep_values)
    points = [(g, init, eps) for g in g_values for init in initials for eps in eps_values]
    # built up front, so a bad point's ConfigError comes before any point is solved
    cfgs = {p: scfg.system(g=p[0], epsilon=p[2], frame="displaced", n_th=0.0) for p in points}

    def solve(point):
        g, init, eps = point
        return [[g, _INIT_CODE.get(init, math.nan), eps] + _pair_row(scfg, cfgs[point], init)], []

    columns = ["g", "initial_code", "epsilon", "qd_ss", "eof_ss", "residual", "n_max"]
    return _sweep(scfg, columns, points, solve, notes=[
        "initial_code: 0 = both atoms ground, 1 = one excited, 2 = both excited"])


def run_fig3(scfg: ScenarioConfig) -> OutputTable:
    """Stationary QD/EoF versus thermal occupancy at zero drive."""
    nth_values = (parse_float_list(scfg.sweep_values)
                  if scfg.sweep_param == "n_th" and scfg.sweep_values
                  else parse_float_list(scfg.nth_list))
    initials = [tok.strip() for tok in scfg.initial_list.split(",") if tok.strip()]
    points = [(init, nth) for init in initials for nth in nth_values]
    cfgs = {p: scfg.system(epsilon=0.0, delta=0.0, n_th=p[1], frame="thermal") for p in points}

    def solve(point):
        init, nth = point
        return [[nth, _INIT_CODE.get(init, math.nan)] + _pair_row(scfg, cfgs[point], init)], []

    columns = ["n_th", "initial_code", "qd_ss", "eof_ss", "residual", "n_max"]
    return _sweep(scfg, columns, points, solve, notes=[
        "initial_code: 0 = both atoms ground, 1 = one excited, 2 = both excited"])


def run_custom(scfg: ScenarioConfig) -> OutputTable:
    """Generic pipeline, one point: truncation -> steady state or evolution -> report."""
    if scfg.custom_mode not in ("steady", "evolve"):
        raise ScenarioConfigError(f"unknown custom_mode {scfg.custom_mode!r}")
    pattern = atoms_pattern(scfg.initial_atoms, scfg.n_atoms)
    sys_cfg = scfg.system()
    has_field = sys_cfg.layout().has_field

    def observables_row(rho, res, rep=None):
        # rep: the state's pair report, when the steady solve already made it
        if scfg.n_atoms == 2:
            rep = rep or correlation_report(atomic_reduction(rho))
            row = [rep.purity, rep.qd, rep.eof, rep.concurrence]
        else:
            red = atomic_reduction(rho)
            row = [float(np.real(np.trace(red.matrix @ red.matrix)))]
        if has_field:
            stats = field_statistics(partial_trace(rho, keep=(0,)))
            row += [stats.n_bar,
                    math.nan if stats.g2 is None else stats.g2,
                    math.nan if stats.mandel_q is None else stats.mandel_q]
        return row + [res]

    def steady(_):
        cfg, rho, rep, res = _steady_point(scfg, sys_cfg, pattern)
        return [observables_row(rho, res, rep)], [f"n_max_used = {cfg.n_max}"]

    def evolution(_):
        # an automatic truncation is the one the steady state converges at
        cfg = sys_cfg
        if scfg.n_max == 0 and has_field:
            cfg = choose_truncation(sys_cfg, _steady_solver(scfg, pattern),
                                    scfg.truncation_tol)[0]
        gen = build_generator(cfg)
        rho0 = initial_state(cfg, pattern, field=empty_cavity_field(cfg))
        grid = log_grid(scfg.t_lo, scfg.t_hi, scfg.points_per_decade)
        traj = propagate(gen, rho0, np.concatenate(([0.0], grid)), scfg.integrator_tol)
        rows = [[t] + observables_row(state, residual_norm(gen, state))
                for t, state in zip(traj.times[1:], traj.states[1:])]
        return rows, [f"n_max_used = {cfg.n_max}"]

    columns = ["purity", "qd", "eof", "concurrence"] if scfg.n_atoms == 2 else ["purity"]
    if has_field:
        columns += ["n_bar", "g2", "mandel_q"]
    columns += ["residual"]
    if scfg.custom_mode == "evolve":
        return _sweep(scfg, ["kt"] + columns, [("evolve", scfg.initial_atoms)], evolution)
    return _sweep(scfg, columns, [("steady", scfg.initial_atoms)], steady)


def run_scenario(scfg: ScenarioConfig) -> OutputTable:
    if scfg.scenario == "fig1-purity":
        return run_fig1(scfg, which="purity")
    if scfg.scenario == "fig1-correlations":
        return run_fig1(scfg, which="correlations")
    if scfg.scenario == "fig2-sweep":
        return run_fig2(scfg)
    if scfg.scenario == "fig3-thermal":
        return run_fig3(scfg)
    if scfg.scenario == "custom":
        return run_custom(scfg)
    raise ScenarioConfigError(f"unknown scenario {scfg.scenario!r}")
