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
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp

from . import __version__
from .hilbert import DensityMatrix, StateError, partial_trace
from .model import (
    PHYSICAL_KEYS,
    ConfigError,
    Generator,
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
from .correlations import XStateError, correlation_report, field_statistics, purity
from .sectors import two_atom_steady_state  # dynamics.steady_state, under its traced name


class ScenarioConfigError(ConfigError):
    """Invalid scenario configuration: unknown key, unparsable value, bad token."""


class TruncationError(RuntimeError):
    """Observables failed to converge in the Fock truncation by the largest
    n_max probed (at most 512); the message names it."""


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
    return {f.name: type(f.default) for f in fields(ScenarioConfig)}


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
    if cfg.scenario not in RULES:
        raise ScenarioConfigError(f"unknown scenario {cfg.scenario!r}, expected one of {SCENARIOS}")
    rules = RULES[cfg.scenario]
    for key, used in rules.fixed.items():
        if key in values and values[key] != used:
            raise ScenarioConfigError(f"scenario {cfg.scenario} computes at {key} = {used}, "
                                      f"not {values[key]}")
    swept = rules.per_point if rules.pair else ()   # fig1 sets n_atoms per column, unswept
    if cfg.sweep_param and cfg.sweep_param not in swept:
        raise ScenarioConfigError(
            f"scenario {cfg.scenario} sweeps {swept or 'no parameter'}, not {cfg.sweep_param!r}")
    if cfg.sweep_values and not cfg.sweep_param:
        raise ScenarioConfigError("sweep_values given without sweep_param")
    if rules.pair and cfg.n_atoms != 2:
        raise ScenarioConfigError(f"scenario {cfg.scenario} tabulates two-atom QD and EoF: "
                                  f"n_atoms must be 2, not {cfg.n_atoms}")
    _check_values(cfg)
    if rules.pair:
        for token in _tokens(cfg.initial_list):
            if token.startswith("custom:"):
                raise ScenarioConfigError(
                    f"scenario {cfg.scenario} takes no custom amplitudes in initial_list "
                    f"({token!r}): its tokens are all-e, all-g, g-g, e-g or one e/g letter "
                    f"per atom (ee, eg, ge, gg)")
            atoms_pattern(token, 2, "initial_list")
    return cfg


def _check_values(cfg: ScenarioConfig):
    """Refuse a value no scenario can run with, so it fails before any point does."""
    for key in PHYSICAL_KEYS:
        if not math.isfinite(getattr(cfg, key)):
            raise ScenarioConfigError(f"{key} must be finite, not {getattr(cfg, key)}")
    if cfg.custom_mode not in ("steady", "evolve"):
        raise ScenarioConfigError(f"unknown custom_mode {cfg.custom_mode!r}, "
                                  f"expected 'steady' or 'evolve'")
    for lo, hi in (("t_lo", "t_hi"), ("eps_lo", "eps_hi")):
        if not 0 < getattr(cfg, lo) < getattr(cfg, hi) < math.inf:
            raise ScenarioConfigError(f"a log grid needs 0 < {lo} < {hi} < inf, not "
                                      f"{lo} = {getattr(cfg, lo)}, {hi} = {getattr(cfg, hi)}")
    for key in ("integrator_tol", "residual_tol", "truncation_tol"):
        if not 0 < getattr(cfg, key) < math.inf:
            raise ScenarioConfigError(f"{key} must be finite and positive, not {getattr(cfg, key)}")
    if cfg.n_max < 0:
        raise ScenarioConfigError(f"n_max must be >= 0 (0 = choose automatically), not {cfg.n_max}")
    if cfg.points_per_decade < 1:
        raise ScenarioConfigError(f"points_per_decade must be >= 1, not {cfg.points_per_decade}")
    for key in ("sweep_values", "g_list", "nth_list"):
        try:
            values = parse_float_list(getattr(cfg, key))
        except ValueError as exc:
            raise ScenarioConfigError(f"cannot parse {key}={getattr(cfg, key)!r} as "
                                      f"comma-separated floats") from exc
        if not all(map(math.isfinite, values)):
            raise ScenarioConfigError(f"{key}={getattr(cfg, key)!r} holds a value that is "
                                      f"not finite")
        if not values and (key != "sweep_values" or cfg.sweep_param):
            raise ScenarioConfigError(f"{key} has no values")
    if not _tokens(cfg.initial_list):
        raise ScenarioConfigError("initial_list has no values")


def _tokens(raw: str) -> list[str]:
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


def parse_float_list(raw: str) -> list[float]:
    return [float(tok) for tok in _tokens(raw)]


def atoms_pattern(token: str, n_atoms: int, key: str = "initial_atoms"):
    """Resolve an initial-atoms token, the value of `key`, to a pattern string or
    amplitude vector."""
    if token == "all-e":
        return "e" * n_atoms
    if token in ("all-g", "g-g"):
        return "g" * n_atoms
    if token == "e-g":
        return "e" + "g" * (n_atoms - 1)
    if token.startswith("custom:"):
        try:
            amps = np.array([complex(tok) for tok in token[len("custom:"):].split(",")])
        except ValueError as exc:
            raise ScenarioConfigError(f"cannot parse {key}={token!r} as amplitudes") from exc
        if amps.size != 2**n_atoms:
            raise ScenarioConfigError(
                f"custom amplitudes have length {amps.size}, expected {2**n_atoms}"
            )
        return amps
    if token and all(c in "eg" for c in token) and len(token) == n_atoms:
        return token
    raise ScenarioConfigError(f"cannot interpret {key}={token!r} for {n_atoms} atoms")


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
    """One `key = value` line per configuration key, at the value the table is
    computed with: a key in the scenario's `RULES.fixed` at that value, and no
    line for a key in its `RULES.per_point`, which the table sets per column
    (fig1's n_atoms) or per row (fig2's g and epsilon, fig3's n_th)."""
    rules = RULES[cfg.scenario]
    used = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    used.update(rules.fixed)
    return [f"{key} = {value}" for key, value in used.items() if key not in rules.per_point]


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


def scenario_steady_state(cfg: SystemConfig, atoms_init, residual_tol: float = 1e-9,
                          gen: Generator | None = None) -> DensityMatrix:
    """Steady state reached from atoms (x) frame-appropriate field initial state,
    solved block by block in the collective (Dicke) basis for every N, under
    `gen` (built from cfg when not given)."""
    gen = build_generator(cfg) if gen is None else gen
    rho0 = initial_state(cfg, atoms_init, field=empty_cavity_field(cfg))
    return two_atom_steady_state(gen, rho0, residual_tol=residual_tol).rho_ss


def atomic_reduction(rho: DensityMatrix) -> DensityMatrix:
    """The atoms' state as an array, as the correlation functions read it: the
    field traced out, if there is one; an atoms-only array is its own."""
    layout = rho.layout
    if layout.has_field or sp.issparse(rho.matrix):
        return partial_trace(rho, keep=tuple(range(int(layout.has_field), layout.n_factors)))
    return rho


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

    Probing starts at n_max 4, or in the thermal frame where the thermal
    occupancy tail drops below 10 tol, and doubles n_max while it is at most
    256, so the largest n_max probed is at most 512.  TruncationError names
    the largest one probed.
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
    raise TruncationError(f"observables not converged in n_max up to {n}")


def _steady_solver(scfg: ScenarioConfig, atoms_init, gens: dict):
    """config -> its steady state; the generator it is solved with goes to gens[config]."""
    def solve(c):
        gens[c] = build_generator(c)
        return scenario_steady_state(c, atoms_init, scfg.residual_tol, gens[c])
    return solve


def _steady_point(scfg: ScenarioConfig, sys_cfg: SystemConfig, atoms_init):
    """(config at the resolved n_max, steady state there, the pair's
    CorrelationReport or None unless N = 2, its residual).

    n_max is scfg.n_max when set; otherwise `choose_truncation` chooses it and
    hands back the report it probed there, so each state gets one report.  A
    layout with no field has nothing to truncate.  The residual is recomputed
    in the product basis from the generator the state was solved with,
    independently of the collective-basis solve.
    """
    gens = {}
    solve = _steady_solver(scfg, atoms_init, gens)
    if scfg.n_max > 0 or not sys_cfg.layout().has_field:
        cfg, rho = sys_cfg, solve(sys_cfg)
        report = _pair_report(cfg, rho)
    else:
        cfg, rho, _, report = choose_truncation(sys_cfg, solve, scfg.truncation_tol)
    return cfg, rho, report, residual_norm(gens[cfg], rho)


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

    if scfg.workers <= 1 or len(points) <= 1:
        results = [attempt(p) for p in points]
    else:
        with ThreadPoolExecutor(max_workers=scfg.workers) as pool:
            results = list(pool.map(attempt, points))
    table = OutputTable(columns=columns, rows=[],
                        metadata=_config_metadata(scfg) + list(notes))
    for point, (done, msg) in zip(points, results):
        if msg is None:
            rows, lines = done
            table.rows += rows
            table.metadata += lines
        else:
            table.metadata.append(f"FAILED point {point}: {msg}")
            table.failures.append((point, msg))
    return table


def _trajectory(scfg: ScenarioConfig, cfg: SystemConfig, pattern):
    """(generator, trajectory from `pattern` (x) the empty cavity field on [0] + log grid)."""
    gen = build_generator(cfg)
    rho0 = initial_state(cfg, pattern, field=empty_cavity_field(cfg))
    t_eval = np.concatenate(([0.0], log_grid(scfg.t_lo, scfg.t_hi, scfg.points_per_decade)))
    return gen, propagate(gen, rho0, t_eval, scfg.integrator_tol)


def run_fig1(scfg: ScenarioConfig) -> OutputTable:
    """Time evolution from all-excited atoms: purity for N = 1..3, or QD/EoF for N = 2.

    One sweep point per N, whose columns are written under `kt` once all
    points are done; a failed N costs its own columns only.
    """
    purity_table = scfg.scenario == "fig1-purity"
    cfgs = {n: scfg.system(n_atoms=n, n_max=scfg.n_max if scfg.n_max > 0 else 6,
                           **RULES[scfg.scenario].fixed)
            for n in ((1, 2, 3) if purity_table else (2,))}

    def solve(n):
        reduced = [atomic_reduction(s) for s in _trajectory(scfg, cfgs[n], "e" * n)[1].states[1:]]
        if purity_table:
            cols = [(f"purity_N{n}", [purity(r) for r in reduced])]
        else:
            reports = [correlation_report(r) for r in reduced]
            cols = [("qd_N2", [rep.qd for rep in reports]),
                    ("eof_N2", [rep.eof for rep in reports])]
        return cols, [f"n_max_used_N{n} = {cfgs[n].n_max}"]

    table = _sweep(scfg, [], list(cfgs), solve)
    columns = dict(table.rows)
    table.columns = ["kt", *columns]
    grid = log_grid(scfg.t_lo, scfg.t_hi, scfg.points_per_decade)
    table.rows = [list(row) for row in zip(grid, *columns.values())]
    return table


def _initial_code(init: str) -> float:
    """The number of excited atoms in the two-atom token `init`."""
    return float(atoms_pattern(init, 2, "initial_list").count("e"))


def _pair_table(scfg: ScenarioConfig, head: list, points: list, unpack) -> OutputTable:
    """One row per point: the values of `head`, then the atom pair's steady QD,
    EoF, residual and n_max.  `unpack(point)` gives (its initial_list token,
    its system keys, its `head` values); all are checked before any solve."""
    fixed = RULES[scfg.scenario].fixed
    jobs = {p: (scfg.system(**keys, **fixed),
                atoms_pattern(init, scfg.n_atoms, "initial_list"), lead)
            for p, (init, keys, lead) in zip(points, map(unpack, points))}

    def solve(point):
        sys_cfg, pattern, lead = jobs[point]
        cfg, _, rep, res = _steady_point(scfg, sys_cfg, pattern)
        return [lead + [float(rep.qd), float(rep.eof), res, float(cfg.n_max)]], []

    return _sweep(scfg, head + ["qd_ss", "eof_ss", "residual", "n_max"], points, solve, notes=[
        "initial_code: 0 = both atoms ground, 1 = one excited, 2 = both excited"])


def run_fig2(scfg: ScenarioConfig) -> OutputTable:
    """Stationary QD/EoF versus drive strength, per coupling and initial state."""
    if scfg.sweep_param == "epsilon":
        eps_values = parse_float_list(scfg.sweep_values)
    else:
        eps_values = list(log_grid(scfg.eps_lo, scfg.eps_hi, scfg.points_per_decade))
    g_values = parse_float_list(scfg.sweep_values if scfg.sweep_param == "g" else scfg.g_list)
    points = [(g, init, eps) for g in g_values for init in _tokens(scfg.initial_list)
              for eps in eps_values]
    return _pair_table(scfg, ["g", "initial_code", "epsilon"], points, lambda p: (
        p[1], {"g": p[0], "epsilon": p[2]}, [p[0], _initial_code(p[1]), p[2]]))


def run_fig3(scfg: ScenarioConfig) -> OutputTable:
    """Stationary QD/EoF versus thermal occupancy at zero drive."""
    nth_values = parse_float_list(scfg.sweep_values if scfg.sweep_param == "n_th" else scfg.nth_list)
    points = [(init, nth) for init in _tokens(scfg.initial_list) for nth in nth_values]
    return _pair_table(scfg, ["n_th", "initial_code"], points, lambda p: (
        p[0], {"n_th": p[1]}, [p[1], _initial_code(p[0])]))


def run_custom(scfg: ScenarioConfig) -> OutputTable:
    """Generic pipeline, one point: truncation -> steady state or evolution -> report."""
    pattern = atoms_pattern(scfg.initial_atoms, scfg.n_atoms)
    sys_cfg = scfg.system()
    has_field = sys_cfg.layout().has_field

    def observables_row(rho, res, rep=None):
        # rep: the state's pair report, when the steady solve already made it
        if scfg.n_atoms == 2:
            rep = rep or correlation_report(atomic_reduction(rho))
            row = [rep.purity, rep.qd, rep.eof, rep.concurrence]
        else:
            row = [purity(atomic_reduction(rho))]
        if has_field:
            stats = field_statistics(partial_trace(rho, keep=(0,)))
            row += [stats.n_bar,
                    math.nan if stats.g2 is None else stats.g2,
                    math.nan if stats.mandel_q is None else stats.mandel_q]
        return row + [res]

    def n_max_used(cfg):  # a layout with no field has no truncation to report
        return [f"n_max_used = {cfg.n_max}"] if has_field else []

    def steady(_):
        cfg, rho, rep, res = _steady_point(scfg, sys_cfg, pattern)
        return [observables_row(rho, res, rep)], n_max_used(cfg)

    def evolution(_):
        # an automatic truncation is the one the steady state converges at
        cfg = sys_cfg
        if scfg.n_max == 0 and has_field:
            cfg = choose_truncation(sys_cfg, _steady_solver(scfg, pattern, {}),
                                    scfg.truncation_tol)[0]
        gen, traj = _trajectory(scfg, cfg, pattern)
        rows = [[t] + observables_row(state, residual_norm(gen, state))
                for t, state in zip(traj.times[1:], traj.states[1:])]
        return rows, n_max_used(cfg)

    columns = ["purity", "qd", "eof", "concurrence"] if scfg.n_atoms == 2 else ["purity"]
    if has_field:
        columns += ["n_bar", "g2", "mandel_q"]
    columns += ["residual"]
    if scfg.custom_mode == "evolve":
        return _sweep(scfg, ["kt"] + columns, [("evolve", scfg.initial_atoms)], evolution)
    return _sweep(scfg, columns, [("steady", scfg.initial_atoms)], steady)


class Rules(NamedTuple):
    run: Callable       # ScenarioConfig -> OutputTable
    fixed: dict         # keys computed at a fixed value: a value set for one must be that one
    per_point: tuple    # keys the table sets per row or column; a pair table sweeps them
    pair: bool          # tabulates the two-atom pair's QD and EoF: n_atoms must be 2


RULES = {
    "fig1-purity": Rules(run_fig1, {"frame": "displaced"}, ("n_atoms",), False),
    "fig1-correlations": Rules(run_fig1, {"frame": "displaced"}, ("n_atoms",), False),
    "fig2-sweep": Rules(run_fig2, {"frame": "displaced", "n_th": 0.0}, ("epsilon", "g"), True),
    "fig3-thermal": Rules(run_fig3, {"frame": "thermal", "epsilon": 0.0, "delta": 0.0}, ("n_th",),
                          True),
    "custom": Rules(run_custom, {}, (), False),
}
SCENARIOS = tuple(RULES)


def run_scenario(scfg: ScenarioConfig) -> OutputTable:
    if scfg.scenario not in RULES:
        raise ScenarioConfigError(f"unknown scenario {scfg.scenario!r}")
    return RULES[scfg.scenario].run(scfg)
