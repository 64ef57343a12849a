import functools
import gc
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components

from drivencavity.correlations import field_statistics
from drivencavity.hilbert import (
    DensityMatrix,
    StateError,
    annihilation,
    collective_basis,
    from_collective_basis,
    partial_trace,
    to_collective_basis,
    trace_distance,
)
from drivencavity.model import (
    Generator,
    SystemConfig,
    build_generator,
    derived_params,
    initial_state,
    thermal_populations,
)
from drivencavity import dynamics
from drivencavity.scenarios import (atomic_reduction, atoms_pattern, empty_cavity_field,
                                    load_config, log_grid, run_scenario, scenario_steady_state)
from drivencavity.dynamics import (
    ConvergenceError,
    DegenerateSteadyStateError,
    EvolutionError,
    _HermitianBasis,
    _invariant_support,
    _normalize_kernel_vector,
    _real_basis,
    _cap_bound,
    _inverse_norm_estimate,
    _labels,
    _reachable_blocks,
    _trace_constrained,
    _unique_fixed_point,
    evolve,
    evolve_spectral,
    liouvillian_matrix_raw,
    propagate,
    SupportTooLargeError,
    residual_norm,
    steady_state,
    steady_state_raw,
)
from reference import (apply_generator, as_dense, dense_generator, dense_partial_trace,
                       dense_sandwich, field_annihilation, hermitian_coordinates,
                       liouvillian_oracle, number_operator)

rng = np.random.default_rng(23)


def mean_photons(cfg, states):
    nop = number_operator(cfg.layout())
    return np.array([np.trace(nop @ s.matrix).real for s in states])


def all_e_evolution():
    """(generator, rho0, t_grid) of the RK run whose state at t = 7.29 fails the
    positivity floor: N = 2, g 0.1, eps 1, n_max 16, `ee` from an empty
    cavity, t = 0.1..300 at 8 points per decade."""
    cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=16)
    rho0 = initial_state(cfg, "ee", field=empty_cavity_field(cfg))
    return build_generator(cfg), rho0, np.concatenate(([0.0], log_grid(0.1, 300.0, 8)))


class TestEvolve:
    def test_photon_decay_against_exponential(self):
        # bare cavity: <n>(t) = n0 exp(-2 kappa t)
        cfg = SystemConfig(n_atoms=1, g=0.0, epsilon=0.0, n_max=6)
        gen = build_generator(cfg)
        rho0 = initial_state(cfg, "g", field=4)
        t = np.linspace(0.0, 3.0, 31)
        traj = evolve(gen, rho0, t, tol=1e-10)
        assert np.max(np.abs(mean_photons(cfg, traj.states) - 4.0 * np.exp(-2.0 * t))) < 1e-6

    def test_undamped_rabi_oscillation(self):
        # H = Omega S+ + h.c. with no dissipator: P_e(t) = sin^2(|Omega| t)
        cfg = SystemConfig(n_atoms=1, g=0.01, epsilon=10.0, frame="effective-atomic")
        gen = Generator(build_generator(cfg).H, (), cfg.layout())
        rho0 = initial_state(cfg, "g")
        t = np.linspace(0.0, 40.0, 60)
        traj = evolve(gen, rho0, t, tol=1e-10)
        omega = abs(derived_params(cfg).omega_drive)
        p_e = np.array([s.matrix[0, 0].real for s in traj.states])
        assert np.max(np.abs(p_e - np.sin(omega * t) ** 2)) < 1e-6

    def test_observable_recording_matches_stored_states(self):
        # <n>(t) from the stored states against the dense propagator exp(L t)
        cfg = SystemConfig(n_atoms=1, g=0.2, epsilon=0.5, n_max=4)
        gen = build_generator(cfg)
        rho0 = initial_state(cfg, "g")
        t = np.linspace(0.0, 5.0, 11)
        traj = evolve(gen, rho0, t, tol=1e-9)
        L = liouvillian_matrix_raw(*dense_generator(gen)).toarray()
        d = gen.layout.dim
        exact = [DensityMatrix.from_matrix(cfg.layout(), (expm(L * tk) @ as_dense(rho0).ravel())
                                           .reshape(d, d)) for tk in t]
        assert np.allclose(mean_photons(cfg, traj.states), mean_photons(cfg, exact), atol=1e-6)

    def test_invariants_tracked(self):
        cfg = SystemConfig(n_atoms=2, g=0.3, epsilon=1.0, n_max=5)
        gen = build_generator(cfg)
        traj = evolve(gen, initial_state(cfg, "gg"), np.linspace(0, 20, 21), tol=1e-9)
        assert traj.stats.max_trace_drift < 1e-8
        assert traj.stats.max_herm_asym < 1e-8
        assert traj.stats.min_eigenvalue > -1e-8
        assert traj.stats.n_rhs_evals > 0

    def test_liouvillian_freed_without_collection(self, monkeypatch):
        # scipy's solver sits in a reference cycle; L must not be held by it
        refs = []
        build = dynamics.liouvillian_matrix_raw

        def keeping(*a, **kw):
            L = build(*a, **kw)
            refs.append(weakref.ref(L))
            return L

        monkeypatch.setattr(dynamics, "liouvillian_matrix_raw", keeping)
        cfg = SystemConfig(n_atoms=1, g=0.3, epsilon=1.0, n_max=3)
        gc.disable()
        try:
            evolve(build_generator(cfg), initial_state(cfg, "e"), [0.0, 1.0])
            # and when a state fails its check part way through the grid
            with pytest.raises(StateError):
                evolve(*all_e_evolution())
            assert len(refs) == 2 and all(ref() is None for ref in refs)
        finally:
            gc.enable()

    def test_states_match_solve_ivp(self):
        # the stepped integration gives solve_ivp's t_eval states, bit for bit,
        # made Hermitian and renormalised as evolve makes them
        cfg = SystemConfig(n_atoms=2, g=0.3, epsilon=1.0, n_max=3)
        gen = build_generator(cfg)
        rho0 = initial_state(cfg, "eg", field=empty_cavity_field(cfg))
        t = np.concatenate(([0.0, 1e-4, 2e-4, 3e-4], np.linspace(0.5, 6.0, 12)))
        tol = 1e-8
        traj = evolve(gen, rho0, t, tol=tol)
        L = liouvillian_matrix_raw(*dense_generator(gen))
        ref = functools.partial(solve_ivp, lambda _, y: L @ y, (t[0], t[-1]), as_dense(rho0).ravel(),
                                method="DOP853", t_eval=t, rtol=tol, atol=tol * 1e-3)
        steps = ref(dense_output=True).sol.ts  # the same steps, with an interpolant on each
        ref = ref()
        assert ref.success and np.array_equal(ref.t, t)
        # several grid times inside one step, and the grid ends at the final bound
        assert np.bincount(np.searchsorted(steps, t[1:])).max() >= 3
        assert steps[-1] == t[-1]
        d = gen.layout.dim
        for k, state in enumerate(traj.states):
            m = ref.y[:, k].reshape(d, d)
            m = 0.5 * (m + m.conj().T)
            if abs(np.trace(m).real - 1.0) > 1e-12:
                m = m / np.trace(m).real
            assert np.array_equal(state.matrix, m), f"state {k} at t = {t[k]}"
        assert traj.stats.n_rhs_evals == ref.nfev

    def test_first_bad_state_stops_the_integration(self, monkeypatch):
        # the state at t = 7.29 breaks the floor: the steps to t = 300 (about
        # 19 500 products) are never taken
        products = []
        build = dynamics.liouvillian_matrix_raw

        class Counting:
            def __init__(self, L):
                self.L = L

            def __matmul__(self, y):
                products.append(None)
                return self.L @ y

        monkeypatch.setattr(dynamics, "liouvillian_matrix_raw",
                            lambda *a, **kw: Counting(build(*a, **kw)))
        with pytest.raises(StateError, match=r"eigenvalue -1\.580e-08 below -1\.0e-08"):
            evolve(*all_e_evolution())
        assert 0 < len(products) < 1000

    def test_halving_tolerance_tightens_the_result(self):
        cfg = SystemConfig(n_atoms=1, g=0.3, epsilon=1.0, n_max=5)
        gen = build_generator(cfg)
        rho0 = initial_state(cfg, "e")
        t = [0.0, 10.0]
        coarse = evolve(gen, rho0, t, tol=1e-6)
        fine = evolve(gen, rho0, t, tol=1e-10)
        dist = trace_distance(coarse.states[-1], fine.states[-1])
        assert dist < 1e3 * 1e-6  # global error within a thousand times the local tolerance
        finer = evolve(gen, rho0, t, tol=1e-8)
        assert trace_distance(finer.states[-1], fine.states[-1]) < dist + 1e-12

    def test_bad_grid_rejected(self):
        cfg = SystemConfig(n_atoms=1, g=0.1, n_max=2)
        gen = build_generator(cfg)
        rho0 = initial_state(cfg, "g")
        with pytest.raises(ValueError):
            evolve(gen, rho0, [0.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            evolve(gen, rho0, [0.0, 1.0], tol=0.0)


class TestEvolveSpectral:
    @pytest.mark.parametrize("cfg, atoms, support_dim", [
        # all-excited atoms stay in the symmetric multiplet: (N + 1)(n_max + 1)
        (SystemConfig(n_atoms=3, g=0.1, epsilon=1.0, n_max=2), "eee", 4 * 3),
        # e g g is the J = 3/2 part plus one J = 1/2 copy
        (SystemConfig(n_atoms=3, g=0.1, epsilon=1.0, n_max=2), "egg", (4 + 2) * 3),
        # two atoms e g reach both triplet and singlet: the full space
        (SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=3), "eg", 16),
        (SystemConfig(n_atoms=2, g=0.3, n_th=0.7, delta_atom=0.4, n_max=3, frame="thermal"),
         "gg", 3 * 4),
        (SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, frame="effective-atomic"), "ee", 3),
        # a random full-rank start spans the full space
        (SystemConfig(n_atoms=2, g=0.2, epsilon=0.5, delta=0.3, n_max=2), None, 12),
    ], ids=["eee", "egg", "eg", "thermal-gg", "effective-ee", "full-rank"])
    def test_invariant_subspace_matches_full_expm(self, cfg, atoms, support_dim):
        gen = build_generator(cfg)
        if atoms is None:
            d = gen.layout.dim
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            m = a @ a.conj().T
            rho0 = DensityMatrix.from_matrix(cfg.layout(), m / np.trace(m).real)
        else:
            rho0 = initial_state(cfg, atoms, field=empty_cavity_field(cfg))
        V = _invariant_support(*dense_generator(gen), as_dense(rho0))
        assert V.shape[1] == support_dim
        assert np.max(np.abs(V.conj().T @ V - np.eye(support_dim))) < 1e-12
        L = liouvillian_matrix_raw(*dense_generator(gen)).toarray()
        t_grid = [0.0, 1.0, 5.0, 50.0]
        traj = evolve_spectral(gen, rho0, t_grid)
        assert traj.stats.support_dim == support_dim
        assert 1.0 <= traj.stats.eigvec_cond < np.inf
        for t, state in zip(t_grid, traj.states):
            exact = (expm(L * t) @ as_dense(rho0).ravel()).reshape(state.matrix.shape)
            assert np.max(np.abs(state.matrix - exact)) < 1e-12

    @pytest.mark.parametrize("n_max", [12, 16])
    def test_support_closure_terminates_for_coherent_start(self, n_max):
        # the displaced-frame empty cavity |-alpha> has weight on every Fock
        # level: directions found late in the closure have small residuals
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=n_max)
        h, diss = dense_generator(build_generator(cfg))
        rho0 = initial_state(cfg, "gg", field=empty_cavity_field(cfg))
        V = _invariant_support(h, diss, as_dense(rho0))
        d, k = V.shape
        assert k <= d
        assert np.max(np.abs(V.conj().T @ V - np.eye(k))) < 1e-12
        leak = np.eye(d) - V @ V.conj().T
        for op in [h] + [m for a, _ in diss for m in (a, a.conj().T)]:
            assert np.linalg.norm(leak @ op @ V) <= 1e-10

    def test_agrees_with_runge_kutta_on_overlapping_window(self):
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=6)
        gen = build_generator(cfg)
        rho0 = initial_state(cfg, "ee", field=empty_cavity_field(cfg))
        t = [0.0, 1.0, 5.0, 20.0]
        spectral = evolve_spectral(gen, rho0, t)
        rk = evolve(gen, rho0, t, tol=1e-10)
        assert max(trace_distance(a, b) for a, b in zip(spectral.states, rk.states)) <= 1e-7


def _spectral_against_expm(cfg, atoms, t_grid=(0.0, 1.0, 5.0, 50.0)):
    """evolve_spectral from `atoms` (x) the empty cavity field, after checking
    each state against expm of the whole L to 1e-12."""
    gen = build_generator(cfg)
    rho0 = initial_state(cfg, atoms, field=empty_cavity_field(cfg))
    L = liouvillian_matrix_raw(*dense_generator(gen)).toarray()
    traj = evolve_spectral(gen, rho0, t_grid)
    for t, state in zip(t_grid, traj.states):
        exact = (expm(L * t) @ as_dense(rho0).ravel()).reshape(state.matrix.shape)
        assert np.max(np.abs(state.matrix - exact)) < 1e-12
    return gen, rho0, traj


class TestConjugationReduction:
    """At delta = Delta = 0 a diagonal phase gauge makes iH and the jumps real:
    the state stays real symmetric on k(k+1)/2 coordinates instead of k^2."""

    @pytest.mark.parametrize("n_atoms", [1, 2, 3])
    @pytest.mark.parametrize("frame", ["displaced", "lab-rotating", "effective-atomic"])
    def test_reduced_route_matches_expm_and_full_coordinates(self, frame, n_atoms, monkeypatch):
        cfg = SystemConfig(n_atoms=n_atoms, g=0.3, epsilon=0.6, n_max=2, frame=frame)
        gen, rho0, traj = _spectral_against_expm(cfg, "e" * n_atoms)
        k = traj.stats.support_dim
        assert traj.stats.coordinates == k * (k + 1) // 2
        monkeypatch.setattr(dynamics, "_real_basis", lambda *args: None)
        full = evolve_spectral(gen, rho0, traj.times)
        assert full.stats.coordinates == k * k
        assert max(np.max(np.abs(a.matrix - b.matrix))
                   for a, b in zip(traj.states, full.states)) < 1e-12

    @pytest.mark.parametrize("cfg, atoms", [
        (SystemConfig(n_atoms=2, g=0.3, epsilon=0.6, delta=0.2, n_max=2), "ee"),
        (SystemConfig(n_atoms=2, g=0.3, epsilon=0.6, delta=0.2, n_max=2,
                      frame="lab-rotating"), "ee"),
        (SystemConfig(n_atoms=2, g=0.3, epsilon=0.6, delta_atom=0.2, n_max=2), "ee"),
        (SystemConfig(n_atoms=2, g=0.3, epsilon=0.6, delta_atom=0.2,
                      frame="effective-atomic"), "ee"),
        (SystemConfig(n_atoms=2, g=0.3, n_th=0.7, n_max=2, frame="thermal"), "ee"),
        (SystemConfig(n_atoms=2, g=0.3, epsilon=0.6, n_max=2), atoms_pattern("custom:0,1,1j,0", 2)),
    ], ids=["delta", "lab-delta", "Delta", "effective-Delta", "thermal", "complex-start"])
    def test_fallback_keeps_every_coordinate(self, cfg, atoms):
        # a diagonal term of H, jumps between H's sectors picking up one phase
        # per sector (thermal), or a start with no real gauge
        traj = _spectral_against_expm(cfg, atoms)[2]
        assert traj.stats.coordinates == traj.stats.support_dim ** 2

    def test_fig1_defaults(self, monkeypatch):
        # N = 1, 2, 3 at n_max 6: supports of 14, 21 and 28 dimensions
        stats = []

        def recorded(*args):
            traj = evolve_spectral(*args)
            stats.append((traj.stats.support_dim, traj.stats.coordinates))
            return traj

        monkeypatch.setattr(dynamics, "evolve_spectral", recorded)
        run_scenario(load_config(None, ("scenario=fig1-purity",)))
        assert stats == [(14, 105), (21, 231), (28, 406)]

    def test_basis_must_be_closed_under_conjugation(self):
        # undriven single atom: H = 0 and the jump is real, so every check but
        # the span's passes; (|e> + i|g>) / sqrt 2 alone has no real basis
        cfg = SystemConfig(n_atoms=1, g=0.3, frame="effective-atomic")
        gen = build_generator(cfg)
        rho0 = initial_state(cfg, "e").matrix
        assert _real_basis(gen, rho0, np.array([[1.0], [0.0]], dtype=complex)) is not None
        assert _real_basis(gen, rho0, np.array([[1.0], [1j]]) / math.sqrt(2.0)) is None


class TestPropagate:
    # the route follows the dimension k of rho0's invariant support, not the layout
    def test_small_support_of_large_layout_is_spectral(self):
        # all-excited atoms stay in the symmetric multiplet: 4 x 9 of the 8 x 9 layout
        cfg = SystemConfig(n_atoms=3, g=0.01, epsilon=1.0, n_max=8)
        gen = build_generator(cfg)
        rho0 = initial_state(cfg, "eee", field=empty_cavity_field(cfg))
        assert gen.layout.dim == 72
        traj = propagate(gen, rho0, [0.0, 1.0, 10.0], tol=1e-9)
        assert traj.stats.support_dim == 36
        assert traj.stats.n_rhs_evals == 0

    def test_large_support_is_integrated(self):
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=16)
        gen = build_generator(cfg)
        rho0 = initial_state(cfg, "eg", field=empty_cavity_field(cfg))
        assert _invariant_support(*dense_generator(gen), as_dense(rho0)).shape[1] == 68
        traj = propagate(gen, rho0, [0.0, 0.5], tol=1e-9)
        assert traj.stats.n_rhs_evals > 0
        # evolve_spectral itself refuses the support before assembling anything dense
        with pytest.raises(ValueError, match="SPECTRAL_MAX_SUPPORT"):
            evolve_spectral(gen, rho0, [0.0, 0.5])

    @pytest.mark.parametrize("initial_atoms", ["all-g", "e-g", "all-e"])
    def test_benchmark_rk_starts_are_integrated(self, initial_atoms):
        # the benchmark's rk-evolve starts: support 68 > SPECTRAL_MAX_SUPPORT, so
        # they stay on the Runge-Kutta route whatever the spectral route learns
        scfg = load_config(None, ("scenario=custom", "custom_mode=evolve", "n_atoms=2", "g=0.1",
                                  "epsilon=1", "n_max=16", f"initial_atoms={initial_atoms}"))
        cfg = scfg.system()
        gen = build_generator(cfg)
        rho0 = initial_state(cfg, atoms_pattern(initial_atoms, 2), field=empty_cavity_field(cfg))
        assert _invariant_support(*dense_generator(gen), as_dense(rho0)).shape[1] == 68
        with pytest.raises(SupportTooLargeError):
            evolve_spectral(gen, rho0, [0.0, 0.5])
        traj = propagate(gen, rho0, [0.0, 0.5], tol=scfg.integrator_tol)
        assert traj.stats.n_rhs_evals > 0 and traj.stats.support_dim == 0

    @pytest.mark.xfail(raises=EvolutionError, strict=True,
                       reason="the Dicke cascade's restricted L is defective (ROADMAP item 18)")
    @pytest.mark.parametrize("n_atoms", [2, 3])
    def test_undriven_superradiance(self, n_atoms):
        # `sim custom --set custom_mode=evolve --set frame=effective-atomic
        # --set epsilon=0 --set initial_atoms=all-e`: the eigenvector matrix of
        # the cascade is singular, and the spectral states drift in trace by
        # 4e-5 (N = 2) and 4 (N = 3).  A propagator that needs no eigenbasis
        # (item 18) makes this test pass, and must then drop the xfail
        scfg = load_config(None, ("scenario=custom", "custom_mode=evolve",
                                  "frame=effective-atomic", "epsilon=0", f"n_atoms={n_atoms}"))
        cfg = scfg.system()
        rho0 = initial_state(cfg, "e" * n_atoms)
        t_grid = np.concatenate(([0.0], log_grid(scfg.t_lo, scfg.t_hi, scfg.points_per_decade)))
        propagate(build_generator(cfg), rho0, t_grid, tol=scfg.integrator_tol)


def test_spectral_route_holds_less_than_one_superoperator(monkeypatch):
    # fig1's N = 3 start: k = 28, 406 coordinates.  The real generator is
    # assembled on them without L: not one complex k^2 x k^2 array is held
    scfg = load_config(None, ("scenario=fig1-purity",))
    cfg = scfg.system(n_atoms=3, n_max=6, frame="displaced")
    gen = build_generator(cfg)
    rho0 = initial_state(cfg, "eee", field=empty_cavity_field(cfg))
    t_grid = np.concatenate(([0.0], log_grid(scfg.t_lo, scfg.t_hi, scfg.points_per_decade)))

    def refuse(*args, **kwargs):
        raise AssertionError("the spectral route built a superoperator")

    monkeypatch.setattr(dynamics, "liouvillian_matrix_raw", refuse)
    evolve_spectral(gen, rho0, t_grid[:2])
    trajectories = []
    peak, _ = _peak_bytes(lambda: trajectories.append(evolve_spectral(gen, rho0, t_grid)))
    k = trajectories[0].stats.support_dim
    assert (k, trajectories[0].stats.coordinates) == (28, 406)
    assert peak < 16 * k**4


FRAME_CONFIGS = [
    SystemConfig(n_atoms=2, g=0.3, epsilon=0.6, delta=0.2, delta_atom=0.1, n_max=3,
                 frame="lab-rotating"),
    SystemConfig(n_atoms=2, g=0.3, epsilon=0.6, delta=0.2, delta_atom=0.1, n_max=3),
    SystemConfig(n_atoms=2, g=0.3, epsilon=0.6, delta_atom=0.1, frame="effective-atomic"),
    SystemConfig(n_atoms=2, g=0.3, n_th=0.7, delta_atom=0.1, n_max=3, frame="thermal"),
]


class TestLiouvillianMatrix:
    @pytest.mark.parametrize("cfg", FRAME_CONFIGS, ids=lambda cfg: cfg.frame)
    def test_matches_direct_application(self, cfg):
        gen = build_generator(cfg)
        # thermal has two jumps (a, a^dag); effective-atomic has no field
        assert len(gen.jumps) == (2 if cfg.frame == "thermal" else 1)
        assert gen.layout.has_field == (cfg.frame != "effective-atomic")
        d = gen.layout.dim
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = a @ a.conj().T
        m /= np.trace(m)
        direct = apply_generator(gen, m).ravel()
        L = liouvillian_matrix_raw(*dense_generator(gen))
        assert np.max(np.abs(L @ m.ravel() - direct)) < 1e-12

    @pytest.mark.parametrize("cfg", FRAME_CONFIGS, ids=lambda cfg: cfg.frame)
    def test_evolve_liouvillian_is_the_dense_views_one(self, cfg, monkeypatch):
        # RK builds L from the CSR operators: the same CSR the dense views give
        gen = build_generator(cfg)
        raw, built = dynamics.liouvillian_matrix_raw, []
        monkeypatch.setattr(dynamics, "liouvillian_matrix_raw",
                            lambda *a, **kw: built.append(raw(*a, **kw)) or built[-1])
        evolve(gen, initial_state(cfg, "eg", field=empty_cavity_field(cfg)), [0.0, 0.1])
        (L,) = built
        want = raw(*dense_generator(gen))
        for got, exp in zip((L.indptr, L.indices, L.data), (want.indptr, want.indices, want.data)):
            assert np.array_equal(got, exp)

    @pytest.mark.parametrize("cfg", FRAME_CONFIGS, ids=lambda cfg: cfg.frame)
    def test_sparse_residual_matches_dense_generator(self, cfg):
        gen = build_generator(cfg)
        d = gen.layout.dim
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))  # not Hermitian
        direct = float(np.max(np.abs(apply_generator(gen, m))))
        assert abs(residual_norm(gen, m) - direct) <= 1e-14 * direct


def _collective_problem(cfg, atoms):
    """(H, jumps, rho0) in the collective basis, as CSR, CSR and dense."""
    gen = build_generator(cfg)
    rho0 = initial_state(cfg, atoms, field=empty_cavity_field(cfg))
    B, labels = collective_basis(cfg.n_atoms)
    H = to_collective_basis(gen.H, B, labels)
    jumps = [(to_collective_basis(A, B, labels), rate) for A, rate in gen.jumps]
    return H, jumps, to_collective_basis(rho0.matrix, B, labels).toarray()


def _starts(n):
    """A product start e g^(N-1) and a superposition of two single excitations."""
    single = np.zeros(2**n, dtype=complex)
    single[2 ** (n - 1) - 1] = 1.0   # e g ... g
    single[2 ** (n - 1) + 2 ** (n - 2) - 1] = 1j    # g e g ... g
    return ["e" + "g" * (n - 1), single]


def _whole_space_blocks(H, jumps, rho0):
    """The oracle of `_reachable_blocks`, from the whole Liouvillian.

    pairs and blocks: the weak components of L (every jump included) that
    vec(rho0) touches.  largest: the largest component of
    pattern(H + sum A), over the jumps of non-zero rate, that rho0's rows touch.
    """
    d = H.shape[0]
    rows, cols = np.nonzero(rho0)
    full = liouvillian_matrix_raw(H, jumps)
    labels = connected_components(abs(full), directed=True, connection="weak")[1]
    touched = [np.flatnonzero(labels == c) for c in np.unique(labels[rows * d + cols])]
    pairs = np.sort(np.concatenate(touched))
    pattern = abs(sp.csr_matrix(H)) + sum(abs(A) for A, rate in jumps if rate != 0)
    comp = connected_components(pattern, directed=True, connection="weak")[1]
    largest = max(np.count_nonzero(comp == c) for c in np.unique(comp[rows]))
    return pairs, [np.searchsorted(pairs, b) for b in touched], largest


def _assert_blocks_exact(H, jumps, rho0):
    """`_reachable_blocks` of the jumps of non-zero rate against the whole-space oracle."""
    pairs, blocks, largest = _reachable_blocks(H, [(A, r) for A, r in jumps if r != 0],
                                               *np.nonzero(rho0))
    want_pairs, want_blocks, want_largest = _whole_space_blocks(H, jumps, rho0)
    assert np.array_equal(pairs, want_pairs)
    assert len(blocks) == len(want_blocks)
    assert all(np.array_equal(b, e) for b, e in zip(blocks, want_blocks))
    assert largest == want_largest
    return pairs, blocks, largest


def _assert_restriction_exact(H, jumps, rho0):
    """L on the sorted pairs, and on the pairs block by block (the order the
    solver builds it in), is the whole L sliced to them, entry for entry; the
    whole L is the `scipy.sparse.kron` oracle's within 4 ulps per term of
    the largest term, sum |c| max|X| max|Y|."""
    pairs, blocks, _ = _assert_blocks_exact(H, jumps, rho0)
    full = liouvillian_matrix_raw(H, jumps)
    scale = 2 * abs(H).max() + sum(rate * 2 * (abs(A).max() ** 2 + abs(A.conj().T @ A).max())
                                   for A, rate in jumps)
    tol = 4 * (2 + 3 * len(jumps)) * np.finfo(float).eps * scale
    assert abs(full - liouvillian_oracle(H, jumps)).max() <= tol
    ordered = pairs[np.concatenate(blocks)]
    for vec in (pairs, ordered):
        restricted = liouvillian_matrix_raw(H, jumps, vec)
        sliced = full[vec][:, vec]
        # the same entries, stored in the same order: products sum the same way
        assert restricted.has_canonical_format and sliced.has_canonical_format
        for got, want in zip((restricted.indptr, restricted.indices, restricted.data),
                             (sliced.indptr, sliced.indices, sliced.data)):
            assert np.array_equal(got, want)
    # block-major order: every row's columns lie in its own block
    owner = np.repeat(np.arange(len(blocks)), [b.size for b in blocks])
    rows = np.repeat(np.arange(ordered.size), np.diff(restricted.indptr))
    assert np.array_equal(owner[restricted.indices], owner[rows])
    return pairs


@st.composite
def sparse_problems(draw):
    """CSR H (Hermitian) and jumps on d <= 9 states, some jumps of rate 0, and
    a sparse rho0 >= 0 from one or two vectors on random supports."""
    d = draw(st.integers(1, 9))
    rates = draw(st.lists(st.sampled_from([0.0, 0.4, 1.0]), max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def sparse(shape, density):
        values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return np.where(rng.random(shape) < density, values, 0.0)

    H = sparse((d, d), 0.15)
    jumps = [(sp.csr_matrix(sparse((d, d), 0.2)), rate) for rate in rates]
    vectors = sparse((d, draw(st.integers(1, 2))), 0.3)
    vectors[rng.integers(d), 0] = 1.0  # rho0 is never zero
    return sp.csr_matrix(H + H.conj().T), jumps, vectors @ vectors.conj().T


class TestReachablePairs:
    """One quotient graph gives the pairs, blocks and largest Hilbert block of the
    whole L, and L built on those pairs is the whole L sliced to them."""

    @settings(max_examples=300, deadline=None)
    @given(sparse_problems())
    def test_matches_the_whole_liouvillian(self, problem):
        _assert_blocks_exact(*problem)

    @pytest.mark.parametrize("n_atoms", [2, 3])
    @pytest.mark.parametrize("start", [0, 1], ids=["product", "superposition"])
    @pytest.mark.parametrize("cfg", FRAME_CONFIGS, ids=lambda cfg: cfg.frame)
    def test_restricted_liouvillian_is_the_sliced_one(self, cfg, n_atoms, start):
        _assert_restriction_exact(*_collective_problem(replace(cfg, n_atoms=n_atoms),
                                                       _starts(n_atoms)[start]))

    def test_jump_row_with_two_entries_links_its_columns(self):
        # A = |0><1| + |0><2|: A^dag A links states 1 and 2, so the coherence
        # (1, 5) reaches (2, 5) although no jump acts on state 5
        H = sp.csr_matrix(np.diag([0.3, -0.2, 0.5, 0.1, 0.7, -0.4]).astype(complex))
        A = np.zeros((6, 6), dtype=complex)
        A[0, 1], A[0, 2] = 0.8 + 0.1j, -0.6j
        v = np.zeros(6, dtype=complex)
        v[[1, 5]] = 0.6, 0.8j
        pairs = _assert_restriction_exact(H, [(sp.csr_matrix(A), 0.7)], np.outer(v, v.conj()))
        assert {1 * 6 + 5, 2 * 6 + 5} <= set(pairs) and 3 * 6 + 3 not in set(pairs)

    @settings(max_examples=300, deadline=None)
    @given(sparse_problems())
    def test_cap_bound_is_the_largest_block_for_a_state(self, problem):
        # a lower bound in general; equal when every row of rho0 holds its
        # diagonal entry, as in these positive semidefinite rho0
        H, jumps, rho0 = problem
        bounds = []
        with pytest.MonkeyPatch.context() as m:
            # at cap 0 the bound is always taken; recorded, then passed as 0
            # so that the largest block, found after it, raises instead
            m.setattr(dynamics, "_cap_bound", lambda *a: bounds.append(_cap_bound(*a)) or 0)
            with pytest.raises(ConvergenceError, match="too large"):
                _reachable_blocks(H, [(A, r) for A, r in jumps if r != 0], *np.nonzero(rho0),
                                  cap=0)
        largest = _whole_space_blocks(H, jumps, rho0)[2]
        assert bounds == [largest]

    def test_cap_bound_is_a_lower_bound_without_diagonal_entries(self):
        # A = |0><0| + |0><1|: A^dag A joins states 0 and 1 into one component,
        # so the coherence rho0 = |0><1| + |1><0| lies in its diagonal node; with
        # no diagonal entry in rho0 the bound reads 0, below the block of 2
        H = sp.csr_matrix(np.diag([0.3, -0.2]).astype(complex))
        A = sp.csr_matrix(np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex))
        rows, cols = np.array([0, 1]), np.array([1, 0])
        comp, size = np.zeros(2, dtype=int), np.array([2])
        links = [(np.zeros(1, dtype=int), np.zeros(1, dtype=int))]
        assert _cap_bound(comp[rows[rows == cols]], size, links) == 0
        assert _reachable_blocks(H, [(A, 1.0)], rows, cols)[2] == 2

    def test_blocks_above_the_cap_fail_before_the_quotient_graph(self, monkeypatch):
        # fig3's n_th = 5 points: the triplet block of 771 states exceeds the
        # cap, found on the m components; no m^2-node graph is built
        shapes = []

        def counting(graph, *args, **kwargs):
            shapes.append(graph.shape[0])
            return connected_components(graph, *args, **kwargs)

        monkeypatch.setattr(dynamics, "connected_components", counting)
        cfg = SystemConfig(n_atoms=2, g=0.1, n_th=5.0, n_max=256, frame="thermal")
        H, jumps, rho0 = _collective_problem(cfg, "eg")
        assert H.shape[0] > dynamics.SPARSE_NULLSPACE_MAX_DIM
        with pytest.raises(ConvergenceError, match="dimension 771 too large"):
            steady_state_raw(H, jumps, rho0)
        assert len(shapes) == 2 and shapes[0] == H.shape[0] and shapes[1] ** 2 < H.shape[0] ** 2

    @pytest.mark.parametrize("atoms, unknowns, whole", [("eg", 1860, 219024), ("gg", 1045, 123201)])
    def test_thermal_unknowns_follow_the_touched_blocks(self, atoms, unknowns, whole):
        # the triplet and singlet blocks and their coherences at matching
        # excitation number, in place of every pair of kept states
        cfg = SystemConfig(n_atoms=2, g=0.1, n_th=3.0, n_max=116, frame="thermal")
        H, jumps, rho0 = _collective_problem(cfg, atoms)
        pairs, _, largest = _assert_blocks_exact(H, jumps, rho0)
        assert np.unique(pairs // H.shape[0]).size ** 2 == whole
        assert pairs.size == unknowns
        assert largest == 3 * (cfg.n_max + 1)  # the triplet block

    @pytest.mark.parametrize("atoms", ["eg", "gg"])
    def test_reversed_jumps_share_their_quotient_edges(self, atoms, monkeypatch):
        # the thermal frame's a and a^dag link the components each the other's
        # way round: the quotient graph built once for both has the weak
        # components of the graph built for each
        cfg = SystemConfig(n_atoms=2, g=0.1, n_th=3.0, n_max=116, frame="thermal")
        H, jumps, rho0 = _collective_problem(cfg, atoms)
        jumps = [(A, r) for A, r in jumps if r != 0]
        assert len(jumps) == 2
        graphs = []
        monkeypatch.setattr(dynamics, "_labels",
                            lambda *graph: graphs.append(graph) or _labels(*graph))
        _reachable_blocks(H, jumps, *np.nonzero(rho0))
        assert len(graphs) == 2  # the d states' components, then the quotient graph
        comp = _labels(*graphs[0])
        src, dst, nodes = graphs[1]
        m = comp.max() + 1
        every_src, every_dst = [], []
        for A, _ in jumps:
            A = A.tocoo()
            a, b = np.divmod(np.unique(comp[A.row] * m + comp[A.col]), m)
            every_src.append((a[:, None] * m + a).ravel())
            every_dst.append((b[:, None] * m + b).ravel())
        every_src, every_dst = np.concatenate(every_src), np.concatenate(every_dst)
        assert 2 * src.size == every_src.size
        built, every = _labels(src, dst, nodes), _labels(every_src, every_dst, nodes)
        # the same partition of the m^2 component pairs
        joint = np.unique(built * nodes + every)
        assert joint.size == np.unique(built).size == np.unique(every).size


class TestHermitianBasis:
    """The spectral route's real generator, assembled on its kept coordinates,
    and its coordinate maps, against the unitary T of `reference`."""

    @pytest.mark.parametrize("n", ["k(k+1)/2", "k^2"])
    @pytest.mark.parametrize("cfg", FRAME_CONFIGS, ids=lambda cfg: cfg.frame)
    def test_generator_is_the_projected_liouvillian(self, cfg, n):
        H, jumps = dense_generator(build_generator(cfg))
        k = H.shape[0]
        n = k * (k + 1) // 2 if n == "k(k+1)/2" else k * k
        T = hermitian_coordinates(k)[:, :n].toarray()
        L = liouvillian_matrix_raw(H, jumps).toarray()
        projected = T.conj().T @ L @ T
        scale = np.max(np.abs(L))
        assert np.max(np.abs(projected.imag)) <= 1e-14 * scale
        assert np.max(np.abs(_HermitianBasis(k, n).generator(H, jumps) - projected.real)) <= 1e-14 * scale

    @pytest.mark.parametrize("k", [2, 6])   # at k = 1, L = 0
    def test_generator_of_complex_operators(self, k):
        # the restricted operators V^dag A V are complex where the frames' are real
        def complex_matrix():
            return rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))

        H = complex_matrix()
        H = H + H.conj().T
        jumps = [(complex_matrix(), 0.4), (complex_matrix(), 1.3)]
        T = hermitian_coordinates(k).toarray()
        L = liouvillian_matrix_raw(H, jumps).toarray()
        got = _HermitianBasis(k, k * k).generator(H, jumps)
        assert np.max(np.abs(got - (T.conj().T @ L @ T).real)) <= 1e-14 * np.max(np.abs(L))

    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_coordinate_maps_round_trip(self, k):
        T = hermitian_coordinates(k).toarray()
        assert np.max(np.abs(T.conj().T @ T - np.eye(k * k))) < 1e-15
        a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        X = a + a.conj().T
        basis = _HermitianBasis(k, k * k)
        x = basis.coordinates(X)
        assert np.max(np.abs(x - (T.conj().T @ X.ravel()).real)) < 1e-14 * np.max(np.abs(X))
        assert np.max(np.abs(basis.matrix(x) - X)) < 1e-14 * np.max(np.abs(X))
        y = rng.normal(size=k * k)
        assert np.array_equal(basis.matrix(y), (T @ y).reshape(k, k))
        # a real symmetric X lies in the span of the first k(k+1)/2
        reduced = _HermitianBasis(k, k * (k + 1) // 2)
        assert np.max(np.abs(reduced.matrix(reduced.coordinates(X.real)) - X.real)) \
            < 1e-14 * np.max(np.abs(X))


class TestSteadyState:
    def test_thermal_solve_holds_few_dense_arrays(self):
        # the generator, rho0, the solution and its rotation back stay sparse:
        # the one dense array is the rotated H the solver is handed
        cfg = SystemConfig(n_atoms=2, g=0.1, n_th=5.0, n_max=128, frame="thermal")
        scenario_steady_state(cfg, "eg")
        tracemalloc.start()
        try:
            scenario_steady_state(cfg, "eg")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 16 * cfg.layout().dim ** 2

    @pytest.mark.parametrize("n_th, n_max, unknowns", [(3.0, 164, 1477), (5.0, 256, 2305)])
    def test_trace_constrained_lu_stays_near_nnz(self, n_th, n_max, unknowns, monkeypatch):
        # fig3's e-g triplet block: COLAMD with partial pivoting took the dense
        # trace row as an early pivot and filled the LU to 42 and 63 times nnz(M)
        cfg = SystemConfig(n_atoms=2, g=0.1, n_th=n_th, n_max=n_max, frame="thermal")
        H, jumps, rho0 = _collective_problem(cfg, "eg")
        jumps = [(A, rate) for A, rate in jumps if rate != 0]
        pairs, blocks, _ = _reachable_blocks(H, jumps, *np.nonzero(rho0))
        d = H.shape[0]
        idx = max((b for b in blocks if np.any(pairs[b] % (d + 1) == 0)), key=len)
        L = liouvillian_matrix_raw(H, jumps, pairs)[idx][:, idx]
        factors, splu = [], dynamics.spla.splu

        def recording(M, **kwargs):
            factors.append((M, splu(M, **kwargs)))
            return factors[-1][1]

        monkeypatch.setattr(dynamics.spla, "splu", recording)
        _unique_fixed_point(L, np.flatnonzero(pairs[idx] % (d + 1) == 0))
        (M, lu), = factors
        assert M.shape[0] == unknowns
        assert lu.L.nnz + lu.U.nnz <= 4 * M.nnz

    @pytest.mark.parametrize("missing", [False, True], ids=["closed", "missing-partner"])
    def test_normalize_kernel_vector_equals_the_dense_one(self, missing):
        d = 7
        r = np.random.default_rng(29)
        upper = np.flatnonzero(np.triu(r.random((d, d)) < 0.3, 1))
        pairs = np.concatenate([upper, upper % d * d + upper // d, np.arange(d) * (d + 1)])
        if missing:
            pairs = pairs[1:]  # the partner of the dropped coherence stays
        pairs = np.sort(pairs)
        x = r.normal(size=pairs.size) + 1j * r.normal(size=pairs.size)
        dense = np.zeros(d * d, dtype=complex)
        dense[pairs] = x
        dense = dense.reshape(d, d)
        dense = 0.5 * (dense + dense.conj().T)
        dense /= dense.ravel()[pairs[pairs % (d + 1) == 0]].sum().real
        m, on_pairs = _normalize_kernel_vector(x, pairs, d)
        assert np.array_equal(m.toarray(), dense)
        assert np.array_equal(on_pairs, dense.ravel()[pairs])

    def test_driven_cavity_amplitude(self):
        # decoupled driven cavity: <a>_ss = -i eps / (kappa + i delta)
        cfg = SystemConfig(n_atoms=1, g=0.0, epsilon=0.5, delta=0.7, n_max=10,
                           frame="lab-rotating")
        gen = build_generator(cfg)
        res = steady_state(gen, rho0=initial_state(cfg, "g"), residual_tol=1e-10)
        lay = cfg.layout()
        a = field_annihilation(lay)
        a_ss = np.trace(a @ as_dense(res.rho_ss))
        expected = -1j * 0.5 / (1.0 + 0.7j)
        assert abs(a_ss - expected) < 1e-6
        assert res.residual < 1e-10

    def test_thermal_occupancy_sparse_route(self):
        # field-only thermal contact: <n>_ss = n_th (dim 41 exercises the sparse solve)
        n_th, n_max = 0.8, 40
        a = annihilation(n_max)
        h = np.zeros((n_max + 1, n_max + 1), dtype=complex)
        vacuum = np.diag(np.eye(n_max + 1)[0]).astype(complex)
        m, res, kernel_dim, used = steady_state_raw(
            h, [(a, n_th + 1.0), (a.conj().T, n_th)], vacuum, residual_tol=1e-9)
        m = m.toarray()
        assert used == "nullspace" and kernel_dim == 1
        n_ss = np.sum(np.arange(n_max + 1) * np.diag(m).real)
        assert abs(n_ss - n_th) < 1e-8
        assert np.max(np.abs(m - np.diag(thermal_populations(n_th, n_max)))) < 1e-9

    def test_nullspace_matches_long_time_integration(self):
        cfg = SystemConfig(n_atoms=1, g=0.3, n_th=0.5, n_max=10, frame="thermal")
        gen = build_generator(cfg)
        rho0 = initial_state(cfg, "e", field="vacuum")
        direct = steady_state(gen, rho0, residual_tol=1e-9)
        integrated = evolve(gen, rho0, [0.0, 300.0], tol=1e-10).states[-1]
        assert residual_norm(gen, integrated) < 1e-8
        assert trace_distance(direct.rho_ss, integrated) < 1e-6

    def test_initial_state_invariance(self):
        cfg = SystemConfig(n_atoms=1, g=0.4, n_th=0.3, n_max=8, frame="thermal")
        gen = build_generator(cfg)
        tol = 1e-8
        outs = []
        for atoms, fld in (("e", "vacuum"), ("g", 2)):
            rho = evolve(gen, initial_state(cfg, atoms, field=fld), [0.0, 300.0],
                         tol=1e-2 * tol).states[-1]
            assert residual_norm(gen, rho) < tol
            outs.append(rho)
        assert trace_distance(outs[0], outs[1]) < 10 * tol

    def test_degenerate_manifold_detected(self):
        # undriven two-atom cavity conserves the singlet weight: no unique fixed point
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=0.0, n_max=2)
        d = cfg.layout().dim
        L = liouvillian_matrix_raw(*dense_generator(build_generator(cfg)))
        with pytest.raises(DegenerateSteadyStateError):
            _unique_fixed_point(L, np.arange(d) * (d + 1))

    def test_degenerate_fallback_preserves_singlet_weight(self):
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=0.0, n_max=2)
        gen = build_generator(cfg)
        singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
        rho0 = initial_state(cfg, singlet)
        m, _, _, route = steady_state_raw(*dense_generator(gen), rho0=rho0.matrix,
                                          residual_tol=1e-9)
        assert route == "kernel-projection"
        # the dark singlet (with empty cavity) never decays
        assert trace_distance(DensityMatrix.from_matrix(gen.layout, m, pos_tol=1e-7), rho0) < 1e-7

    def test_rotated_degenerate_manifold_detected(self):
        # a random unitary frame hides the exact zeros that make the LU factor of
        # the undriven two-atom generator exactly singular: only the condition
        # estimate can tell the two-dimensional kernel apart
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=0.0, n_max=10)
        h, diss = dense_generator(build_generator(cfg))
        d = h.shape[0]
        assert d == 44
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        h = q @ h @ q.conj().T
        diss = [(q @ a @ q.conj().T, r) for a, r in diss]
        with pytest.raises(DegenerateSteadyStateError):
            _unique_fixed_point(liouvillian_matrix_raw(h, diss), np.arange(d) * (d + 1))

    @pytest.mark.parametrize("sector", ["single-atom", "triplet", "singlet"])
    def test_nullspace_matches_dense_kernel(self, sector):
        cfg = SystemConfig(n_atoms=1 if sector == "single-atom" else 2,
                           g=0.3, epsilon=0.8, delta=0.2, n_max=5)
        gen = build_generator(cfg)
        h, diss = dense_generator(gen)
        if sector != "single-atom":
            # the triplet or the singlet block of the generator in the |T+>, |T0>, |T->, |S> basis
            B, labels = collective_basis(2)
            states = np.flatnonzero((np.arange(h.shape[0]) % 4 == 3) == (sector == "singlet"))
            sub = np.ix_(states, states)
            h = to_collective_basis(h, B, labels)[sub]
            diss = [(to_collective_basis(a, B, labels)[sub], r) for a, r in diss]
        d = h.shape[0]
        vals, vecs = np.linalg.eig(liouvillian_matrix_raw(h, diss).toarray())
        order = np.argsort(np.abs(vals))
        assert np.abs(vals[order[1]]) > 1e-3  # unique fixed point
        dense = vecs[:, order[0]].reshape(d, d)
        dense = 0.5 * (dense + dense.conj().T)
        dense /= np.trace(dense).real
        # every diagonal entry lies in the block of the unique fixed point
        m, res, _, used = steady_state_raw(h, diss, np.eye(d) / d, residual_tol=1e-10)
        assert used == "nullspace"
        assert np.max(np.abs(m.toarray() - dense)) < 1e-12

    def test_residual_norm_zero_on_fixed_point(self):
        cfg = SystemConfig(n_atoms=1, g=0.2, epsilon=0.4, n_max=6)
        gen = build_generator(cfg)
        res = steady_state(gen, initial_state(cfg, "g"), residual_tol=1e-10)
        assert residual_norm(gen, res.rho_ss) < 1e-10

    def test_above_cap_fails_even_with_initial_state(self, monkeypatch):
        # no route is unbounded: a system above the cap fails instead of integrating
        monkeypatch.setattr(dynamics, "SPARSE_NULLSPACE_MAX_DIM", 8)
        cfg = SystemConfig(n_atoms=1, g=0.2, epsilon=0.4, n_max=6)
        with pytest.raises(ConvergenceError, match="too large"):
            steady_state(build_generator(cfg), rho0=initial_state(cfg, "e"))

    def test_rate_zero_jump_does_not_count_toward_the_cap(self, monkeypatch):
        # at g = 0 the effective frame's collective decay has rate 0 and H = 0:
        # L is zero, every block holds one state, and rho0 is its own steady state
        monkeypatch.setattr(dynamics, "SPARSE_NULLSPACE_MAX_DIM", 1)
        cfg = SystemConfig(n_atoms=2, g=0.0, frame="effective-atomic")
        gen = build_generator(cfg)
        assert [rate for _, rate in gen.jumps] == [0.0]
        rho0 = initial_state(cfg, "eg")
        res = steady_state(gen, rho0)
        assert np.max(np.abs(as_dense(res.rho_ss) - rho0.matrix)) < 1e-15

    def test_one_solve_makes_two_graph_passes(self, monkeypatch):
        # the state components and the quotient graph over their pairs; the
        # cap, the pairs and the blocks all come from those two
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return connected_components(*args, **kwargs)

        monkeypatch.setattr(dynamics, "connected_components", counting)
        cfg = SystemConfig(n_atoms=2, g=0.1, n_th=1.0, n_max=8, frame="thermal")
        steady_state(build_generator(cfg), initial_state(cfg, "eg", field="thermal"))
        assert len(calls) == 2


def _old_trace_constrained(L, diag):
    """The oracle of `_trace_constrained`: M as it was once formed, L with row
    diag[0] zeroed by a diagonal product, plus the trace row."""
    n, r = L.shape[0], diag[0]
    trace_row = sp.csr_matrix((np.ones(diag.size), (np.full(diag.size, r), diag)), shape=(n, n))
    keep = np.ones(n)
    keep[r] = 0.0
    return (sp.diags(keep) @ L + trace_row).tocsc()


@functools.cache
def _trace_constrained_solves(cfg, atoms):
    """((L, diag, M), ...) and ((M, estimate), ...) of the trace-constrained
    solves `scenario_steady_state(cfg, atoms)` makes, recorded in the solver.
    Only factors of a spliced M count: coherence blocks share the factor and
    the estimator, and are not trace-constrained solves."""
    built, estimates, factored = [], [], {}
    splice, splu, estimate = (dynamics._trace_constrained, dynamics.spla.splu,
                              dynamics._inverse_norm_estimate)

    def splicing(L, diag):
        built.append((L, diag, splice(L, diag)))
        return built[-1][2]

    def factoring(M, **kwargs):
        lu = splu(M, **kwargs)
        factored[id(lu)] = M if built and M is built[-1][2] else None
        return lu

    def estimating(lu):
        est = estimate(lu)
        if factored[id(lu)] is not None:
            estimates.append((factored[id(lu)], est))
        return est

    with pytest.MonkeyPatch.context() as m:
        m.setattr(dynamics, "_trace_constrained", splicing)
        m.setattr(dynamics.spla, "splu", factoring)
        m.setattr(dynamics, "_inverse_norm_estimate", estimating)
        scenario_steady_state(cfg, atoms)
    return tuple(built), tuple(estimates)


_SOLVE_CASES = [
    (SystemConfig(n_atoms=2, g=0.1, epsilon=0.1, n_max=8), "eg"),
    (SystemConfig(n_atoms=2, g=0.1, epsilon=0.001, n_max=4), "gg"),
    (SystemConfig(n_atoms=2, g=0.1, n_th=2.0, n_max=64, frame="thermal"), "gg"),
    (SystemConfig(n_atoms=2, g=0.1, n_th=0.5, n_max=22, frame="thermal"), "eg"),
] + [(replace(cfg, n_atoms=3), "egg") for cfg in FRAME_CONFIGS]


class TestTraceConstrainedSolve:
    """M is spliced from L's CSR arrays, and its condition is certified by
    Higham's estimate of ||M^-1||_1 on the factor."""

    @pytest.mark.parametrize("cfg, atoms", _SOLVE_CASES,
                             ids=lambda v: getattr(v, "frame", v))
    def test_spliced_matrix_is_the_old_formula(self, cfg, atoms):
        built, _ = _trace_constrained_solves(cfg, atoms)
        assert built
        for L, diag, M in built:
            want = _old_trace_constrained(L, diag)
            # the same CSC arrays: SuperLU factors the same matrix the same way
            for got, exp in zip((M.indptr, M.indices, M.data), (want.indptr, want.indices, want.data)):
                assert np.array_equal(got, exp)

    @pytest.mark.parametrize("cfg, atoms", _SOLVE_CASES,
                             ids=lambda v: getattr(v, "frame", v))
    def test_estimate_brackets_the_exact_inverse_norm(self, cfg, atoms):
        _, estimates = _trace_constrained_solves(cfg, atoms)
        assert estimates  # blocks of 5 to 729 unknowns over the cases
        for M, est in estimates:
            exact = np.abs(np.linalg.inv(M.toarray())).sum(axis=0).max()
            assert exact / 10 <= est <= exact * (1 + 1e-8)

    def test_one_unknown(self):
        lu = dynamics.spla.splu(sp.csc_matrix(np.array([[4.0 + 0j]])))
        assert _inverse_norm_estimate(lu) == 0.25

    def test_diagonal_is_exact(self):
        # ||D^-1||_1 is the largest |1 / d_i|: the first column step finds it
        d = np.array([3.0, -0.5j, 2.0, 0.01 + 0.01j, 7.0])
        lu = dynamics.spla.splu(sp.diags(d, format="csc"))
        assert _inverse_norm_estimate(lu) == pytest.approx(np.max(1.0 / np.abs(d)), rel=1e-15)


@functools.cache
def _dense_kernel(cfg):
    """Right and left kernel bases of the generator's dense superoperator: the
    leading Schur vectors of L and L^H with the eigenvalues below 1e-8 first."""
    L = liouvillian_matrix_raw(*dense_generator(build_generator(cfg))).toarray()
    (T, right, k), (_, left, k_left) = (la.schur(M, output="complex", sort=lambda x: abs(x) < 1e-8)
                                        for M in (L, L.conj().T))
    assert k == k_left
    assert np.min(np.abs(np.diag(T)[k:])) > 1e-3  # a clear gap: the kernel is unambiguous
    return right[:, :k], left[:, :k]


_N3 = SystemConfig(n_atoms=3, g=0.1, epsilon=1.0, n_max=3)
_DETUNED_DARK = SystemConfig(n_atoms=2, g=0.1, n_th=0.0, delta_atom=0.8, n_max=4,
                             frame="thermal")


class TestKernelProjection:
    """Degenerate kernels: the steady state is rho0 projected onto ker L along range L."""

    @pytest.mark.parametrize("cfg, atoms, kernel_dim", [
        (_N3, "egg", 5), (_N3, "ggg", 5), (_N3, "eee", 5),
        # the dark |gg, 0> - |S, 0> coherences rotate at +-0.8i: not in the kernel
        (_DETUNED_DARK, "eg", 2),
    ], ids=["N3-egg", "N3-ggg", "N3-eee", "thermal-detuned"])
    def test_matches_dense_biorthogonal_projection(self, cfg, atoms, kernel_dim):
        gen = build_generator(cfg)
        rho0 = initial_state(cfg, atoms, field=empty_cavity_field(cfg))
        m, _, product_kernel_dim, route = steady_state_raw(
            *dense_generator(gen), rho0=rho0.matrix, residual_tol=1e-12)
        assert route == "kernel-projection"
        R, Lam = _dense_kernel(cfg)
        assert product_kernel_dim == R.shape[1] == kernel_dim
        x = R @ np.linalg.solve(Lam.conj().T @ R, Lam.conj().T @ as_dense(rho0).ravel())
        d = cfg.layout().dim
        assert np.max(np.abs(m.toarray() - x.reshape(d, d))) < 1e-10
        # the collective basis splits the kernel over the blocks rho0 touches
        collective = steady_state(gen, rho0, residual_tol=1e-12)
        assert collective.kernel_dim <= kernel_dim
        assert np.max(np.abs(as_dense(collective.rho_ss) - x.reshape(d, d))) < 1e-10

    @pytest.mark.parametrize("cfg, atoms", [(_N3, "egg"), (_DETUNED_DARK, "eg")],
                             ids=["N3-egg", "thermal-detuned"])
    def test_matches_late_time_evolution(self, cfg, atoms):
        gen = build_generator(cfg)
        rho0 = initial_state(cfg, atoms, field=empty_cavity_field(cfg))
        late = evolve(gen, rho0, [0.0, 3000.0], tol=1e-11).states[-1]
        m = steady_state_raw(*dense_generator(gen), rho0=rho0.matrix)[0]
        assert np.max(np.abs(m.toarray() - late.matrix)) < 1e-10
        assert np.max(np.abs(as_dense(steady_state(gen, rho0).rho_ss) - late.matrix)) < 1e-10


def _peak_bytes(fn):
    """The traced peak of the memory fn allocates, with fn's exception, if any."""
    tracemalloc.start()
    try:
        try:
            fn()
            error = None
        except ConvergenceError as exc:
            error = exc
        return tracemalloc.get_traced_memory()[1], error
    finally:
        tracemalloc.stop()


class TestCsrSteadyStates:
    """rho0 and the steady state stay CSR from build to reduction."""

    # fig3's largest bench probe: the cap refuses it (its triplet block holds 771 states)
    CAPPED = SystemConfig(n_atoms=2, g=0.1, n_th=5.0, n_max=256, frame="thermal")

    @pytest.mark.parametrize("cfg, field", [
        (SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=4), -1.0j),
        (SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=8), -1.0j),
        (SystemConfig(n_atoms=2, g=0.1, n_th=3.0, n_max=82, frame="thermal"), "thermal"),
        (SystemConfig(n_atoms=2, g=0.1, n_th=3.0, n_max=164, frame="thermal"), "thermal"),
    ], ids=["driven-4", "driven-8", "thermal-82", "thermal-164"])
    def test_reductions_equal_the_dense_pipeline(self, cfg, field):
        # the solution rotated back block by block and reduced on its blocks:
        # the dense rotation and partial traces, entry for entry
        gen = build_generator(cfg)
        rho0 = initial_state(cfg, "eg", field=field)
        B, labels = collective_basis(2)
        m = steady_state_raw(
            to_collective_basis(gen.H, B, labels).toarray(),
            [(to_collective_basis(A, B, labels), rate) for A, rate in gen.jumps],
            to_collective_basis(rho0.matrix, B, labels))[0]
        dense = dense_sandwich(B, m.toarray(), B.conj().T)
        rho = steady_state(gen, rho0).rho_ss
        assert rho.matrix.has_canonical_format and np.array_equal(rho.matrix.toarray(), dense)
        assert np.array_equal(from_collective_basis(m, B).toarray(), dense)
        layout = cfg.layout()
        assert np.array_equal(atomic_reduction(rho).matrix, dense_partial_trace(dense, layout, (1, 2)))
        assert np.array_equal(partial_trace(rho, (0,)).matrix, dense_partial_trace(dense, layout, (0,)))

    def test_capped_thermal_state_allocates_no_dim_squared_array(self, monkeypatch):
        cfg = self.CAPPED
        dim = cfg.layout().dim
        assert dim == 1028
        gen = build_generator(cfg)
        rho0 = initial_state(cfg, "eg", field="thermal")
        peak, _ = _peak_bytes(lambda: initial_state(cfg, "eg", field="thermal"))
        assert peak < dim ** 2  # less than one bool dim x dim array
        monkeypatch.setattr(dynamics, "SPARSE_NULLSPACE_MAX_DIM", dim)
        rho = steady_state(gen, rho0).rho_ss
        assert sp.issparse(rho.matrix) and rho.matrix.nnz < dim ** 2 / 100
        B, labels = collective_basis(2)
        collective = to_collective_basis(rho.matrix, B, labels)

        def checks_and_reductions():
            from_collective_basis(collective, B)
            DensityMatrix.from_matrix(cfg.layout(), rho.matrix)
            atomic_reduction(rho)
            field_statistics(partial_trace(rho, keep=(0,)))
            residual_norm(gen, rho)

        peak, _ = _peak_bytes(checks_and_reductions)
        # the field state is dense by design: (dim / 4)^2 entries, dim^2 bytes;
        # one complex dim x dim array would be 16 dim^2
        assert peak < 4 * dim ** 2

    def test_capped_probe_fails_holding_only_the_dense_hamiltonian(self):
        cfg = self.CAPPED
        dim = cfg.layout().dim
        gen = build_generator(cfg)
        rho0 = initial_state(cfg, "eg", field="thermal")
        peak, error = _peak_bytes(lambda: steady_state(gen, rho0))
        assert isinstance(error, ConvergenceError) and "dimension 771 too large" in str(error)
        # the rotated H is handed to the solver dense, for the benchmark's tracer
        assert peak < 16 * dim ** 2 + dim ** 2
