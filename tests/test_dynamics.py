import functools
import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
from scipy.linalg import expm

from drivencavity.hilbert import (
    DensityMatrix,
    annihilation,
    collective_basis,
    embed,
    to_collective_basis,
    trace_distance,
)
from drivencavity.model import (
    Generator,
    SystemConfig,
    apply_generator,
    build_generator,
    derived_params,
    initial_state,
    thermal_field_matrix,
)
from drivencavity import dynamics
from drivencavity.scenarios import empty_cavity_field
from drivencavity.dynamics import (
    ConvergenceError,
    DegenerateSteadyStateError,
    _components,
    _gen_matrices,
    _hermitian_coordinates,
    _invariant_support,
    _reachable_pairs,
    evolve,
    evolve_spectral,
    liouvillian_matrix_raw,
    propagate,
    residual_norm,
    steady_state,
    steady_state_raw,
)

rng = np.random.default_rng(23)


def number_op(cfg):
    lay = cfg.layout()
    a = annihilation(cfg.n_max)
    return embed(a.dag() @ a, lay.field_factor(), lay)


def mean_photons(cfg, states):
    nop = number_op(cfg).matrix
    return np.array([np.trace(nop @ s.matrix).real for s in states])


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
        h = build_generator(cfg).hamiltonian
        gen = Generator(h, ())
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
        L = liouvillian_matrix_raw(*_gen_matrices(gen)).toarray()
        d = gen.layout.dim
        exact = [DensityMatrix.from_matrix(cfg.layout(), (expm(L * tk) @ rho0.matrix.ravel())
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
            assert len(refs) == 1 and refs[0]() is None
        finally:
            gc.enable()

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
        V = _invariant_support(*_gen_matrices(gen), rho0.matrix)
        assert V.shape[1] == support_dim
        assert np.max(np.abs(V.conj().T @ V - np.eye(support_dim))) < 1e-12
        L = liouvillian_matrix_raw(*_gen_matrices(gen)).toarray()
        t_grid = [0.0, 1.0, 5.0, 50.0]
        traj = evolve_spectral(gen, rho0, t_grid)
        assert traj.stats.support_dim == support_dim
        assert 1.0 <= traj.stats.eigvec_cond < np.inf
        for t, state in zip(t_grid, traj.states):
            exact = (expm(L * t) @ rho0.matrix.ravel()).reshape(state.matrix.shape)
            assert np.max(np.abs(state.matrix - exact)) < 1e-12

    @pytest.mark.parametrize("n_max", [12, 16])
    def test_support_closure_terminates_for_coherent_start(self, n_max):
        # the displaced-frame empty cavity |-alpha> has weight on every Fock
        # level: directions found late in the closure have small residuals
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=n_max)
        h, diss = _gen_matrices(build_generator(cfg))
        rho0 = initial_state(cfg, "gg", field=empty_cavity_field(cfg))
        V = _invariant_support(h, diss, rho0.matrix)
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
        assert _invariant_support(*_gen_matrices(gen), rho0.matrix).shape[1] == 68
        traj = propagate(gen, rho0, [0.0, 0.5], tol=1e-9)
        assert traj.stats.n_rhs_evals > 0
        # evolve_spectral itself refuses the support before assembling anything dense
        with pytest.raises(ValueError, match="SPECTRAL_MAX_SUPPORT"):
            evolve_spectral(gen, rho0, [0.0, 0.5])


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
        assert len(gen.dissipators) == (2 if cfg.frame == "thermal" else 1)
        assert gen.layout.has_field == (cfg.frame != "effective-atomic")
        d = gen.layout.dim
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = a @ a.conj().T
        m /= np.trace(m)
        direct = apply_generator(gen, m).matrix.ravel()
        L = liouvillian_matrix_raw(*_gen_matrices(gen))
        assert np.max(np.abs(L @ m.ravel() - direct)) < 1e-12

    @pytest.mark.parametrize("cfg", FRAME_CONFIGS, ids=lambda cfg: cfg.frame)
    def test_sparse_residual_matches_dense_generator(self, cfg):
        gen = build_generator(cfg)
        d = gen.layout.dim
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))  # not Hermitian
        direct = float(np.max(np.abs(apply_generator(gen, m).matrix)))
        assert abs(residual_norm(gen, m) - direct) <= 1e-14 * direct


def _collective_problem(cfg, atoms):
    """(H, jumps, rho0) in the collective basis, as CSR, CSR and dense."""
    gen = build_generator(cfg)
    rho0 = initial_state(cfg, atoms, field=empty_cavity_field(cfg))
    B, labels = collective_basis(cfg.n_atoms)
    H = sp.csr_matrix(to_collective_basis(gen.hamiltonian.matrix, B, labels))
    jumps = [(sp.csr_matrix(to_collective_basis(A.matrix, B, labels)), rate)
             for A, rate in gen.dissipators]
    return H, jumps, to_collective_basis(rho0.matrix, B, labels)


def _starts(n):
    """A product start e g^(N-1) and a superposition of two single excitations."""
    single = np.zeros(2**n, dtype=complex)
    single[2 ** (n - 1) - 1] = 1.0   # e g ... g
    single[2 ** (n - 1) + 2 ** (n - 2) - 1] = 1j    # g e g ... g
    return ["e" + "g" * (n - 1), single]


def _assert_restriction_exact(H, jumps, rho0):
    rows, cols = np.nonzero(rho0)
    pairs = _reachable_pairs(H, jumps, rows, cols)
    d = H.shape[0]
    full = liouvillian_matrix_raw(H, jumps)  # sp.kron on the whole space
    restricted = liouvillian_matrix_raw(H, jumps, pairs)
    sliced = full[pairs][:, pairs]
    # the same entries, stored in the same order: products sum the same way
    assert restricted.has_canonical_format and sliced.has_canonical_format
    for got, want in zip((restricted.indptr, restricted.indices, restricted.data),
                         (sliced.indptr, sliced.indices, sliced.data)):
        assert np.array_equal(got, want)
    # nothing links the pairs to the rest of the space, in either direction
    rest = np.setdiff1d(np.arange(d * d), pairs)
    assert full[pairs][:, rest].nnz == 0 and full[rest][:, pairs].nnz == 0
    # so the blocks vec(rho0) touches are the same, in the same order
    seeds = rows * d + cols
    blocks = _components(restricted, np.searchsorted(pairs, seeds))
    expected = _components(full, seeds)
    assert len(blocks) == len(expected)
    assert all(np.array_equal(pairs[b], e) for b, e in zip(blocks, expected))
    return pairs


class TestReachablePairs:
    """L built on the pairs vec(rho0) reaches is the whole L sliced to them."""

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

    @pytest.mark.parametrize("atoms, unknowns, whole", [("eg", 1860, 219024), ("gg", 1045, 123201)])
    def test_thermal_unknowns_follow_the_touched_blocks(self, atoms, unknowns, whole):
        # the triplet and singlet blocks and their coherences at matching
        # excitation number, in place of every pair of kept states
        cfg = SystemConfig(n_atoms=2, g=0.1, n_th=3.0, n_max=116, frame="thermal")
        H, jumps, rho0 = _collective_problem(cfg, atoms)
        rows, cols = np.nonzero(rho0)
        kept = sum(b.size for b in _components(abs(H) + sum(abs(A) for A, _ in jumps), rows))
        assert kept**2 == whole
        assert _reachable_pairs(H, jumps, rows, cols).size == unknowns


class TestHermitianCoordinates:
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_unitary_onto_hermitian_matrices(self, k):
        T = _hermitian_coordinates(k).toarray()
        assert T.shape == (k * k, k * k)
        assert np.max(np.abs(T.conj().T @ T - np.eye(k * k))) < 1e-15
        x = (T @ rng.normal(size=k * k)).reshape(k, k)
        assert np.max(np.abs(x - x.conj().T)) < 1e-15

    @pytest.mark.parametrize("cfg", FRAME_CONFIGS, ids=lambda cfg: cfg.frame)
    def test_liouvillian_is_real(self, cfg):
        L = liouvillian_matrix_raw(*_gen_matrices(build_generator(cfg))).toarray()
        T = _hermitian_coordinates(cfg.layout().dim).toarray()
        assert np.max(np.abs((T.conj().T @ L @ T).imag)) <= 1e-14 * np.max(np.abs(L))


class TestSteadyState:
    def test_driven_cavity_amplitude(self):
        # decoupled driven cavity: <a>_ss = -i eps / (kappa + i delta)
        cfg = SystemConfig(n_atoms=1, g=0.0, epsilon=0.5, delta=0.7, n_max=10,
                           frame="lab-rotating")
        gen = build_generator(cfg)
        res = steady_state(gen, rho0=initial_state(cfg, "g"), residual_tol=1e-10)
        lay = cfg.layout()
        a = embed(annihilation(cfg.n_max), lay.field_factor(), lay).matrix
        a_ss = np.trace(a @ res.rho_ss.matrix)
        expected = -1j * 0.5 / (1.0 + 0.7j)
        assert abs(a_ss - expected) < 1e-6
        assert res.residual < 1e-10

    def test_thermal_occupancy_sparse_route(self):
        # field-only thermal contact: <n>_ss = n_th (dim 41 exercises the sparse solve)
        n_th, n_max = 0.8, 40
        a = annihilation(n_max).matrix
        h = np.zeros((n_max + 1, n_max + 1), dtype=complex)
        m, res, kernel_dim, used = steady_state_raw(
            h, [(a, n_th + 1.0), (a.conj().T, n_th)], residual_tol=1e-9)
        assert used == "nullspace" and kernel_dim == 1
        n_ss = np.sum(np.arange(n_max + 1) * np.diag(m).real)
        assert abs(n_ss - n_th) < 1e-8
        assert np.max(np.abs(m - thermal_field_matrix(n_th, n_max))) < 1e-9

    def test_nullspace_matches_long_time_integration(self):
        cfg = SystemConfig(n_atoms=1, g=0.3, n_th=0.5, n_max=10, frame="thermal")
        gen = build_generator(cfg)
        rho0 = initial_state(cfg, "e", field="vacuum")
        direct = steady_state(gen, residual_tol=1e-9)
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
        gen = build_generator(cfg)
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(gen)

    def test_degenerate_fallback_preserves_singlet_weight(self):
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=0.0, n_max=2)
        gen = build_generator(cfg)
        singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
        rho0 = initial_state(cfg, singlet)
        m, _, _, route = steady_state_raw(*_gen_matrices(gen), rho0=rho0.matrix,
                                          residual_tol=1e-9)
        assert route == "kernel-projection"
        # the dark singlet (with empty cavity) never decays
        assert trace_distance(DensityMatrix.from_matrix(gen.layout, m, pos_tol=1e-7), rho0) < 1e-7

    def test_rotated_degenerate_manifold_detected(self):
        # a random unitary frame hides the exact zeros that make the LU factor of
        # the undriven two-atom generator exactly singular: only the condition
        # estimate can tell the two-dimensional kernel apart
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=0.0, n_max=10)
        h, diss = _gen_matrices(build_generator(cfg))
        d = h.shape[0]
        assert d == 44
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        h = q @ h @ q.conj().T
        diss = [(q @ a @ q.conj().T, r) for a, r in diss]
        with pytest.raises(DegenerateSteadyStateError):
            steady_state_raw(h, diss)

    @pytest.mark.parametrize("sector", ["single-atom", "triplet", "singlet"])
    def test_nullspace_matches_dense_kernel(self, sector):
        cfg = SystemConfig(n_atoms=1 if sector == "single-atom" else 2,
                           g=0.3, epsilon=0.8, delta=0.2, n_max=5)
        gen = build_generator(cfg)
        h, diss = _gen_matrices(gen)
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
        m, res, _, used = steady_state_raw(h, diss, residual_tol=1e-10)
        assert used == "nullspace"
        assert np.max(np.abs(m - dense)) < 1e-12

    def test_residual_norm_zero_on_fixed_point(self):
        cfg = SystemConfig(n_atoms=1, g=0.2, epsilon=0.4, n_max=6)
        gen = build_generator(cfg)
        res = steady_state(gen, residual_tol=1e-10)
        assert residual_norm(gen, res.rho_ss) < 1e-10

    def test_above_cap_fails_even_with_initial_state(self, monkeypatch):
        # no route is unbounded: a system above the cap fails instead of integrating
        monkeypatch.setattr(dynamics, "SPARSE_NULLSPACE_MAX_DIM", 8)
        cfg = SystemConfig(n_atoms=1, g=0.2, epsilon=0.4, n_max=6)
        with pytest.raises(ConvergenceError, match="too large"):
            steady_state(build_generator(cfg), rho0=initial_state(cfg, "e"))


@functools.cache
def _dense_kernel(cfg):
    """Right and left kernel bases of the generator's dense superoperator (scipy eig)."""
    L = liouvillian_matrix_raw(*_gen_matrices(build_generator(cfg))).toarray()
    vals, left, right = la.eig(L, left=True, right=True)
    kernel = np.abs(vals) < 1e-8
    assert np.min(np.abs(vals[~kernel])) > 1e-3  # a clear gap: the kernel is unambiguous
    return right[:, kernel], left[:, kernel]


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
            *_gen_matrices(gen), rho0=rho0.matrix, residual_tol=1e-12)
        assert route == "kernel-projection"
        R, Lam = _dense_kernel(cfg)
        assert product_kernel_dim == R.shape[1] == kernel_dim
        x = R @ np.linalg.solve(Lam.conj().T @ R, Lam.conj().T @ rho0.matrix.ravel())
        d = cfg.layout().dim
        assert np.max(np.abs(m - x.reshape(d, d))) < 1e-10
        # the collective basis splits the kernel over the blocks rho0 touches
        collective = steady_state(gen, rho0, residual_tol=1e-12)
        assert collective.kernel_dim <= kernel_dim
        assert np.max(np.abs(collective.rho_ss.matrix - x.reshape(d, d))) < 1e-10

    @pytest.mark.parametrize("cfg, atoms", [(_N3, "egg"), (_DETUNED_DARK, "eg")],
                             ids=["N3-egg", "thermal-detuned"])
    def test_matches_late_time_evolution(self, cfg, atoms):
        gen = build_generator(cfg)
        rho0 = initial_state(cfg, atoms, field=empty_cavity_field(cfg))
        late = evolve(gen, rho0, [0.0, 3000.0], tol=1e-11).states[-1]
        m = steady_state_raw(*_gen_matrices(gen), rho0=rho0.matrix)[0]
        assert np.max(np.abs(m - late.matrix)) < 1e-10
        assert np.max(np.abs(steady_state(gen, rho0).rho_ss.matrix - late.matrix)) < 1e-10
