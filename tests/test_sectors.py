import math

import numpy as np
import pytest
import scipy.linalg as la

from drivencavity import dynamics
from drivencavity.hilbert import (
    HilbertLayout,
    LayoutError,
    embed,
    sigma_minus,
    sigma_z,
    trace_distance,
)
from drivencavity.model import (
    Generator,
    SystemConfig,
    build_generator,
    collective_raising,
    collective_sz,
    initial_state,
)
from drivencavity.dynamics import (
    ConvergenceError,
    _gen_matrices,
    coherence_block_gap,
    liouvillian_matrix_raw,
    steady_state,
)
from drivencavity.scenarios import scenario_steady_state
from drivencavity.sectors import collective_basis, collective_steady_state, to_collective_basis

SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
TWO_ATOM_BASIS, TWO_ATOM_LABELS = collective_basis(2)


def to_two_atom_basis(m):
    return to_collective_basis(m, TWO_ATOM_BASIS, TWO_ATOM_LABELS)


def _singlet_mask(dim):
    singlet = np.arange(dim) % 4 == 3
    return singlet[:, None] != singlet[None, :]


def coherence_block(gen):
    """The generator's sparse block on the triplet-singlet coherences |T, n><S, m|."""
    h, diss = _gen_matrices(gen)
    L = liouvillian_matrix_raw(to_two_atom_basis(h), [(to_two_atom_basis(a), r) for a, r in diss])
    singlet = np.arange(h.shape[0]) % 4 == 3
    idx = np.flatnonzero(np.outer(~singlet, singlet).ravel())
    return L[idx][:, idx]


def dense_gap(gen):
    """Smallest |eigenvalue| of the dense singlet-triplet block (reference)."""
    eye = np.eye(gen.layout.fock_dim if gen.layout.has_field else 1)
    vt, vs = np.kron(eye, TWO_ATOM_BASIS[:, :3]), np.kron(eye, TWO_ATOM_BASIS[:, 3:])
    h = gen.hamiltonian.matrix
    ht, hs = vt.conj().T @ h @ vt, vs.conj().T @ h @ vs
    et, es = np.eye(ht.shape[0]), np.eye(hs.shape[0])
    block = -1j * (np.kron(ht, es) - np.kron(et, hs.T))
    for jump, rate in gen.dissipators:
        at = vt.conj().T @ jump.matrix @ vt
        a_s = vs.conj().T @ jump.matrix @ vs
        block = block + rate * (2.0 * np.kron(at, a_s.conj()) - np.kron(at.conj().T @ at, es)
                                - np.kron(et, (a_s.conj().T @ a_s).T))
    return float(np.min(np.abs(np.linalg.eigvals(block))))


def _broken(term):
    """A driven two-atom generator plus a term on atom 1 alone: a jump or sigma_z."""
    gen = build_generator(SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=3))
    lay = gen.layout
    if term == "jump":
        return Generator(gen.hamiltonian,
                         gen.dissipators + ((embed(sigma_minus(), lay.atom_factor(1), lay), 0.5),))
    return Generator(gen.hamiltonian + 0.3 * embed(sigma_z(), lay.atom_factor(1), lay),
                     gen.dissipators)


class TestCollectiveBasis:
    def test_two_atoms_is_triplet_singlet_basis(self):
        # columns |T+>, |T0>, |T->, |S> in the atomic basis |ee>, |eg>, |ge>, |gg>,
        # entry for entry: the N = 2 steady states do not move by a bit
        s = 1.0 / np.sqrt(2.0)
        expected = np.array([[1, 0, 0, 0], [0, s, 0, s], [0, s, 0, -s], [0, 0, 1, 0]],
                            dtype=complex)
        assert np.array_equal(TWO_ATOM_BASIS, expected)
        assert TWO_ATOM_LABELS.tolist() == [0, 0, 0, 1]

    @pytest.mark.parametrize("n_atoms", [1, 2, 3, 4, 5])
    def test_orthonormal_and_invariant_under_collective_operators(self, n_atoms):
        B, labels = collective_basis(n_atoms)
        assert np.max(np.abs(B.conj().T @ B - np.eye(2 ** n_atoms))) < 1e-14
        layout = HilbertLayout(atom_count=n_atoms)
        mixed = labels[:, None] != labels[None, :]
        for op in (collective_raising(layout), collective_raising(layout).dag(),
                   collective_sz(layout)):
            assert np.max(np.abs((B.conj().T @ op.matrix @ B)[mixed]), initial=0.0) < 1e-14

    @pytest.mark.parametrize("n_atoms, sizes", [(3, [4, 2, 2]), (4, [5, 3, 3, 3, 1, 1])])
    def test_multiplet_sizes(self, n_atoms, sizes):
        assert np.bincount(collective_basis(n_atoms)[1]).tolist() == sizes

    def test_four_atoms_match_dense_biorthogonal_projection(self):
        # a 14-dimensional kernel: one dimension per ordered pair of equal-J copies
        cfg = SystemConfig(n_atoms=4, g=0.1, epsilon=0.5, frame="effective-atomic")
        gen = build_generator(cfg)
        rho0 = initial_state(cfg, "eggg")
        vals, left, right = la.eig(liouvillian_matrix_raw(*_gen_matrices(gen)).toarray(),
                                   left=True, right=True)
        kernel = np.abs(vals) < 1e-8
        assert kernel.sum() == 14 and np.min(np.abs(vals[~kernel])) > 1e-3
        R, Lam = right[:, kernel], left[:, kernel]
        x = R @ np.linalg.solve(Lam.conj().T @ R, Lam.conj().T @ rho0.matrix.ravel())
        res = collective_steady_state(gen, rho0, residual_tol=1e-12)
        assert np.max(np.abs(res.rho_ss.matrix - x.reshape(16, 16))) < 1e-10


class TestRestrict:
    @pytest.mark.parametrize("cfg", [
        SystemConfig(n_atoms=2, g=0.3, epsilon=0.8, delta=0.2, delta_atom=0.1, n_max=4),
        SystemConfig(n_atoms=2, g=0.2, n_th=0.6, delta_atom=0.1, n_max=4, frame="thermal"),
    ], ids=["driven", "thermal"])
    def test_matches_dense_compression(self, cfg):
        gen = build_generator(cfg)
        w = np.kron(np.eye(cfg.n_max + 1), TWO_ATOM_BASIS)
        mixed = _singlet_mask(gen.layout.dim)
        for m in [gen.hamiltonian.matrix] + [jump.matrix for jump, _ in gen.dissipators]:
            rotated = to_two_atom_basis(m)
            assert np.max(np.abs(rotated - w.conj().T @ m @ w)) < 1e-14
            # collective operators never mix singlet and triplet: exactly zero there
            assert not np.any(rotated[mixed])

    def test_single_atom_jump_breaks_split(self):
        gen = _broken("jump")
        rotated = to_two_atom_basis(gen.dissipators[-1][0].matrix)
        assert np.max(np.abs(rotated[_singlet_mask(gen.layout.dim)])) > 0.1

    def test_single_atom_hamiltonian_term_breaks_split(self):
        gen = _broken("sigma-z")
        rotated = to_two_atom_basis(gen.hamiltonian.matrix)
        assert np.max(np.abs(rotated[_singlet_mask(gen.layout.dim)])) > 0.1


class TestCoherenceBlockGap:
    def test_driven_generator_has_positive_gap(self):
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=3)
        assert coherence_block_gap(coherence_block(build_generator(cfg))) > 1e-3

    def test_thermal_generator_has_positive_gap(self):
        cfg = SystemConfig(n_atoms=2, g=0.1, n_th=1.0, n_max=4, frame="thermal")
        assert coherence_block_gap(coherence_block(build_generator(cfg))) > 1e-3

    @pytest.mark.parametrize("cfg", [
        SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=6),
        SystemConfig(n_atoms=2, g=0.1, epsilon=10.0, n_max=4),
        SystemConfig(n_atoms=2, g=0.1, n_th=1.0, n_max=6, frame="thermal"),
        SystemConfig(n_atoms=2, g=0.05, epsilon=2.0, frame="effective-atomic"),
    ], ids=["driven", "strong-drive", "thermal", "effective-atomic"])
    def test_matches_dense_spectrum(self, cfg):
        gen = build_generator(cfg)
        gap, reference = coherence_block_gap(coherence_block(gen)), dense_gap(gen)
        assert abs(gap - reference) < 1e-6 * reference

    def test_undriven_zero_temperature_block_has_zero_mode(self):
        cfg = SystemConfig(n_atoms=2, g=0.1, n_th=0.0, n_max=4, frame="thermal")
        assert coherence_block_gap(coherence_block(build_generator(cfg))) == 0.0

    def test_large_driven_block_is_checked(self):
        # 5043 coherences: no size cap leaves the gap unchecked
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=40)
        block = coherence_block(build_generator(cfg))
        assert block.shape[0] == 3 * 41 * 41
        assert coherence_block_gap(block) > 0.0


def _solve(cfg, atoms, field="vacuum", **kw):
    gen = build_generator(cfg)
    rho0 = initial_state(cfg, atoms, field=field)
    return gen, rho0, collective_steady_state(gen, rho0, **kw)


class TestTwoAtomSteadyState:
    def test_rejects_mismatched_layout(self):
        gen = build_generator(SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=4))
        rho0 = initial_state(SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=3), "eg")
        with pytest.raises(LayoutError):
            collective_steady_state(gen, rho0)

    # the oracle is the product basis's kernel projection: the t -> infinity
    # limit of integrating rho0, found without the triplet/singlet basis
    def test_matches_long_time_integration_driven(self):
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=4)
        gen, rho0, fast = _solve(cfg, "eg", residual_tol=1e-10)
        slow = steady_state(gen, rho0, residual_tol=1e-8)
        assert slow.method == "kernel-projection"
        assert trace_distance(fast.rho_ss, slow.rho_ss) < 1e-5

    def test_matches_long_time_integration_thermal(self):
        cfg = SystemConfig(n_atoms=2, g=0.2, n_th=0.4, n_max=8, frame="thermal")
        gen, rho0, fast = _solve(cfg, "gg", field="thermal", residual_tol=1e-10)
        slow = steady_state(gen, rho0, residual_tol=1e-8)
        assert slow.method == "kernel-projection"
        assert trace_distance(fast.rho_ss, slow.rho_ss) < 1e-5

    def test_conserved_weight_appears_in_steady_state(self):
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=3)
        w = 0.37
        amps = (math.sqrt(w) * SINGLET
                + math.sqrt(1.0 - w) * np.array([0.0, 0.0, 0.0, 1.0]))
        rho = _solve(cfg, amps)[2].rho_ss
        nf = cfg.n_max + 1
        proj = np.kron(np.eye(nf), np.outer(SINGLET, SINGLET.conj()))
        assert abs(np.trace(proj @ rho.matrix).real - w) < 1e-9

    def test_pure_singlet_is_dark(self):
        # the drive only couples through the collective raising operator, which
        # annihilates the singlet: atoms stay frozen, field relaxes to vacuum
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=3)
        rho = _solve(cfg, SINGLET, field=2)[2].rho_ss
        expected = initial_state(cfg, SINGLET, field="vacuum")
        assert trace_distance(rho, expected) < 1e-9

    def test_undriven_singlet_start_gives_projected_state(self):
        # with no drive both |gg, vacuum> and the singlet are dark; the singlet
        # block alone still has a unique fixed point
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=0.0, n_max=3)
        gen, rho0, res = _solve(cfg, SINGLET)
        assert res.method == "nullspace"
        projected = steady_state(gen, rho0)
        assert projected.method == "kernel-projection"
        assert np.max(np.abs(res.rho_ss.matrix - projected.rho_ss.matrix)) < 1e-12
        assert trace_distance(res.rho_ss, rho0) < 1e-12

    def test_dark_coherence_is_projected(self):
        # (|gg> + |S>) / sqrt(2) with an empty cavity is stationary without drive:
        # its |gg><S| coherence block has a zero mode, so it is projected, not dropped
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=0.0, n_max=3)
        gen, rho0, res = _solve(cfg, (SINGLET + np.array([0.0, 0.0, 0.0, 1.0])) / math.sqrt(2.0))
        assert res.method == "kernel-projection"
        assert np.max(np.abs(res.rho_ss.matrix - steady_state(gen, rho0).rho_ss.matrix)) < 1e-12
        assert trace_distance(res.rho_ss, rho0) < 1e-12

    @pytest.mark.parametrize("term", ["jump", "sigma-z"])
    def test_non_collective_generator_solved_exactly(self, term):
        # a term on one atom couples singlet and triplet: the basis does not
        # split, and the solve matches the product basis
        gen = _broken(term)
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=3)
        rho0 = initial_state(cfg, "eg")
        res = collective_steady_state(gen, rho0, residual_tol=1e-10)
        direct = steady_state(gen, rho0, residual_tol=1e-10)
        assert np.max(np.abs(res.rho_ss.matrix - direct.rho_ss.matrix)) < 1e-10

    def test_blocks_below_cap_solve_where_the_full_space_fails(self, monkeypatch):
        # the triplet block has 3 (n_max + 1) states, the product basis 4 (n_max + 1)
        cfg = SystemConfig(n_atoms=2, g=0.1, n_th=1.0, n_max=12, frame="thermal")
        expected = scenario_steady_state(cfg, "eg")
        monkeypatch.setattr(dynamics, "SPARSE_NULLSPACE_MAX_DIM", 3 * (cfg.n_max + 1))
        assert np.max(np.abs(scenario_steady_state(cfg, "eg").matrix - expected.matrix)) < 1e-14
        gen = build_generator(cfg)
        with pytest.raises(ConvergenceError, match="too large"):
            steady_state(gen, initial_state(cfg, "eg", field="thermal"))

    def test_effective_atomic_frame_supported(self):
        cfg = SystemConfig(n_atoms=2, g=0.05, epsilon=2.0, frame="effective-atomic")
        rho = _solve(cfg, "eg")[2].rho_ss
        assert rho.layout.factors == (2, 2)
        assert np.isclose(np.trace(rho.matrix).real, 1.0)
