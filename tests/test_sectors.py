import math

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings, strategies as st

from drivencavity import dynamics
from drivencavity.hilbert import (
    DensityMatrix,
    HilbertLayout,
    LayoutError,
    collective_basis,
    to_collective_basis,
    trace_distance,
)
from drivencavity.model import (
    Generator,
    SystemConfig,
    build_generator,
    initial_state,
)
from drivencavity.dynamics import (
    ConvergenceError,
    coherence_block_gap,
    liouvillian_matrix_raw,
    steady_state,
    steady_state_raw,
)
from drivencavity.scenarios import empty_cavity_field, scenario_steady_state
from reference import (
    SIGMA_MINUS,
    SIGMA_Z,
    as_dense,
    collective_lowering,
    collective_raising,
    collective_sz,
    dense_generator,
    embed,
)

SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
TWO_ATOM_BASIS, TWO_ATOM_LABELS = collective_basis(2)


def to_two_atom_basis(m):
    return to_collective_basis(m, TWO_ATOM_BASIS, TWO_ATOM_LABELS).toarray()


def _singlet_mask(dim):
    singlet = np.arange(dim) % 4 == 3
    return singlet[:, None] != singlet[None, :]


def coherence_block(gen):
    """The generator's sparse block on the triplet-singlet coherences |T, n><S, m|."""
    h, diss = dense_generator(gen)
    L = liouvillian_matrix_raw(to_two_atom_basis(h), [(to_two_atom_basis(a), r) for a, r in diss])
    singlet = np.arange(h.shape[0]) % 4 == 3
    idx = np.flatnonzero(np.outer(~singlet, singlet).ravel())
    return L[idx][:, idx]


def dense_coherence_block(gen):
    """The dense singlet-triplet block, built from the dense operators (reference)."""
    eye = np.eye(gen.layout.fock_dim if gen.layout.has_field else 1)
    vt, vs = np.kron(eye, TWO_ATOM_BASIS[:, :3]), np.kron(eye, TWO_ATOM_BASIS[:, 3:])
    h, jumps = dense_generator(gen)
    ht, hs = vt.conj().T @ h @ vt, vs.conj().T @ h @ vs
    et, es = np.eye(ht.shape[0]), np.eye(hs.shape[0])
    block = -1j * (np.kron(ht, es) - np.kron(et, hs.T))
    for jump, rate in jumps:
        at = vt.conj().T @ jump @ vt
        a_s = vs.conj().T @ jump @ vs
        block = block + rate * (2.0 * np.kron(at, a_s.conj()) - np.kron(at.conj().T @ at, es)
                                - np.kron(et, (a_s.conj().T @ a_s).T))
    return block


def dense_projection(gen, rho0):
    """(rho0 projected onto ker L along range L, kernel dim, smallest |eigenvalue|
    outside the kernel) from the whole dense L: the reference of the block solves.

    The kernel bases are the leading Schur vectors of L and of L^H with the
    eigenvalues below 1e-8 ordered first, orthonormal even where eig's
    vectors of a repeated eigenvalue come out parallel.
    """
    L = liouvillian_matrix_raw(*dense_generator(gen)).toarray()
    (T, R, k), (_, Lam, k_left) = (la.schur(M, output="complex", sort=lambda x: abs(x) < 1e-8)
                                   for M in (L, L.conj().T))
    assert k == k_left
    R, Lam = R[:, :k], Lam[:, :k]
    x = R @ np.linalg.solve(Lam.conj().T @ R, Lam.conj().T @ as_dense(rho0).ravel())
    d = gen.layout.dim
    return x.reshape(d, d), k, float(np.min(np.abs(np.diag(T)[k:])))


def product_basis_steady_state(gen, rho0, residual_tol=1e-9):
    """(state, route) of `steady_state_raw` on the unrotated matrices: the
    independent reference of the collective-basis solve."""
    m, _, _, route = steady_state_raw(*dense_generator(gen), rho0=rho0.matrix,
                                      residual_tol=residual_tol)
    return DensityMatrix.from_matrix(gen.layout, m, pos_tol=max(1e-9, 100.0 * residual_tol)), route


def _broken(term):
    """A driven two-atom generator plus a term on atom 1 alone: a jump or sigma_z."""
    gen = build_generator(SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=3))
    lay = gen.layout
    h, jumps = dense_generator(gen)  # atom 1 is factor 1, after the field
    if term == "jump":
        return Generator(h, jumps + [(embed(SIGMA_MINUS, 1, lay), 0.5)], lay)
    return Generator(h + 0.3 * embed(SIGMA_Z, 1, lay), jumps, lay)


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
        for op in (collective_raising(layout), collective_lowering(layout),
                   collective_sz(layout)):
            assert np.max(np.abs((B.conj().T @ op @ B)[mixed]), initial=0.0) < 1e-14

    @pytest.mark.parametrize("n_atoms, sizes", [(3, [4, 2, 2]), (4, [5, 3, 3, 3, 1, 1])])
    def test_multiplet_sizes(self, n_atoms, sizes):
        assert np.bincount(collective_basis(n_atoms)[1]).tolist() == sizes

    def test_four_atoms_match_dense_biorthogonal_projection(self):
        # a 14-dimensional kernel: one dimension per ordered pair of equal-J copies
        cfg = SystemConfig(n_atoms=4, g=0.1, epsilon=0.5, frame="effective-atomic")
        gen = build_generator(cfg)
        rho0 = initial_state(cfg, "eggg")
        x, kernel_dim, gap = dense_projection(gen, rho0)
        assert kernel_dim == 14 and gap > 1e-3
        res = steady_state(gen, rho0, residual_tol=1e-12)
        assert np.max(np.abs(as_dense(res.rho_ss) - x)) < 1e-10


@st.composite
def steady_cases(draw):
    """A generator in any frame at N = 2 or 3, and a product or superposition start.

    g >= 0.2 and a drive or occupancy of 0 or >= 0.2 keep the decaying modes
    clear of the kernel, which the test checks.
    """
    frame = draw(st.sampled_from(["lab-rotating", "displaced", "effective-atomic", "thermal"]))
    n_atoms = draw(st.sampled_from([2, 3]))
    drive = draw(st.one_of(st.just(0.0), st.floats(0.2, 1.0)))
    cfg = SystemConfig(n_atoms=n_atoms, g=draw(st.floats(0.2, 1.0)),
                       epsilon=0.0 if frame == "thermal" else drive,
                       n_th=drive if frame == "thermal" else 0.0,
                       n_max=draw(st.sampled_from([2, 3])), frame=frame)
    if draw(st.booleans()):
        atoms = "".join(draw(st.lists(st.sampled_from("eg"), min_size=n_atoms,
                                      max_size=n_atoms)))
    else:
        parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 ** (n_atoms + 1),
                              max_size=2 ** (n_atoms + 1)))
        atoms = np.array(parts[::2]) + 1j * np.array(parts[1::2])
        if np.linalg.norm(atoms) < 0.1:
            atoms = np.eye(atoms.size)[0]
    return cfg, atoms


class TestSteadyStateProperty:
    @settings(max_examples=10, deadline=None)
    @given(steady_cases())
    def test_matches_dense_projection_and_product_basis(self, case):
        cfg, atoms = case
        gen = build_generator(cfg)
        rho0 = initial_state(cfg, atoms, field=empty_cavity_field(cfg))
        dense, _, gap = dense_projection(gen, rho0)
        assert gap > 1e-4  # the kernel is unambiguous
        m = as_dense(steady_state(gen, rho0).rho_ss)
        assert np.max(np.abs(m - dense)) < 1e-9
        try:
            reference = as_dense(product_basis_steady_state(gen, rho0)[0])
        except ConvergenceError:
            # the product basis's kernel search fails on some undriven N = 3 starts
            # (test_product_basis_kernel_search_fails_on_undriven_three_atoms)
            reference = dense
        assert np.max(np.abs(m - reference)) < 1e-9
        assert abs(np.trace(m) - 1.0) < 1e-12
        assert np.max(np.abs(m - m.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(m)[0] > -1e-9

    @pytest.mark.parametrize("g, atoms", [
        (0.59375, "ge"),
        (0.5913, np.array([0.0, 1.0, 0.0, 1.0]) / math.sqrt(2.0)),  # (|eg> + |gg>) / sqrt 2
        (0.59375, np.array([0.0, 0.0, 1.0, 1.0]) / math.sqrt(2.0)),  # (|ge> + |gg>) / sqrt 2
        (0.625, "ee"),
    ], ids=["ge", "eg+gg", "ge+gg", "ee"])
    def test_repeated_kernel_eigenvalue(self, g, atoms):
        # undriven two-atom decay has an exactly repeated kernel eigenvalue, for
        # which eig returned parallel vectors: the product basis's dense kernel
        # bases went wrong on the first three, the whole-L reference on the last
        cfg = SystemConfig(n_atoms=2, g=g, n_max=2, frame="effective-atomic")
        gen = build_generator(cfg)
        rho0 = initial_state(cfg, atoms)
        dense, _, gap = dense_projection(gen, rho0)
        assert gap > 1e-4
        m = as_dense(steady_state(gen, rho0).rho_ss)
        product, route = product_basis_steady_state(gen, rho0)
        assert route == "kernel-projection"
        assert np.max(np.abs(m - dense)) < 1e-9
        assert np.max(np.abs(as_dense(product) - dense)) < 1e-9
        assert product.min_eigenvalue > -1e-9

    @pytest.mark.parametrize("cfg, atoms", [
        (SystemConfig(n_atoms=2, g=1e-3, epsilon=1.0, n_max=2), "eg"),
        (SystemConfig(n_atoms=2, g=1e-3, epsilon=1.0, n_max=2),
         np.array([0.0, 0.0, 1.0, 1.0]) / math.sqrt(2.0)),  # (|ge> + |gg>) / sqrt 2
        (SystemConfig(n_atoms=3, g=1e-3, epsilon=1.0, n_max=2), "egg"),
        (SystemConfig(n_atoms=3, g=1e-3, epsilon=1.0, n_max=2, frame="lab-rotating"), "egg"),
        (SystemConfig(n_atoms=2, g=1e-3, n_th=0.5, n_max=2, frame="thermal"), "eg"),
        (SystemConfig(n_atoms=3, g=1e-3, n_th=0.5, n_max=2, frame="thermal"), "ggg"),
        (SystemConfig(n_atoms=3, g=1e-3, n_th=0.5, n_max=2, frame="thermal"), "egg"),
    ], ids=["displaced-eg", "displaced-ge+gg", "displaced-egg", "lab-egg", "thermal-eg",
            "thermal-ggg", "thermal-egg"])
    def test_weak_coupling_kernel_projection(self, cfg, atoms):
        # at g = 1e-3 the slowest decaying mode lies 3.8e-7 to 1.4e-6 from the
        # kernel: a kernel projection must still resolve it (the gate of
        # ROADMAP item 22, whose fixed-pole resolvent iteration failed here)
        gen = build_generator(cfg)
        rho0 = initial_state(cfg, atoms, field=empty_cavity_field(cfg))
        dense, _, gap = dense_projection(gen, rho0)
        assert gap > 1e-7
        m = as_dense(steady_state(gen, rho0).rho_ss)
        product, route = product_basis_steady_state(gen, rho0)
        assert route == "kernel-projection"
        assert np.max(np.abs(as_dense(product) - m)) < 1e-10
        assert np.max(np.abs(as_dense(product) - dense)) < 1e-9
        assert np.max(np.abs(m - dense)) < 1e-9

    @pytest.mark.xfail(raises=ConvergenceError, strict=True,
                       reason="ARPACK does not converge on the product basis's kernel")
    def test_product_basis_kernel_search_fails_on_undriven_three_atoms(self):
        # the collective solve of this case matches the dense projection; the
        # unrotated one searches one 24-state block's kernel by shift-invert
        # ARPACK, which stops with 7 of 8 modes converged
        cfg = SystemConfig(n_atoms=3, g=0.75, n_max=2, frame="lab-rotating")
        product_basis_steady_state(build_generator(cfg), initial_state(cfg, "ggg"))


class TestRestrict:
    @pytest.mark.parametrize("cfg", [
        SystemConfig(n_atoms=2, g=0.3, epsilon=0.8, delta=0.2, delta_atom=0.1, n_max=4),
        SystemConfig(n_atoms=2, g=0.2, n_th=0.6, delta_atom=0.1, n_max=4, frame="thermal"),
    ], ids=["driven", "thermal"])
    def test_matches_dense_compression(self, cfg):
        gen = build_generator(cfg)
        w = np.kron(np.eye(cfg.n_max + 1), TWO_ATOM_BASIS)
        mixed = _singlet_mask(gen.layout.dim)
        h, jumps = dense_generator(gen)
        for m in [h] + [jump for jump, _ in jumps]:
            rotated = to_two_atom_basis(m)
            assert np.max(np.abs(rotated - w.conj().T @ m @ w)) < 1e-14
            # collective operators never mix singlet and triplet: exactly zero there
            assert not np.any(rotated[mixed])

    def test_single_atom_jump_breaks_split(self):
        gen = _broken("jump")
        rotated = to_two_atom_basis(gen.jumps[-1][0].toarray())
        assert np.max(np.abs(rotated[_singlet_mask(gen.layout.dim)])) > 0.1

    def test_single_atom_hamiltonian_term_breaks_split(self):
        gen = _broken("sigma-z")
        rotated = to_two_atom_basis(gen.H.toarray())
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
    def test_brackets_the_dense_inverse_norm(self, cfg):
        # the gap is 1 / (Higham's estimate of ||L^-1||_1), a lower estimate of
        # the norm, and 1 / ||L^-1||_1 bounds every |eigenvalue| from below
        gen = build_generator(cfg)
        block = dense_coherence_block(gen)
        exact = np.abs(np.linalg.inv(block)).sum(axis=0).max()
        est = 1.0 / coherence_block_gap(coherence_block(gen))
        assert exact / 10 <= est <= exact * (1 + 1e-8)
        assert 1.0 / exact <= np.min(np.abs(np.linalg.eigvals(block)))

    def test_undriven_zero_temperature_block_has_zero_mode(self):
        cfg = SystemConfig(n_atoms=2, g=0.1, n_th=0.0, n_max=4, frame="thermal")
        assert coherence_block_gap(coherence_block(build_generator(cfg))) == 0.0

    def test_large_driven_block_is_checked(self):
        # 5043 coherences: no size cap leaves the gap unchecked
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=40)
        block = coherence_block(build_generator(cfg))
        assert block.shape[0] == 3 * 41 * 41
        assert coherence_block_gap(block) > 0.0

    def test_hermitian_partner_blocks_share_one_gap(self, monkeypatch):
        # a fig2 point: the blocks of |a><b| and |b><a| have complex-conjugate
        # spectra, so ten coherence blocks (five partner pairs) need five gaps
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=4)
        gen = build_generator(cfg)
        rho0 = initial_state(cfg, "eg", field=empty_cavity_field(cfg))
        sizes = []
        monkeypatch.setattr(dynamics, "coherence_block_gap",
                            lambda L: sizes.append(L.shape[0]) or coherence_block_gap(L))
        res = steady_state(gen, rho0, residual_tol=1e-12)
        assert sorted(sizes) == [1, 2, 3, 4, 75]
        # every block decision stands: rho0 projected onto ker L along range L
        x, kernel_dim, gap = dense_projection(gen, rho0)
        assert kernel_dim == res.kernel_dim == 2 and gap > 1e-4
        assert np.max(np.abs(as_dense(res.rho_ss) - x)) < 1e-10


def _solve(cfg, atoms, field="vacuum", **kw):
    gen = build_generator(cfg)
    rho0 = initial_state(cfg, atoms, field=field)
    return gen, rho0, steady_state(gen, rho0, **kw)


class TestTwoAtomSteadyState:
    def test_rejects_mismatched_layout(self):
        gen = build_generator(SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=4))
        rho0 = initial_state(SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=3), "eg")
        with pytest.raises(LayoutError):
            steady_state(gen, rho0)

    # the oracle is the product basis's kernel projection: the t -> infinity
    # limit of integrating rho0, found without the triplet/singlet basis
    def test_matches_long_time_integration_driven(self):
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=4)
        gen, rho0, fast = _solve(cfg, "eg", residual_tol=1e-10)
        slow, route = product_basis_steady_state(gen, rho0, residual_tol=1e-8)
        assert route == "kernel-projection"
        assert trace_distance(fast.rho_ss, slow) < 1e-5

    def test_matches_long_time_integration_thermal(self):
        cfg = SystemConfig(n_atoms=2, g=0.2, n_th=0.4, n_max=8, frame="thermal")
        gen, rho0, fast = _solve(cfg, "gg", field="thermal", residual_tol=1e-10)
        slow, route = product_basis_steady_state(gen, rho0, residual_tol=1e-8)
        assert route == "kernel-projection"
        assert trace_distance(fast.rho_ss, slow) < 1e-5

    def test_conserved_weight_appears_in_steady_state(self):
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=3)
        w = 0.37
        amps = (math.sqrt(w) * SINGLET
                + math.sqrt(1.0 - w) * np.array([0.0, 0.0, 0.0, 1.0]))
        rho = _solve(cfg, amps)[2].rho_ss
        nf = cfg.n_max + 1
        proj = np.kron(np.eye(nf), np.outer(SINGLET, SINGLET.conj()))
        assert abs(np.trace(proj @ as_dense(rho)).real - w) < 1e-9

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
        projected, route = product_basis_steady_state(gen, rho0)
        assert route == "kernel-projection"
        assert np.max(np.abs(as_dense(res.rho_ss) - as_dense(projected))) < 1e-12
        assert trace_distance(res.rho_ss, rho0) < 1e-12

    def test_dark_coherence_is_projected(self):
        # (|gg> + |S>) / sqrt(2) with an empty cavity is stationary without drive:
        # its |gg><S| coherence block has a zero mode, so it is projected, not dropped
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=0.0, n_max=3)
        gen, rho0, res = _solve(cfg, (SINGLET + np.array([0.0, 0.0, 0.0, 1.0])) / math.sqrt(2.0))
        assert res.method == "kernel-projection"
        assert np.max(np.abs(as_dense(res.rho_ss)
                             - as_dense(product_basis_steady_state(gen, rho0)[0]))) < 1e-12
        assert trace_distance(res.rho_ss, rho0) < 1e-12

    @pytest.mark.parametrize("term", ["jump", "sigma-z"])
    def test_non_collective_generator_solved_exactly(self, term):
        # a term on one atom couples singlet and triplet: the basis does not
        # split, and the solve matches the product basis
        gen = _broken(term)
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=3)
        rho0 = initial_state(cfg, "eg")
        res = steady_state(gen, rho0, residual_tol=1e-10)
        direct = product_basis_steady_state(gen, rho0, residual_tol=1e-10)[0]
        assert np.max(np.abs(as_dense(res.rho_ss) - as_dense(direct))) < 1e-10

    def test_blocks_below_cap_solve_where_the_full_space_fails(self, monkeypatch):
        # the triplet block has 3 (n_max + 1) states, the product basis 4 (n_max + 1)
        cfg = SystemConfig(n_atoms=2, g=0.1, n_th=1.0, n_max=12, frame="thermal")
        expected = scenario_steady_state(cfg, "eg")
        monkeypatch.setattr(dynamics, "SPARSE_NULLSPACE_MAX_DIM", 3 * (cfg.n_max + 1))
        assert np.max(np.abs(as_dense(scenario_steady_state(cfg, "eg")) - as_dense(expected))) < 1e-14
        gen = build_generator(cfg)
        with pytest.raises(ConvergenceError, match="too large"):
            steady_state_raw(*dense_generator(gen),
                             rho0=initial_state(cfg, "eg", field="thermal").matrix)

    def test_effective_atomic_frame_supported(self):
        cfg = SystemConfig(n_atoms=2, g=0.05, epsilon=2.0, frame="effective-atomic")
        rho = _solve(cfg, "eg")[2].rho_ss
        assert rho.layout.factors == (2, 2)
        assert np.isclose(np.trace(as_dense(rho)).real, 1.0)
