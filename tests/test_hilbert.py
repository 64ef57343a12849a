import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from drivencavity.hilbert import (
    DensityMatrix,
    HilbertLayout,
    LayoutError,
    StateError,
    annihilation,
    coherent_vector,
    collective_basis,
    fock_vector,
    from_collective_basis,
    max_asymmetry,
    min_eigenvalue,
    nonzero_pattern,
    partial_trace,
    to_collective_basis,
    trace_distance,
)
from reference import dag, dense_partial_trace, dense_sandwich, displacement

rng = np.random.default_rng(7)


def random_density(dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m)


class TestLayout:
    def test_factor_order_field_first(self):
        lay = HilbertLayout(atom_count=2, fock_dim=5)
        assert lay.factors == (5, 2, 2)
        assert lay.dim == 20

    def test_atoms_only(self):
        lay = HilbertLayout(atom_count=3)
        assert lay.factors == (2, 2, 2)

    def test_invalid(self):
        with pytest.raises(LayoutError):
            HilbertLayout(atom_count=-1)
        with pytest.raises(LayoutError):
            HilbertLayout(atom_count=0, fock_dim=0)

    def test_operator_dimension_must_match(self):
        with pytest.raises(LayoutError):
            DensityMatrix.from_matrix(HilbertLayout(atom_count=2), np.eye(3) / 3)


class TestAnnihilation:
    def test_lowers_one_photon(self):
        a = annihilation(3)
        assert np.allclose(a @ fock_vector(4, 1), fock_vector(4, 0))

    def test_kills_vacuum(self):
        a = annihilation(3)
        assert np.max(np.abs(a @ fock_vector(4, 0))) == 0

    def test_number_eigenvalue(self):
        a = annihilation(5)
        n = dag(a) @ a
        v = fock_vector(6, 2)
        assert np.isclose(v.conj() @ n @ v, 2.0)

    def test_commutator_below_truncation(self):
        a = annihilation(10)
        comm = a @ dag(a) - dag(a) @ a
        assert np.allclose(comm[:10, :10], np.eye(10))
        assert np.isclose(comm[10, 10], -10)  # truncation artifact on the top level

    def test_rejects_tiny_truncation(self):
        with pytest.raises(ValueError):
            annihilation(0)


class TestDisplacement:
    def test_generates_coherent_state(self):
        # coherent_vector against the displaced vacuum D(alpha)|0>, and <a> = alpha
        alpha = 0.6 + 0.8j
        vac = displacement(alpha, 30)[:, 0]
        expected = coherent_vector(alpha, 31)
        assert np.max(np.abs(vac - expected)) < 1e-10
        a = annihilation(30)
        assert abs(vac.conj() @ a @ vac - alpha) < 1e-6


class TestPartialTrace:
    def test_bell_state_reduction_is_maximally_mixed(self):
        lay = HilbertLayout(atom_count=2)
        bell = DensityMatrix.pure(lay, [1, 0, 0, 1])
        red = partial_trace(bell, keep=(0,))
        assert np.allclose(red.matrix, np.eye(2) / 2)

    def test_product_state_factorizes(self):
        lay = HilbertLayout(atom_count=2)
        ra, rb = random_density(2), random_density(2)
        rho = DensityMatrix.from_matrix(lay, np.kron(ra, rb))
        assert np.allclose(partial_trace(rho, keep=(0,)).matrix, ra)
        assert np.allclose(partial_trace(rho, keep=(1,)).matrix, rb)

    def test_trace_preserved(self):
        lay = HilbertLayout(atom_count=1, fock_dim=4)
        rho = DensityMatrix.from_matrix(lay, random_density(8))
        red = partial_trace(rho, keep=(1,))
        assert np.isclose(np.trace(red.matrix), 1.0)

    def test_order_independence_against_index_sum_oracle(self):
        lay = HilbertLayout(atom_count=2, fock_dim=3)
        m = random_density(12)

        # oracle: direct index summation over both traced factors at once
        # (final reduction is onto atom 2: sum over field index i and atom-1 index a)
        t = m.reshape(3, 2, 2, 3, 2, 2)
        direct = np.einsum("iabiac->bc", t)

        step1 = dense_partial_trace(m, lay, keep=(1, 2))  # drop field first
        step1 = dense_partial_trace(step1, HilbertLayout(atom_count=2), keep=(1,))
        step2 = dense_partial_trace(m, lay, keep=(0, 2))  # drop atom 1 first
        step2 = dense_partial_trace(step2, HilbertLayout(atom_count=1, fock_dim=3), keep=(1,))
        assert np.max(np.abs(step1 - direct)) < 1e-12
        assert np.max(np.abs(step2 - direct)) < 1e-12
        rho = DensityMatrix.from_matrix(lay, m)
        for state in (rho, DensityMatrix.from_matrix(lay, sp.csr_matrix(m))):
            assert np.max(np.abs(partial_trace(state, keep=(2,)).matrix - direct)) < 1e-12

    def test_empty_keep_rejected(self):
        lay = HilbertLayout(atom_count=2)
        rho = DensityMatrix.from_matrix(lay, np.eye(4) / 4)
        with pytest.raises(LayoutError):
            partial_trace(rho, keep=())


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(StateError):
            DensityMatrix.from_matrix(HilbertLayout(atom_count=1), [[1, 1e-3], [0, 0]])

    def test_rejects_wrong_trace(self):
        with pytest.raises(StateError):
            DensityMatrix.from_matrix(HilbertLayout(atom_count=1), np.eye(2))

    def test_rejects_negative_state(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(StateError):
            DensityMatrix.from_matrix(HilbertLayout(atom_count=1), m)

    @pytest.mark.parametrize("m", [
        np.full((2, 2), np.nan),
        np.array([[0.5, np.nan], [0.0, 0.5]]),
        np.diag([0.5, 0.5, np.nan, 0.0]),
    ], ids=["all-nan", "one-nan-off-diagonal", "one-nan-diagonal"])
    def test_rejects_nan(self, m):
        # a NaN fails every comparison: each check is written to fail on it
        lay = HilbertLayout(atom_count=1 if m.shape[0] == 2 else 2)
        with pytest.raises(StateError):
            DensityMatrix.from_matrix(lay, m)

    def test_random_states_accepted(self):
        for _ in range(20):
            DensityMatrix.from_matrix(HilbertLayout(atom_count=2), random_density(4))


def _random_block(r, size, negative):
    """U diag(w) U^dag with random unitary U; one eigenvalue below zero when negative."""
    q, _ = np.linalg.qr(r.normal(size=(size, size)) + 1j * r.normal(size=(size, size)))
    w = r.uniform(0.0, 1.0, size)
    if negative:
        w[0] = -r.uniform(1e-6, 1.0)
    return (q * w) @ q.conj().T


def _permuted_direct_sum(r, blocks, n_zero):
    """The blocks on the diagonal, n_zero zero rows and columns, indices shuffled."""
    dim = sum(b.shape[0] for b in blocks) + n_zero
    m = np.zeros((dim, dim), dtype=complex)
    start = 0
    for b in blocks:
        m[start:start + b.shape[0], start:start + b.shape[0]] = b
        start += b.shape[0]
    perm = r.permutation(dim)
    return m[np.ix_(perm, perm)]


class TestMinEigenvalue:
    @settings(max_examples=200, deadline=None)
    @given(sizes=st.lists(st.integers(1, 5), min_size=1, max_size=6),
           negative=st.lists(st.booleans(), min_size=6, max_size=6),
           n_zero=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_matches_full_spectrum_on_permuted_direct_sums(self, sizes, negative, n_zero, seed):
        r = np.random.default_rng(seed)
        m = _permuted_direct_sum(r, [_random_block(r, s, neg) for s, neg in zip(sizes, negative)],
                                 n_zero)
        assert abs(min_eigenvalue(m) - np.linalg.eigvalsh(m).min()) <= 1e-12 * np.max(np.abs(m))

    def test_diagonal(self):
        m = np.diag([0.5, -0.2, 0.7, 0.0]).astype(complex)
        assert min_eigenvalue(m) == -0.2
        assert min_eigenvalue(np.diag([0.5, 0.2, 0.3]).astype(complex)) == 0.2

    def test_as_many_entries_as_rows_is_not_diagonal(self):
        m = np.array([[0, 0.5, 0], [0.5, 0, 0], [0, 0, 1]], dtype=complex)
        assert min_eigenvalue(m) == pytest.approx(-0.5, abs=1e-15)

    def test_dense(self):
        m = _random_block(np.random.default_rng(3), 9, negative=True)
        assert np.all(m != 0)
        assert abs(min_eigenvalue(m) - np.linalg.eigvalsh(m).min()) <= 1e-12 * np.max(np.abs(m))

    def test_zero_row_with_tiny_column_is_kept(self):
        # eigvalsh reads the lower triangle: column 0 couples index 0 to 1 and 2
        m = np.zeros((3, 3), dtype=complex)
        m[1, 0] = m[2, 0] = 1e-12
        expected = np.linalg.eigvalsh(m).min()
        assert expected < -1e-12
        assert abs(min_eigenvalue(m) - expected) <= 1e-24

    def test_all_zero(self):
        assert min_eigenvalue(np.zeros((4, 4), dtype=complex)) == 0.0

    def test_negative_eigenvalue_in_one_small_block_of_a_large_state_is_rejected(self):
        r = np.random.default_rng(5)
        q, _ = np.linalg.qr(r.normal(size=(4, 4)) + 1j * r.normal(size=(4, 4)))
        block = (q * [0.4, 0.3, 0.2, -1e-6]) @ q.conj().T
        rest = np.full(5, (0.1 + 1e-6) / 5)
        layout = HilbertLayout(atom_count=2, fock_dim=257)
        m = _permuted_direct_sum(r, [block] + [np.array([[p]]) for p in rest],
                                 layout.dim - 9)
        assert m.shape == (1028, 1028)
        assert abs(min_eigenvalue(m) + 1e-6) < 1e-12
        with pytest.raises(StateError, match="eigenvalue"):
            DensityMatrix.from_matrix(layout, m)


def _dense_min_eigenvalue(m):
    """`min_eigenvalue` from dense masks of m, the reference its pattern path must equal."""
    if m.all():
        return float(np.linalg.eigvalsh(m)[0])
    diagonal = np.diagonal(m)
    if np.count_nonzero(m) == np.count_nonzero(diagonal):
        return float(np.min(diagonal.real))
    nz = m != 0
    live = np.flatnonzero(nz.any(axis=0) | nz.any(axis=1))
    if live.size < m.shape[0]:
        return min(0.0, _dense_min_eigenvalue(m[np.ix_(live, live)]))
    _, labels = connected_components(sp.csr_matrix(nz), directed=False)
    sizes = np.bincount(labels)[labels]
    lo = np.inf
    for s in np.unique(sizes):
        members = np.flatnonzero(sizes == s)
        idx = members[np.argsort(labels[members], kind="stable")].reshape(-1, s)
        lo = min(lo, float(np.min(np.linalg.eigvalsh(m[idx[:, :, None], idx[:, None, :]]))))
    return lo


def _sparse_state(kind):
    """A 12 x 12 state of each shape the pattern path meets, not Hermitian to round-off."""
    r = np.random.default_rng(13)
    if kind == "dense":
        m = _random_block(r, 12, negative=False)
    elif kind == "diagonal":
        m = np.diag(r.uniform(0.1, 1.0, 12) + 1e-14j * r.normal(size=12))
    else:
        sizes, n_zero = ((3, 1, 4, 2, 2), 0) if kind == "permuted-blocks" else ((3, 1, 4, 2), 2)
        m = _permuted_direct_sum(r, [_random_block(r, s, negative=False) for s in sizes], n_zero)
    return m / np.trace(m).real


class TestPatternChecks:
    """A state with a zero entry is checked on its nonzero pattern, with the
    values of the dense formulas, bit for bit."""

    @pytest.mark.parametrize("kind", ["permuted-blocks", "zero-row-and-column", "diagonal",
                                      "dense"])
    def test_equal_the_dense_formulas(self, kind):
        m = _sparse_state(kind)
        pattern = nonzero_pattern(m)
        assert (pattern is None) == (kind == "dense")
        if pattern is not None:
            assert all(np.array_equal(p, q) for p, q in zip(pattern, np.nonzero(m)))
        herm = float(np.max(np.abs(m - m.conj().T)))
        assert herm > 0.0  # round-off asymmetry: the max is compared, not two zeros
        lo = _dense_min_eigenvalue(m)
        for held in (m, sp.csr_matrix(m)):
            assert max_asymmetry(held) == herm
            assert min_eigenvalue(held) == lo
            rho = DensityMatrix.from_matrix(HilbertLayout(atom_count=2, fock_dim=3), held)
            assert rho.min_eigenvalue == lo

    def test_entry_without_partner_is_rejected(self):
        m = _sparse_state("permuted-blocks")
        i, j = np.argwhere((m == 0) & (m.T == 0))[1]
        m[i, j] = 1e-6
        with pytest.raises(StateError, match="not Hermitian: max asymmetry 1.000e-06"):
            DensityMatrix.from_matrix(HilbertLayout(atom_count=2, fock_dim=3), m)

    def test_negative_block_is_rejected(self):
        r = np.random.default_rng(17)
        m = _permuted_direct_sum(r, [_random_block(r, 3, negative=True), np.diag([5.0, 1.0])], 7)
        m /= np.trace(m).real
        assert np.linalg.eigvalsh(m)[0] < -1e-9
        with pytest.raises(StateError, match="eigenvalue"):
            DensityMatrix.from_matrix(HilbertLayout(atom_count=2, fock_dim=3), m)


def test_trace_distance_orthogonal_pure_states():
    lay = HilbertLayout(atom_count=1)
    up = DensityMatrix.pure(lay, [1, 0])
    dn = DensityMatrix.pure(lay, [0, 1])
    assert np.isclose(trace_distance(up, dn), 1.0)
    assert np.isclose(trace_distance(up, up), 0.0)


def _sparse_product_state(r, n_atoms, fock_dim, density):
    """A random Hermitian positive state on field (x) atoms, nonzero on a random
    symmetric set of field-level pairs, each a x a block itself partly zero,
    with a round-off asymmetry of 1e-14 on its off-diagonal entries."""
    a = 2 ** n_atoms
    d = fock_dim * a
    pick = r.random((fock_dim, fock_dim)) < density
    pick |= pick.T
    np.fill_diagonal(pick, r.random(fock_dim) < 0.7)
    pick[0, 0] = True
    m = np.zeros((d, d), dtype=complex)
    for i, j in zip(*np.nonzero(np.triu(pick))):
        block = r.normal(size=(a, a)) + 1j * r.normal(size=(a, a))
        block[r.random((a, a)) < 0.3] = 0.0
        m[i * a:(i + 1) * a, j * a:(j + 1) * a] = block
    m = m + m.conj().T
    m = m + np.diag(np.abs(m).sum(axis=1) + (np.abs(m).sum(axis=1) > 0))  # diagonally dominant
    noise = 1e-14 * (m != 0) * r.normal(size=(d, d))
    np.fill_diagonal(noise, 0.0)
    m = m + noise
    return m / np.trace(m).real


class TestCsrStates:
    """A CSR state is checked, rotated and reduced with the values of the dense
    formulas, entry for entry, on both sides of numpy's pairwise-sum block (8)."""

    @settings(max_examples=40, deadline=None)
    @given(n_atoms=st.integers(1, 3), fock_dim=st.sampled_from([2, 3, 7, 8, 9, 17, 20]),
           density=st.floats(0.0, 0.6), seed=st.integers(0, 2**32 - 1))
    def test_equal_the_dense_formulas(self, n_atoms, fock_dim, density, seed):
        r = np.random.default_rng(seed)
        m = _sparse_product_state(r, n_atoms, fock_dim, density)
        layout = HilbertLayout(atom_count=n_atoms, fock_dim=fock_dim)
        held = DensityMatrix.from_matrix(layout, sp.csr_matrix(m))
        reference = DensityMatrix.from_matrix(layout, m)
        assert sp.issparse(held.matrix) and np.array_equal(held.matrix.toarray(), m)
        assert max_asymmetry(held.matrix) == max_asymmetry(m)
        assert held.min_eigenvalue == reference.min_eigenvalue
        for size in range(1, layout.n_factors + 1):
            for keep in itertools.combinations(range(layout.n_factors), size):
                expected = dense_partial_trace(m, layout, keep)
                assert np.array_equal(partial_trace(held, keep).matrix, expected), keep
                assert np.array_equal(partial_trace(reference, keep).matrix, expected), keep
        B, labels = collective_basis(n_atoms)
        collective = to_collective_basis(sp.csr_matrix(m), B, labels)
        back = from_collective_basis(collective, B)
        assert back.has_canonical_format and back.data.all()
        assert np.array_equal(back.toarray(), dense_sandwich(B, collective.toarray(), B.conj().T))

    def test_is_held_as_a_read_only_canonical_copy(self):
        m = sp.csr_matrix((np.array([0.5, 0.0, 0.5], dtype=complex), [0, 1, 2], [0, 1, 2, 3, 3]),
                          shape=(4, 4))  # a stored zero at (1, 1)
        rho = DensityMatrix.from_matrix(HilbertLayout(atom_count=1, fock_dim=2), m)
        assert rho.matrix is not m and rho.matrix.has_canonical_format
        assert rho.matrix.nnz == 2
        with pytest.raises(ValueError):
            rho.matrix.data[0] = 1.0

    def test_rejects_an_entry_without_partner(self):
        m = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        m[0, 3] = 1e-6
        with pytest.raises(StateError, match="not Hermitian: max asymmetry 1.000e-06"):
            DensityMatrix.from_matrix(HilbertLayout(atom_count=1, fock_dim=2), sp.csr_matrix(m))
