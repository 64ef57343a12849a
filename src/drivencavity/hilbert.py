"""Layouts and states on finite tensor-product Hilbert spaces.

Spaces are composed of an optional bosonic (Fock-truncated) factor followed
by a number of two-level atoms.  The factor order is fixed: field first,
then atoms 1..N.  An operator is a plain matrix: a Lindblad generator
(`model.Generator`) keeps its operators as CSR, and the ladder operator is a
dense complex array.  A state is held in the form it is made in: a product
initial state and a steady state as canonical CSR, a propagated state and a
reduced (pair, field or atom-only) state as an array.  `to_collective_basis`
and `from_collective_basis` rotate a matrix block by block, as CSR.

In the collective (Dicke) basis of the atoms (`collective_basis`) every
operator built from S_+/-, S_z is block diagonal (Shammah et al., PRA 98,
063815, 2018).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

TOL_HERM = 1e-10
TOL_TRACE = 1e-9
TOL_POS = 1e-9


class LayoutError(ValueError):
    """A layout is invalid, or a matrix does not match its layout."""


class StateError(ValueError):
    """A density matrix violates Hermiticity, normalization or positivity."""


@dataclass(frozen=True)
class HilbertLayout:
    """Tensor-factor structure: field factor first (if any), then atoms 1..N."""

    atom_count: int
    fock_dim: int = 0  # 0 means no field factor

    def __post_init__(self):
        if self.atom_count < 0:
            raise LayoutError(f"atom_count must be >= 0, got {self.atom_count}")
        if self.fock_dim < 0:
            raise LayoutError(f"fock_dim must be >= 0, got {self.fock_dim}")
        if self.atom_count == 0 and self.fock_dim == 0:
            raise LayoutError("layout needs at least one factor")

    @property
    def has_field(self) -> bool:
        return self.fock_dim > 0

    @property
    def factors(self) -> tuple[int, ...]:
        base = (self.fock_dim,) if self.has_field else ()
        return base + (2,) * self.atom_count

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    @property
    def dim(self) -> int:
        d = 1
        for f in self.factors:
            d *= f
        return d


def _as_matrix(entries, dim: int):
    """A read-only copy of entries: an array, or a sparse matrix as canonical
    CSR (sorted indices, no duplicates, no stored zeros)."""
    if sp.issparse(entries):
        m = entries.tocsr()
        m = sp.csr_matrix((m.data.astype(complex), m.indices.copy(), m.indptr.copy()),
                          shape=m.shape)
    else:
        m = np.array(entries, dtype=complex)
    if m.shape != (dim, dim):
        raise LayoutError(f"matrix shape {m.shape} does not match layout dimension {dim}")
    if sp.issparse(m):
        m.sum_duplicates()
        if not m.data.all():
            m.eliminate_zeros()
        for a in (m.data, m.indices, m.indptr):
            a.flags.writeable = False
    else:
        m.flags.writeable = False
    return m


def annihilation(n_max: int) -> np.ndarray:
    """Truncated ladder operator: a|n> = sqrt(n)|n-1>, n = 0..n_max, dense."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    dim = n_max + 1
    m = np.zeros((dim, dim), dtype=complex)
    n = np.arange(1, dim)
    m[n - 1, n] = np.sqrt(n)
    return m


def fock_vector(fock_dim: int, n: int) -> np.ndarray:
    if not 0 <= n < fock_dim:
        raise ValueError(f"Fock index {n} out of range for dimension {fock_dim}")
    v = np.zeros(fock_dim, dtype=complex)
    v[n] = 1.0
    return v


def coherent_vector(alpha: complex, fock_dim: int) -> np.ndarray:
    """Truncated coherent state, renormalized on the truncated space."""
    n = np.arange(fock_dim)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, fock_dim)))))
    amps = np.exp(-0.5 * abs(alpha) ** 2 - 0.5 * log_fact) * alpha**n
    return amps / np.linalg.norm(amps)


@lru_cache(maxsize=None)
def collective_basis(n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """(B, labels): the columns of B are |J, M, copy> in the product basis of
    n_atoms atoms, and labels[c] is the multiplet (copy) index of column c.
    Made once per n_atoms; both arrays are read-only.

    A multiplet starts at a computational vector with the vectors already
    found projected out, taken by level (number of excited atoms) from
    all-excited down and within a level by index, and runs down from M = J by
    J- steps.  Columns are normalised only at the end, so for two atoms B is
    |T+>, |T0>, |T->, |S> entry for entry.
    """
    states = np.arange(2 ** n_atoms)
    lower = np.zeros((states.size, states.size))   # J-: each atom's |e> = 0 bit set to |g> = 1
    for bit in 1 << np.arange(n_atoms):
        excited_here = states[states & bit == 0]
        lower[excited_here | bit, excited_here] = 1.0
    excited = n_atoms - np.array([bin(c).count("1") for c in states])
    found, sizes = [], []   # unnormalised columns; 2J + 1 per multiplet
    for c in np.argsort(-excited, kind="stable"):
        v = np.eye(excited.size)[c]
        for u in found:
            v = v - (u @ v) / (u @ u) * u
        if np.linalg.norm(v) < 1e-8:  # c lies in the span already found
            continue
        sizes.append(2 * excited[c] - n_atoms + 1)
        found.append(v)
        for _ in range(sizes[-1] - 1):
            found.append(lower @ found[-1])
    B = np.array([u / np.linalg.norm(u) for u in found], dtype=complex).T
    labels = np.repeat(np.arange(len(sizes)), sizes)
    B.flags.writeable = labels.flags.writeable = False
    return B, labels


def to_array(m) -> np.ndarray:
    """The entries of m as a dense array: a sparse m densified, an array as given."""
    return m.toarray() if sp.issparse(m) else m


def dense_if_full(m):
    """m as it is read fastest: a sparse m with every entry stored as its
    array, which is no larger; anything else as given."""
    return m.toarray() if sp.issparse(m) and m.nnz == m.shape[0] * m.shape[1] else m


def _blocks(M, a: int, diagonal: bool = False):
    """(keys, X) of the square M, sparse or dense, cut into a x a blocks: the
    blocks that hold a stored entry, stacked in X (k x a x a) by ascending
    key I nb + J of block row I and block column J (nb = dim / a).  With
    `diagonal`, only the blocks with I = J."""
    M = M if sp.isspmatrix_csr(M) else sp.csr_matrix(M)
    if not M.has_canonical_format:
        M = M.copy()
        M.sum_duplicates()
    d = M.shape[0]
    nb = d // a
    rb, ri = np.divmod(np.repeat(np.arange(d), np.diff(M.indptr)), a)
    cb, ci = np.divmod(M.indices, a)
    v = M.data
    if diagonal:
        on = rb == cb
        rb, ri, cb, ci, v = rb[on], ri[on], cb[on], ci[on], v[on]
    keys, block = np.unique(rb * nb + cb, return_inverse=True)
    X = np.zeros((keys.size, a, a), dtype=complex)
    X[block, ri, ci] = v
    return keys, X


def _from_blocks(keys, X: np.ndarray, nb: int, drop=None) -> sp.csr_matrix:
    """The canonical CSR matrix of nb x nb blocks that holds the stacked blocks
    X at the ascending keys I nb + J (`_blocks`) and zeros elsewhere.  Exact
    zeros are not stored, nor the entries for which drop(row, col, value)
    holds.

    X's entries run block by block, each row by row, so a stable sort by row
    alone leaves each row's columns ascending.
    """
    a = X.shape[1]
    d = nb * a
    i, j = np.divmod(np.arange(a * a), a)
    row, col = (keys // nb * a)[:, None] + i, (keys % nb * a)[:, None] + j
    order = np.argsort(row.ravel(), kind="stable")
    row, col, val = row.ravel()[order], col.ravel()[order], X.reshape(-1)[order]
    keep = val != 0
    if drop is not None:
        keep &= ~drop(row, col, val)
    return sp.csr_matrix((val[keep], col[keep], np.searchsorted(row[keep], np.arange(d + 1))),
                         shape=(d, d))


def to_collective_basis(M, B: np.ndarray, labels: np.ndarray) -> sp.csr_matrix:
    """W^dag M W for W = 1_field (x) B, from `collective_basis`, as CSR; M sparse or dense.

    M is cut into its a x a blocks (a = 2^N), one per pair of field levels,
    and each block that holds an entry becomes B^dag M_block B.  Entries
    between different multiplets of at most 1e-12 max(1, max|M|) are
    round-off of the rotation and set to exactly zero, so they do not merge
    the blocks; larger ones are kept.
    """
    a = B.shape[0]
    keys, X = _blocks(M, a)
    floor = 1e-12 * max(1.0, np.abs(X).max(initial=0.0))

    def drop(row, col, val):
        return (np.abs(val) <= floor) & (labels[row % a] != labels[col % a])

    return _from_blocks(keys, B.conj().T @ X @ B, M.shape[0] // a, drop)


def from_collective_basis(M, B: np.ndarray) -> sp.csr_matrix:
    """W M W^dag for W = 1_field (x) B, the inverse of `to_collective_basis`,
    as CSR: each a x a block of M that holds an entry becomes B M_block B^dag,
    the products the dense (1_field (x) B) M (1_field (x) B^dag) forms for it,
    entry for entry."""
    keys, X = _blocks(M, B.shape[0])
    return _from_blocks(keys, B @ X @ B.conj().T, M.shape[0] // B.shape[0])


def nonzero_pattern(m: np.ndarray):
    """(rows, cols) of m's nonzero entries in row-major order, as `np.nonzero`
    gives them, or None when m has no zero entry."""
    if m.all():
        return None
    return np.divmod(np.flatnonzero(m != 0), m.shape[1])  # faster than np.nonzero on complex


def _entries(m):
    """(rows, cols, values) of the nonzero entries of m, a dense array or a
    canonical CSR matrix, in row-major order; None when m has no zero entry."""
    if sp.issparse(m):
        return np.repeat(np.arange(m.shape[0]), np.diff(m.indptr)), m.indices, m.data
    pattern = nonzero_pattern(m)
    return None if pattern is None else (*pattern, m[pattern])


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of the Hermitian m, dense or canonical CSR, from the
    blocks of its exact-zero pattern.

    A matrix with no zero entry gets one `eigvalsh`, a diagonal one its
    diagonal's minimum.  Otherwise an index whose row and column are both all
    zero adds the eigenvalue 0 and is dropped, and each connected component
    of the pattern (m != 0) | (m != 0).T of the rest gets its own `eigvalsh`,
    batched over components of equal size: a permuted direct sum has the
    union of its blocks' spectra.  The symmetric pattern also holds the lower
    triangle that `eigvalsh` reads.  The entries are read once (`_entries`);
    each component's block is scattered from them, with no dense pass over m.
    """
    m = dense_if_full(m)
    return _min_eigenvalue(m, _entries(m))


def _min_eigenvalue(m, entries) -> float:
    """`min_eigenvalue` of m, whose `_entries` are `entries`."""
    if entries is None:
        return float(np.linalg.eigvalsh(m)[0])
    return _pattern_min_eigenvalue(m.shape[0], *entries)


def _pattern_min_eigenvalue(n: int, rows, cols, vals) -> float:
    """`min_eigenvalue` of the n x n matrix with the nonzero entries vals at
    (rows, cols), row-major, and zeros elsewhere."""
    if rows.size == n * n:
        full = np.zeros((n, n), dtype=complex)
        full[rows, cols] = vals
        return float(np.linalg.eigvalsh(full)[0])
    if np.array_equal(rows, cols):  # a zero diagonal entry is an eigenvalue 0
        return float(np.min(vals.real, initial=0.0 if rows.size < n else np.inf))
    live = np.flatnonzero(np.bincount(rows, minlength=n) + np.bincount(cols, minlength=n))
    if live.size < n:
        position = np.empty(n, dtype=rows.dtype)
        position[live] = np.arange(live.size)
        return min(0.0, _pattern_min_eigenvalue(live.size, position[rows], position[cols], vals))
    # an undirected search takes every entry as an edge both ways; the entries
    # are row-major, so the pattern's CSR arrays are at hand
    pattern = sp.csr_matrix((np.ones(rows.size), cols,
                             np.searchsorted(rows, np.arange(n + 1))), shape=(n, n))
    _, labels = connected_components(pattern, directed=False)
    sizes = np.bincount(labels)[labels]
    component, position = np.empty(n, dtype=int), np.empty(n, dtype=int)
    lo = np.inf
    for s in np.unique(sizes):
        members = np.flatnonzero(sizes == s)
        idx = members[np.argsort(labels[members], kind="stable")].reshape(-1, s)
        component[idx] = np.arange(idx.shape[0])[:, None]
        position[idx] = np.arange(s)
        sel = sizes[rows] == s  # an entry lies in its row's component
        blocks = np.zeros((idx.shape[0], s, s), dtype=complex)
        blocks[component[rows[sel]], position[rows[sel]], position[cols[sel]]] = vals[sel]
        lo = min(lo, float(np.min(np.linalg.eigvalsh(blocks))))
    return lo


def max_asymmetry(m) -> float:
    """max |m - m^dag| of m, dense or canonical CSR.

    With a zero entry, the max runs over the nonzero entries only, each
    against its mirror entry found by its row-major key: where m_ij is zero
    and m_ji is not, the term at (j, i) has the same modulus.
    """
    m = dense_if_full(m)
    return _max_asymmetry(m, _entries(m))


def _max_asymmetry(m, entries) -> float:
    """`max_asymmetry` of m, whose `_entries` are `entries`."""
    if entries is None:
        return float(np.max(np.abs(m - m.conj().T)))
    rows, cols, vals = entries
    n = m.shape[0]
    if not vals.size:
        return 0.0
    key, mirror = rows * n + cols, cols * n + rows
    at = np.minimum(np.searchsorted(key, mirror), key.size - 1)
    partner = np.where(key[at] == mirror, vals[at], 0.0)
    return float(np.max(np.abs(vals - partner.conj())))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state, held as a dense
    array or as a canonical CSR matrix, in the form it is made in.

    Checked when made.  An array with no zero entry is checked densely; any
    other state is read through its nonzero entries (`_entries`), read
    once: the Hermiticity asymmetry is the max of |m_ij - conj(m_ji)| over
    them (`max_asymmetry`), which is the dense max exactly, the trace sums
    the diagonal, and the positivity check (`min_eigenvalue`) finds its
    components from the same entries.  A CSR state costs its stored entries,
    not a dim^2 pass; an array that is 0.6 % nonzero costs the pattern's read.
    """

    layout: HilbertLayout
    matrix: np.ndarray | sp.csr_matrix  # a read-only copy of the entries given
    pos_tol: float = field(default=TOL_POS, compare=False)
    min_eigenvalue: float = field(init=False, compare=False)  # from the positivity check

    def __post_init__(self):
        m = _as_matrix(self.matrix, self.layout.dim)
        object.__setattr__(self, "matrix", m)
        m = dense_if_full(m)
        entries = _entries(m)
        # negated comparisons: a NaN fails each check
        herm = _max_asymmetry(m, entries)
        if not herm <= TOL_HERM:
            raise StateError(f"density matrix not Hermitian: max asymmetry {herm:.3e}")
        tr = m.diagonal().sum()
        if not abs(tr - 1.0) <= TOL_TRACE:
            raise StateError(f"density matrix trace {tr} deviates from 1")
        lo = _min_eigenvalue(m, entries)
        if not lo >= -self.pos_tol:
            raise StateError(f"density matrix has eigenvalue {lo:.3e} below -{self.pos_tol:.1e}")
        object.__setattr__(self, "min_eigenvalue", lo)

    @classmethod
    def from_matrix(cls, layout: HilbertLayout, m, pos_tol: float = TOL_POS) -> "DensityMatrix":
        return cls(layout, m, pos_tol=pos_tol)

    @classmethod
    def pure(cls, layout: HilbertLayout, vec) -> "DensityMatrix":
        v = np.asarray(vec, dtype=complex).ravel()
        if v.size != layout.dim:
            raise LayoutError(f"vector length {v.size} does not match layout dimension {layout.dim}")
        v = v / np.linalg.norm(v)
        return cls(layout, np.outer(v, v.conj()))


def _kept_layout(layout: HilbertLayout, keep: tuple[int, ...]) -> HilbertLayout:
    has_field = layout.has_field and 0 in keep
    atoms = sum(1 for k in keep if not (layout.has_field and k == 0))
    return HilbertLayout(atoms, layout.fock_dim if has_field else 0)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the kept factors (factor indices, order preserved), as an array.

    Worked on rho's a x a atom blocks (a = 2^N), one per pair of field
    levels: a CSR state's blocks that hold an entry, an array's every block
    (its diagonal ones when the field is traced).  The traced atoms are
    contracted in each block, the highest first, and a traced field then
    sums the diagonal blocks in field order: the sums the dense contraction
    of factor after factor, highest first, forms, entry for entry.
    """
    layout = rho.layout
    keep = tuple(sorted(set(int(k) for k in keep)))
    if not keep:
        raise LayoutError("keep set must be non-empty")
    if keep[0] < 0 or keep[-1] >= layout.n_factors:
        raise LayoutError(f"keep set {keep} out of range for {layout.n_factors} factors")
    f, a = int(layout.has_field), 2 ** layout.atom_count
    nb = layout.dim // a
    trace_field = f and 0 not in keep
    m = dense_if_full(rho.matrix)
    if sp.issparse(m):
        keys, X = _blocks(m, a, diagonal=trace_field)
    elif trace_field:
        X = m.reshape(nb, a, nb, a)[np.arange(nb), :, np.arange(nb), :]
    else:
        keys, X = np.arange(nb * nb), m.reshape(nb, a, nb, a).swapaxes(1, 2).reshape(-1, a, a)
    t = X.reshape((X.shape[0],) + (2,) * (2 * layout.atom_count))
    for j in reversed([k - f for k in range(f, layout.n_factors) if k not in keep]):
        t = np.trace(t, axis1=1 + j, axis2=1 + (t.ndim - 1) // 2 + j)
    s = 2 ** ((t.ndim - 1) // 2)  # the kept atoms' dimension
    t = t.reshape(t.shape[0], s, s)
    if trace_field:
        reduced = np.add.reduce(t, axis=0)
    else:
        reduced = np.zeros((nb, s, nb, s), dtype=complex)
        reduced[keys // nb, :, keys % nb, :] = t
        reduced = reduced.reshape(nb * s, nb * s)
    return DensityMatrix.from_matrix(_kept_layout(layout, keep), reduced, pos_tol=rho.pos_tol)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(1/2) * trace norm of the difference."""
    diff = to_array(rho.matrix) - to_array(sigma.matrix)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
