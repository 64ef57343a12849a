"""Layouts and states on finite tensor-product Hilbert spaces.

Spaces are composed of an optional bosonic (Fock-truncated) factor followed
by a number of two-level atoms.  The factor order is fixed: field first,
then atoms 1..N.  An operator is a plain matrix: a Lindblad generator
(`model.Generator`) keeps its operators as CSR, states and the ladder
operator are dense complex arrays, and `to_collective_basis` rotates CSR or
dense matrices into CSR.

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


def _as_matrix(entries, dim: int) -> np.ndarray:
    m = np.asarray(entries, dtype=complex)
    if m.shape != (dim, dim):
        raise LayoutError(f"matrix shape {m.shape} does not match layout dimension {dim}")
    m = m.copy()
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


def _sandwich(left: np.ndarray, M: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(1_field (x) left) M (1_field (x) right) for square atomic factors."""
    a = left.shape[0]
    nf = M.shape[0] // a
    return ((left @ M.reshape(nf, a, -1)).reshape(-1, nf, a) @ right).reshape(M.shape)


def to_collective_basis(M, B: np.ndarray, labels: np.ndarray) -> sp.csr_matrix:
    """W^dag M W for W = 1_field (x) B, from `collective_basis`, as CSR; M dense or sparse.

    M is cut into its a x a blocks (a = 2^N), one per pair of field levels,
    and each block that holds an entry becomes B^dag M_block B.  Entries
    between different multiplets of at most 1e-12 max(1, max|M|) are
    round-off of the rotation and set to exactly zero, so they do not merge
    the blocks; larger ones are kept.
    """
    a, d = B.shape[0], M.shape[0]
    if sp.issparse(M):
        M = sp.csr_matrix(M)
        r, c, v = np.repeat(np.arange(d), np.diff(M.indptr)), M.indices, M.data
    else:
        r, c = np.nonzero(M)
        v = M[r, c]
    blocks, block = np.unique(r // a * d + c // a, return_inverse=True)
    rotated = np.zeros((blocks.size, a, a), dtype=complex)
    np.add.at(rotated, (block, r % a, c % a), v)
    rotated = B.conj().T @ rotated @ B
    i, j = np.divmod(np.arange(a * a), a)
    row, col = (blocks // d * a)[:, None] + i, (blocks % d * a)[:, None] + j
    order = np.argsort((row * d + col).ravel(), kind="stable")
    row, col, val = row.ravel()[order], col.ravel()[order], rotated.ravel()[order]
    small = np.abs(val) <= 1e-12 * max(1.0, np.abs(v).max(initial=0.0))
    keep = (val != 0) & ~(small & (labels[row % a] != labels[col % a]))
    return sp.csr_matrix((val[keep], col[keep], np.searchsorted(row[keep], np.arange(d + 1))),
                         shape=M.shape)


def nonzero_pattern(m: np.ndarray):
    """(rows, cols) of m's nonzero entries in row-major order, as `np.nonzero`
    gives them, or None when m has no zero entry."""
    if m.all():
        return None
    return np.divmod(np.flatnonzero(m != 0), m.shape[1])  # faster than np.nonzero on complex


def min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian m, from the blocks of its exact-zero pattern.

    A matrix with no zero entry gets one `eigvalsh`, a diagonal one its
    diagonal's minimum.  Otherwise an index whose row and column are both all
    zero adds the eigenvalue 0 and is dropped, and each connected component
    of the pattern (m != 0) | (m != 0).T of the rest gets its own `eigvalsh`,
    batched over components of equal size: a permuted direct sum has the
    union of its blocks' spectra.  The symmetric pattern also holds the lower
    triangle that `eigvalsh` reads.  The pattern is read once
    (`nonzero_pattern`); the dropped indices and the components come from it,
    with no further dense pass over m.
    """
    return _min_eigenvalue(m, nonzero_pattern(m))


def _min_eigenvalue(m: np.ndarray, pattern) -> float:
    """`min_eigenvalue` of m, whose `nonzero_pattern` is `pattern`."""
    if pattern is None or pattern[0].size == m.size:
        return float(np.linalg.eigvalsh(m)[0])
    rows, cols = pattern
    if np.array_equal(rows, cols):
        return float(np.min(np.diagonal(m).real))
    n = m.shape[0]
    live = np.flatnonzero(np.bincount(rows, minlength=n) + np.bincount(cols, minlength=n))
    if live.size < n:
        position = np.empty(n, dtype=rows.dtype)
        position[live] = np.arange(live.size)
        return min(0.0, _min_eigenvalue(m[np.ix_(live, live)], (position[rows], position[cols])))
    # an undirected search takes every entry as an edge both ways
    _, labels = connected_components(
        sp.csr_matrix((np.ones(rows.size, dtype=bool), (rows, cols)), shape=m.shape),
        directed=False)
    sizes = np.bincount(labels)[labels]
    lo = np.inf
    for s in np.unique(sizes):
        members = np.flatnonzero(sizes == s)
        idx = members[np.argsort(labels[members], kind="stable")].reshape(-1, s)
        lo = min(lo, float(np.min(np.linalg.eigvalsh(m[idx[:, :, None], idx[:, None, :]]))))
    return lo


def _max_asymmetry(m: np.ndarray, pattern) -> float:
    """max |m - m^dag| of m, whose `nonzero_pattern` is `pattern`.

    With a pattern, the max runs over the nonzero entries only: where m_ij
    is zero and m_ji is not, the term at (j, i) has the same modulus.
    """
    if pattern is None:
        return float(np.max(np.abs(m - m.conj().T)))
    rows, cols = pattern
    return float(np.max(np.abs(m[rows, cols] - m[cols, rows].conj()), initial=0.0))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state.

    Checked when made.  A matrix with no zero entry is checked densely; any
    other is read through its nonzero pattern (`nonzero_pattern`): the
    Hermiticity asymmetry is the max of |m_ij - conj(m_ji)| over the nonzero
    entries, which is the dense max exactly, and the positivity check
    (`min_eigenvalue`) finds its components from the same pattern.  A thermal
    state that is 0.6 % nonzero then costs the pattern's read, not about six
    dense dim^2 passes.
    """

    layout: HilbertLayout
    matrix: np.ndarray  # a read-only copy of the entries given
    pos_tol: float = field(default=TOL_POS, compare=False)
    min_eigenvalue: float = field(init=False, compare=False)  # from the positivity check

    def __post_init__(self):
        m = _as_matrix(self.matrix, self.layout.dim)
        object.__setattr__(self, "matrix", m)
        pattern = nonzero_pattern(m)
        # negated comparisons: a NaN fails each check
        herm = _max_asymmetry(m, pattern)
        if not herm <= TOL_HERM:
            raise StateError(f"density matrix not Hermitian: max asymmetry {herm:.3e}")
        tr = np.trace(m)
        if not abs(tr - 1.0) <= TOL_TRACE:
            raise StateError(f"density matrix trace {tr} deviates from 1")
        lo = _min_eigenvalue(m, pattern)
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


def partial_trace_matrix(m: np.ndarray, layout: HilbertLayout, keep) -> np.ndarray:
    factors = layout.factors
    keep = tuple(sorted(set(int(k) for k in keep)))
    if not keep:
        raise LayoutError("keep set must be non-empty")
    if keep[0] < 0 or keep[-1] >= len(factors):
        raise LayoutError(f"keep set {keep} out of range for {len(factors)} factors")
    t = m.reshape(factors + factors)
    # contract each traced factor's row index with its column index, highest first
    for k in reversed([i for i in range(len(factors)) if i not in keep]):
        t = np.trace(t, axis1=k, axis2=t.ndim // 2 + k)
    d = int(np.sqrt(t.size))
    return t.reshape(d, d)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the kept factors (factor indices, order preserved)."""
    keep_t = tuple(sorted(set(int(k) for k in keep)))
    reduced = partial_trace_matrix(rho.matrix, rho.layout, keep_t)
    return DensityMatrix.from_matrix(_kept_layout(rho.layout, keep_t), reduced,
                                     pos_tol=rho.pos_tol)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """(1/2) * trace norm of the difference."""
    diff = rho.matrix - sigma.matrix
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
