"""Dense plain-array references for the tests.

Operators are built factor by factor with identities (`embed`), and the
Lindblad formula is applied with dense products (`apply_generator`): an
assembly independent of the package's sparse construction from factors.
`hermitian_coordinates` is the unitary T whose entries the package's
spectral route reads without forming it.
The dense formulas the package's block-wise and diagonal ones must equal
entry for entry live here too: `dense_sandwich`, `dense_partial_trace`,
`dense_field_statistics`.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm

from drivencavity.hilbert import HilbertLayout, annihilation, to_array

SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)    # |e><g|, |e> = index 0
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)   # |g><e|


def dag(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def embed(local: np.ndarray, site: int, layout: HilbertLayout) -> np.ndarray:
    """`local` on factor `site` of `layout`, identities on every other factor."""
    m = np.eye(1, dtype=complex)
    for k, d in enumerate(layout.factors):
        m = np.kron(m, local if k == site else np.eye(d))
    return m


def field_annihilation(layout: HilbertLayout) -> np.ndarray:
    """a on the field factor of `layout`."""
    return embed(annihilation(layout.fock_dim - 1), 0, layout)


def number_operator(layout: HilbertLayout) -> np.ndarray:
    """a^dag a on the field factor of `layout`."""
    a = annihilation(layout.fock_dim - 1)
    return embed(dag(a) @ a, 0, layout)


def _atom_sum(local: np.ndarray, layout: HilbertLayout) -> np.ndarray:
    return sum(embed(local, j - 1 + layout.has_field, layout)  # after the field, if any
               for j in range(1, layout.atom_count + 1))


def collective_raising(layout: HilbertLayout) -> np.ndarray:
    """S_+ = (1/sqrt(N)) sum_j sigma_+^j."""
    return (1.0 / math.sqrt(layout.atom_count)) * _atom_sum(SIGMA_PLUS, layout)


def collective_lowering(layout: HilbertLayout) -> np.ndarray:
    return dag(collective_raising(layout))


def collective_sz(layout: HilbertLayout) -> np.ndarray:
    """S_z = sum_j sigma_z^j (no 1/sqrt(N))."""
    return _atom_sum(SIGMA_Z, layout)


def displacement(alpha: complex, n_max: int) -> np.ndarray:
    """exp(alpha a^dag - alpha* a) on the truncated Fock space."""
    a = annihilation(n_max)
    return expm(alpha * dag(a) - np.conj(alpha) * a)


def dense_generator(gen):
    """The generator's H and (jump, rate) pairs as dense arrays."""
    return gen.H.toarray(), [(A.toarray(), rate) for A, rate in gen.jumps]


def hermitian_coordinates(k: int) -> sp.csr_matrix:
    """Unitary T with vec(X) = T x for Hermitian k x k X and real x (row-major vec).

    Columns: E_ii, then (E_ij + E_ji)/sqrt(2) and i(E_ij - E_ji)/sqrt(2) for
    i < j.  A Lindblad generator maps Hermitian matrices to Hermitian
    matrices, so T^dag L T is real.
    """
    iu, ju = np.triu_indices(k, 1)
    diag = np.arange(k) * (k + 1)
    upper, lower = iu * k + ju, ju * k + iu
    m = iu.size
    h = 1.0 / np.sqrt(2.0)
    sym, antisym = k + np.arange(m), k + m + np.arange(m)
    rows = np.concatenate([diag, upper, lower, upper, lower])
    cols = np.concatenate([np.arange(k), sym, sym, antisym, antisym])
    vals = np.concatenate([np.ones(k), np.full(2 * m, h), np.full(m, 1j * h), np.full(m, -1j * h)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(k * k, k * k))


def apply_generator(gen, rho) -> np.ndarray:
    """d(rho)/dt = -i[H, rho] + sum_k rate_k (2 A rho A^dag - A^dag A rho - rho A^dag A)."""
    m = np.asarray(as_dense(rho), dtype=complex)
    h, jumps = dense_generator(gen)
    out = -1j * (h @ m - m @ h)
    for A, rate in jumps:
        AdA = dag(A) @ A
        out = out + rate * (2.0 * (A @ m @ dag(A)) - AdA @ m - m @ AdA)
    return out


def dense_field_statistics(m: np.ndarray):
    """(n_bar, <n^2>, <a^dag^2 a^2>) of the field state m from dense matrix
    chains, as `correlations.field_statistics` once formed them."""
    a = annihilation(m.shape[0] - 1)
    num = dag(a) @ a
    return (float(np.real(np.trace(num @ m))), float(np.real(np.trace(num @ num @ m))),
            float(np.real(np.trace(dag(a) @ dag(a) @ a @ a @ m))))


def dense_partial_trace(m: np.ndarray, layout: HilbertLayout, keep) -> np.ndarray:
    """The reduced matrix on the kept factors of `layout`, by contracting each
    traced factor's row index with its column index on the whole dense m,
    highest first."""
    factors = layout.factors
    t = m.reshape(factors + factors)
    for k in reversed([i for i in range(len(factors)) if i not in keep]):
        t = np.trace(t, axis1=k, axis2=t.ndim // 2 + k)
    d = int(np.sqrt(t.size))
    return t.reshape(d, d)


def dense_sandwich(left: np.ndarray, M: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(1_field (x) left) M (1_field (x) right) for square atomic factors, on the dense M."""
    a = left.shape[0]
    nf = M.shape[0] // a
    return ((left @ M.reshape(nf, a, -1)).reshape(-1, nf, a) @ right).reshape(M.shape)


def as_dense(rho) -> np.ndarray:
    """The entries of a state (or of a matrix) as a dense array."""
    return to_array(getattr(rho, "matrix", rho))
