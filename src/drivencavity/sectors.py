"""Singlet/triplet decomposition for two-atom steady states.

For N = 2 the generators built here contain the atoms only through the
collective operators S_+/-, which annihilate the singlet (|eg> - |ge>)/sqrt(2).
The singlet weight of the atomic state is therefore conserved, the full
fixed-point manifold is degenerate, and the steady state reached from a given
initial state decomposes as

    rho_ss = w_S |S><S| (x) rho_field^(S)  +  (1 - w_S) rho_triplet_ss

with vanishing singlet-triplet coherences.  Each sector has a unique fixed
point that one sparse LU finds, where the full generator's degenerate kernel
needs the costlier kernel projection.  The decay of the coherence block is not
assumed blindly: its smallest eigenvalue is checked for a zero mode whenever
that is affordable.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .hilbert import DensityMatrix
from .model import Generator, SystemConfig, atomic_vector, build_generator
from .dynamics import inverse_modes, liouvillian_matrix_raw, steady_state_raw

_SQ2 = 1.0 / np.sqrt(2.0)
# atomic basis |ee>, |eg>, |ge>, |gg>
TRIPLET_ISOMETRY = np.array(
    [[1, 0, 0], [0, _SQ2, 0], [0, _SQ2, 0], [0, 0, 1]], dtype=complex
)
SINGLET_VECTOR = np.array([0, _SQ2, -_SQ2, 0], dtype=complex)

COHERENCE_CHECK_MAX_DIM = 1200  # sparse LU of the singlet-triplet block
_COHERENCE_GAP_MIN = 1e-8


class SectorError(RuntimeError):
    """The singlet/triplet decomposition does not apply to this generator."""


def _isometries(nf: int):
    """Full-space isometries onto field (x) triplet and field (x) singlet, sparse."""
    eye = sp.identity(max(nf, 1), dtype=complex, format="csr")
    return (sp.kron(eye, TRIPLET_ISOMETRY, format="csr"),
            sp.kron(eye, SINGLET_VECTOR.reshape(4, 1), format="csr"))


def _restrict(gen: Generator, V, tol: float = 1e-12):
    """Compress the generator onto the invariant subspace spanned by the sparse isometry V.

    Each operator M must commute with the projector P = V V^dag: the
    entrywise max of the sparse M P - P M stays within tol * max(1, max|M|),
    else the generator breaks the split and SectorError is raised.  All
    products are sparse, so the cost follows the operators' nonzeros rather
    than dim^3.  Returns dense (V^dag H V, [(V^dag A V, rate)]).
    """
    P = V @ V.conj().T

    def compress(M, what):
        Ms = sp.csr_matrix(M)
        if abs(Ms @ P - P @ Ms).max() > tol * max(1.0, np.max(np.abs(M))):
            raise SectorError(f"{what} does not preserve the sector split")
        return (V.conj().T @ Ms @ V).toarray()

    H_sub = compress(gen.hamiltonian.matrix, "Hamiltonian")
    return H_sub, [(compress(jump.matrix, "jump operator"), rate)
                   for jump, rate in gen.dissipators]


def coherence_block_gap(gen: Generator) -> float | None:
    """Smallest |eigenvalue| of the singlet-triplet coherence block.

    The block is the generator acting on X = V_T^dag rho V_S, assembled by
    `liouvillian_matrix_raw` with the triplet operators on the left and the
    singlet ones on the right.  It is factored by sparse LU, and the gap is
    1/|mu| for the largest-magnitude eigenvalue mu of its inverse (ARPACK);
    an exactly singular factor gives 0.0.  Returns None, unchecked, when the
    block dimension exceeds COHERENCE_CHECK_MAX_DIM.  A strictly positive gap
    certifies that all singlet-triplet coherences decay, so they vanish in
    the steady state.
    """
    layout = gen.layout
    VT, VS = _isometries(layout.fock_dim if layout.has_field else 0)
    dim_c = VT.shape[1] * VS.shape[1]
    if dim_c > COHERENCE_CHECK_MAX_DIM:
        return None
    H, dissipators = gen.hamiltonian.matrix, gen.dissipators
    L = liouvillian_matrix_raw(
        VT.conj().T @ H @ VT, [(VT.conj().T @ A.matrix @ VT, r) for A, r in dissipators],
        right=(VS.conj().T @ H @ VS, [VS.conj().T @ A.matrix @ VS for A, _ in dissipators]))
    try:
        lu = spla.splu(L.tocsc())
    except RuntimeError:  # exactly singular: a zero mode
        return 0.0
    mu, _ = inverse_modes(lu, 1)
    return float(1.0 / np.abs(mu[0]))


def singlet_weight(atoms) -> float:
    av = atomic_vector(atoms) if isinstance(atoms, str) else np.asarray(atoms, dtype=complex)
    av = av / np.linalg.norm(av)
    return float(abs(SINGLET_VECTOR.conj() @ av) ** 2)


def two_atom_steady_state(cfg: SystemConfig, atoms_init,
                          residual_tol: float = 1e-9) -> DensityMatrix:
    """Steady state reached from atoms (x) any field state, by sector solve.

    Raises SectorError when the generator breaks the split or the coherence
    block has a near-zero mode; above COHERENCE_CHECK_MAX_DIM the block is
    not checked.
    """
    if cfg.n_atoms != 2:
        raise SectorError("sector decomposition is specific to two atoms")
    gen = build_generator(cfg)
    layout = gen.layout
    nf = layout.fock_dim if layout.has_field else 0
    VT, VS = _isometries(nf)

    gap = coherence_block_gap(gen)
    if gap is not None and gap < _COHERENCE_GAP_MIN:
        raise SectorError(
            f"singlet-triplet coherence block has a near-zero mode (gap {gap:.2e}); "
            "steady state must be projected from the initial state in the full space"
        )

    w_s = singlet_weight(atoms_init)
    mT, *_ = steady_state_raw(*_restrict(gen, VT), residual_tol=residual_tol)
    full = (1.0 - w_s) * (VT @ mT @ VT.conj().T)
    if w_s > 1e-14:  # an atoms-only singlet sector is one state: its solve returns [[1]]
        mS, *_ = steady_state_raw(*_restrict(gen, VS), residual_tol=residual_tol)
        full = full + w_s * (VS @ mS @ VS.conj().T)
    return DensityMatrix.from_matrix(layout, full, pos_tol=1e-7)
