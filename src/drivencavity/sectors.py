"""Two-atom steady states in the triplet/singlet basis.

For N = 2 the generators built here contain the atoms only through the
collective operators S_+/-, S_z, which never connect the triplet |T+>, |T0>,
|T-> with the singlet (|eg> - |ge>)/sqrt(2).  Written in that basis H and
every jump are block diagonal, so `dynamics.steady_state_raw` finds the
triplet and singlet blocks, and the singlet-triplet coherence blocks whose
decay it checks with `coherence_block_gap`, from the sparsity pattern alone.
A generator that acts on the atoms one by one does not split, and is solved
exactly in the same basis.
"""

from __future__ import annotations

import numpy as np

from .hilbert import DensityMatrix, LayoutError, TOL_POS
from .model import Generator
from .dynamics import SteadyStateResult, steady_state_raw
from .dynamics import coherence_block_gap  # noqa: F401  (the blocks' gap check, found here too)

_SQ2 = 1.0 / np.sqrt(2.0)
# columns |T+>, |T0>, |T->, |S> in the atomic basis |ee>, |eg>, |ge>, |gg>
TWO_ATOM_BASIS = np.array(
    [[1, 0, 0, 0], [0, _SQ2, 0, _SQ2], [0, _SQ2, 0, -_SQ2], [0, 0, 1, 0]], dtype=complex
)


def _sandwich(left: np.ndarray, M: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(1_field (x) left) M (1_field (x) right) for 4 x 4 atomic factors."""
    nf = M.shape[0] // 4
    return ((left @ M.reshape(nf, 4, -1)).reshape(-1, nf, 4) @ right).reshape(M.shape)


def to_two_atom_basis(M: np.ndarray) -> np.ndarray:
    """W^dag M W for W = 1_field (x) TWO_ATOM_BASIS.

    Singlet-triplet entries of at most 1e-12 max(1, max|M|) are round-off of
    the rotation and set to exactly zero, so they do not merge the blocks;
    larger ones are kept.
    """
    out = _sandwich(TWO_ATOM_BASIS.conj().T, M, TWO_ATOM_BASIS)
    singlet = np.arange(M.shape[0]) % 4 == 3
    mixed = singlet[:, None] != singlet[None, :]
    out[mixed & (np.abs(out) <= 1e-12 * max(1.0, np.max(np.abs(M))))] = 0.0
    return out


def two_atom_steady_state(gen: Generator, rho0: DensityMatrix,
                          residual_tol: float = 1e-9) -> SteadyStateResult:
    """Steady state that rho0 relaxes to, solved in the triplet/singlet basis."""
    layout = gen.layout
    if layout.atom_count != 2:
        raise LayoutError(f"triplet/singlet basis needs two atoms, not {layout.atom_count}")
    m, res, kernel_dim, route = steady_state_raw(
        to_two_atom_basis(gen.hamiltonian.matrix),
        [(to_two_atom_basis(jump.matrix), rate) for jump, rate in gen.dissipators],
        rho0=to_two_atom_basis(rho0.matrix), residual_tol=residual_tol)
    m = _sandwich(TWO_ATOM_BASIS, m, TWO_ATOM_BASIS.conj().T)
    rho = DensityMatrix.from_matrix(layout, m, pos_tol=max(TOL_POS, 100.0 * residual_tol))
    return SteadyStateResult(rho_ss=rho, residual=res, kernel_dim=kernel_dim, method=route)
