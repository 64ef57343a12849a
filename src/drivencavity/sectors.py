"""Steady states in the collective (Dicke) basis, for any number of atoms.

The generators built here couple the atoms only through S_+/-, S_z, which
leave each copy of each total-J multiplet |J, M, copy> invariant (Shammah et
al., PRA 98, 063815, 2018).  In that basis H and every jump are block
diagonal, so `dynamics.steady_state_raw` finds the per-copy blocks, and the
coherence blocks between copies whose decay `coherence_block_gap` checks,
from the sparsity pattern alone.  A generator that acts on the atoms one by
one does not split, and is solved exactly in the same basis.
"""

from __future__ import annotations

import numpy as np

from .hilbert import DensityMatrix, HilbertLayout, LayoutError, TOL_POS, embed, sigma_minus
from .model import Generator
from .dynamics import SteadyStateResult, steady_state_raw
from .dynamics import coherence_block_gap  # noqa: F401  (the blocks' gap check, found here too)


def collective_basis(n_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """(B, labels): the columns of B are |J, M, copy> in the product basis of
    n_atoms atoms, and labels[c] is the multiplet (copy) index of column c.

    A multiplet starts at a computational vector with the vectors already
    found projected out, taken by level (number of excited atoms) from
    all-excited down and within a level by index, and runs down from M = J by
    J- steps.  Columns are normalised only at the end, so for two atoms B is
    |T+>, |T0>, |T->, |S> entry for entry.
    """
    layout = HilbertLayout(atom_count=n_atoms)
    lower = sum(embed(sigma_minus(), layout.atom_factor(j), layout).matrix.real
                for j in range(1, n_atoms + 1))
    excited = n_atoms - np.array([bin(c).count("1") for c in range(2 ** n_atoms)])  # |e> = 0
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
    return B, np.repeat(np.arange(len(sizes)), sizes)


def _sandwich(left: np.ndarray, M: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(1_field (x) left) M (1_field (x) right) for square atomic factors."""
    a = left.shape[0]
    nf = M.shape[0] // a
    return ((left @ M.reshape(nf, a, -1)).reshape(-1, nf, a) @ right).reshape(M.shape)


def to_collective_basis(M: np.ndarray, B: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """W^dag M W for W = 1_field (x) B, from `collective_basis`.

    Entries between different multiplets of at most 1e-12 max(1, max|M|) are
    round-off of the rotation and set to exactly zero, so they do not merge
    the blocks; larger ones are kept.
    """
    out = _sandwich(B.conj().T, M, B)
    label = labels[np.arange(M.shape[0]) % labels.size]
    mixed = label[:, None] != label[None, :]
    out[mixed & (np.abs(out) <= 1e-12 * max(1.0, np.max(np.abs(M))))] = 0.0
    return out


def collective_steady_state(gen: Generator, rho0: DensityMatrix,
                            residual_tol: float = 1e-9) -> SteadyStateResult:
    """Steady state that rho0 relaxes to, solved in the collective basis."""
    layout = gen.layout
    if rho0.layout != layout:
        raise LayoutError("initial state layout does not match generator layout")
    B, labels = collective_basis(layout.atom_count)
    m, res, kernel_dim, route = steady_state_raw(
        to_collective_basis(gen.hamiltonian.matrix, B, labels),
        [(to_collective_basis(jump.matrix, B, labels), rate) for jump, rate in gen.dissipators],
        rho0=to_collective_basis(rho0.matrix, B, labels), residual_tol=residual_tol)
    m = _sandwich(B, m, B.conj().T)
    rho = DensityMatrix.from_matrix(layout, m, pos_tol=max(TOL_POS, 100.0 * residual_tol))
    return SteadyStateResult(rho_ss=rho, residual=res, kernel_dim=kernel_dim, method=route)


# `bench/tracer.py` wraps this function under its former name and rebinds every
# name bound to it, here and in `scenarios`, so the spans keep that name.
two_atom_steady_state = collective_steady_state
