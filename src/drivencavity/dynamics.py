"""Time evolution and steady states of Lindblad generators.

The Lindblad formula is applied in two ways here.  `liouvillian_matrix_raw`
builds the sparse superoperator once per call for the Runge-Kutta
right-hand side, the null-space LU and the kernel projection;
`residual_norm` applies the generator to a state with sparse H and jumps,
sparse-times-dense products and no superoperator.  `model.apply_generator`
stays as the independent dense reference.
Spectral propagation restricts L to the initial state's invariant subspace
and writes it in orthonormal Hermitian coordinates, where it is real;
`propagate` takes that route while the subspace is small, and RK otherwise.

One steady-state solver, no time integration, block by block.
`steady_state` works in the collective basis |J, M, copy> of the atoms
(`hilbert.collective_basis`), where a generator built from S_+/-, S_z is
block diagonal; `steady_state_raw` solves whatever matrices it is given.
L is built only on the pairs (i, j) its pattern links to the initial
state's entries (`_reachable_pairs`), found on a quotient graph of the
components of pattern(H + sum A^dag A) without building L, and it splits
again into the blocks its sparsity pattern decouples (a conserved singlet,
a weak U(1) charge difference), found without symmetry labels.  A block
with diagonal entries gets one sparse LU of its trace-constrained
Liouvillian, whose condition estimate tells a unique fixed point from a
degenerate manifold; a block of coherences is dropped once its gap
(`coherence_block_gap`) shows it decays.  Otherwise the initial state's part
is projected onto the block's kernel along its range, which is the state it
relaxes to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp
from scipy.sparse.csgraph import connected_components

from .hilbert import (DensityMatrix, LayoutError, TOL_POS, _sandwich, collective_basis,
                      to_collective_basis)
from .model import Generator

SPARSE_NULLSPACE_MAX_DIM = 650      # sparse LU of the trace-constrained system
SPECTRAL_MAX_SUPPORT = 64           # largest invariant-support dim k for evolve_spectral (k^2 x k^2 eig)
_KERNEL_REL_TOL = 1e-10             # relative size of a kernel eigenvalue; 1 / max condition
_SUPPORT_REL_TOL = 1e-12            # rank cut-off of the invariant-subspace Krylov closure
_DENSE_KERNEL_MAX = 64              # up to this many rows a kernel or gap comes from dense eig
_COHERENCE_GAP_MIN = 1e-8           # a coherence block with a smaller gap is projected, not dropped


class EvolutionError(RuntimeError):
    """Integration failed or state invariants blew up beyond tolerance."""


class ConvergenceError(RuntimeError):
    """No steady state within the residual tolerance, or the system is too large to solve."""


class DegenerateSteadyStateError(ConvergenceError):
    """The generator has a multi-dimensional fixed-point manifold."""


class SupportTooLargeError(ValueError):
    """The invariant support exceeds SPECTRAL_MAX_SUPPORT: integrate with evolve()."""


@dataclass
class IntegratorStats:
    n_rhs_evals: int = 0
    max_trace_drift: float = 0.0
    max_herm_asym: float = 0.0   # evolve_spectral: max |Im x| / max |x| in Hermitian coordinates
    min_eigenvalue: float = 0.0
    n_renormalizations: int = 0
    rtol: float = 0.0
    support_dim: int = 0         # evolve_spectral: dim of rho0's invariant subspace
    eigvec_cond: float = 0.0     # evolve_spectral: 1-norm condition estimate of the eigenvectors


@dataclass
class Trajectory:
    times: np.ndarray
    states: list
    stats: IntegratorStats = field(default_factory=IntegratorStats)


@dataclass
class SteadyStateResult:
    rho_ss: DensityMatrix
    residual: float
    kernel_dim: int   # summed over the blocks rho0 touches; 1 per block with a unique fixed point
    method: str


def _gen_matrices(gen: Generator):
    return gen.hamiltonian.matrix, [(j.matrix, r) for j, r in gen.dissipators]


def residual_norm(gen: Generator, rho) -> float:
    """Entrywise max of d(rho)/dt, from sparse H and jumps times the dense state
    (`model.apply_generator` is the dense reference).

    Only sparse-times-dense products: m H = (H^T m^T)^T, A m A^dag =
    A (A m^dag)^dag, A^dag X = conj(A^T conj(X)), m A^dag A = (A^T conj(A m^dag))^T.
    """
    m = np.asarray(getattr(rho, "matrix", rho), dtype=complex)
    H = sp.csr_matrix(gen.hamiltonian.matrix)
    out = -1j * (H @ m - (H.T @ m.T).T)
    for jump, rate in gen.dissipators:
        A = sp.csr_matrix(jump.matrix)
        At = A.T
        Am, Amh = A @ m, A @ m.conj().T
        out += rate * (2.0 * (A @ Amh.conj().T) - (At @ Am.conj()).conj() - (At @ Amh.conj()).T)
    return float(np.max(np.abs(out)))


def evolve(gen: Generator, rho0: DensityMatrix, t_grid, tol: float = 1e-9) -> Trajectory:
    """Integrate rho through the requested times with local error control at tol.

    DOP853 with rtol = tol and atol = tol * 1e-3; the right-hand side
    is one product L @ vec(rho) with the sparse superoperator L, built once
    per call.  Each state is checked for Hermiticity, unit trace and
    positivity (floor max(TOL_POS, 10 tol)).
    """
    if rho0.layout != gen.layout:
        raise LayoutError("initial state layout does not match generator layout")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be a strictly increasing 1-D sequence")
    if tol <= 0:
        raise ValueError("tol must be positive")

    L = liouvillian_matrix_raw(*_gen_matrices(gen))
    dim = gen.layout.dim
    stats = IntegratorStats(rtol=tol)
    pos_floor = max(TOL_POS, 10.0 * tol)

    if t_grid.size == 1:
        sol_states = [rho0.matrix.copy()]
        t_times = t_grid
    else:
        sol = solve_ivp(lambda _, y: L @ y, (t_grid[0], t_grid[-1]), rho0.matrix.ravel(),
                        method="DOP853", t_eval=t_grid, rtol=tol, atol=tol * 1e-3)
        del L  # the solver's closures hold each other; L need not wait for the collector
        if not sol.success:
            raise EvolutionError(f"integrator failed: {sol.message}")
        stats.n_rhs_evals = int(sol.nfev)
        sol_states = [sol.y[:, k].reshape(dim, dim) for k in range(sol.t.size)]
        t_times = sol.t

    states = []
    for m in sol_states:
        asym = float(np.max(np.abs(m - m.conj().T)))
        stats.max_herm_asym = max(stats.max_herm_asym, asym)
        m = 0.5 * (m + m.conj().T)
        drift = abs(np.trace(m).real - 1.0)
        stats.max_trace_drift = max(stats.max_trace_drift, drift)
        if asym > 10.0 * tol or drift > 10.0 * tol:
            raise EvolutionError(
                f"state invariants violated beyond 10*tol: asym {asym:.2e}, drift {drift:.2e}; "
                "truncation too small or step failure"
            )
        if drift > 1e-12:
            m = m / np.trace(m).real
            stats.n_renormalizations += 1
        states.append(DensityMatrix.from_matrix(gen.layout, m, pos_tol=pos_floor))
    stats.min_eigenvalue = min(s.min_eigenvalue for s in states)
    return Trajectory(times=np.asarray(t_times), states=states, stats=stats)


def _invariant_support(H, dissipators, rho0) -> np.ndarray:
    """Orthonormal basis V of the smallest subspace S that holds range(rho0)
    and that H, every jump A and every A^dag map into themselves.

    Every term of the Lindblad equation keeps an operator supported on S
    supported on S, so rho(t) = V X(t) V^dag exactly, where X evolves under
    the restricted generator (V^dag H V, [(V^dag A V, rate)]).  Built by
    Krylov closure from the eigenvectors of rho0 with non-zero weight.  Each
    batch of new directions is orthogonalised against the basis once more
    after normalisation, so the basis stays orthonormal to round-off and the
    closure stops after at most dim(rho0) directions.
    """
    ops = [H] + [op for A, _ in dissipators for op in (A, A.conj().T)]
    w, u = np.linalg.eigh(rho0)
    basis = np.zeros((w.size, 0), dtype=complex)

    def directions(new, cut):
        new = new - basis @ (basis.conj().T @ new)
        u, s, _ = np.linalg.svd(new, full_matrices=False)
        return u[:, s > cut]

    new = u[:, w > _SUPPORT_REL_TOL * np.max(w)]
    while new.shape[1] and basis.shape[1] < w.size:
        scale = float(np.max(np.linalg.norm(new, axis=0)))
        # a direction kept with a small residual carries the first projection's
        # round-off into the basis, amplified by 1 / residual: project it again
        u = directions(directions(new, _SUPPORT_REL_TOL * scale), _SUPPORT_REL_TOL)
        basis = np.hstack([basis, u])
        new = np.hstack([op @ u for op in ops])
    return basis


def _hermitian_coordinates(k: int) -> sp.csr_matrix:
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


def evolve_spectral(gen: Generator, rho0: DensityMatrix, t_grid) -> Trajectory:
    """Propagate by eigendecomposition of the Liouvillian on rho0's invariant subspace.

    The state never leaves the smallest subspace S that holds range(rho0) and
    is mapped into itself by H and every jump A and A^dag
    (`_invariant_support`); for all-excited atoms S is the symmetric
    multiplet times the field.  On S the superoperator is written in
    orthonormal Hermitian coordinates (`_hermitian_coordinates`), where it is
    a real dim(S)^2 x dim(S)^2 matrix; one real eig of it buys the state at
    any later time for the cost of a matrix-vector product, so time grids
    spanning many decades (far beyond what step-by-step integration can
    afford) come essentially for free.  The coordinates x(t) are real up to
    round-off; an imaginary part above 1e-6 of max |x(t)| means the
    eigenbasis is too ill-conditioned and raises EvolutionError.  The
    1-norm condition estimate of the eigenvector matrix and dim(S) are kept
    in the stats.  Each state is embedded back as V X V^dag and checked on
    the full space.  Limited to supports of dimension up to
    SPECTRAL_MAX_SUPPORT, checked before anything dense is assembled.
    """
    if rho0.layout != gen.layout:
        raise LayoutError("initial state layout does not match generator layout")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be a strictly increasing 1-D sequence")

    H, dissipators = _gen_matrices(gen)
    V = _invariant_support(H, dissipators, rho0.matrix)
    Vd = V.conj().T
    k = V.shape[1]
    if k > SPECTRAL_MAX_SUPPORT:
        raise SupportTooLargeError(f"invariant support of dimension {k} exceeds "
                                   f"SPECTRAL_MAX_SUPPORT = {SPECTRAL_MAX_SUPPORT}; use evolve()")
    T = _hermitian_coordinates(k)
    Td = T.conj().T
    L = liouvillian_matrix_raw(Vd @ H @ V, [(Vd @ A @ V, r) for A, r in dissipators]).toarray()
    L = np.ascontiguousarray((Td @ (T.T @ L.T).T).real)  # Re(T^dag L T); frees the complex L
    vals, vecs = np.linalg.eig(L)
    # clip tiny positive real parts (numerical noise) so nothing grows
    vals = np.where(vals.real > 0, 1j * vals.imag, vals)
    lu = la.lu_factor(vecs)
    gecon, = la.get_lapack_funcs(("gecon",), (lu[0],))
    rcond, _ = gecon(lu[0], np.linalg.norm(vecs, 1))
    coeff = la.lu_solve(lu, (Td @ (Vd @ rho0.matrix @ V).ravel()).real)

    stats = IntegratorStats(support_dim=k, eigvec_cond=1.0 / rcond if rcond > 0 else np.inf)
    states = []
    for t in t_grid:
        x = vecs @ (np.exp(vals * t) * coeff)
        asym = float(np.max(np.abs(x.imag)) / np.max(np.abs(x)))
        stats.max_herm_asym = max(stats.max_herm_asym, asym)
        m = V @ (T @ x.real).reshape(k, k) @ Vd
        m = 0.5 * (m + m.conj().T)
        drift = abs(np.trace(m).real - 1.0)
        stats.max_trace_drift = max(stats.max_trace_drift, drift)
        if asym > 1e-6 or drift > 1e-6:
            raise EvolutionError(
                f"spectral propagation lost state invariants: imaginary part {asym:.2e}, "
                f"drift {drift:.2e} (ill-conditioned eigenbasis)"
            )
        m = m / np.trace(m).real
        states.append(DensityMatrix.from_matrix(gen.layout, m, pos_tol=1e-7))
    stats.min_eigenvalue = min(s.min_eigenvalue for s in states)
    return Trajectory(times=t_grid, states=states, stats=stats)


def propagate(gen: Generator, rho0: DensityMatrix, t_grid, tol: float) -> Trajectory:
    """rho(t) on t_grid by the route the invariant support of rho0 affords.

    The cost of `evolve_spectral` is set by the dimension k of that support,
    not by the layout: up to SPECTRAL_MAX_SUPPORT it propagates spectrally
    (any grid, long ones for free), above it `evolve` integrates at tol.
    `evolve_spectral` finds the support and refuses a large one before any
    dense work, so the support is computed once on either route.
    """
    try:
        return evolve_spectral(gen, rho0, t_grid)
    except SupportTooLargeError:
        return evolve(gen, rho0, t_grid, tol=tol)


def _ragged(counts: np.ndarray):
    """(owner, offset) of each of sum(counts) items, counts[k] of them owned by k."""
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]


def _kron_on(pairs: np.ndarray, d: int):
    """kron(X, Y) restricted to the rows and columns `pairs`, sorted vec indices
    i d + j that hold every pair their rows reach, for d x d sparse X and Y.

    Row (i, j) holds X[i, k] Y[j, l] at column (k, l), in sorted order: each
    entry is the one product that `sp.kron` stores there.
    """
    i, j = np.divmod(pairs, d)
    position = np.empty(d * d, dtype=np.int32)  # of each vec index in pairs
    position[pairs] = np.arange(pairs.size)

    def kron(X, Y):
        X, Y = X.tocsr(), Y.tocsr()
        X.sort_indices()
        Y.sort_indices()
        nx, ny = np.diff(X.indptr)[i], np.diff(Y.indptr)[j]
        row, t = _ragged(nx * ny)
        dx, dy = np.divmod(t, ny[row])
        px, py = X.indptr[i][row] + dx, Y.indptr[j][row] + dy
        cols = position[X.indices[px] * d + Y.indices[py]]
        indptr = np.concatenate(([0], np.cumsum(nx * ny)))
        return sp.csr_matrix((X.data[px] * Y.data[py], cols, indptr), shape=(pairs.size,) * 2)

    return kron


def liouvillian_matrix_raw(H, dissipators, pairs=None) -> sp.csr_matrix:
    """Sparse superoperator acting on row-major vec(X): vec(A X B) = kron(A, B^T) vec(X).

    dX/dt = -i[H, X] + sum_k rate_k (2 A_k X A_k^dag - A_k^dag A_k X - X A_k^dag A_k).
    H and the jumps may be dense or sparse.  With `pairs`, sorted vec indices
    i d + j that hold every pair their rows reach, each term is built on
    those rows and columns only (`_kron_on`) and summed in the same order, so
    L equals the whole L sliced to `pairs`, entry for entry.  The whole L
    takes `sp.kron`, which is faster there, above all on the dense operators
    `evolve_spectral` passes.
    """
    H = sp.csr_matrix(H, dtype=complex)
    kron = sp.kron if pairs is None else _kron_on(pairs, H.shape[0])
    eye = sp.identity(H.shape[0], format="csr", dtype=complex)
    L = -1j * (kron(H, eye) - kron(eye, H.T))
    for A, rate in dissipators:
        A = sp.csr_matrix(A, dtype=complex)
        AdA = A.conj().T @ A
        L = L + rate * (2.0 * kron(A, A.conj()) - kron(AdA, eye) - kron(eye, AdA.T))
    return L.tocsr()


def _normalize_kernel_vector(x: np.ndarray, pairs: np.ndarray, dim: int) -> np.ndarray:
    """The dim x dim matrix with x at the vec indices `pairs`, made Hermitian
    and of unit trace; the trace sums the diagonal entries among `pairs`."""
    m = np.zeros(dim * dim, dtype=complex)
    m[pairs] = x
    m = m.reshape(dim, dim)
    m = 0.5 * (m + m.conj().T)
    tr = m.ravel()[pairs[pairs % (dim + 1) == 0]].sum().real
    if abs(tr) < 1e-10:
        raise DegenerateSteadyStateError("kernel vector is traceless; fixed point not unique")
    return m / tr


def inverse_modes(lu, k: int, trans: str = "N"):
    """The k largest-|mu| eigenpairs of the inverse of the matrix lu factors (ARPACK, fixed start).

    For lu = LU(L - s I), L has the eigenvalue s + 1/mu with trans "N" (right
    vectors) and s + 1/conj(mu) with trans "H" (left vectors).
    """
    inverse = spla.LinearOperator(lu.shape, matvec=lambda x: lu.solve(x, trans=trans),
                                  dtype=complex)
    v0 = np.random.default_rng(0).standard_normal(lu.shape[0]).astype(complex)
    return spla.eigs(inverse, k=k, which="LM", v0=v0)


def coherence_block_gap(L) -> float:
    """Smallest |eigenvalue| of the sparse Liouvillian block L.

    Dense eigvals up to _DENSE_KERNEL_MAX rows; above, 1/|mu| for the
    largest-magnitude eigenvalue mu of L's inverse, from one sparse LU and
    ARPACK, and 0.0 when the factor is exactly singular.  A block of
    coherences with a strictly positive gap decays, so it holds nothing in
    the steady state.
    """
    if L.shape[0] <= _DENSE_KERNEL_MAX:
        return float(np.min(np.abs(la.eigvals(L.toarray()))))
    try:
        lu = spla.splu(L.tocsc())
    except RuntimeError:  # exactly singular: a zero mode
        return 0.0
    mu, _ = inverse_modes(lu, 1)
    return float(1.0 / np.abs(mu[0]))


def _kernel_bases(L):
    """Right and left kernel bases (R, Lam) of L: eigenvalues within s = _KERNEL_REL_TOL ||L||_1.

    Dense eig up to _DENSE_KERNEL_MAX rows, else shift-invert ARPACK on one
    sparse LU of L - s I, k growing until an eigenvalue lies outside the kernel.
    """
    n = L.shape[0]
    s = _KERNEL_REL_TOL * spla.norm(L, 1)
    if n <= _DENSE_KERNEL_MAX:
        lam, left, right = la.eig(L.toarray(), left=True, right=True)
        return right[:, np.abs(lam) <= s], left[:, np.abs(lam) <= s]
    try:
        lu = spla.splu((L - s * sp.identity(n, dtype=complex, format="csr")).tocsc())
        k = 2
        while k <= n - 2:  # ARPACK computes at most n - 2 modes
            mu, right = inverse_modes(lu, k)
            kernel = np.abs(s + 1.0 / mu) <= s
            if not kernel.all():
                mu_left, left = inverse_modes(lu, k, trans="H")
                return right[:, kernel], left[:, np.abs(s + 1.0 / mu_left.conj()) <= s]
            k *= 2
    except RuntimeError as exc:  # L - s I exactly singular, or ARPACK did not converge
        raise ConvergenceError(f"kernel mode search failed: {exc}") from exc
    raise ConvergenceError(f"kernel of dimension >= {k // 2} in {n} entries: too large to search")


def _kernel_projection(L, x0: np.ndarray):
    """(the part of ker L that x0 relaxes to, kernel dimension) for one block L.

    R (Lam^H R)^-1 Lam^H x0 projects onto ker L along range L (Albert & Jiang, PRA 89,
    022118, 2014).
    """
    R, Lam = _kernel_bases(L)
    if R.shape[1] != Lam.shape[1]:
        raise ConvergenceError(f"left and right kernels differ: {Lam.shape[1]} vs {R.shape[1]}")
    return R @ np.linalg.solve(Lam.conj().T @ R, Lam.conj().T @ x0), R.shape[1]


def _unique_fixed_point(L, diag: np.ndarray) -> np.ndarray:
    """The x with L x = 0 and unit trace sum(x[diag]), by one sparse LU; raises
    DegenerateSteadyStateError when L has no unique fixed point.

    Trace preservation makes the trace row a left null vector of L, so L with
    the row of one diagonal entry replaced by it is nonsingular iff the
    kernel is 1-D.  That is decided from the factor's 1-norm condition
    estimate, up to 1 / _KERNEL_REL_TOL.
    """
    n, r = L.shape[0], diag[0]
    trace_row = sp.csr_matrix((np.ones(diag.size), (np.full(diag.size, r), diag)), shape=(n, n))
    keep = np.ones(n)
    keep[r] = 0.0
    M = (sp.diags(keep) @ L + trace_row).tocsc()
    try:
        lu = spla.splu(M)
    except RuntimeError as exc:  # exactly singular: degenerate kernel
        raise DegenerateSteadyStateError(str(exc)) from exc

    def solve(x, trans="N"):
        y = lu.solve(x, trans=trans)
        y[np.abs(y) < np.finfo(float).tiny] = 0.0  # onenormest's sign step overflows on subnormals
        return y

    inverse = spla.LinearOperator((n, n), matvec=solve, rmatvec=lambda x: solve(x, "H"),
                                  dtype=complex)
    cond = spla.norm(M, 1) * spla.onenormest(inverse)
    if not cond <= 1.0 / _KERNEL_REL_TOL:
        raise DegenerateSteadyStateError(
            f"trace-constrained Liouvillian has condition estimate {cond:.1e}: "
            "fixed-point manifold is degenerate"
        )
    b = np.zeros(n, dtype=complex)
    b[r] = 1.0
    return lu.solve(b)


def _components(pattern, seeds: np.ndarray) -> list:
    """Index arrays of the weakly connected components of pattern's graph (an
    edge per stored entry) that hold one of the seed indices."""
    _, labels = connected_components(abs(pattern), directed=True, connection="weak")
    return [np.flatnonzero(labels == c) for c in np.unique(labels[seeds])]


def _reachable_pairs(H, jumps, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sorted vec indices i d + j that the pattern of the Liouvillian of the CSR
    H and jumps links to the entries (rows, cols) of rho0, found without
    building it.

    The states split into the components of pattern(H + sum A^dag A): H's
    entries, plus a chain through the columns of each row of each A.  A pair
    of components (a, b) stands for every (i, j) with i in a and j in b; the H
    and A^dag A terms never leave it.  kron(A, conj A) links (a, b) to
    (a', b') when A links a to a' and b to b', so the pairs sought are those
    of the component pairs connected, in that quotient graph, to the ones
    rho0's entries lie in.
    """
    d = H.shape[0]
    H = H.tocoo()
    src, dst = [H.row], [H.col]
    for A, _ in jumps:
        chain = np.flatnonzero(np.diff(np.repeat(np.arange(d), np.diff(A.indptr))) == 0)
        src.append(A.indices[chain])
        dst.append(A.indices[chain + 1])
    comp = _labels(np.concatenate(src), np.concatenate(dst), d)
    m = comp.max() + 1
    src, dst = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    for A, _ in jumps:
        A = A.tocoo()
        a, b = np.divmod(np.unique(comp[A.row] * m + comp[A.col]), m)
        src.append((a[:, None] * m + a).ravel())
        dst.append((b[:, None] * m + b).ravel())
    label = _labels(np.concatenate(src), np.concatenate(dst), m * m)
    hit = np.zeros(label.max() + 1, dtype=bool)
    hit[label[comp[rows] * m + comp[cols]]] = True
    a, b = np.divmod(np.flatnonzero(hit[label]), m)
    # each reached component pair (a, b) holds size[a] size[b] pairs
    members = np.argsort(comp, kind="stable")
    size = np.bincount(comp, minlength=m)
    start = np.cumsum(size) - size
    node, t = _ragged(size[a] * size[b])
    da, db = np.divmod(t, size[b][node])
    return np.sort(members[start[a][node] + da] * d + members[start[b][node] + db])


def _labels(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Weakly connected component label of each of n nodes, for edges src -> dst."""
    graph = sp.coo_matrix((np.ones(src.size), (src, dst)), shape=(n, n))
    return connected_components(graph, directed=True, connection="weak")[1]


def _solve_blocks(L, x0: np.ndarray, pairs: np.ndarray, d: int):
    """(steady vec(rho) on `pairs`, kernel dimension, route) that x0 = vec(rho0)
    on `pairs` relaxes to; L is the Liouvillian on those vec indices i d + j.

    L is a direct sum of the weakly connected components of its pattern; each
    one x0 touches is solved alone.  A block with diagonal entries has a
    unique fixed point, scaled by x0's trace on it, when it has one; a block
    of coherences only decays when its gap is at least _COHERENCE_GAP_MIN.
    Any other block is projected onto its kernel.  The index transpose
    i d + j -> j d + i maps a coherence block onto its Hermitian partner,
    whose spectrum is the complex conjugate, so the partner's gap is reused.
    """
    x = np.zeros_like(x0)
    kernel_dim, route = 0, "nullspace"
    gaps = {}  # coherence-block gap by the block's sorted vec indices
    for idx in _components(L, np.flatnonzero(x0)):
        block = L[idx][:, idx]
        vec = pairs[idx]
        diag = np.flatnonzero(vec % (d + 1) == 0)
        if diag.size:
            try:
                x[idx] = x0[idx[diag]].sum().real * _unique_fixed_point(block, diag)
                kernel_dim += 1
                continue
            except DegenerateSteadyStateError:
                pass
        else:
            gap = gaps.get(np.sort(vec % d * d + vec // d).tobytes())
            if gap is None:
                gap = gaps[vec.tobytes()] = coherence_block_gap(block)
            if gap >= _COHERENCE_GAP_MIN:
                continue
        x[idx], k = _kernel_projection(block, x0[idx])
        kernel_dim += k
        route = "kernel-projection"
    return x, kernel_dim, route


def steady_state_raw(H, dissipators, rho0=None, residual_tol: float = 1e-9):
    """Steady state on raw matrices.  Returns (rho_matrix, residual, kernel_dim, route).

    Without rho0 the whole space is one block: route 'nullspace' (kernel_dim
    1) by one sparse LU of the trace-constrained Liouvillian, or
    DegenerateSteadyStateError on a degenerate fixed-point manifold.  With
    rho0, L is built only on the pairs (i, j) that its pattern links to
    vec(rho0) (`_reachable_pairs`), and `_solve_blocks` solves each block of
    that L which vec(rho0) touches.  kernel_dim is then summed over those
    blocks, and the route is 'kernel-projection' when any block was
    projected.  A component of the pattern of H and every jump that rho0's
    rows touch and that has more than SPARSE_NULLSPACE_MAX_DIM states fails
    before any superoperator is built.  The candidate must have a residual
    within residual_tol.
    """
    H = sp.csr_matrix(H, dtype=complex)
    dim = H.shape[0]
    jumps = [(sp.csr_matrix(A, dtype=complex), rate) for A, rate in dissipators]
    largest = dim
    if rho0 is not None:
        rho0 = np.asarray(rho0, dtype=complex)
        rows, cols = np.nonzero(rho0 != 0)
        pattern = abs(H) + sum(abs(A) for A, _ in jumps)
        largest = max(b.size for b in _components(pattern, rows))
    if largest > SPARSE_NULLSPACE_MAX_DIM:
        raise ConvergenceError(f"dimension {largest} too large for the null-space route")
    if rho0 is None:
        pairs = np.arange(dim * dim)
        L = liouvillian_matrix_raw(H, jumps)
        x, kernel_dim, route = _unique_fixed_point(L, pairs[:: dim + 1]), 1, "nullspace"
    else:
        pairs = _reachable_pairs(H, jumps, rows, cols)
        L = liouvillian_matrix_raw(H, jumps, pairs)
        x, kernel_dim, route = _solve_blocks(L, rho0.ravel()[pairs], pairs, dim)
    m = _normalize_kernel_vector(x, pairs, dim)
    res = float(np.max(np.abs(L @ m.ravel()[pairs])))
    if res > residual_tol:
        raise ConvergenceError(f"{route} candidate has residual {res:.3e} > {residual_tol:.1e}")
    return m, res, kernel_dim, route


def steady_state(gen: Generator, rho0: DensityMatrix | None = None,
                 residual_tol: float = 1e-9) -> SteadyStateResult:
    """Steady state that rho0 relaxes to: H, the jumps and rho0 are rotated into
    `collective_basis`, solved there by `steady_state_raw` and rotated back.

    A generator that acts on the atoms one by one does not split there, and is
    solved exactly.  Without rho0 the whole space is one block, degenerate for
    N >= 2 (the multiplet weights are conserved).
    """
    layout = gen.layout
    if rho0 is not None and rho0.layout != layout:
        raise LayoutError("initial state layout does not match generator layout")
    B, labels = collective_basis(layout.atom_count)
    m, res, kernel_dim, route = steady_state_raw(
        to_collective_basis(gen.hamiltonian.matrix, B, labels),
        [(to_collective_basis(jump.matrix, B, labels), rate) for jump, rate in gen.dissipators],
        rho0=None if rho0 is None else to_collective_basis(rho0.matrix, B, labels),
        residual_tol=residual_tol)
    m = _sandwich(B, m, B.conj().T)
    rho = DensityMatrix.from_matrix(layout, m, pos_tol=max(TOL_POS, 100.0 * residual_tol))
    return SteadyStateResult(rho_ss=rho, residual=res, kernel_dim=kernel_dim, method=route)
