"""Time evolution and steady states of Lindblad generators.

A generator keeps its H and jumps as CSR (`model.Generator`); RK, the
steady-state solver and `residual_norm` read those, and spectral
propagation densifies them.  The Lindblad formula is applied in three ways
here.  `liouvillian_matrix_raw` builds the sparse superoperator once per
call, one `hilbert.kron_sum` of its terms, on all d^2 vec indices for the
Runge-Kutta right-hand side and on the reachable pairs for the null-space
LU and the kernel projection; `residual_norm` applies the generator to a
state with sparse-times-dense products and no superoperator; spectral propagation
restricts the generator to the initial state's invariant subspace and
assembles its real matrix in orthonormal Hermitian coordinates directly
from the k x k restricted operators (`_HermitianBasis`), with no k^2 x k^2
superoperator.  `propagate` takes that route while the subspace is small,
and RK otherwise.
At zero detunings (delta = Delta = 0, as in fig1) a diagonal phase gauge D
makes iH real, each jump real up to one phase and rho0 real, so complex
conjugation in that gauge commutes with L and the state stays real symmetric:
only the k(k+1)/2 diagonal and symmetric coordinates are kept
(`_real_basis`, which verifies D and otherwise keeps all k^2).
RK (`evolve`) steps scipy's DOP853 itself and checks each grid state as
the integrator reaches it, so a bad state stops the integration there.

One steady-state solver, no time integration, block by block, always from
an initial state: where the kernel is degenerate the steady state depends
on it.  `steady_state` works in the collective basis |J, M, copy> of the
atoms (`hilbert.collective_basis`), where a generator built from S_+/-, S_z
is block diagonal; it rotates the CSR operators and rho0 there as CSR,
`steady_state_raw` solves whatever matrices it is given, and the CSR
solution is rotated back block by block: no dim^2 array is made but the
rotated H the benchmark's tracer sizes the solve by.
One quotient graph of the components of pattern(H + sum A^dag A)
(`_reachable_blocks`) gives, without building L, the pairs (i, j) L's
pattern links to the initial state's entries, the blocks L splits into on
them (a conserved singlet, a weak U(1) charge difference; found without
symmetry labels) and the largest Hilbert block, which the cap bounds; where
the whole space exceeds the cap, a block above it is already found on the
jump links between the components, before the quotient graph is built.  L
is built on those pairs only (`kron_sum` with `rows`), block after block,
so each block is a run of its CSR rows.  Every block has one certificate:
one sparse LU (`_factor`, SuperLU's symmetric mode) and ||A||_1 times Higham's estimate of ||A^-1||_1
on it (LAPACK gecon's estimator, about 5 solves) below 1 / _KERNEL_REL_TOL.
A block with diagonal entries factors its trace-constrained Liouvillian M,
the trace row spliced into its CSR arrays, and passes with a unique fixed
point; a block of coherences factors itself, and passes with no zero mode,
so it decays and is dropped (`coherence_block_gap`).  The symmetric mode
eliminates the dense trace row last: on fig3's `e-g` triplet block the
factor holds 2.8 times the matrix's nonzeros instead of 42 (n_th 3) and 63
(n_th 5).  A block that fails is projected onto its kernel along its range,
the state it relaxes to; only that route runs an eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .hilbert import (DensityMatrix, LayoutError, TOL_POS, _ragged, collective_basis,
                      dense_if_full, from_collective_basis, kron_sum, to_array,
                      to_collective_basis)
from .model import Generator

SPARSE_NULLSPACE_MAX_DIM = 650      # sparse LU of the trace-constrained system
SPECTRAL_MAX_SUPPORT = 64           # largest support k of evolve_spectral; its eig is k(k+1)/2 or k^2
_KERNEL_REL_TOL = 1e-10             # relative size of a kernel eigenvalue; 1 / max condition
_SUPPORT_REL_TOL = 1e-12            # rank cut-off of the invariant-subspace Krylov closure
_DENSE_KERNEL_MAX = 64              # up to this many rows a kernel is found densely


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
    coordinates: int = 0         # evolve_spectral: real unknowns of its eig, k(k+1)/2 or k^2
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


def residual_norm(gen: Generator, rho) -> float:
    """Entrywise max of d(rho)/dt, from the generator's CSR H and jumps and
    the state, an array or a sparse matrix.

    A sparse state takes sparse products, and d(rho)/dt has the pattern they
    reach; one with every entry stored is read as its array
    (`dense_if_full`).  An array takes sparse-times-dense products only:
    m H = (H^T m^T)^T, A m A^dag = A (A m^dag)^dag, A^dag X = conj(A^T conj(X)),
    m A^dag A = (A^T conj(A m^dag))^T.
    """
    m = dense_if_full(getattr(rho, "matrix", rho))
    H = gen.H
    if sp.issparse(m):
        m = sp.csr_matrix(m, dtype=complex)
        out = -1j * (H @ m - m @ H)
        for A, rate in gen.jumps:
            Ad = A.conj().T
            Am = A @ m
            out = out + rate * (2.0 * (Am @ Ad) - Ad @ Am - (m @ Ad) @ A)
        return float(abs(out).max())
    m = np.asarray(m, dtype=complex)
    out = -1j * (H @ m - (H.T @ m.T).T)
    for A, rate in gen.jumps:
        At = A.T
        Am, Amh = A @ m, A @ m.conj().T
        out += rate * (2.0 * (A @ Amh.conj().T) - (At @ Am.conj()).conj() - (At @ Amh.conj()).T)
    return float(np.max(np.abs(out)))


def evolve(gen: Generator, rho0: DensityMatrix, t_grid, tol: float = 1e-9) -> Trajectory:
    """Integrate rho through the requested times with local error control at tol.

    DOP853 with rtol = tol and atol = tol * 1e-3, stepped here; the
    right-hand side is one product L @ vec(rho) with the sparse
    superoperator L, built from the generator's CSR operators once per call
    and freed on every exit.  The
    states at the grid times inside a step come from that step's
    interpolant, as `solve_ivp(..., t_eval=t_grid)` gives them; the first is
    rho0 itself.  Each state is checked for Hermiticity, unit trace and
    positivity (floor max(TOL_POS, 10 tol)) as soon as it is reached, so the
    first bad state raises before any later step is taken.
    """
    if rho0.layout != gen.layout:
        raise LayoutError("initial state layout does not match generator layout")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be a strictly increasing 1-D sequence")
    if tol <= 0:
        raise ValueError("tol must be positive")

    dim = gen.layout.dim
    stats = IntegratorStats(rtol=tol)
    pos_floor = max(TOL_POS, 10.0 * tol)
    states = []

    def check(m):
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

    m0 = to_array(rho0.matrix)
    check(m0)
    if t_grid.size > 1:
        from scipy.integrate import DOP853  # only RK needs it, and it loads scipy.optimize

        L = liouvillian_matrix_raw(gen.H, gen.jumps)
        solver = DOP853(lambda _, y, L=L: L @ y, float(t_grid[0]), m0.ravel(),
                        float(t_grid[-1]), rtol=tol, atol=tol * 1e-3)
        del L
        try:
            k = 1
            while k < t_grid.size:
                message = solver.step()
                if solver.status == "failed":
                    raise EvolutionError(f"integrator failed: {message}")
                reached = int(np.searchsorted(t_grid, solver.t, side="right"))
                if reached > k:
                    for y in solver.dense_output()(t_grid[k:reached]).T:
                        check(y.reshape(dim, dim))
                    k = reached
            stats.n_rhs_evals = int(solver.nfev)
        finally:
            # the solver and its closures hold each other: dropping its state
            # frees L and the stage arrays on every exit, not at the next collection
            solver.__dict__.clear()
    stats.min_eigenvalue = min(s.min_eigenvalue for s in states)
    return Trajectory(times=t_grid, states=states, stats=stats)


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


class _HermitianBasis:
    """The first n of the k^2 orthonormal Hermitian basis matrices E_c of
    k x k matrices: E_ii, then (E_ij + E_ji)/sqrt(2) and i(E_ij - E_ji)/sqrt(2)
    for i < j.  Each is w E_ij + conj(w) E_ji at one (i, j), i <= j, with
    w = 1/2, 1/sqrt(2) or i/sqrt(2): vec(E_c) is column c of the unitary T with
    vec(X) = T x for Hermitian X and real x (row-major vec), and the maps
    below are T's products, read on those at most two entries.
    """

    def __init__(self, k: int, n: int):
        iu, ju = np.triu_indices(k, 1)
        h = 1.0 / np.sqrt(2.0)
        self.k = k
        self.i = np.concatenate([np.arange(k), iu, iu])[:n]
        self.j = np.concatenate([np.arange(k), ju, ju])[:n]
        m = iu.size
        self.w = np.concatenate([np.full(k, 0.5), np.full(m, h), np.full(m, 1j * h)])[:n]

    def coordinates(self, X) -> np.ndarray:
        """x_c = Re <E_c, X> of X, or of each matrix of a stack: Re(T^dag vec X)."""
        i, j, w = self.i, self.j, self.w
        return (w.conj() * X[..., i, j] + w * X[..., j, i]).real

    def matrix(self, x: np.ndarray) -> np.ndarray:
        """sum_c x_c E_c for real x: T x as a k x k matrix."""
        Z = np.zeros((self.k, self.k), dtype=complex)
        np.add.at(Z, (self.i, self.j), self.w * x)
        return Z + Z.conj().T

    def generator(self, H, dissipators) -> np.ndarray:
        """Re(T^dag L T) for the Lindblad L of the k x k arrays H and jumps:
        column c holds the coordinates of L(E_c).

        With P = -iH - sum r A^dag A, L(X) = P X + X P^dag + sum 2r A X A^dag,
        so for E = w E_ij + conj(w) E_ji, L(E) = F + F^dag with
        F = w P[:, i] e_j^T + conj(w) P[:, j] e_i^T + sum 2r w A[:, i] A[:, j]^dag.
        F is formed for k columns at a time, k^3 entries: no array of k^4 or
        n k^2 entries is made.
        """
        k, i, j, w = self.k, self.i, self.j, self.w
        P = -1j * H - sum(rate * (A.conj().T @ A) for A, rate in dissipators)
        L = np.empty((i.size, i.size))
        for lo in range(0, i.size, k):
            ic, jc, wc = i[lo:lo + k], j[lo:lo + k], w[lo:lo + k]
            s = np.arange(ic.size)
            F = np.zeros((ic.size, k, k), dtype=complex)
            F[s, :, jc] = wc[:, None] * P[:, ic].T
            F[s, :, ic] += wc.conj()[:, None] * P[:, jc].T
            for A, rate in dissipators:
                left, right = A[:, ic].T, A[:, jc].conj().T
                F += (2.0 * rate * wc)[:, None, None] * left[:, :, None] * right[:, None, :]
            L[:, lo:lo + k] = self.coordinates(F + F.conj().transpose(0, 2, 1)).T
        return L


def _real_basis(gen: Generator, rho0: np.ndarray, V: np.ndarray):
    """An orthonormal basis D R of range(V), R real and D diagonal phases, on
    which the restricted generator keeps rho0's part real symmetric; None when
    no such gauge is found.

    D makes every edge of a breadth-first spanning forest of pattern(H) real
    in D^dag (iH) D.  Then it is verified, each to _SUPPORT_REL_TOL of the
    largest entry: D^dag (iH) D is real, each D^dag A D is real up to one
    phase, D^dag rho0 D is real, and the real d x 2k matrix
    [Re D^dag V, Im D^dag V] has rank exactly k, so range(D^dag V) is closed
    under conjugation and R is an orthonormal basis of its real part.  In
    that gauge X -> conj(X) commutes with the restricted Liouvillian, so
    X(t) stays real symmetric (Buca & Prosen, NJP 14, 073007, 2012).  A
    diagonal term of H (delta or Delta nonzero) is real in iH only at 0, and
    jumps between H's disconnected sectors pick up one phase per sector
    (the thermal frame): both fail the check.
    """
    H = gen.H
    d, k = V.shape
    pattern = sp.csr_matrix((np.ones(H.nnz), H.indices, H.indptr), shape=H.shape)
    phase = np.ones(d, dtype=complex)
    seen = np.zeros(d, dtype=bool)
    for root in range(d):
        if seen[root]:
            continue
        order, pred = breadth_first_order(pattern, root, directed=False)
        seen[order] = True
        edge = 1j * np.asarray(H[pred[order[1:]], order[1:]]).ravel()
        for node, p, h in zip(order[1:], pred[order[1:]], edge):
            phase[node] = phase[p] * np.conj(h) / abs(h)

    def gauged(m):  # D^dag m D on m's stored entries
        rows = np.repeat(np.arange(d), np.diff(m.indptr))
        return m.data * phase[rows].conj() * phase[m.indices]

    def real(x):
        scale = np.max(np.abs(x), initial=0.0)
        return np.max(np.abs(x.imag), initial=0.0) <= _SUPPORT_REL_TOL * scale

    if not real(1j * gauged(H)):
        return None
    for A, rate in gen.jumps:
        a = gauged(A)
        if rate != 0 and a.size and not real(a * np.conj(a[np.argmax(np.abs(a))])):
            return None
    if not real(phase.conj()[:, None] * rho0 * phase):
        return None
    W = phase.conj()[:, None] * V
    u, s, _ = np.linalg.svd(np.hstack([W.real, W.imag]), full_matrices=False)
    if np.any(s[k:] > _SUPPORT_REL_TOL * s[0]):
        return None
    return phase[:, None] * u[:, :k]


def evolve_spectral(gen: Generator, rho0: DensityMatrix, t_grid) -> Trajectory:
    """Propagate by eigendecomposition of the Liouvillian on rho0's invariant subspace.

    The state never leaves the smallest subspace S that holds range(rho0) and
    is mapped into itself by H and every jump A and A^dag
    (`_invariant_support`); for all-excited atoms S is the symmetric
    multiplet times the field.  On S the generator is a real matrix in
    orthonormal Hermitian coordinates, k^2 of them for k = dim(S); one real
    eig of it buys the state at any later time for the cost of a
    matrix-vector product, so time grids spanning many decades (far beyond
    what step-by-step integration can afford) come essentially for free.
    Where `_real_basis` finds a basis of S on which the state stays real
    symmetric, only the k(k+1)/2 diagonal and symmetric coordinates are
    kept, and the eig is that size.  `_HermitianBasis` assembles that matrix
    on the kept coordinates from the k x k restricted operators, and maps
    rho0 to coordinates and x(t) back to V X V^dag, each coordinate read on
    at most two matrix entries: no k^2 x k^2 superoperator is built, and
    what the route holds at once is a few arrays of the eig's size.  The
    coordinates x(t) are real up to round-off; an imaginary part above 1e-6
    of max |x(t)| means the eigenbasis is too ill-conditioned and raises
    EvolutionError.  The 1-norm condition estimate of the eigenvector
    matrix, dim(S) and the number of coordinates are kept in the stats.
    Each state is embedded back as V X V^dag and checked on the full space.
    Limited to supports of dimension up to SPECTRAL_MAX_SUPPORT, checked
    before anything dense is assembled.
    """
    if rho0.layout != gen.layout:
        raise LayoutError("initial state layout does not match generator layout")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be a strictly increasing 1-D sequence")

    H, dissipators = gen.H.toarray(), [(A.toarray(), rate) for A, rate in gen.jumps]
    m0 = to_array(rho0.matrix)
    V = _invariant_support(H, dissipators, m0)
    k = V.shape[1]
    if k > SPECTRAL_MAX_SUPPORT:
        raise SupportTooLargeError(f"invariant support of dimension {k} exceeds "
                                   f"SPECTRAL_MAX_SUPPORT = {SPECTRAL_MAX_SUPPORT}; use evolve()")
    real = _real_basis(gen, m0, V)
    if real is None:
        n = k * k
    else:  # X(t) is real symmetric: its diagonal and symmetric coordinates
        V, n = real, k * (k + 1) // 2
    Vd = V.conj().T
    basis = _HermitianBasis(k, n)
    L = basis.generator(Vd @ H @ V, [(Vd @ A @ V, r) for A, r in dissipators])
    vals, vecs = np.linalg.eig(L)
    del L  # L, then the LU, are freed once used: the states share memory with vecs only
    # clip tiny positive real parts (numerical noise) so nothing grows
    vals = np.where(vals.real > 0, 1j * vals.imag, vals)
    lu = la.lu_factor(vecs)
    gecon, = la.get_lapack_funcs(("gecon",), (lu[0],))
    rcond, _ = gecon(lu[0], np.linalg.norm(vecs, 1))
    coeff = la.lu_solve(lu, basis.coordinates(Vd @ m0 @ V))
    del lu

    stats = IntegratorStats(support_dim=k, coordinates=n,
                            eigvec_cond=1.0 / rcond if rcond > 0 else np.inf)
    states = []
    for t in t_grid:
        x = vecs @ (np.exp(vals * t) * coeff)
        asym = float(np.max(np.abs(x.imag)) / np.max(np.abs(x)))
        stats.max_herm_asym = max(stats.max_herm_asym, asym)
        m = V @ basis.matrix(x.real) @ Vd
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


def liouvillian_matrix_raw(H, dissipators, rows=None) -> sp.csr_matrix:
    """Sparse superoperator acting on row-major vec(X): vec(A X B) = kron(A, B^T) vec(X).

    dX/dt = -i[H, X] + sum_k rate_k (2 A_k X A_k^dag - A_k^dag A_k X - X A_k^dag A_k).
    H and the jumps may be dense or sparse.  One `kron_sum` of the terms
    (-i, H, 1), (i, 1, H^T) and, per jump, (2 rate, A, conj A),
    (-rate, A^dag A, 1), (-rate, 1, (A^dag A)^T), on all d^2 vec indices or
    on `rows`, vec indices i d + j in any order: each entry sums its terms
    in that order, so L on `rows` is the whole L sliced to them, entry for
    entry.
    """
    H = sp.csr_matrix(H, dtype=complex)
    eye = sp.identity(H.shape[0], format="csr", dtype=complex)
    terms = [(-1j, H, eye), (1j, eye, H.T)]
    for A, rate in dissipators:
        A = sp.csr_matrix(A, dtype=complex)
        AdA = A.conj().T @ A
        terms += [(2.0 * rate, A, A.conj()), (-rate, AdA, eye), (-rate, eye, AdA.T)]
    return kron_sum(terms, H.shape[0], rows)


def _normalize_kernel_vector(x: np.ndarray, pairs: np.ndarray, dim: int):
    """(m, m's entries at `pairs`): m is the dim x dim matrix with x at the vec
    indices `pairs`, made Hermitian and of unit trace, as canonical CSR; the
    trace sums the diagonal entries among `pairs`.

    Worked on `pairs` and their transposes, a partner outside `pairs` read as
    0: entry for entry 0.5 (m + m^dag) / tr of the dense m.
    """
    idx = np.union1d(pairs, pairs % dim * dim + pairs // dim)
    v = np.zeros(idx.size, dtype=complex)
    v[np.searchsorted(idx, pairs)] = x
    v = 0.5 * (v + v[np.searchsorted(idx, idx % dim * dim + idx // dim)].conj())
    tr = v[idx % (dim + 1) == 0].sum().real
    if abs(tr) < 1e-10:
        raise DegenerateSteadyStateError("kernel vector is traceless; fixed point not unique")
    v = v / tr
    live = v != 0
    rows, cols = np.divmod(idx[live], dim)
    m = sp.csr_matrix((v[live], cols, np.searchsorted(rows, np.arange(dim + 1))), shape=(dim, dim))
    return m, v[np.searchsorted(idx, pairs)]


def coherence_block_gap(L) -> float:
    """1 / ||L^-1||_1 of the sparse Liouvillian block L, by
    `_inverse_norm_estimate` (a lower estimate, usually exact) on its
    `_factor`; 0.0 when the factor is exactly singular.

    Every eigenvalue lambda of L has |lambda| >= 1 / ||L^-1||_1, so a block of
    coherences with a gap above _KERNEL_REL_TOL ||L||_1, the condition bound
    of a unique fixed point, has no zero mode: it decays.
    """
    try:
        lu = _factor(L.tocsc())
    except RuntimeError:  # exactly singular: a zero mode
        return 0.0
    return 1.0 / _inverse_norm_estimate(lu)


def _kernel_bases(L):
    """Right and left kernel bases (R, Lam) of L: eigenvalues within s = _KERNEL_REL_TOL ||L||_1.

    Up to _DENSE_KERNEL_MAX rows, the leading Schur vectors of L and of L^H
    with the kernel eigenvalues ordered first: an orthonormal basis of each
    kernel, where eig's vectors of a repeated eigenvalue can come out
    parallel.  Above, shift-invert ARPACK on one sparse LU of L - s I, k
    growing until an eigenvalue lies outside the kernel.
    """
    n = L.shape[0]
    s = _KERNEL_REL_TOL * spla.norm(L, 1)
    if n <= _DENSE_KERNEL_MAX:
        L = L.toarray()
        (_, right, k), (_, left, k_left) = (
            la.schur(M, output="complex", sort=lambda x: abs(x) <= s) for M in (L, L.conj().T))
        return right[:, :k], left[:, :k_left]

    def modes(k, trans="N"):
        # the k largest |mu| of (L - s I)^-1 from a fixed start: L has the eigenvalue
        # s + 1/mu with trans "N" (right vectors), s + 1/conj(mu) with "H" (left)
        inverse = spla.LinearOperator((n, n), matvec=lambda x: lu.solve(x, trans=trans),
                                      dtype=complex)
        v0 = np.random.default_rng(0).standard_normal(n).astype(complex)
        return spla.eigs(inverse, k=k, which="LM", v0=v0)

    try:
        lu = spla.splu((L - s * sp.identity(n, dtype=complex, format="csr")).tocsc())
        k = 2
        while k <= n - 2:  # ARPACK computes at most n - 2 modes
            mu, right = modes(k)
            kernel = np.abs(s + 1.0 / mu) <= s
            if not kernel.all():
                mu_left, left = modes(k, trans="H")
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


def _trace_constrained(L, diag: np.ndarray) -> sp.csc_matrix:
    """M: the CSR L with row diag[0] replaced by the trace row, ones at the
    columns `diag`, spliced into L's arrays and converted to CSC once."""
    r = diag[0]
    lo, hi = L.indptr[r], L.indptr[r + 1]
    indptr = L.indptr.copy()
    indptr[r + 1:] += diag.size - (hi - lo)
    indices = np.concatenate((L.indices[:lo], diag.astype(L.indices.dtype), L.indices[hi:]))
    data = np.concatenate((L.data[:lo], np.ones(diag.size, dtype=L.dtype), L.data[hi:]))
    return sp.csr_matrix((data, indices, indptr), shape=L.shape).tocsc()


def _inverse_norm_estimate(lu) -> float:
    """A lower estimate of ||A^-1||_1 from the sparse LU of A: Higham's
    iteration (ACM TOMS 14, 381, 1988) as LAPACK's zlacn2 runs it for gecon,
    on `lu.solve` with A and A^H.  Usually 5 solves, at most 11; the largest
    estimate seen is kept.
    """
    n = lu.shape[0]
    tiny = np.finfo(float).tiny

    def sign(y):  # y / |y|, and 1 where |y| is not above the safe minimum
        a = np.abs(y)
        return np.where(a > tiny, y / np.where(a > tiny, a, 1.0), 1.0)

    y = lu.solve(np.full(n, 1.0 / n, dtype=complex))
    est = np.abs(y).sum()
    if n == 1:
        return float(est)
    j = np.argmax(np.abs(lu.solve(sign(y), trans="H")))
    for _ in range(4):
        e = np.zeros(n, dtype=complex)
        e[j] = 1.0
        y = lu.solve(e)
        norm = np.abs(y).sum()
        if not norm > est:
            break
        est = norm
        z = np.abs(lu.solve(sign(y), trans="H"))
        j, last = np.argmax(z), j
        if z[last] == z[j]:
            break
    t = np.arange(n)
    alt = np.where(t % 2, -1.0, 1.0) * (1.0 + t / (n - 1.0))
    return float(max(est, 2.0 * np.abs(lu.solve(alt.astype(complex))).sum() / (3.0 * n)))


def _factor(A: sp.csc_matrix):
    """SuperLU's LU of A in symmetric mode: A^T + A ordered by minimum degree,
    so a dense row is eliminated last, and diagonal pivots unless an entry
    below is 100 times larger.  RuntimeError when A is exactly singular."""
    return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.01,
                     options={"SymmetricMode": True})


def _unique_fixed_point(L, diag: np.ndarray) -> np.ndarray:
    """The x with L x = 0 and unit trace sum(x[diag]), by one sparse LU; raises
    DegenerateSteadyStateError when L has no unique fixed point.  L is a CSR
    block with sorted indices, and `diag` ascends.

    Trace preservation makes the trace row a left null vector of L, so M, L
    with the row of one diagonal entry replaced by it (`_trace_constrained`),
    is nonsingular iff the kernel is 1-D.  That is decided from
    ||M||_1 ||M^-1||_1, the second factor by `_inverse_norm_estimate` on M's
    factor, up to 1 / _KERNEL_REL_TOL.

    The trace row is dense, and SuperLU's default (COLAMD on the columns,
    partial pivoting) picks it as an early pivot, which fills the factor: on
    fig3's `e-g` triplet block (1 477 unknowns at n_th 3, n_max 164; 2 305 at
    n_th 5, n_max 256) the LU holds 42 and 63 times nnz(M).  Minimum degree
    on M^T + M with diagonal pivots preferred (symmetric mode, `_factor`)
    eliminates the dense row last, and the LU holds 2.8 times nnz(M) on both.
    """
    M = _trace_constrained(L, diag)
    try:
        lu = _factor(M)
    except RuntimeError as exc:  # exactly singular: degenerate kernel
        raise DegenerateSteadyStateError(str(exc)) from exc
    norm = np.add.reduceat(np.abs(M.data), M.indptr[:-1]).max()  # no column of M is empty
    cond = norm * _inverse_norm_estimate(lu)
    if not cond <= 1.0 / _KERNEL_REL_TOL:
        raise DegenerateSteadyStateError(
            f"trace-constrained Liouvillian has condition estimate {cond:.1e}: "
            "fixed-point manifold is degenerate"
        )
    b = np.zeros(L.shape[0], dtype=complex)
    b[diag[0]] = 1.0
    return lu.solve(b)


def _reachable_blocks(H, jumps, rows: np.ndarray, cols: np.ndarray, cap=None):
    """(pairs, blocks, largest) of the Liouvillian L of the CSR H and jumps for
    the entries (rows, cols) of rho0, found without building L.

    The states split into the components of pattern(H + sum A^dag A): H's
    entries, plus a chain through the columns of each row of each A.  A pair
    of components (a, b) stands for every (i, j) with i in a and j in b; the H
    and A^dag A terms never leave it.  kron(A, conj A) links (a, b) to
    (a', b') when A links a to a' and b to b'; a jump whose links are
    another's reversed (the thermal frame's a and a^dag) adds the same weak
    edges, so each undirected relation is built once.  In that quotient graph:
    `pairs` are the sorted vec indices i d + j of the component pairs
    connected to the ones rho0's entries lie in; `blocks` are L's weakly
    connected blocks on them, one per reached component, as ascending index
    arrays into `pairs` in the order of their first pair; `largest` is the
    largest Hilbert block, the summed sizes of the components a of one
    reached component's diagonal nodes (a, a).  With a `cap`, a Hilbert
    block above it raises ConvergenceError: where d exceeds the cap, as soon
    as `_cap_bound` on the m components does, before the m^2-node quotient
    graph is built.  A jump of rate 0 would link what L does not: the caller
    leaves it out.
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
    size = np.bincount(comp, minlength=m)
    # (a, b): A links component b to a, once per jump
    links = []
    for A, _ in jumps:
        A = A.tocoo()
        links.append(np.divmod(np.unique(comp[A.row] * m + comp[A.col]), m))
    if cap is not None and d > cap:  # else largest <= d is within the cap
        _check_cap(_cap_bound(comp[rows[rows == cols]], size, links), cap)
    src, dst = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    relations = set()
    for a, b in links:
        key = (a * m + b).tobytes()  # sorted by np.unique
        if key in relations:
            continue
        relations.update((key, np.sort(b * m + a).tobytes()))
        src.append((a[:, None] * m + a).ravel())
        dst.append((b[:, None] * m + b).ravel())
    label = _labels(np.concatenate(src), np.concatenate(dst), m * m)
    hit = np.zeros(label.max() + 1, dtype=bool)
    hit[label[comp[rows] * m + comp[cols]]] = True
    node = np.flatnonzero(hit[label])
    a, b = np.divmod(node, m)
    # each reached component pair (a, b) holds size[a] size[b] pairs
    members = np.argsort(comp, kind="stable")
    start = np.cumsum(size) - size
    owner, t = _ragged(size[a] * size[b])
    da, db = np.divmod(t, size[b][owner])
    pairs = np.sort(members[start[a][owner] + da] * d + members[start[b][owner] + db])
    block = label[comp[pairs // d] * m + comp[pairs % d]]
    order = np.argsort(block, kind="stable")
    blocks = np.split(order, np.flatnonzero(np.diff(block[order])) + 1)
    blocks.sort(key=lambda idx: idx[0])
    diag = a == b
    largest = int(np.bincount(label[node[diag]], size[a[diag]], minlength=1).max())
    if cap is not None:
        _check_cap(largest, cap)
    return pairs, blocks, largest


def _cap_bound(diag_comps: np.ndarray, size: np.ndarray, links: list) -> int:
    """A lower bound on `_reachable_blocks`' largest Hilbert block: the summed
    `size` of the components the jumps link, weakly, to one that holds a
    diagonal entry of rho0 (`diag_comps`); 0 without one.

    A jump linking a to a' links (a, a) to (a', a') in the quotient graph, so
    the reached diagonal nodes hold at least these; they hold exactly these
    when every row of rho0 holds its diagonal entry, as in a state.
    """
    none = [np.zeros(0, dtype=int)]
    label = _labels(np.concatenate([a for a, _ in links] + none),
                    np.concatenate([b for _, b in links] + none), size.size)
    return int(np.bincount(label, size)[label[diag_comps]].max(initial=0))


def _check_cap(largest: int, cap: int):
    if largest > cap:
        raise ConvergenceError(f"dimension {largest} too large for the null-space route")


def _labels(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Weakly connected component label of each of n nodes, for edges src -> dst."""
    graph = sp.coo_matrix((np.ones(src.size), (src, dst)), shape=(n, n))
    return connected_components(graph, directed=True, connection="weak")[1]


def _solve_blocks(L, x0: np.ndarray, pairs: np.ndarray, sizes, d: int):
    """(steady vec(rho) on `pairs`, kernel dimension, route) that x0 = vec(rho0)
    on `pairs` relaxes to.  L is the CSR Liouvillian on those vec indices
    i d + j, in block-major order: the direct sum of diagonal blocks of the
    given `sizes`, each cut from L's CSR arrays and solved alone.

    A block with diagonal entries has a unique fixed point, scaled by x0's
    trace on it, when it has one; a block of coherences decays when its gap
    (`coherence_block_gap`) exceeds _KERNEL_REL_TOL ||L_block||_1, strictly:
    an uncoupled coherence's all-zero block (gap 0, norm 0) is kept.  Any
    other block is projected onto its kernel.  The index transpose i d + j ->
    j d + i maps a coherence block onto its Hermitian partner, whose spectrum
    is the complex conjugate, so the partner's verdict is reused.
    """
    x = np.zeros_like(x0)
    kernel_dim, route = 0, "nullspace"
    verdicts = {}  # whether a coherence block decays, by the block's sorted vec indices
    stops = np.cumsum(sizes)
    for lo, hi in zip(stops - sizes, stops):
        vec = pairs[lo:hi]
        diag = np.flatnonzero(vec % (d + 1) == 0)
        decays = None if diag.size else verdicts.get(np.sort(vec % d * d + vec // d).tobytes())
        if decays:
            continue
        p = L.indptr[lo:hi + 1]
        block = sp.csr_matrix((L.data[p[0]:p[-1]], L.indices[p[0]:p[-1]] - lo, p - p[0]),
                              shape=(hi - lo,) * 2)
        if diag.size:
            try:
                x[lo:hi] = x0[lo:hi][diag].sum().real * _unique_fixed_point(block, diag)
                kernel_dim += 1
                continue
            except DegenerateSteadyStateError:
                pass
        elif decays is None:
            norm = np.bincount(block.indices, np.abs(block.data), minlength=1).max()
            decays = verdicts[vec.tobytes()] = coherence_block_gap(block) > _KERNEL_REL_TOL * norm
            if decays:
                continue
        x[lo:hi], k = _kernel_projection(block, x0[lo:hi])
        kernel_dim += k
        route = "kernel-projection"
    return x, kernel_dim, route


def steady_state_raw(H, dissipators, rho0, residual_tol: float = 1e-9):
    """Steady state that rho0 relaxes to, on raw matrices.  Returns
    (rho as canonical CSR, residual, kernel_dim, route).

    H, the jumps and rho0 may each be dense or sparse.  Jumps of rate 0 add
    nothing to L and are left out.  One quotient graph
    (`_reachable_blocks`) gives the pairs (i, j) that L's pattern links to
    vec(rho0), L's blocks on them and the largest Hilbert block they span.
    A Hilbert block above SPARSE_NULLSPACE_MAX_DIM states fails before any
    superoperator is built; otherwise L is built on the pairs only, block
    after block, and `_solve_blocks` solves each block.  kernel_dim is
    summed over the blocks, and the route is 'kernel-projection' when any
    block was projected.  The candidate must have a residual within
    residual_tol.
    """
    H = sp.csr_matrix(H, dtype=complex)
    dim = H.shape[0]
    jumps = [(sp.csr_matrix(A, dtype=complex), rate) for A, rate in dissipators if rate != 0]
    rho0 = sp.coo_matrix(rho0, dtype=complex)
    live = rho0.data != 0
    rows, cols = rho0.row[live], rho0.col[live]
    pairs, blocks, _ = _reachable_blocks(H, jumps, rows, cols, SPARSE_NULLSPACE_MAX_DIM)
    x0 = np.zeros(pairs.size, dtype=complex)
    x0[np.searchsorted(pairs, rows * dim + cols)] = rho0.data[live]
    # block-major: each block is a run of L's rows whose columns stay in it
    order = np.concatenate(blocks)
    pairs, x0 = pairs[order], x0[order]
    L = liouvillian_matrix_raw(H, jumps, pairs)
    x, kernel_dim, route = _solve_blocks(L, x0, pairs, [b.size for b in blocks], dim)
    m, on_pairs = _normalize_kernel_vector(x, pairs, dim)
    res = float(np.max(np.abs(L @ on_pairs)))
    if res > residual_tol:
        raise ConvergenceError(f"{route} candidate has residual {res:.3e} > {residual_tol:.1e}")
    return m, res, kernel_dim, route


def steady_state(gen: Generator, rho0: DensityMatrix,
                 residual_tol: float = 1e-9) -> SteadyStateResult:
    """Steady state that rho0 relaxes to, as a CSR state: the generator's CSR
    H and jumps and rho0 are rotated into `collective_basis` as CSR, solved
    there by `steady_state_raw`, and the CSR solution is rotated back block by
    block (`from_collective_basis`).

    A generator that acts on the atoms one by one does not split there, and is
    solved exactly.
    """
    layout = gen.layout
    if rho0.layout != layout:
        raise LayoutError("initial state layout does not match generator layout")
    B, labels = collective_basis(layout.atom_count)
    m, res, kernel_dim, route = steady_state_raw(
        # dense: the benchmark tracer sizes the solve by len(H) (ROADMAP item 19)
        to_collective_basis(gen.H, B, labels).toarray(),
        [(to_collective_basis(jump, B, labels), rate) for jump, rate in gen.jumps],
        to_collective_basis(rho0.matrix, B, labels), residual_tol=residual_tol)
    rho = DensityMatrix.from_matrix(layout, from_collective_basis(m, B),
                                    pos_tol=max(TOL_POS, 100.0 * residual_tol))
    return SteadyStateResult(rho_ss=rho, residual=res, kernel_dim=kernel_dim, method=route)
