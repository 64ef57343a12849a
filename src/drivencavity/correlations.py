"""State functionals: purity, entropies, quantum discord, entanglement, photon statistics.

All entropies and correlation measures are in bits (log base 2).  The two-qubit
basis ordering is |1> = |ee>, |2> = |eg>, |3> = |ge>, |4> = |gg>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    TOL_POS,
    DensityMatrix,
    HilbertLayout,
    LayoutError,
    partial_trace,
)

_EIG_CLIP = 1e-9   # spectrum values in [-1e-9, 0) are integrator noise
_EIG_DROP = 1e-12  # eigenvalues below this contribute nothing to entropy
# brute-force discord: a coarse grid over the Bloch sphere of the measured
# qubit, then rounds of a finer local grid around the best point
_DISCORD_GRID_DENSITY = 64
_DISCORD_REFINE_ROUNDS = 3
_DISCORD_REFINE_DENSITY = 8
# the contraction order einsum's optimize=True picks for the post-measurement
# blocks on both grids (4096 and 64 points), fixed so no path search runs per call
_BLOCKS_PATH = ["einsum_path", (1, 2), (0, 1)]


class XStateError(ValueError):
    """The analytic X-state formula does not apply to this state."""


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2)."""
    m = rho.matrix
    return float(np.real(np.trace(m @ m)))


def _entropy_from_probs(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    if np.any(p < -_EIG_CLIP):
        raise ValueError(f"probability {p.min():.3e} below clip tolerance; state not positive")
    p = np.clip(p, 0.0, None)
    p = p[p > _EIG_DROP]
    return float(-np.sum(p * np.log2(p))) + 0.0  # +0.0 avoids negative zero


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum lambda log2 lambda over the spectrum, in bits."""
    return _entropy_from_probs(np.linalg.eigvalsh(rho.matrix))


def binary_entropy(p: float) -> float:
    return _entropy_from_probs(np.array([p, 1.0 - p]))


@dataclass(frozen=True)
class XStateElements:
    """Populations and anti-diagonal coherences of a two-qubit X state."""

    p11: float
    p22: float
    p33: float
    p44: float
    c14: complex
    c23: complex

    def __post_init__(self):
        total = self.p11 + self.p22 + self.p33 + self.p44
        if abs(total - 1.0) > 1e-9:
            raise XStateError(f"populations sum to {total}, not 1")
        low = min(_block_eigenvalues(self)[1::2])
        if low < -TOL_POS:
            raise XStateError(f"X block has eigenvalue {low:.3e} below -{TOL_POS:.1e}; "
                              "state not positive")


def _block_eigenvalues(x: XStateElements) -> list:
    """Eigenvalues of the two 2x2 blocks of the X matrix: [hi, lo] of (p11, p44, c14),
    then of (p22, p33, c23)."""
    eigs = []
    for pa, pb, c in ((x.p11, x.p44, x.c14), (x.p22, x.p33, x.c23)):
        mid = 0.5 * (pa + pb)
        off = math.sqrt(0.25 * (pa - pb) ** 2 + abs(c) ** 2)
        eigs.extend([mid + off, mid - off])
    return eigs


def x_structure(rho_ab: DensityMatrix):
    """Extract X elements and the largest magnitude among forbidden entries.

    The violation is data, not an error; callers decide whether the analytic
    formulas apply.
    """
    m = rho_ab.matrix
    if m.shape != (4, 4):
        raise LayoutError("x_structure expects a two-qubit state")
    forbidden = [(0, 1), (0, 2), (1, 3), (2, 3)]
    violation = max(abs(m[i, j]) for i, j in forbidden)
    elems = XStateElements(
        p11=float(m[0, 0].real), p22=float(m[1, 1].real),
        p33=float(m[2, 2].real), p44=float(m[3, 3].real),
        c14=complex(m[0, 3]), c23=complex(m[1, 2]),
    )
    return elems, float(violation)


def _x_entropy_ab(x: XStateElements) -> float:
    """S(rho_AB) from the two 2x2 blocks of the X matrix."""
    return _entropy_from_probs(np.array(_block_eigenvalues(x)))


def _plogp_ratio(p: float, q: float) -> float:
    """p * log2(p / q) with the degenerate limit p, q -> 0 contributing 0."""
    if p <= _EIG_DROP or q <= _EIG_DROP:
        return 0.0
    return p * math.log2(p / q)


def quantum_discord_x(x: XStateElements) -> float:
    """Analytic discord for X states with balanced cross populations (p22 = p33)."""
    if abs(x.p22 - x.p33) > 1e-6:
        raise XStateError(
            f"p22 = {x.p22:.6g} and p33 = {x.p33:.6g} differ beyond 1e-6; "
            "use the brute-force minimization instead"
        )
    s_a = _entropy_from_probs(np.array([x.p11 + x.p22, x.p33 + x.p44]))
    s_ab = _x_entropy_ab(x)
    d1 = (
        _plogp_ratio(x.p11, x.p11 + x.p22)
        + _plogp_ratio(x.p33, x.p33 + x.p44)
        + _plogp_ratio(x.p22, x.p22 + x.p11)
        + _plogp_ratio(x.p44, x.p44 + x.p33)
    )
    beta = math.sqrt((x.p11 - x.p44) ** 2 + 4.0 * (abs(x.c23) + abs(x.c14)) ** 2)
    beta = min(beta, 1.0)
    d2 = -binary_entropy(0.5 * (1.0 + beta))
    qd = s_a - s_ab - max(d1, d2)
    if qd < -1e-9:
        raise XStateError(f"analytic discord came out at {qd:.3e} < -1e-9")
    return max(qd, 0.0)


def _measurement_vectors(theta, phi):
    """Bloch-direction measurement basis vectors, shape (n, 2) each."""
    ct, st = np.cos(0.5 * theta), np.sin(0.5 * theta)
    ph = np.exp(1j * phi)
    v_plus = np.stack([ct, st * ph], axis=-1)
    v_minus = np.stack([st, -ct * ph], axis=-1)
    return v_plus, v_minus


def _entropy_2x2_batch(mats: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Conditional entropies of unnormalized 2x2 blocks with weights `probs`."""
    tr = np.real(mats[:, 0, 0] + mats[:, 1, 1])
    det = np.real(mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0])
    disc = np.sqrt(np.clip(tr**2 - 4.0 * det, 0.0, None))
    safe = np.where(probs > _EIG_DROP, probs, 1.0)
    lam1 = np.clip(0.5 * (tr + disc) / safe, _EIG_DROP, 1.0)
    lam2 = np.clip(0.5 * (tr - disc) / safe, _EIG_DROP, 1.0)
    h = -(lam1 * np.log2(lam1) + lam2 * np.log2(lam2))
    return np.where(probs > _EIG_DROP, h, 0.0)


def _conditional_entropy(rho_t: np.ndarray, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Average post-measurement entropy of A for projective measurements on B."""
    out = None
    for v in _measurement_vectors(theta, phi):
        blocks = np.einsum("ijkl,nj,nl->nik", rho_t, v.conj(), v, optimize=_BLOCKS_PATH)
        probs = np.real(blocks[:, 0, 0] + blocks[:, 1, 1])
        term = probs * _entropy_2x2_batch(blocks, probs)
        out = term if out is None else out + term
    return out


def quantum_discord_bruteforce(rho_ab: DensityMatrix, measure: str = "B") -> float:
    """Discord by definition: minimize the measured conditional entropy over
    projective measurements on one qubit (coarse grid plus local refinement)."""
    m = rho_ab.matrix
    if m.shape != (4, 4):
        raise LayoutError("quantum_discord_bruteforce expects a two-qubit state")
    rho_t = m.reshape(2, 2, 2, 2)
    if measure == "A":
        rho_t = rho_t.transpose(1, 0, 3, 2)
    elif measure != "B":
        raise ValueError("measure must be 'A' or 'B'")

    rho_a = np.einsum("ijkj->ik", rho_t)
    rho_b = np.einsum("ijil->jl", rho_t)
    s_meas = _entropy_from_probs(np.linalg.eigvalsh(rho_b))
    s_ab = _entropy_from_probs(np.linalg.eigvalsh(m))

    th = np.linspace(0.0, np.pi, _DISCORD_GRID_DENSITY)
    ph = np.linspace(0.0, 2.0 * np.pi, _DISCORD_GRID_DENSITY, endpoint=False)
    tt, pp = np.meshgrid(th, ph, indexing="ij")
    cond = _conditional_entropy(rho_t, tt.ravel(), pp.ravel())
    best = int(np.argmin(cond))
    best_th, best_ph, best_val = tt.ravel()[best], pp.ravel()[best], cond[best]

    dth, dph = th[1] - th[0], ph[1] - ph[0]
    for _ in range(_DISCORD_REFINE_ROUNDS):
        th_loc = np.linspace(best_th - dth, best_th + dth, _DISCORD_REFINE_DENSITY)
        ph_loc = np.linspace(best_ph - dph, best_ph + dph, _DISCORD_REFINE_DENSITY)
        tt, pp = np.meshgrid(th_loc, ph_loc, indexing="ij")
        cond = _conditional_entropy(rho_t, tt.ravel(), pp.ravel())
        k = int(np.argmin(cond))
        if cond[k] < best_val:
            best_th, best_ph, best_val = tt.ravel()[k], pp.ravel()[k], cond[k]
        dth *= 2.0 / (_DISCORD_REFINE_DENSITY - 1)
        dph *= 2.0 / (_DISCORD_REFINE_DENSITY - 1)

    qd = s_meas - s_ab + float(best_val)
    return max(qd, 0.0)


def concurrence(x: XStateElements) -> float:
    """C = 2 max{0, |c14| - sqrt(p22 p33), |c23| - sqrt(p11 p44)}."""
    c = 2.0 * max(
        0.0,
        abs(x.c14) - math.sqrt(max(x.p22, 0.0) * max(x.p33, 0.0)),
        abs(x.c23) - math.sqrt(max(x.p11, 0.0) * max(x.p44, 0.0)),
    )
    return min(c, 1.0)


def concurrence_general(rho_ab: DensityMatrix) -> float:
    """Wootters concurrence for an arbitrary two-qubit state."""
    m = rho_ab.matrix
    if m.shape != (4, 4):
        raise LayoutError("concurrence_general expects a two-qubit state")
    yy = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex)
    r = m @ yy @ m.conj() @ yy
    lams = np.sort(np.sqrt(np.clip(np.linalg.eigvals(r).real, 0.0, None)))[::-1]
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def eof_from_concurrence(c: float) -> float:
    eta = 0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - c**2)))
    return binary_entropy(eta)


def eof(x: XStateElements) -> float:
    """Entanglement of formation, monotone in the concurrence."""
    return eof_from_concurrence(concurrence(x))


@dataclass(frozen=True)
class CorrelationReport:
    purity: float
    s_a: float
    s_ab: float
    qd: float
    eof: float
    concurrence: float
    x_structure_violation: float


def correlation_report(rho_ab: DensityMatrix) -> CorrelationReport:
    """All two-atom functionals for one state.

    Uses the analytic X-state formulas when the state has X form and balanced
    cross populations (both within 1e-6), the brute-force minimization and the
    general Wootters concurrence otherwise.
    """
    if rho_ab.layout != HilbertLayout(atom_count=2):
        raise LayoutError("correlation_report expects a two-atom state")
    elems, violation = x_structure(rho_ab)
    rho_a = partial_trace(rho_ab, keep=(0,))
    s_a = von_neumann_entropy(rho_a)
    s_ab = von_neumann_entropy(rho_ab)
    if violation < 1e-6 and abs(elems.p22 - elems.p33) <= 1e-6:
        qd = quantum_discord_x(elems)
        c = concurrence(elems)
    else:
        qd = quantum_discord_bruteforce(rho_ab)
        c = concurrence_general(rho_ab)
    return CorrelationReport(
        purity=purity(rho_ab), s_a=s_a, s_ab=s_ab, qd=qd,
        eof=eof_from_concurrence(c), concurrence=c,
        x_structure_violation=violation,
    )


@dataclass(frozen=True)
class FieldStats:
    """Mean photon number, g2(0) and Mandel Q; the latter two are None on vacuum."""

    n_bar: float
    g2: float | None
    mandel_q: float | None


def field_statistics(rho_field: DensityMatrix) -> FieldStats:
    """n_bar, g2(0) and Mandel Q of a field-only state, from its diagonal.

    a^dag a and a^dag^2 a^2 are diagonal, so each moment is one product per
    Fock level, summed over the levels: with s_n = sqrt(n), the entry of
    a^dag a at n is s_n s_n, that of (a^dag a)^2 (s_n s_n)(s_n s_n) and that
    of a^dag^2 a^2 ((s_n s_(n-1)) s_(n-1)) s_n, the products the dense
    matrix chains form, each times rho_nn; the complex sum then runs as the
    trace's does.
    """
    layout = rho_field.layout
    if layout.atom_count != 0 or not layout.has_field:
        raise LayoutError("field_statistics expects a field-only state")
    diag = rho_field.matrix.diagonal()
    s = np.sqrt(np.arange(layout.fock_dim))
    num = s * s

    def moment(op_diag):
        return float(np.real(np.sum(op_diag * diag)))

    n_bar = moment(num)
    n_sq = moment(num * num)
    if n_bar < 1e-9:
        return FieldStats(n_bar=n_bar, g2=None, mandel_q=None)
    aa = np.zeros(layout.fock_dim)
    aa[2:] = ((s[2:] * s[1:-1]) * s[1:-1]) * s[2:]
    aa_corr = moment(aa)
    return FieldStats(
        n_bar=n_bar,
        g2=aa_corr / n_bar**2,
        mandel_q=(n_sq - n_bar**2 - n_bar) / n_bar,
    )
