"""Hamiltonians and Lindblad generators for N atoms in a driven leaky cavity.

All rates and frequencies are in units of the cavity decay rate kappa
(kappa = 1 internally), time in units of 1/kappa.  The dissipator convention
carries the factor 2:  L[A] rho = 2 A rho A^dag - A^dag A rho - rho A^dag A,
so the field amplitude decays at rate kappa and the intensity at 2 kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .hilbert import (
    DensityMatrix,
    HilbertLayout,
    LayoutError,
    TOL_HERM,
    coherent_vector,
    fock_vector,
    max_asymmetry,
)

FRAMES = ("lab-rotating", "displaced", "effective-atomic", "thermal")
PHYSICAL_KEYS = ("g", "epsilon", "delta", "delta_atom", "n_th")  # each must be finite


class ConfigError(ValueError):
    """Physically invalid system configuration."""


@dataclass(frozen=True)
class SystemConfig:
    """Physical parameters, everything in units of kappa.

    Every frame rule is checked here, when the config is made: the thermal
    frame is undriven, n_th > 0 needs it, and the effective frame is the
    field eliminated at delta = 0.
    """

    n_atoms: int
    g: float
    epsilon: float = 0.0
    delta: float = 0.0        # cavity-drive detuning, omega - omega_L
    delta_atom: float = 0.0   # atom-drive detuning, omega_0 - omega_L
    n_th: float = 0.0
    n_max: int = 8
    frame: str = "displaced"

    def __post_init__(self):
        if self.n_atoms < 1:
            raise ConfigError(f"n_atoms must be >= 1, got {self.n_atoms}")
        for key in PHYSICAL_KEYS:
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        if self.g < 0 or self.epsilon < 0 or self.n_th < 0:
            raise ConfigError("g, epsilon and n_th must be nonnegative")
        if self.n_max < 1:
            raise ConfigError(f"n_max must be >= 1, got {self.n_max}")
        if self.frame not in FRAMES:
            raise ConfigError(f"unknown frame {self.frame!r}, expected one of {FRAMES}")
        if self.frame == "thermal" and (self.epsilon != 0.0 or self.delta != 0.0):
            raise ConfigError("thermal frame requires epsilon = 0 and delta = 0")
        if self.frame != "thermal" and self.n_th != 0.0:
            raise ConfigError(f"the {self.frame} frame is the T = 0 master equation; "
                              "use frame=thermal for n_th > 0")
        if self.frame == "effective-atomic" and self.delta != 0.0:
            raise ConfigError("effective-atomic frame is the field eliminated at delta = 0, "
                              f"got delta = {self.delta}")

    def layout(self) -> HilbertLayout:
        if self.frame == "effective-atomic":
            return HilbertLayout(atom_count=self.n_atoms)
        return HilbertLayout(atom_count=self.n_atoms, fock_dim=self.n_max + 1)


@dataclass(frozen=True)
class DerivedParams:
    alpha: complex        # displaced-frame offset, -i eps / (kappa + i delta)
    omega_drive: complex  # Omega = g sqrt(N) alpha; also the effective-atomic drive
    gamma_eff: float      # collective decay g^2 N / kappa
    n_bar_max: float      # |eps/kappa|^2
    window_lo: float      # semiclassical window, units 1/kappa
    window_hi: float


def derived_params(cfg: SystemConfig) -> DerivedParams:
    alpha = -1j * cfg.epsilon / (1.0 + 1j * cfg.delta)
    omega = cfg.g * math.sqrt(cfg.n_atoms) * alpha
    gamma_eff = cfg.g**2 * cfg.n_atoms
    window_hi = 1.0 / gamma_eff if gamma_eff > 0 else math.inf
    return DerivedParams(
        alpha=alpha,
        omega_drive=omega,
        gamma_eff=gamma_eff,
        n_bar_max=abs(cfg.epsilon) ** 2,
        window_lo=1.0,
        window_hi=window_hi,
    )


class Generator:
    """One Liouvillian: a Hamiltonian plus (jump operator, rate) pairs on `layout`.

    Stored once, as canonical CSR matrices: `H` and `jumps`, with sorted
    indices, no duplicates and no stored zeros, so `H` is the
    `scipy.sparse.csr_matrix` of `H.toarray()` entry for entry.  The
    operators may be given as sparse matrices or as arrays.
    """

    def __init__(self, H, jumps, layout: HilbertLayout):
        self.layout = layout

        def canonical(op):
            m = op if isinstance(op, sp.csr_matrix) and op.dtype == complex else sp.csr_matrix(
                op, dtype=complex)
            if m.shape != (layout.dim,) * 2:
                raise LayoutError(f"operator shape {m.shape} does not match layout "
                                  f"dimension {layout.dim}")
            if not (m.has_canonical_format and m.data.all()):
                m = m.copy()
                m.sum_duplicates()
                m.eliminate_zeros()
            return m

        self.H = canonical(H)
        self.jumps = tuple((canonical(jump), rate) for jump, rate in jumps)
        if max_asymmetry(self.H) > TOL_HERM:
            raise ValueError("generator Hamiltonian is not Hermitian")
        for _, rate in self.jumps:
            if rate < 0:
                raise ValueError(f"dissipator rate must be nonnegative, got {rate}")


# A factor is (rows, cols, values) of a sparse matrix on the field's n_max + 1
# levels or on the 2^N atom states; a term c F (x) S of an operator is
# (c, F, S).  A layout without a field takes the 1 x 1 identity for F.
def _eye(d: int):
    return np.arange(d), np.arange(d), np.ones(d, dtype=complex)


def _field_eye(layout: HilbertLayout):
    return _eye(layout.fock_dim if layout.has_field else 1)


def _ladder(n_max: int):
    """a: a|n> = sqrt(n)|n-1>."""
    n = np.arange(1, n_max + 1)
    return n - 1, n, np.sqrt(n).astype(complex)


def _number(n_max: int):
    """a^dag a, each entry conj(sqrt n) sqrt n."""
    _, n, s = _ladder(n_max)
    return n, n, s.conj() * s


def _raising(n_atoms: int):
    """S_+ = (1/sqrt(N)) sum_j sigma_+^j on the atoms (|e> = 0, atom 1 the leading bit)."""
    x = np.arange(2**n_atoms)
    bits = 1 << np.arange(n_atoms)
    g, bit = np.nonzero(x[:, None] & bits)   # atom `bit` of state g is in |g>
    return x[g] ^ bits[bit], x[g], np.full(g.size, 1.0 / math.sqrt(n_atoms), dtype=complex)


def _sz(n_atoms: int):
    """S_z = sum_j sigma_z^j (no 1/sqrt(N)): N minus twice the ground atoms."""
    x = np.arange(2**n_atoms)
    ground = np.array([bin(c).count("1") for c in x])
    return x, x, (n_atoms - 2 * ground).astype(complex)


def _dag(factor):
    rows, cols, vals = factor
    return cols, rows, vals.conj()


def _assemble(layout: HilbertLayout, terms, plus_hc=()) -> sp.csr_matrix:
    """sum of c F (x) S over `terms`, then each of `plus_hc` followed by its
    adjoint, as one canonical CSR construction.

    Each entry is F[i, k] S[j, l] times c, the product the dense Kronecker
    construction makes, and the terms that share an entry are summed in that
    order.  Terms of coefficient 0 are left out, and so are zero sums.
    """
    a, d = 2**layout.atom_count, layout.dim
    keys, vals = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=complex)]
    for hc, (c, F, S) in [(False, t) for t in terms] + [(True, t) for t in plus_hc]:
        if c == 0:
            continue
        r = (F[0][:, None] * a + S[0]).ravel()
        k = (F[1][:, None] * a + S[1]).ravel()
        v = (F[2][:, None] * S[2]).ravel() * complex(c)
        keys += [r * d + k, k * d + r] if hc else [r * d + k]
        vals += [v, v.conj()] if hc else [v]
    key, val = np.concatenate(keys), np.concatenate(vals)
    order = np.argsort(key, kind="stable")
    key, val = key[order], val[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    if first.size:
        key, val = key[first], np.add.reduceat(val, first)
    live = val != 0
    rows, cols = np.divmod(key[live], d)
    return sp.csr_matrix((val[live], cols, np.searchsorted(rows, np.arange(d + 1))),
                         shape=(d, d))


def build_generator(cfg: SystemConfig) -> Generator:
    """The frame's Hamiltonian and jumps, each assembled once, as CSR, from its factors.

    Every field frame: H = (Delta/2) S_z + g sqrt(N) (a S_+ + h.c.).
    lab-rotating and displaced add delta a^dag a and a drive plus its h.c.,
    eps a in the lab frame and Omega S_+ in the displaced frame, with the jump
    (a, kappa); thermal has the jumps (a, n_th + 1) and (a^dag, n_th).
    effective-atomic, the field adiabatically eliminated at delta = 0:
    H = (Delta/2) S_z + Omega S_+ + h.c., jump (S_-, g^2 N / kappa).
    The field factors a and a^dag a and the collective S_+ and S_z are sparse
    on their own spaces; nothing dense is made on the product space.
    """
    layout = cfg.layout()
    n = cfg.n_atoms
    eye_f, eye_a, raising = _field_eye(layout), _eye(2**n), _raising(n)
    sz = (0.5 * cfg.delta_atom, eye_f, _sz(n))

    def op(terms, plus_hc=()):
        return _assemble(layout, terms, plus_hc)

    if cfg.frame == "effective-atomic":
        params = derived_params(cfg)
        return Generator(op([sz], [(params.omega_drive, eye_f, raising)]),
                         [(op([(1.0, eye_f, _dag(raising))]), params.gamma_eff)], layout)
    a = _ladder(cfg.n_max)
    half = (cfg.g * math.sqrt(n), a, raising)
    jump = op([(1.0, a, eye_a)])
    if cfg.frame == "thermal":
        return Generator(op([sz], [half]), [(jump, cfg.n_th + 1.0),
                                            (op([(1.0, _dag(a), eye_a)]), cfg.n_th)], layout)
    if cfg.frame == "lab-rotating":
        drive = (cfg.epsilon, a, eye_a)
    else:
        drive = (derived_params(cfg).omega_drive, eye_f, raising)
    h = op([sz, (cfg.delta, _number(cfg.n_max), eye_a)], [half, drive])
    return Generator(h, [(jump, 1.0)], layout)


def atomic_vector(pattern: str) -> np.ndarray:
    """State vector for a product pattern like 'eg' (|e> first atom, |g> second)."""
    if not pattern or any(c not in "eg" for c in pattern):
        raise ValueError(f"atomic pattern must be nonempty over 'e'/'g', got {pattern!r}")
    v = np.array([1.0 + 0j])
    e = np.array([1.0, 0.0], dtype=complex)
    g = np.array([0.0, 1.0], dtype=complex)
    for c in pattern:
        v = np.kron(v, e if c == "e" else g)
    return v


def thermal_populations(n_th: float, n_max: int) -> np.ndarray:
    """Geometric photon-number distribution, renormalized on the truncation."""
    n = np.arange(n_max + 1)
    p = (n_th / (n_th + 1.0)) ** n / (n_th + 1.0)
    return p / p.sum()


def initial_state(cfg: SystemConfig, atoms, field="vacuum") -> DensityMatrix:
    """Product initial state: atomic pattern/vector times a field state.

    `field` may be 'vacuum', 'thermal', an integer Fock label, a complex
    coherent amplitude, or an explicit vector/matrix.  Ignored for the
    atoms-only frame, whose state is an array.  With a field the state is
    the Kronecker product of the field's and the atoms' nonzero entries as
    CSR (`_kron_csr`): each entry the product `np.kron` forms there, and no
    dim^2 array is made.
    """
    layout = cfg.layout()
    av = atomic_vector(atoms) if isinstance(atoms, str) else np.asarray(atoms, dtype=complex)
    if av.size != 2**cfg.n_atoms:
        raise ValueError(f"atomic state has length {av.size}, expected {2**cfg.n_atoms}")
    av = av / np.linalg.norm(av)
    rho_at = np.outer(av, av.conj())
    if not layout.has_field:
        return DensityMatrix.from_matrix(layout, rho_at)

    dim_f = cfg.n_max + 1
    if isinstance(field, str) and field == "thermal":
        n = np.arange(dim_f)
        field_entries = n, n, thermal_populations(cfg.n_th, cfg.n_max).astype(complex)
    else:
        if isinstance(field, str) and field == "vacuum":
            fv = fock_vector(dim_f, 0)
            rho_f = np.outer(fv, fv.conj())
        elif isinstance(field, (int, np.integer)):
            fv = fock_vector(dim_f, int(field))
            rho_f = np.outer(fv, fv.conj())
        elif isinstance(field, (float, complex)):
            fv = coherent_vector(complex(field), dim_f)
            rho_f = np.outer(fv, fv.conj())
        else:
            fm = np.asarray(field, dtype=complex)
            if fm.ndim == 1:
                fm = fm / np.linalg.norm(fm)
                rho_f = np.outer(fm, fm.conj())
            else:
                rho_f = fm
        field_entries = _nonzero_entries(rho_f)
    return DensityMatrix.from_matrix(
        layout, _kron_csr(field_entries, _nonzero_entries(rho_at), dim_f, rho_at.shape[0]))


def _nonzero_entries(m: np.ndarray):
    """(rows, cols, values) of the nonzero entries of the array m."""
    rows, cols = np.nonzero(m)
    return rows, cols, m[rows, cols]


def _kron_csr(F, S, nf: int, a: int) -> sp.csr_matrix:
    """kron of an nf x nf and an a x a matrix, each given by its nonzero
    entries (rows, cols, values), as canonical CSR: each entry F[i, k] S[j, l],
    the product `np.kron` forms there."""
    (fr, fc, fv), (sr, sc, sv) = F, S
    d = nf * a
    key = ((fr[:, None] * a + sr) * d + fc[:, None] * a + sc).ravel()
    val = (fv[:, None] * sv).ravel()
    order = np.argsort(key)
    key, val = key[order], val[order]
    live = val != 0  # a product may underflow
    rows, cols = np.divmod(key[live], d)
    return sp.csr_matrix((val[live], cols, np.searchsorted(rows, np.arange(d + 1))), shape=(d, d))
