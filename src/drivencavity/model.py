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
    _as_matrix,
    annihilation,
    coherent_vector,
    fock_vector,
    kron_sum,
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

    Stored once, as read-only canonical CSR matrices (`hilbert._as_matrix`):
    `H` and `jumps`, with sorted indices, no duplicates and no stored zeros,
    so `H` is the `scipy.sparse.csr_matrix` of `H.toarray()` entry for entry.
    The operators may be given as sparse matrices or as arrays.
    """

    def __init__(self, H, jumps, layout: HilbertLayout):
        self.layout = layout

        def canonical(op):
            return _as_matrix(op if sp.issparse(op) else sp.csr_matrix(op), layout.dim)

        self.H = canonical(H)
        self.jumps = tuple((canonical(jump), rate) for jump, rate in jumps)
        if max_asymmetry(self.H) > TOL_HERM:
            raise ValueError("generator Hamiltonian is not Hermitian")
        for _, rate in self.jumps:
            if rate < 0:
                raise ValueError(f"dissipator rate must be nonnegative, got {rate}")


# A factor is an array on the field's n_max + 1 levels or on the 2^N atom
# states, nothing of the product space's size; a term c F (x) S of an
# operator is (c, F, S), whose adjoint takes the views F.conj().T and
# S.conj().T.  A layout without a field takes the 1 x 1 identity for F.
def _field_eye(layout: HilbertLayout):
    return np.eye(layout.fock_dim if layout.has_field else 1, dtype=complex)


def _number(n_max: int):
    """a^dag a, each entry conj(sqrt n) sqrt n."""
    s = np.sqrt(np.arange(n_max + 1)).astype(complex)
    return np.diag(s.conj() * s)


def _raising(n_atoms: int):
    """S_+ = (1/sqrt(N)) sum_j sigma_+^j on the atoms (|e> = 0, atom 1 the leading bit)."""
    x = np.arange(2**n_atoms)
    bits = 1 << np.arange(n_atoms)
    g, bit = np.nonzero(x[:, None] & bits)   # atom `bit` of state g is in |g>
    m = np.zeros((x.size, x.size), dtype=complex)
    m[x[g] ^ bits[bit], x[g]] = 1.0 / math.sqrt(n_atoms)
    return m


def _sz(n_atoms: int):
    """S_z = sum_j sigma_z^j (no 1/sqrt(N)): N minus twice the ground atoms."""
    ground = np.array([bin(c).count("1") for c in range(2**n_atoms)])
    return np.diag((n_atoms - 2 * ground).astype(complex))


def build_generator(cfg: SystemConfig) -> Generator:
    """The frame's Hamiltonian and jumps, each assembled once, as CSR, from its factors.

    Every field frame: H = (Delta/2) S_z + g sqrt(N) (a S_+ + h.c.).
    lab-rotating and displaced add delta a^dag a and a drive plus its h.c.,
    eps a in the lab frame and Omega S_+ in the displaced frame, with the jump
    (a, kappa); thermal has the jumps (a, n_th + 1) and (a^dag, n_th).
    effective-atomic, the field adiabatically eliminated at delta = 0:
    H = (Delta/2) S_z + Omega S_+ + h.c., jump (S_-, g^2 N / kappa).
    The field factors a and a^dag a and the collective S_+ and S_z are arrays
    on their own spaces, and each operator is one `kron_sum` of its terms,
    each h.c. term (c, F, S) followed by (conj c, F^dag, S^dag): nothing dense
    is made on the product space.
    """
    layout = cfg.layout()
    n = cfg.n_atoms
    eye_f, eye_a, raising = _field_eye(layout), np.eye(2**n, dtype=complex), _raising(n)
    sz = (0.5 * cfg.delta_atom, eye_f, _sz(n))

    def op(terms, plus_hc=()):
        hc = [t for c, F, S in plus_hc
              for t in ((c, F, S), (complex(c).conjugate(), F.conj().T, S.conj().T))]
        return kron_sum(list(terms) + hc, 2**n)

    if cfg.frame == "effective-atomic":
        params = derived_params(cfg)
        return Generator(op([sz], [(params.omega_drive, eye_f, raising)]),
                         [(op([(1.0, eye_f, raising.conj().T)]), params.gamma_eff)], layout)
    a = annihilation(cfg.n_max)
    half = (cfg.g * math.sqrt(n), a, raising)
    jump = op([(1.0, a, eye_a)])
    if cfg.frame == "thermal":
        return Generator(op([sz], [half]), [(jump, cfg.n_th + 1.0),
                                            (op([(1.0, a.conj().T, eye_a)]), cfg.n_th)], layout)
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
    CSR (`kron_sum`): each entry the product `np.kron` forms there, and no
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
        rho_f = sp.diags(thermal_populations(cfg.n_th, cfg.n_max).astype(complex))
    else:
        if isinstance(field, str) and field == "vacuum":
            fm = fock_vector(dim_f, 0)
        elif isinstance(field, (int, np.integer)):
            fm = fock_vector(dim_f, int(field))
        elif isinstance(field, (float, complex)):
            fm = coherent_vector(complex(field), dim_f)
        else:
            fm = np.asarray(field, dtype=complex)
            if fm.ndim == 1:
                fm = fm / np.linalg.norm(fm)
        rho_f = np.outer(fm, fm.conj()) if fm.ndim == 1 else fm
    return DensityMatrix.from_matrix(layout, kron_sum([(1.0, rho_f, rho_at)], rho_at.shape[0]))
