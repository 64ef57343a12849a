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

from .hilbert import (
    DensityMatrix,
    HilbertLayout,
    LayoutError,
    Operator,
    TOL_HERM,
    annihilation,
    coherent_vector,
    embed,
    fock_vector,
    sigma_minus,
    sigma_plus,
    sigma_z,
)

FRAMES = ("lab-rotating", "displaced", "effective-atomic", "thermal")


class ConfigError(ValueError):
    """Physically invalid system configuration."""


class FrameError(ValueError):
    """A builder was called with a configuration for a different frame."""


@dataclass(frozen=True)
class SystemConfig:
    """Physical parameters, everything in units of kappa."""

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
        if self.g < 0 or self.epsilon < 0 or self.n_th < 0:
            raise ConfigError("g, epsilon and n_th must be nonnegative")
        if self.n_max < 1:
            raise ConfigError(f"n_max must be >= 1, got {self.n_max}")
        if self.frame not in FRAMES:
            raise ConfigError(f"unknown frame {self.frame!r}, expected one of {FRAMES}")
        if self.frame == "thermal" and (self.epsilon != 0.0 or self.delta != 0.0):
            raise ConfigError("thermal frame requires epsilon = 0 and delta = 0")

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


@dataclass(frozen=True)
class Generator:
    """One Liouvillian: a Hamiltonian plus (jump operator, rate) pairs."""

    hamiltonian: Operator
    dissipators: tuple[tuple[Operator, float], ...]

    def __post_init__(self):
        if not self.hamiltonian.is_hermitian(TOL_HERM):
            raise ValueError("generator Hamiltonian is not Hermitian")
        object.__setattr__(self, "dissipators", tuple(self.dissipators))
        for jump, rate in self.dissipators:
            if jump.layout != self.hamiltonian.layout:
                raise LayoutError("jump operator layout differs from Hamiltonian layout")
            if rate < 0:
                raise ValueError(f"dissipator rate must be nonnegative, got {rate}")

    @property
    def layout(self) -> HilbertLayout:
        return self.hamiltonian.layout


def _collective(local: Operator, layout: HilbertLayout) -> Operator:
    """1_field (x) sum_j local^j: the sum is taken on the 2^N atom space alone."""
    atoms = HilbertLayout(atom_count=layout.atom_count)
    total = sum(embed(local, atoms.atom_factor(j), atoms).matrix
                for j in range(1, layout.atom_count + 1))
    if layout.has_field:
        total = np.kron(np.eye(layout.fock_dim), total)
    return Operator(layout, total)


def collective_raising(layout: HilbertLayout) -> Operator:
    """S_+ = (1/sqrt(N)) sum_j sigma_+^j."""
    return (1.0 / math.sqrt(layout.atom_count)) * _collective(sigma_plus(), layout)


def collective_lowering(layout: HilbertLayout) -> Operator:
    return collective_raising(layout).dag()


def collective_sz(layout: HilbertLayout) -> Operator:
    """S_z = sum_j sigma_z^j (no 1/sqrt(N))."""
    return _collective(sigma_z(), layout)


def _field_op(cfg: SystemConfig) -> Operator:
    layout = cfg.layout()
    return embed(annihilation(cfg.n_max), layout.field_factor(), layout)


def _number_op(cfg: SystemConfig) -> Operator:
    """a^dag a, from the field factor alone."""
    a = annihilation(cfg.n_max).matrix
    return Operator(cfg.layout(), np.kron(a.conj().T @ a, np.eye(2**cfg.n_atoms)))


def _coupling(cfg: SystemConfig) -> Operator:
    """g sqrt(N) a S_+ = g sqrt(N) (a (x) S_+), from the factors."""
    sp = collective_raising(HilbertLayout(atom_count=cfg.n_atoms)).matrix
    return cfg.g * math.sqrt(cfg.n_atoms) * Operator(
        cfg.layout(), np.kron(annihilation(cfg.n_max).matrix, sp))


def _require_frame(cfg: SystemConfig, frame: str):
    if cfg.frame != frame:
        raise FrameError(f"builder for frame {frame!r} called with frame {cfg.frame!r}")


def build_rotating_frame(cfg: SystemConfig) -> Generator:
    """H = delta a^dag a + (Delta/2) S_z + (g sqrt(N) S_+ a + eps a + h.c.), jump (a, kappa)."""
    _require_frame(cfg, "lab-rotating")
    if cfg.n_th != 0:
        raise FrameError("lab-rotating frame is the T=0 master equation; use thermal for n_th > 0")
    layout = cfg.layout()
    a = _field_op(cfg)
    half = _coupling(cfg) + cfg.epsilon * a
    h = (cfg.delta * _number_op(cfg) + 0.5 * cfg.delta_atom * collective_sz(layout)
         + half + half.dag())
    return Generator(h, ((a, 1.0),))


def build_displaced(cfg: SystemConfig) -> Generator:
    """H = H_JC + H_SC with the drive relocated into Omega = g sqrt(N) alpha."""
    _require_frame(cfg, "displaced")
    if cfg.n_th != 0:
        raise FrameError("displaced frame is the T=0 master equation; use thermal for n_th > 0")
    layout = cfg.layout()
    a = _field_op(cfg)
    sp = collective_raising(layout)
    omega = derived_params(cfg).omega_drive
    h_jc_half = _coupling(cfg)
    h_sc_half = omega * sp
    h = (
        cfg.delta * _number_op(cfg)
        + 0.5 * cfg.delta_atom * collective_sz(layout)
        + h_jc_half + h_jc_half.dag()
        + h_sc_half + h_sc_half.dag()
    )
    return Generator(h, ((a, 1.0),))


def build_effective_atomic(cfg: SystemConfig) -> Generator:
    """Atoms-only generator after adiabatic elimination of the field."""
    _require_frame(cfg, "effective-atomic")
    layout = cfg.layout()
    sp = collective_raising(layout)
    params = derived_params(cfg)
    half = params.omega_drive * sp
    h = half + half.dag()
    return Generator(h, ((sp.dag(), params.gamma_eff),))


def build_thermal(cfg: SystemConfig) -> Generator:
    """Undriven cavity coupled to a thermal reservoir with occupancy n_th."""
    _require_frame(cfg, "thermal")
    layout = cfg.layout()
    a = _field_op(cfg)
    half = _coupling(cfg)
    h = 0.5 * cfg.delta_atom * collective_sz(layout) + half + half.dag()
    return Generator(h, ((a, cfg.n_th + 1.0), (a.dag(), cfg.n_th)))


_BUILDERS = {
    "lab-rotating": build_rotating_frame,
    "displaced": build_displaced,
    "effective-atomic": build_effective_atomic,
    "thermal": build_thermal,
}


def build_generator(cfg: SystemConfig) -> Generator:
    return _BUILDERS[cfg.frame](cfg)


def apply_generator(gen: Generator, rho) -> Operator:
    """d(rho)/dt = -i[H, rho] + sum_k rate_k (2 A rho A^dag - A^dag A rho - rho A^dag A)."""
    m = rho.matrix if isinstance(rho, (DensityMatrix, Operator)) else np.asarray(rho, dtype=complex)
    layout = gen.layout
    if m.shape != (layout.dim, layout.dim):
        raise LayoutError(f"state shape {m.shape} does not match generator dimension {layout.dim}")
    h = gen.hamiltonian.matrix
    out = -1j * (h @ m - m @ h)
    for jump, rate in gen.dissipators:
        A = jump.matrix
        Ad = A.conj().T
        AdA = Ad @ A
        out = out + rate * (2.0 * (A @ m @ Ad) - AdA @ m - m @ AdA)
    return Operator(layout, out)


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


def thermal_field_matrix(n_th: float, n_max: int) -> np.ndarray:
    """Geometric photon-number distribution, renormalized on the truncation."""
    if n_th == 0:
        m = np.zeros((n_max + 1, n_max + 1), dtype=complex)
        m[0, 0] = 1.0
        return m
    n = np.arange(n_max + 1)
    p = (n_th / (n_th + 1.0)) ** n / (n_th + 1.0)
    p = p / p.sum()
    return np.diag(p).astype(complex)


def initial_state(cfg: SystemConfig, atoms, field="vacuum") -> DensityMatrix:
    """Product initial state: atomic pattern/vector times a field state.

    `field` may be 'vacuum', 'thermal', an integer Fock label, a complex
    coherent amplitude, or an explicit vector/matrix.  Ignored for the
    atoms-only frame.
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
    if isinstance(field, str) and field == "vacuum":
        fv = fock_vector(dim_f, 0)
        rho_f = np.outer(fv, fv.conj())
    elif isinstance(field, str) and field == "thermal":
        rho_f = thermal_field_matrix(cfg.n_th, cfg.n_max)
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
    return DensityMatrix.from_matrix(layout, np.kron(rho_f, rho_at))
