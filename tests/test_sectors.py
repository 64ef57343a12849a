import math

import numpy as np
import pytest

from drivencavity.hilbert import embed, sigma_minus, sigma_z, trace_distance
from drivencavity.model import Generator, SystemConfig, build_generator, initial_state
from drivencavity.dynamics import steady_state
from drivencavity.sectors import (
    SINGLET_VECTOR,
    TRIPLET_ISOMETRY,
    SectorError,
    _isometries,
    _restrict,
    coherence_block_gap,
    singlet_weight,
    two_atom_steady_state,
)

SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)


class TestSingletWeight:
    def test_product_states_have_no_singlet_component(self):
        assert singlet_weight("gg") == 0.0
        assert singlet_weight("ee") == 0.0

    def test_one_excitation_product_state(self):
        assert np.isclose(singlet_weight("eg"), 0.5)
        assert np.isclose(singlet_weight("ge"), 0.5)

    def test_singlet_itself(self):
        assert np.isclose(singlet_weight(SINGLET), 1.0)


def dense_gap(gen):
    """Smallest |eigenvalue| of the dense singlet-triplet block (reference)."""
    nf = gen.layout.fock_dim if gen.layout.has_field else 0
    vt, vs = _isometries(nf)
    h = gen.hamiltonian.matrix
    ht, hs = vt.conj().T @ h @ vt, vs.conj().T @ h @ vs
    et, es = np.eye(ht.shape[0]), np.eye(hs.shape[0])
    block = -1j * (np.kron(ht, es) - np.kron(et, hs.T))
    for jump, rate in gen.dissipators:
        at = vt.conj().T @ jump.matrix @ vt
        a_s = vs.conj().T @ jump.matrix @ vs
        block = block + rate * (2.0 * np.kron(at, a_s.conj()) - np.kron(at.conj().T @ at, es)
                                - np.kron(et, (a_s.conj().T @ a_s).T))
    return float(np.min(np.abs(np.linalg.eigvals(block))))


class TestRestrict:
    @pytest.mark.parametrize("cfg", [
        SystemConfig(n_atoms=2, g=0.3, epsilon=0.8, delta=0.2, delta_atom=0.1, n_max=4),
        SystemConfig(n_atoms=2, g=0.2, n_th=0.6, delta_atom=0.1, n_max=4, frame="thermal"),
    ], ids=["driven", "thermal"])
    def test_matches_dense_compression(self, cfg):
        gen = build_generator(cfg)
        eye = np.eye(cfg.n_max + 1)
        dense = (np.kron(eye, TRIPLET_ISOMETRY), np.kron(eye, SINGLET_VECTOR.reshape(4, 1)))
        for v, v_sparse in zip(dense, _isometries(cfg.n_max + 1)):
            h, diss = _restrict(gen, v_sparse)
            vd = v.conj().T
            assert np.max(np.abs(h - vd @ gen.hamiltonian.matrix @ v)) < 1e-14
            assert [rate for _, rate in diss] == [rate for _, rate in gen.dissipators]
            for (a, _), (jump, _) in zip(diss, gen.dissipators):
                assert np.max(np.abs(a - vd @ jump.matrix @ v)) < 1e-14

    def test_single_atom_jump_breaks_split(self):
        gen = build_generator(SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=3))
        lay = gen.layout
        local = embed(sigma_minus(), lay.atom_factor(1), lay)
        broken = Generator(gen.hamiltonian, gen.dissipators + ((local, 0.5),))
        with pytest.raises(SectorError, match="jump operator"):
            _restrict(broken, _isometries(lay.fock_dim)[0])

    def test_single_atom_hamiltonian_term_breaks_split(self):
        gen = build_generator(SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=3))
        lay = gen.layout
        local = embed(sigma_z(), lay.atom_factor(1), lay)
        broken = Generator(gen.hamiltonian + 0.3 * local, gen.dissipators)
        with pytest.raises(SectorError, match="Hamiltonian"):
            _restrict(broken, _isometries(lay.fock_dim)[0])


class TestCoherenceBlockGap:
    def test_driven_generator_has_positive_gap(self):
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=3)
        gap = coherence_block_gap(build_generator(cfg))
        assert gap is not None and gap > 1e-3

    def test_thermal_generator_has_positive_gap(self):
        cfg = SystemConfig(n_atoms=2, g=0.1, n_th=1.0, n_max=4, frame="thermal")
        gap = coherence_block_gap(build_generator(cfg))
        assert gap is not None and gap > 1e-3

    @pytest.mark.parametrize("cfg", [
        SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=6),
        SystemConfig(n_atoms=2, g=0.1, epsilon=10.0, n_max=4),
        SystemConfig(n_atoms=2, g=0.1, n_th=1.0, n_max=6, frame="thermal"),
        SystemConfig(n_atoms=2, g=0.05, epsilon=2.0, frame="effective-atomic"),
    ], ids=["driven", "strong-drive", "thermal", "effective-atomic"])
    def test_matches_dense_spectrum(self, cfg):
        gen = build_generator(cfg)
        assert abs(coherence_block_gap(gen) - dense_gap(gen)) < 1e-6 * dense_gap(gen)

    def test_undriven_zero_temperature_block_has_zero_mode(self):
        cfg = SystemConfig(n_atoms=2, g=0.1, n_th=0.0, n_max=4, frame="thermal")
        assert coherence_block_gap(build_generator(cfg)) == 0.0

    def test_auto_skips_oversized_blocks(self):
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=40)
        assert coherence_block_gap(build_generator(cfg)) is None


class TestTwoAtomSteadyState:
    def test_rejects_other_atom_numbers(self):
        cfg = SystemConfig(n_atoms=3, g=0.1, epsilon=1.0, n_max=2)
        with pytest.raises(SectorError):
            two_atom_steady_state(cfg, "egg")

    # the oracle is the full space's kernel projection: the t -> infinity limit
    # of integrating rho0, found without the sector split
    def test_matches_long_time_integration_driven(self):
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=4)
        fast = two_atom_steady_state(cfg, "eg", residual_tol=1e-10)
        gen = build_generator(cfg)
        rho0 = initial_state(cfg, "eg", field="vacuum")
        slow = steady_state(gen, rho0, residual_tol=1e-8)
        assert slow.method == "kernel-projection"
        assert trace_distance(fast, slow.rho_ss) < 1e-5

    def test_matches_long_time_integration_thermal(self):
        cfg = SystemConfig(n_atoms=2, g=0.2, n_th=0.4, n_max=8, frame="thermal")
        fast = two_atom_steady_state(cfg, "gg", residual_tol=1e-10)
        gen = build_generator(cfg)
        rho0 = initial_state(cfg, "gg", field="thermal")
        slow = steady_state(gen, rho0, residual_tol=1e-8)
        assert slow.method == "kernel-projection"
        assert trace_distance(fast, slow.rho_ss) < 1e-5

    def test_conserved_weight_appears_in_steady_state(self):
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=3)
        w = 0.37
        amps = (math.sqrt(w) * SINGLET
                + math.sqrt(1.0 - w) * np.array([0.0, 0.0, 0.0, 1.0]))
        rho = two_atom_steady_state(cfg, amps)
        nf = cfg.n_max + 1
        proj = np.kron(np.eye(nf), np.outer(SINGLET, SINGLET.conj()))
        assert abs(np.trace(proj @ rho.matrix).real - w) < 1e-9

    def test_pure_singlet_is_dark(self):
        # the drive only couples through the collective raising operator, which
        # annihilates the singlet: atoms stay frozen, field relaxes to vacuum
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=3)
        rho = two_atom_steady_state(cfg, SINGLET)
        expected = initial_state(cfg, SINGLET, field="vacuum")
        assert trace_distance(rho, expected) < 1e-9

    def test_undriven_zero_temperature_rejected(self):
        # with no drive both |gg, vacuum> and the singlet are dark, so the
        # singlet-triplet coherences never decay and the decomposition fails
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=0.0, n_max=3)
        with pytest.raises(SectorError):
            two_atom_steady_state(cfg, SINGLET)

    def test_effective_atomic_frame_supported(self):
        cfg = SystemConfig(n_atoms=2, g=0.05, epsilon=2.0, frame="effective-atomic")
        rho = two_atom_steady_state(cfg, "eg")
        assert rho.layout.factors == (2, 2)
        assert np.isclose(np.trace(rho.matrix).real, 1.0)
