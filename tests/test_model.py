import math

import numpy as np
import pytest

from drivencavity.hilbert import (
    DensityMatrix,
    HilbertLayout,
    StateError,
    annihilation,
    embed,
    fock_vector,
    sigma_plus,
    sigma_z,
)
from drivencavity.model import (
    ConfigError,
    FRAMES,
    SystemConfig,
    apply_generator,
    atomic_vector,
    build_generator,
    collective_lowering,
    collective_raising,
    collective_sz,
    derived_params,
    initial_state,
    thermal_field_matrix,
)

rng = np.random.default_rng(11)


class TestSystemConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            SystemConfig(n_atoms=0, g=0.1)
        with pytest.raises(ConfigError):
            SystemConfig(n_atoms=1, g=-0.1)
        with pytest.raises(ConfigError):
            SystemConfig(n_atoms=1, g=0.1, n_max=0)
        with pytest.raises(ConfigError):
            SystemConfig(n_atoms=1, g=0.1, frame="heisenberg")

    def test_thermal_frame_must_be_undriven(self):
        with pytest.raises(ConfigError):
            SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, frame="thermal")
        with pytest.raises(ConfigError):
            SystemConfig(n_atoms=2, g=0.1, delta=0.5, frame="thermal")
        SystemConfig(n_atoms=2, g=0.1, n_th=2.0, frame="thermal")  # ok

    @pytest.mark.parametrize("kw", [
        dict(n_th=1.0, frame="lab-rotating"),
        dict(n_th=0.5, frame="displaced"),
        dict(n_th=1.0, frame="effective-atomic"),
        dict(delta=0.5, frame="effective-atomic"),
    ], ids=["nth-lab", "nth-displaced", "nth-effective", "delta-effective"])
    def test_frame_rules(self, kw):
        # n_th > 0 only in the thermal frame; the eliminated field is the delta = 0 one
        with pytest.raises(ConfigError):
            SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, **kw)

    def test_layout_dimensions(self):
        cfg = SystemConfig(n_atoms=2, g=0.1, n_max=5)
        assert cfg.layout().factors == (6, 2, 2)
        cfg = SystemConfig(n_atoms=3, g=0.1, frame="effective-atomic")
        assert cfg.layout().factors == (2, 2, 2)


class TestDerivedParams:
    def test_resonant_drive(self):
        p = derived_params(SystemConfig(n_atoms=2, g=0.01, epsilon=10.0))
        assert abs(p.alpha - (-10j)) < 1e-12
        assert abs(p.omega_drive - 0.01 * math.sqrt(2) * (-10j)) < 1e-12
        assert np.isclose(p.gamma_eff, 2e-4)
        assert np.isclose(p.n_bar_max, 100.0)
        assert np.isclose(p.window_lo, 1.0)
        assert np.isclose(p.window_hi, 5000.0)

    def test_detuned_drive(self):
        p = derived_params(SystemConfig(n_atoms=1, g=0.1, epsilon=1.0, delta=1.0))
        # alpha = -i/(1+i) = (-1-i)/2
        assert abs(p.alpha - (-0.5 - 0.5j)) < 1e-12
        assert np.isclose(abs(p.alpha) ** 2, 0.5)

    def test_uncoupled_window_is_infinite(self):
        p = derived_params(SystemConfig(n_atoms=1, g=0.0, epsilon=1.0))
        assert p.window_hi == math.inf

    def test_window_shrinks_with_atom_number(self):
        hi = [derived_params(SystemConfig(n_atoms=n, g=0.01)).window_hi for n in (1, 2, 3)]
        assert hi[0] > hi[1] > hi[2]
        assert np.isclose(hi[0] / hi[1], 2.0)


class TestCollectiveOperators:
    def test_raising_matrix_single_atom(self):
        lay = HilbertLayout(atom_count=1)
        sp = collective_raising(lay)
        assert np.allclose(sp.matrix, [[0, 1], [0, 0]])

    def test_normalization_two_atoms(self):
        lay = HilbertLayout(atom_count=2)
        sp = collective_raising(lay).matrix
        gg = atomic_vector("gg")
        sym = sp @ gg
        # S+|gg> = (|eg> + |ge>)/sqrt(2)
        expected = (atomic_vector("eg") + atomic_vector("ge")) / math.sqrt(2)
        assert np.allclose(sym, expected)

    def test_singlet_is_dark(self):
        lay = HilbertLayout(atom_count=2)
        singlet = (atomic_vector("eg") - atomic_vector("ge")) / math.sqrt(2)
        assert np.max(np.abs(collective_raising(lay).matrix @ singlet)) < 1e-14
        assert np.max(np.abs(collective_lowering(lay).matrix @ singlet)) < 1e-14

    def test_sz_eigenvalues(self):
        lay = HilbertLayout(atom_count=2)
        sz = collective_sz(lay).matrix
        assert np.allclose(np.diag(sz), [2, 0, 0, -2])

    def test_lowering_is_adjoint(self):
        lay = HilbertLayout(atom_count=3, fock_dim=2)
        assert np.allclose(collective_lowering(lay).matrix,
                           collective_raising(lay).matrix.conj().T)


def _hermitian(gen):
    h = gen.hamiltonian.matrix
    return np.max(np.abs(h - h.conj().T)) < 1e-12


class TestRotatingFrameBuilder:
    def test_hermitian(self):
        cfg = SystemConfig(n_atoms=2, g=0.3, epsilon=0.7, delta=0.2,
                           delta_atom=0.4, n_max=4, frame="lab-rotating")
        assert _hermitian(build_generator(cfg))

    def test_decoupled_limit_is_pure_drive(self):
        cfg = SystemConfig(n_atoms=1, g=0.0, epsilon=0.5, n_max=3, frame="lab-rotating")
        gen = build_generator(cfg)
        lay = cfg.layout()
        a = embed(annihilation(cfg.n_max), lay.field_factor(), lay)
        expected = 0.5 * (a + a.dag())
        assert np.allclose(gen.hamiltonian.matrix, expected.matrix)
        assert len(gen.dissipators) == 1
        assert gen.dissipators[0][1] == 1.0

    def test_no_direct_atom_atom_coupling(self):
        cfg = SystemConfig(n_atoms=2, g=0.3, epsilon=0.7, n_max=2, frame="lab-rotating")
        h = build_generator(cfg).hamiltonian.matrix
        lay = cfg.layout()
        # <0, e, g| H |0, g, e> = 0: atoms talk only through the field
        eg = np.kron(fock_vector(lay.factors[0], 0), atomic_vector("eg"))
        ge = np.kron(fock_vector(lay.factors[0], 0), atomic_vector("ge"))
        assert abs(eg.conj() @ h @ ge) < 1e-14


class TestDisplacedBuilder:
    def test_hermitian(self):
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=5.0, delta=0.3, n_max=4)
        assert _hermitian(build_generator(cfg))

    def test_no_linear_field_drive_left(self):
        # after displacement the drive lives on the atoms: <1,gg|H|0,gg> = 0
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=5.0, n_max=3)
        h = build_generator(cfg).hamiltonian.matrix
        lay = cfg.layout()
        v0 = np.kron(fock_vector(lay.factors[0], 0), atomic_vector("gg"))
        v1 = np.kron(fock_vector(lay.factors[0], 1), atomic_vector("gg"))
        assert abs(v1.conj() @ h @ v0) < 1e-14

    def test_semiclassical_drive_amplitude(self):
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=5.0, n_max=3)
        h = build_generator(cfg).hamiltonian.matrix
        lay = cfg.layout()
        omega = derived_params(cfg).omega_drive
        v_gg = np.kron(fock_vector(lay.factors[0], 0), atomic_vector("gg"))
        sym = np.kron(fock_vector(lay.factors[0], 0),
                      (atomic_vector("eg") + atomic_vector("ge")) / math.sqrt(2))
        assert abs(sym.conj() @ h @ v_gg - omega) < 1e-12

    def test_zero_drive_matches_rotating_frame(self):
        base = dict(n_atoms=2, g=0.2, epsilon=0.0, delta=0.1, delta_atom=0.2, n_max=3)
        h_disp = build_generator(SystemConfig(frame="displaced", **base)).hamiltonian.matrix
        h_lab = build_generator(SystemConfig(frame="lab-rotating", **base)).hamiltonian.matrix
        assert np.allclose(h_disp, h_lab)


class TestEffectiveAtomicBuilder:
    def test_atoms_only_layout(self):
        cfg = SystemConfig(n_atoms=2, g=0.01, epsilon=10.0, frame="effective-atomic")
        gen = build_generator(cfg)
        assert gen.layout.factors == (2, 2)

    def test_collective_decay_rate(self):
        cfg = SystemConfig(n_atoms=3, g=0.02, epsilon=1.0, frame="effective-atomic")
        gen = build_generator(cfg)
        (jump, rate), = gen.dissipators
        assert np.isclose(rate, 0.02**2 * 3)
        lay = gen.layout
        assert np.allclose(jump.matrix, collective_lowering(lay).matrix)

    def test_rabi_matrix_element(self):
        cfg = SystemConfig(n_atoms=1, g=0.01, epsilon=10.0, frame="effective-atomic")
        h = build_generator(cfg).hamiltonian.matrix
        omega = derived_params(cfg).omega_drive
        assert abs(h[0, 1] - omega) < 1e-14


class TestThermalBuilder:
    def test_two_dissipators_with_detailed_balance_rates(self):
        cfg = SystemConfig(n_atoms=2, g=0.1, n_th=2.0, n_max=4, frame="thermal")
        gen = build_generator(cfg)
        rates = [r for _, r in gen.dissipators]
        assert rates == [3.0, 2.0]

    def test_zero_temperature_matches_undriven_resonant_lab_frame(self):
        base = dict(n_atoms=2, g=0.15, n_max=3)
        gen_th = build_generator(SystemConfig(frame="thermal", n_th=0.0, **base))
        gen_lab = build_generator(SystemConfig(frame="lab-rotating", epsilon=0.0, **base))
        assert np.allclose(gen_th.hamiltonian.matrix, gen_lab.hamiltonian.matrix)
        assert np.isclose(gen_th.dissipators[0][1], 1.0)
        assert np.isclose(gen_th.dissipators[1][1], 0.0)


def _embedded_generator(cfg):
    """(H, [(jump, rate)]) assembled in the full product space: each factor
    embedded with identities, the field-atom coupling by dense products."""
    lay = cfg.layout()
    n = cfg.n_atoms

    def summed(local):
        ops = [embed(local, lay.atom_factor(j), lay) for j in range(1, n + 1)]
        return sum(ops[1:], ops[0])

    sp = (1.0 / math.sqrt(n)) * summed(sigma_plus())
    sz = summed(sigma_z())
    if cfg.frame == "effective-atomic":
        p = derived_params(cfg)
        half = p.omega_drive * sp
        return 0.5 * cfg.delta_atom * sz + half + half.dag(), [(sp.dag(), p.gamma_eff)]
    a = embed(annihilation(cfg.n_max), lay.field_factor(), lay)
    jc = cfg.g * math.sqrt(n) * (sp @ a)
    if cfg.frame == "thermal":
        h = 0.5 * cfg.delta_atom * sz + jc + jc.dag()
        return h, [(a, cfg.n_th + 1.0), (a.dag(), cfg.n_th)]
    if cfg.frame == "lab-rotating":
        half = jc + cfg.epsilon * a
        h = cfg.delta * (a.dag() @ a) + 0.5 * cfg.delta_atom * sz + half + half.dag()
        return h, [(a, 1.0)]
    jc = cfg.g * math.sqrt(n) * (a @ sp)
    sc = derived_params(cfg).omega_drive * sp
    h = cfg.delta * (a.dag() @ a) + 0.5 * cfg.delta_atom * sz + jc + jc.dag() + sc + sc.dag()
    return h, [(a, 1.0)]


class TestBuildFromFactors:
    @pytest.mark.parametrize("frame", FRAMES)
    @pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
    def test_matches_embedded_construction_entry_for_entry(self, frame, n_atoms):
        drive = {"thermal": {"n_th": 0.8}, "effective-atomic": {"epsilon": 0.7}}.get(
            frame, {"epsilon": 0.7, "delta": 0.2})
        cfg = SystemConfig(n_atoms=n_atoms, g=0.37, delta_atom=0.3, n_max=6, frame=frame,
                           **drive)
        gen = build_generator(cfg)
        h, jumps = _embedded_generator(cfg)
        assert np.array_equal(gen.hamiltonian.matrix, h.matrix)
        assert len(gen.dissipators) == len(jumps)
        for (jump, rate), (ref, ref_rate) in zip(gen.dissipators, jumps):
            assert rate == ref_rate
            assert np.array_equal(jump.matrix, ref.matrix)


class TestApplyGenerator:
    def test_trace_preserving_on_random_states(self):
        cfg = SystemConfig(n_atoms=2, g=0.3, epsilon=0.8, delta=0.2, n_max=3)
        gen = build_generator(cfg)
        d = gen.layout.dim
        worst = 0.0
        for _ in range(100):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            m = a @ a.conj().T
            m /= np.trace(m)
            worst = max(worst, abs(np.trace(apply_generator(gen, m).matrix)))
        assert worst < 1e-12

    def test_hermiticity_preserving(self):
        cfg = SystemConfig(n_atoms=1, g=0.2, epsilon=0.5, n_max=3)
        gen = build_generator(cfg)
        d = gen.layout.dim
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = a @ a.conj().T
        m /= np.trace(m)
        out = apply_generator(gen, m).matrix
        assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_vacuum_ground_state_is_stationary_undriven(self):
        cfg = SystemConfig(n_atoms=2, g=0.5, epsilon=0.0, n_max=3)
        gen = build_generator(cfg)
        rho = initial_state(cfg, "gg")
        out = apply_generator(gen, rho).matrix
        assert np.max(np.abs(out)) < 1e-14

    def test_photon_decay_rate(self):
        # d<n>/dt = -2 kappa <n> for a bare decaying cavity
        cfg = SystemConfig(n_atoms=1, g=0.0, epsilon=0.0, n_max=5)
        gen = build_generator(cfg)
        rho = initial_state(cfg, "g", field=3)
        lay = cfg.layout()
        nop = embed(annihilation(cfg.n_max).dag() @ annihilation(cfg.n_max),
                    lay.field_factor(), lay).matrix
        ndot = np.trace(nop @ apply_generator(gen, rho).matrix)
        assert abs(ndot - (-2.0 * 3.0)) < 1e-12


class TestInitialState:
    def test_atomic_pattern(self):
        cfg = SystemConfig(n_atoms=2, g=0.1, frame="effective-atomic")
        rho = initial_state(cfg, "eg")
        assert np.isclose(rho.matrix[1, 1], 1.0)

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            atomic_vector("exg")
        cfg = SystemConfig(n_atoms=2, g=0.1)
        with pytest.raises(ValueError):
            initial_state(cfg, "e")  # wrong atom count

    def test_thermal_field_occupancy(self):
        n_th, n_max = 1.5, 60
        m = thermal_field_matrix(n_th, n_max)
        n_mean = np.sum(np.arange(n_max + 1) * np.diag(m).real)
        assert abs(n_mean - n_th) < 1e-6

    def test_coherent_field_photon_number(self):
        cfg = SystemConfig(n_atoms=1, g=0.1, n_max=30)
        rho = initial_state(cfg, "g", field=1.5 + 0.0j)
        lay = cfg.layout()
        nop = embed(annihilation(cfg.n_max).dag() @ annihilation(cfg.n_max),
                    lay.field_factor(), lay).matrix
        assert abs(np.trace(nop @ rho.matrix) - 1.5**2) < 1e-8

    @pytest.mark.parametrize("cfg", [
        SystemConfig(n_atoms=2, g=0.1, n_th=0.5, n_max=3, frame="thermal"),
        SystemConfig(n_atoms=2, g=0.1, epsilon=0.5, n_max=3),
    ], ids=["thermal", "displaced"])
    @pytest.mark.parametrize("field", [
        np.diag([1.5, -0.5, 0.0, 0.0]),
        np.pad([[0.5, 0.8], [0.8, 0.5]], ((0, 2), (0, 2))),  # eigenvalues 1.3, -0.3
    ], ids=["diagonal", "block"])
    def test_non_positive_field_matrix_rejected(self, cfg, field):
        with pytest.raises(StateError, match="eigenvalue"):
            initial_state(cfg, "eg", field=field)

    def test_superposition_normalized(self):
        cfg = SystemConfig(n_atoms=1, g=0.1, n_max=2)
        rho = initial_state(cfg, [1.0, 1.0])  # (|e> + |g>)/sqrt(2)
        assert isinstance(rho, DensityMatrix)
        assert np.isclose(np.trace(rho.matrix), 1.0)
