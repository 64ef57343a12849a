import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from drivencavity.hilbert import (
    DensityMatrix,
    HilbertLayout,
    LayoutError,
    StateError,
    coherent_vector,
    fock_vector,
    kron_sum,
)
from drivencavity.model import (
    ConfigError,
    FRAMES,
    PHYSICAL_KEYS,
    Generator,
    SystemConfig,
    _field_eye,
    _raising,
    _sz,
    atomic_vector,
    build_generator,
    derived_params,
    initial_state,
    thermal_populations,
)
from reference import (
    SIGMA_PLUS,
    SIGMA_Z,
    apply_generator,
    as_dense,
    collective_lowering,
    dag,
    dense_generator,
    embed,
    field_annihilation,
    number_operator,
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

    @pytest.mark.parametrize("key", PHYSICAL_KEYS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_physics(self, key, value):
        # NaN passes every comparison test, such as g < 0
        kw = dict(n_atoms=2, g=0.1, frame="thermal" if key == "n_th" else "displaced")
        kw[key] = value
        with pytest.raises(ConfigError, match=f"^{key} must be finite"):
            SystemConfig(**kw)

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


def _collective(layout, factor):
    """1_field (x) factor, the generator's collective operator from its factor, dense."""
    return kron_sum([(1.0, _field_eye(layout), factor)], 2**layout.atom_count).toarray()


class TestCollectiveOperators:
    """The generator's atomic factors S_+, S_- = S_+^dag and S_z."""

    def test_raising_matrix_single_atom(self):
        lay = HilbertLayout(atom_count=1)
        sp = _collective(lay, _raising(1))
        assert np.allclose(sp, [[0, 1], [0, 0]])

    def test_normalization_two_atoms(self):
        lay = HilbertLayout(atom_count=2)
        sp = _collective(lay, _raising(2))
        gg = atomic_vector("gg")
        sym = sp @ gg
        # S+|gg> = (|eg> + |ge>)/sqrt(2)
        expected = (atomic_vector("eg") + atomic_vector("ge")) / math.sqrt(2)
        assert np.allclose(sym, expected)

    def test_singlet_is_dark(self):
        lay = HilbertLayout(atom_count=2)
        singlet = (atomic_vector("eg") - atomic_vector("ge")) / math.sqrt(2)
        assert np.max(np.abs(_collective(lay, _raising(2)) @ singlet)) < 1e-14
        assert np.max(np.abs(_collective(lay, _raising(2).conj().T) @ singlet)) < 1e-14

    def test_sz_eigenvalues(self):
        lay = HilbertLayout(atom_count=2)
        sz = _collective(lay, _sz(2))
        assert np.allclose(np.diag(sz), [2, 0, 0, -2])

    def test_lowering_is_adjoint(self):
        lay = HilbertLayout(atom_count=3, fock_dim=2)
        assert np.allclose(_collective(lay, _raising(3).conj().T),
                           _collective(lay, _raising(3)).conj().T)


def _hermitian(gen):
    h = gen.H.toarray()
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
        a = field_annihilation(lay)
        expected = 0.5 * (a + dag(a))
        assert np.allclose(gen.H.toarray(), expected)
        assert len(gen.jumps) == 1
        assert gen.jumps[0][1] == 1.0

    def test_no_direct_atom_atom_coupling(self):
        cfg = SystemConfig(n_atoms=2, g=0.3, epsilon=0.7, n_max=2, frame="lab-rotating")
        h = build_generator(cfg).H.toarray()
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
        h = build_generator(cfg).H.toarray()
        lay = cfg.layout()
        v0 = np.kron(fock_vector(lay.factors[0], 0), atomic_vector("gg"))
        v1 = np.kron(fock_vector(lay.factors[0], 1), atomic_vector("gg"))
        assert abs(v1.conj() @ h @ v0) < 1e-14

    def test_semiclassical_drive_amplitude(self):
        cfg = SystemConfig(n_atoms=2, g=0.1, epsilon=5.0, n_max=3)
        h = build_generator(cfg).H.toarray()
        lay = cfg.layout()
        omega = derived_params(cfg).omega_drive
        v_gg = np.kron(fock_vector(lay.factors[0], 0), atomic_vector("gg"))
        sym = np.kron(fock_vector(lay.factors[0], 0),
                      (atomic_vector("eg") + atomic_vector("ge")) / math.sqrt(2))
        assert abs(sym.conj() @ h @ v_gg - omega) < 1e-12

    def test_zero_drive_matches_rotating_frame(self):
        base = dict(n_atoms=2, g=0.2, epsilon=0.0, delta=0.1, delta_atom=0.2, n_max=3)
        h_disp = build_generator(SystemConfig(frame="displaced", **base)).H.toarray()
        h_lab = build_generator(SystemConfig(frame="lab-rotating", **base)).H.toarray()
        assert np.allclose(h_disp, h_lab)


class TestEffectiveAtomicBuilder:
    def test_atoms_only_layout(self):
        cfg = SystemConfig(n_atoms=2, g=0.01, epsilon=10.0, frame="effective-atomic")
        gen = build_generator(cfg)
        assert gen.layout.factors == (2, 2)

    def test_collective_decay_rate(self):
        cfg = SystemConfig(n_atoms=3, g=0.02, epsilon=1.0, frame="effective-atomic")
        gen = build_generator(cfg)
        (jump, rate), = gen.jumps
        assert np.isclose(rate, 0.02**2 * 3)
        lay = gen.layout
        assert np.allclose(jump.toarray(), collective_lowering(lay))

    def test_rabi_matrix_element(self):
        cfg = SystemConfig(n_atoms=1, g=0.01, epsilon=10.0, frame="effective-atomic")
        h = build_generator(cfg).H.toarray()
        omega = derived_params(cfg).omega_drive
        assert abs(h[0, 1] - omega) < 1e-14


class TestThermalBuilder:
    def test_two_dissipators_with_detailed_balance_rates(self):
        cfg = SystemConfig(n_atoms=2, g=0.1, n_th=2.0, n_max=4, frame="thermal")
        gen = build_generator(cfg)
        rates = [r for _, r in gen.jumps]
        assert rates == [3.0, 2.0]

    def test_zero_temperature_matches_undriven_resonant_lab_frame(self):
        base = dict(n_atoms=2, g=0.15, n_max=3)
        gen_th = build_generator(SystemConfig(frame="thermal", n_th=0.0, **base))
        gen_lab = build_generator(SystemConfig(frame="lab-rotating", epsilon=0.0, **base))
        assert np.allclose(gen_th.H.toarray(), gen_lab.H.toarray())
        assert np.isclose(gen_th.jumps[0][1], 1.0)
        assert np.isclose(gen_th.jumps[1][1], 0.0)


def _embedded_generator(cfg):
    """(H, [(jump, rate)]) assembled in the full product space: each factor
    embedded with identities, the field-atom coupling by dense products."""
    lay = cfg.layout()
    n = cfg.n_atoms

    def summed(local):
        ops = [embed(local, j - 1 + lay.has_field, lay) for j in range(1, n + 1)]
        return sum(ops[1:], ops[0])

    sp = (1.0 / math.sqrt(n)) * summed(SIGMA_PLUS)
    sz = summed(SIGMA_Z)
    if cfg.frame == "effective-atomic":
        p = derived_params(cfg)
        half = p.omega_drive * sp
        return 0.5 * cfg.delta_atom * sz + half + dag(half), [(dag(sp), p.gamma_eff)]
    a = field_annihilation(lay)
    jc = cfg.g * math.sqrt(n) * (sp @ a)
    if cfg.frame == "thermal":
        h = 0.5 * cfg.delta_atom * sz + jc + dag(jc)
        return h, [(a, cfg.n_th + 1.0), (dag(a), cfg.n_th)]
    if cfg.frame == "lab-rotating":
        half = jc + cfg.epsilon * a
        h = cfg.delta * (dag(a) @ a) + 0.5 * cfg.delta_atom * sz + half + dag(half)
        return h, [(a, 1.0)]
    jc = cfg.g * math.sqrt(n) * (a @ sp)
    sc = derived_params(cfg).omega_drive * sp
    h = cfg.delta * (dag(a) @ a) + 0.5 * cfg.delta_atom * sz + jc + dag(jc) + sc + dag(sc)
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
        dense_h, dense_jumps = dense_generator(gen)
        assert np.array_equal(dense_h, h)
        assert len(dense_jumps) == len(jumps)
        for (jump, rate), (ref, ref_rate) in zip(dense_jumps, jumps):
            assert rate == ref_rate
            assert np.array_equal(jump, ref)


def _assert_same_csr(got, want):
    assert got.has_canonical_format
    for g, w in zip((got.indptr, got.indices, got.data), (want.indptr, want.indices, want.data)):
        assert np.array_equal(g, w)


class TestGeneratorStorage:
    CFG = SystemConfig(n_atoms=2, g=0.37, delta_atom=0.3, epsilon=0.7, delta=0.2, n_max=5)

    @pytest.mark.parametrize("frame", FRAMES)
    def test_csr_is_the_csr_of_its_dense_view(self, frame):
        # no stored zeros, no duplicates, sorted: what scipy makes of the dense view
        drive = {"thermal": {"n_th": 0.8, "epsilon": 0.0, "delta": 0.0},
                 "effective-atomic": {"delta": 0.0}}.get(frame, {})
        gen = build_generator(replace(self.CFG, frame=frame, **drive))
        _assert_same_csr(gen.H, sp.csr_matrix(gen.H.toarray()))
        for A, _ in gen.jumps:
            _assert_same_csr(A, sp.csr_matrix(A.toarray()))

    def test_built_from_operators(self):
        # dense arrays in, the CSR of each out
        h, jumps = _embedded_generator(self.CFG)
        gen = Generator(h, jumps, self.CFG.layout())
        assert gen.layout == self.CFG.layout()
        _assert_same_csr(gen.H, sp.csr_matrix(h))
        for (A, rate), (ref, ref_rate) in zip(gen.jumps, jumps):
            assert rate == ref_rate
            _assert_same_csr(A, sp.csr_matrix(ref))

    def test_sparse_input_is_made_canonical(self):
        # duplicates summed and stored zeros dropped, the caller's matrix untouched
        layout = HilbertLayout(atom_count=1)
        h = sp.csr_matrix((np.array([0.5, 0.5, 0.0, 1.0]), np.array([0, 0, 1, 1]),
                           np.array([0, 3, 4])), shape=(2, 2))
        gen = Generator(h, (), layout)
        _assert_same_csr(gen.H, sp.csr_matrix(np.diag([1.0, 1.0]).astype(complex)))
        assert h.nnz == 4

    def test_rejects_bad_operators(self):
        h, jumps = _embedded_generator(self.CFG)
        layout = self.CFG.layout()
        with pytest.raises(ValueError, match="not Hermitian"):
            Generator(jumps[0][0], jumps, layout)  # the jump a is no Hamiltonian
        with pytest.raises(ValueError, match="nonnegative"):
            Generator(h, [(jumps[0][0], -1.0)], layout)
        with pytest.raises(LayoutError):
            Generator(h, [(SIGMA_Z, 1.0)], layout)
        with pytest.raises(LayoutError):
            Generator(sp.identity(3, format="csr"), (), layout)


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
            worst = max(worst, abs(np.trace(apply_generator(gen, m))))
        assert worst < 1e-12

    def test_hermiticity_preserving(self):
        cfg = SystemConfig(n_atoms=1, g=0.2, epsilon=0.5, n_max=3)
        gen = build_generator(cfg)
        d = gen.layout.dim
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = a @ a.conj().T
        m /= np.trace(m)
        out = apply_generator(gen, m)
        assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_vacuum_ground_state_is_stationary_undriven(self):
        cfg = SystemConfig(n_atoms=2, g=0.5, epsilon=0.0, n_max=3)
        gen = build_generator(cfg)
        rho = initial_state(cfg, "gg")
        out = apply_generator(gen, rho)
        assert np.max(np.abs(out)) < 1e-14

    def test_photon_decay_rate(self):
        # d<n>/dt = -2 kappa <n> for a bare decaying cavity
        cfg = SystemConfig(n_atoms=1, g=0.0, epsilon=0.0, n_max=5)
        gen = build_generator(cfg)
        rho = initial_state(cfg, "g", field=3)
        lay = cfg.layout()
        ndot = np.trace(number_operator(lay) @ apply_generator(gen, rho))
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
        n_mean = np.sum(np.arange(n_max + 1) * thermal_populations(n_th, n_max))
        assert abs(n_mean - n_th) < 1e-6

    def test_coherent_field_photon_number(self):
        cfg = SystemConfig(n_atoms=1, g=0.1, n_max=30)
        rho = initial_state(cfg, "g", field=1.5 + 0.0j)
        lay = cfg.layout()
        assert abs(np.trace(number_operator(lay) @ as_dense(rho)) - 1.5**2) < 1e-8

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

    @pytest.mark.parametrize("cfg, atoms, field", [
        (SystemConfig(n_atoms=2, g=0.1, n_th=3.0, n_max=40, frame="thermal"), "eg", "thermal"),
        (SystemConfig(n_atoms=2, g=0.1, epsilon=1.0, n_max=8), "gg", -1.0j),
        (SystemConfig(n_atoms=3, g=0.1, epsilon=1.0, n_max=5, frame="lab-rotating"),
         [1.0, 1j, 0.0, 0.0, 0.5, 0.0, 0.0, 0.3], 2),
    ], ids=["thermal", "coherent", "fock-superposition"])
    def test_product_state_is_csr_of_the_kronecker_products(self, cfg, atoms, field):
        # each stored entry is the product np.kron forms there, and only those
        rho = initial_state(cfg, atoms, field=field)
        av = atomic_vector(atoms) if isinstance(atoms, str) else np.asarray(atoms, dtype=complex)
        av = av / np.linalg.norm(av)
        if field == "thermal":
            rho_f = np.diag(thermal_populations(cfg.n_th, cfg.n_max)).astype(complex)
        elif isinstance(field, int):
            rho_f = np.diag(np.eye(cfg.n_max + 1)[field]).astype(complex)
        else:
            fv = coherent_vector(field, cfg.n_max + 1)
            rho_f = np.outer(fv, fv.conj())
        expected = np.kron(rho_f, np.outer(av, av.conj()))
        assert sp.issparse(rho.matrix) and rho.matrix.has_canonical_format
        assert rho.matrix.nnz == np.count_nonzero(expected)
        assert np.array_equal(rho.matrix.toarray(), expected)

    def test_superposition_normalized(self):
        cfg = SystemConfig(n_atoms=1, g=0.1, n_max=2)
        rho = initial_state(cfg, [1.0, 1.0])  # (|e> + |g>)/sqrt(2)
        assert isinstance(rho, DensityMatrix)
        assert np.isclose(np.trace(as_dense(rho)), 1.0)
