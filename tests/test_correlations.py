import math

import numpy as np
import pytest

from drivencavity import correlations
from drivencavity.dynamics import steady_state
from drivencavity.hilbert import DensityMatrix, HilbertLayout, partial_trace
from drivencavity.model import SystemConfig, build_generator, initial_state
from drivencavity.correlations import (
    CorrelationReport,
    XStateError,
    binary_entropy,
    concurrence,
    concurrence_general,
    correlation_report,
    eof,
    eof_from_concurrence,
    field_statistics,
    purity,
    quantum_discord_bruteforce,
    quantum_discord_x,
    von_neumann_entropy,
    x_structure,
    XStateElements,
)
from reference import dense_field_statistics

rng = np.random.default_rng(41)
LAY2 = HilbertLayout(atom_count=2)


def x_matrix(p11, p22, p33, p44, c14=0.0, c23=0.0):
    m = np.diag([p11, p22, p33, p44]).astype(complex)
    m[0, 3], m[3, 0] = c14, np.conj(c14)
    m[1, 2], m[2, 1] = c23, np.conj(c23)
    return DensityMatrix.from_matrix(LAY2, m)


def random_x_state(balanced=True):
    p = rng.dirichlet([1.0, 1.0, 1.0, 1.0])
    if balanced:
        s = 0.5 * (p[1] + p[2])
        p = np.array([p[0], s, s, p[3]])
    c14 = rng.uniform(0, 0.95) * math.sqrt(p[0] * p[3]) * np.exp(2j * np.pi * rng.uniform())
    c23 = rng.uniform(0, 0.95) * math.sqrt(p[1] * p[2]) * np.exp(2j * np.pi * rng.uniform())
    return x_matrix(*p, c14=c14, c23=c23)


def random_pure_two_qubit():
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return DensityMatrix.pure(LAY2, v / np.linalg.norm(v))


def bell_state():
    return DensityMatrix.pure(LAY2, np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))


def werner(p):
    psi_m = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    m = p * np.outer(psi_m, psi_m) + (1.0 - p) * np.eye(4) / 4.0
    return DensityMatrix.from_matrix(LAY2, m)


class TestEntropies:
    def test_purity_extremes(self):
        assert np.isclose(purity(bell_state()), 1.0)
        mixed = DensityMatrix.from_matrix(LAY2, np.eye(4) / 4.0)
        assert np.isclose(purity(mixed), 0.25)

    def test_binary_entropy_values(self):
        assert np.isclose(binary_entropy(0.5), 1.0)
        assert np.isclose(binary_entropy(0.0), 0.0)
        assert np.isclose(binary_entropy(0.9), 0.4689955935892812)

    def test_von_neumann_diagonal(self):
        lay1 = HilbertLayout(atom_count=1)
        rho = DensityMatrix.from_matrix(lay1, np.diag([0.9, 0.1]).astype(complex))
        assert abs(von_neumann_entropy(rho) - 0.4690) < 1e-4

    def test_von_neumann_basis_independent(self):
        lay1 = HilbertLayout(atom_count=1)
        th = rng.uniform(0, np.pi)
        u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        m = u @ np.diag([0.7, 0.3]) @ u.T
        rho = DensityMatrix.from_matrix(lay1, m.astype(complex))
        assert np.isclose(von_neumann_entropy(rho), binary_entropy(0.7))


class TestXStructure:
    def test_extraction(self):
        rho = x_matrix(0.4, 0.2, 0.2, 0.2, c14=0.1j, c23=0.05)
        elems, violation = x_structure(rho)
        assert np.isclose(elems.p11, 0.4)
        assert elems.c14 == 0.1j
        assert violation == 0.0

    def test_violation_measured_not_raised(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = m[1, 0] = 0.01
        elems, violation = x_structure(DensityMatrix.from_matrix(LAY2, m))
        assert np.isclose(violation, 0.01)

    def test_element_validation(self):
        with pytest.raises(XStateError):
            XStateElements(p11=0.5, p22=0.5, p33=0.5, p44=-0.5, c14=0, c23=0)
        with pytest.raises(XStateError):
            XStateElements(p11=0.25, p22=0.25, p33=0.25, p44=0.25, c14=0.5, c23=0)

    def test_population_at_round_off_is_positive(self):
        # |c14| exceeds sqrt(p11 p44) by 7.3e-8, but the (p11, p44) block's
        # smaller eigenvalue is -3.9e-14: round-off, not a negative state
        p11, p44 = 2.6e-14, 0.6
        c14 = math.sqrt(p11 * p44) + 7.3e-8
        low = 0.5 * (p11 + p44) - math.sqrt(0.25 * (p11 - p44) ** 2 + c14**2)
        assert -1e-13 < low < 0.0
        XStateElements(p11=p11, p22=0.2, p33=0.2, p44=p44, c14=c14, c23=0)

    @pytest.mark.parametrize("pops, coherences", [
        ((0.3, 0.2, 0.2, 0.3), dict(c14=0.3 + 1e-6, c23=0)),
        ((0.2, 0.3, 0.3, 0.2), dict(c14=0, c23=0.3 + 1e-6)),
    ], ids=["c14", "c23"])
    def test_negative_block_eigenvalue_rejected(self, pops, coherences):
        # populations 0.3 and 0.3 with coherence 0.3 + 1e-6: eigenvalue -1e-6
        with pytest.raises(XStateError):
            XStateElements(*pops, **coherences)


class TestAnalyticDiscord:
    def test_bell_state_is_one_bit(self):
        elems, _ = x_structure(bell_state())
        assert abs(quantum_discord_x(elems) - 1.0) < 1e-9

    def test_classical_diagonal_state_is_zero(self):
        elems, _ = x_structure(x_matrix(0.3, 0.2, 0.2, 0.3))
        assert quantum_discord_x(elems) < 1e-12

    def test_werner_half_known_value(self):
        elems, _ = x_structure(werner(0.5))
        assert abs(quantum_discord_x(elems) - 0.26248318376373403) < 1e-12

    def test_unbalanced_cross_populations_rejected(self):
        elems, _ = x_structure(x_matrix(0.3, 0.25, 0.15, 0.3))
        with pytest.raises(XStateError):
            quantum_discord_x(elems)

    def test_discord_bounded_by_marginal_entropy(self):
        for _ in range(30):
            rho = random_x_state()
            elems, _ = x_structure(rho)
            s_a = binary_entropy(elems.p11 + elems.p22)
            assert quantum_discord_x(elems) <= s_a + 1e-9


class TestBruteForceDiscord:
    def test_matches_analytic_on_random_x_states(self):
        worst = 0.0
        for _ in range(100):
            rho = random_x_state()
            elems, _ = x_structure(rho)
            diff = abs(quantum_discord_bruteforce(rho) - quantum_discord_x(elems))
            worst = max(worst, diff)
        assert worst < 1e-3

    def test_werner_against_analytic(self):
        assert abs(quantum_discord_bruteforce(werner(0.5)) - 0.26248318376373403) < 1e-6

    def test_pure_state_discord_equals_entanglement(self):
        # on pure states discord reduces to the entropy of entanglement = EoF
        for _ in range(10):
            rho = random_pure_two_qubit()
            qd = quantum_discord_bruteforce(rho)
            e = eof_from_concurrence(concurrence_general(rho))
            assert abs(qd - e) < 1e-3

    def test_local_unitary_invariance(self):
        def haar_2x2():
            z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, r = np.linalg.qr(z)
            return q * (np.diag(r) / np.abs(np.diag(r)))

        worst = 0.0
        for _ in range(50):
            rho = random_x_state(balanced=False)
            u = np.kron(haar_2x2(), haar_2x2())
            rotated = DensityMatrix.from_matrix(LAY2, u @ rho.matrix @ u.conj().T)
            diff = abs(quantum_discord_bruteforce(rho) - quantum_discord_bruteforce(rotated))
            worst = max(worst, diff)
        assert worst < 2e-3

    def test_measurement_side_selectable(self):
        rho = werner(0.7)  # symmetric under swap: both sides agree
        qa = quantum_discord_bruteforce(rho, measure="A")
        qb = quantum_discord_bruteforce(rho, measure="B")
        assert abs(qa - qb) < 1e-6
        with pytest.raises(ValueError):
            quantum_discord_bruteforce(rho, measure="C")

    def test_product_state_is_zero(self):
        m = np.kron(np.diag([0.6, 0.4]), np.diag([0.8, 0.2])).astype(complex)
        rho = DensityMatrix.from_matrix(LAY2, m)
        assert quantum_discord_bruteforce(rho) < 1e-9

    def test_fixed_contraction_path_is_the_searched_one(self, monkeypatch):
        # the fixed path gives optimize=True's result bit for bit, on the coarse
        # grid (4096 points), the refinement grid (64) and the discord itself
        states = [random_x_state(balanced=False), random_pure_two_qubit(), werner(0.3)]
        fixed = [quantum_discord_bruteforce(rho) for rho in states]
        for n in (correlations._DISCORD_GRID_DENSITY, correlations._DISCORD_REFINE_DENSITY):
            theta, phi = rng.uniform(0.0, np.pi, n * n), rng.uniform(0.0, 2.0 * np.pi, n * n)
            for rho in states:
                rho_t = rho.matrix.reshape(2, 2, 2, 2)
                got = correlations._conditional_entropy(rho_t, theta, phi)
                with monkeypatch.context() as m:
                    m.setattr(correlations, "_BLOCKS_PATH", True)
                    want = correlations._conditional_entropy(rho_t, theta, phi)
                assert np.array_equal(got, want)
        monkeypatch.setattr(correlations, "_BLOCKS_PATH", True)
        assert [quantum_discord_bruteforce(rho) for rho in states] == fixed


class TestEntanglement:
    def test_concurrence_hand_value(self):
        # C = 2 (|c23| - sqrt(p11 p44)) = 2 (0.15 - 0.1) = 0.1
        rho = x_matrix(0.1, 0.4, 0.4, 0.1, c23=0.15)
        elems, _ = x_structure(rho)
        assert abs(concurrence(elems) - 0.1) < 1e-12

    def test_eof_at_concurrence_06(self):
        assert abs(eof_from_concurrence(0.6) - 0.4689955935892812) < 1e-10

    def test_eof_extremes(self):
        assert eof_from_concurrence(0.0) == 0.0
        assert np.isclose(eof_from_concurrence(1.0), 1.0)

    def test_bell_state_maximal(self):
        elems, _ = x_structure(bell_state())
        assert np.isclose(concurrence(elems), 1.0)
        assert np.isclose(eof(elems), 1.0)

    def test_separable_state_zero(self):
        elems, _ = x_structure(x_matrix(0.25, 0.25, 0.25, 0.25))
        assert concurrence(elems) == 0.0

    def test_wootters_matches_x_formula(self):
        for _ in range(50):
            rho = random_x_state(balanced=False)
            elems, _ = x_structure(rho)
            assert abs(concurrence_general(rho) - concurrence(elems)) < 1e-9

    def test_wootters_on_rotated_bell(self):
        u = np.kron(np.array([[1, 1], [1, -1]]) / math.sqrt(2), np.eye(2))
        m = u @ bell_state().matrix @ u.conj().T
        rho = DensityMatrix.from_matrix(LAY2, m)
        assert abs(concurrence_general(rho) - 1.0) < 1e-9


class TestCorrelationReport:
    def test_analytic_path_on_x_state(self):
        rho = werner(0.5)
        rep = correlation_report(rho)
        assert isinstance(rep, CorrelationReport)
        elems, _ = x_structure(rho)
        assert np.isclose(rep.qd, quantum_discord_x(elems))
        assert np.isclose(rep.concurrence, concurrence(elems))
        assert rep.x_structure_violation < 1e-12

    def test_oracle_fallback_on_non_x_state(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = m[1, 0] = 0.05
        rho = DensityMatrix.from_matrix(LAY2, m)
        rep = correlation_report(rho)
        assert rep.x_structure_violation > 1e-6
        assert abs(rep.qd - quantum_discord_bruteforce(rho)) < 1e-9

    def test_entropies_consistent(self):
        rho = random_pure_two_qubit()
        rep = correlation_report(rho)
        assert rep.s_ab < 1e-6           # pure joint state
        assert np.isclose(rep.purity, 1.0, atol=1e-9)


class TestFieldStatistics:
    def field(self, diag=None, matrix=None, n_max=None):
        if matrix is None:
            matrix = np.diag(np.asarray(diag, dtype=complex))
        n_max = matrix.shape[0] - 1
        lay = HilbertLayout(atom_count=0, fock_dim=n_max + 1)
        return DensityMatrix.from_matrix(lay, matrix)

    def test_thermal_bunching(self):
        # geometric distribution: g2 = 2, Q = n_th (oracle: direct moment sums)
        n_th, n_max = 2.0, 120
        n = np.arange(n_max + 1)
        p = (n_th / (n_th + 1.0)) ** n / (n_th + 1.0)
        p /= p.sum()
        st = field_statistics(self.field(diag=p))
        n1 = np.sum(n * p)
        g2_oracle = np.sum(n * (n - 1) * p) / n1**2
        assert abs(st.g2 - 2.0) < 1e-3
        assert abs(st.g2 - g2_oracle) < 1e-12
        assert abs(st.mandel_q - n_th) < 1e-3

    def test_single_photon_antibunching(self):
        st = field_statistics(self.field(diag=[0, 1, 0, 0]))
        assert st.g2 == 0.0
        assert np.isclose(st.mandel_q, -1.0)

    def test_coherent_state_poissonian(self):
        alpha, n_max = 1.2, 40
        n = np.arange(n_max + 1)
        from scipy.special import gammaln
        logp = n * np.log(alpha**2) - alpha**2 - gammaln(n + 1)
        p = np.exp(logp)
        st = field_statistics(self.field(diag=p / p.sum()))
        assert abs(st.n_bar - alpha**2) < 1e-4
        assert abs(st.g2 - 1.0) < 1e-4
        assert abs(st.mandel_q) < 1e-4

    @pytest.mark.parametrize("cfg, field", [
        (SystemConfig(n_atoms=2, g=0.1, epsilon=2.0, n_max=30), -2.0j),
        (SystemConfig(n_atoms=2, g=0.1, epsilon=1.5, n_max=40, frame="lab-rotating"), 1.5),
        (SystemConfig(n_atoms=2, g=0.1, n_th=3.0, n_max=164, frame="thermal"), "thermal"),
    ], ids=["displaced", "lab", "thermal"])
    def test_diagonal_moments_equal_the_dense_chains(self, cfg, field):
        # the initial and the steady field states, O(n_max) against O(n_max^3)
        gen = build_generator(cfg)
        rho0 = initial_state(cfg, "eg", field=field)
        for rho in (rho0, steady_state(gen, rho0).rho_ss):
            field_state = partial_trace(rho, keep=(0,))
            n_bar, n_sq, aa = dense_field_statistics(field_state.matrix)
            st = field_statistics(field_state)
            assert st.n_bar == n_bar and n_bar > 1e-9
            assert st.g2 == aa / n_bar**2
            assert st.mandel_q == (n_sq - n_bar**2 - n_bar) / n_bar

    def test_vacuum_has_undefined_ratios(self):
        st = field_statistics(self.field(diag=[1.0, 0.0, 0.0]))
        assert st.n_bar < 1e-12
        assert st.g2 is None and st.mandel_q is None
