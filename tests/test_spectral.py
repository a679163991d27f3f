import numpy as np
import pytest

import oscnet as on
from oscnet import spectral
from oscnet.errors import LocalBathNodeOutOfRange, UnphysicalSpec
from oscnet.spectral import BathConfig


def coth_oracle(x):
    # explicit exponential form, independent of the 1/tanh used in the module
    return (np.exp(x) + np.exp(-x)) / (np.exp(x) - np.exp(-x))


class TestDiagonalize:
    # a separate bath rotates and re-signs nothing: analyze returns the
    # Hamiltonian's own sorted, sign-fixed eigenvectors

    def test_reconstructs_hamiltonian(self, er10, separate_bath):
        dec = on.analyze(er10, separate_bath)
        ham = on.hamiltonian_matrix(er10)
        rebuilt = dec.modes @ np.diag(dec.freqs**2) @ dec.modes.T
        assert np.allclose(rebuilt, ham, atol=1e-12)

    def test_orthonormal_and_sorted(self, er10, separate_bath):
        dec = on.analyze(er10, separate_bath)
        assert np.allclose(dec.modes.T @ dec.modes, np.eye(10), atol=1e-12)
        assert np.all(np.diff(dec.freqs) >= 0.0)
        assert np.all(dec.freqs > 0.0)

    def test_eigen_residual(self, chain3, separate_bath):
        # each column must satisfy H f = W^2 f directly
        dec = on.analyze(chain3, separate_bath)
        ham = on.hamiltonian_matrix(chain3)
        for m in range(3):
            res = ham @ dec.modes[:, m] - dec.freqs[m] ** 2 * dec.modes[:, m]
            assert np.max(np.abs(res)) < 1e-12

    def test_sign_convention(self, er10, separate_bath):
        dec = on.analyze(er10, separate_bath)
        for m in range(dec.n):
            col = dec.modes[:, m]
            assert col[np.argmax(np.abs(col))] > 0.0

    def test_deterministic(self, er10, separate_bath):
        a = on.analyze(er10, separate_bath)
        b = on.analyze(er10, separate_bath)
        assert np.array_equal(a.modes, b.modes)
        assert np.array_equal(a.freqs, b.freqs)


class TestBathConfig:
    def test_validation(self):
        with pytest.raises(UnphysicalSpec):
            BathConfig(kind="common", gamma=-0.1, temperature=10.0)
        with pytest.raises(UnphysicalSpec):
            BathConfig(kind="common", gamma=0.1, temperature=-1.0)
        with pytest.raises(ValueError):
            BathConfig(kind="magma", gamma=0.1, temperature=1.0)
        with pytest.raises(ValueError):
            BathConfig(kind="local", gamma=0.1, temperature=1.0)


class TestEffectiveCouplings:
    def test_separate_is_uniform(self, er10, separate_bath):
        dec = on.analyze(er10, separate_bath)
        assert np.array_equal(dec.eff_coupling, np.ones(10))

    def test_common_column_sums(self, er10, common_bath):
        dec = on.analyze(er10, common_bath)
        expected = dec.modes.sum(axis=0)
        assert np.allclose(dec.eff_coupling, expected, atol=1e-12)
        # orthogonality invariant: sum of kappa^2 equals the node count
        assert np.isclose(np.sum(dec.eff_coupling**2), 10.0, atol=1e-10)

    def test_local_row(self, er10):
        bath = BathConfig(kind="local", gamma=0.01, temperature=10.0, node=3)
        dec = on.analyze(er10, bath)
        assert np.allclose(dec.eff_coupling, dec.modes[3, :], atol=1e-12)
        assert np.isclose(np.sum(dec.eff_coupling**2), 1.0, atol=1e-12)

    def test_local_node_out_of_range(self, er10):
        bath = BathConfig(kind="local", gamma=0.01, temperature=10.0, node=10)
        with pytest.raises(LocalBathNodeOutOfRange):
            on.analyze(er10, bath)

    def test_slowest_mode_ordering(self, er10, common_bath):
        dec = on.analyze(er10, common_bath)
        kappa = np.abs(dec.eff_coupling)
        order = spectral._slowest_order(dec)
        assert sorted(order) == list(range(10))
        assert kappa[order[0]] == kappa.min()
        mask = np.ones(10, dtype=bool)
        mask[order[0]] = False
        assert kappa[order[1]] == kappa[mask].min()
        assert np.all(np.diff(kappa[order]) >= 0.0)

    def test_one_node_network(self, common_bath, separate_bath):
        net = on.NetworkSpec(np.array([1.3]), np.zeros((1, 1)))
        for bath in (common_bath, separate_bath):
            dec = on.analyze(net, bath)
            assert dec.n == 1 and dec.freqs[0] == pytest.approx(1.3)
            assert abs(dec.eff_coupling[0]) == pytest.approx(1.0)
            assert list(spectral._slowest_order(dec)) == [0]

    def test_degenerate_pair_concentration(self, common_bath):
        # identical attached pair: exactly one combination in the degenerate
        # eigenspace must decouple even though eigh returns arbitrary vectors
        base = on.NetworkSpec(np.array([1.3]), np.zeros((1, 1)))
        net = on.attach_pair(base, 1.0, 1.0, links_a={0: -0.1}, links_b={0: -0.1})
        dec = on.analyze(net, common_bath)
        kappa = np.abs(dec.eff_coupling)
        assert kappa.min() < 1e-12


class TestModeRates:
    def test_rates_formulas(self, er10, common_bath):
        dec = on.analyze(er10, common_bath)
        expected_gamma = common_bath.gamma * dec.eff_coupling**2
        assert np.allclose(dec.damping, expected_gamma, rtol=1e-13)
        expected_d = expected_gamma * dec.freqs * coth_oracle(dec.freqs / 20.0)
        assert np.allclose(dec.diffusion, expected_d, rtol=1e-12)

    def test_separate_uniform_rates(self, er10, separate_bath):
        dec = on.analyze(er10, separate_bath)
        assert np.allclose(dec.damping, separate_bath.gamma)

    def test_diffusion_positive_when_damped(self, er10, common_bath):
        dec = on.analyze(er10, common_bath)
        live = dec.damping > 0
        assert np.all(dec.diffusion[live] > 0.0)
        assert np.all(dec.diffusion[~live] == 0.0)


class TestFrozenModeReport:
    def test_no_frozen_modes_generic(self, er10, common_bath):
        dec = on.analyze(er10, common_bath)
        rep = on.frozen_mode_report(dec)
        # a generic random network has no exactly decoupled mode
        assert rep.frozen == ()

    def test_pair_cluster(self, common_bath):
        base = on.NetworkSpec(np.array([1.3, 1.5]),
                              np.array([[0.0, -0.05], [-0.05, 0.0]]))
        net = on.attach_pair(base, 1.0, 1.0,
                             links_a={0: -0.15, 1: -0.12},
                             links_b={0: -0.15, 1: -0.12})
        dec = on.analyze(net, common_bath)
        rep = on.frozen_mode_report(dec)
        assert len(rep.frozen) == 1
        assert rep.participants(rep.frozen[0]) == (2, 3)
        assert not rep.participation[:, rep.frozen[0]].all()
