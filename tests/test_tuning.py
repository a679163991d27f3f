from importlib import resources

import numpy as np
import pytest

import oscnet as on
from oscnet.errors import NoDominantMode, NoZeroInBracket
from oscnet.spectral import BathConfig


def detuned_pair_network(omega_b=1.05):
    """Two-node base with an attached pair; equal links, pair detuned."""
    base = on.build_network(
        np.array([1.3, 1.5]), np.array([[0.0, -0.05], [-0.05, 0.0]])
    )
    return on.attach_pair(
        base, 1.0, omega_b,
        links_a={0: -0.15, 1: -0.12},
        links_b={0: -0.15, 1: -0.12},
    )


class TestParameterScan:
    def test_values_match_direct_computation(self, chain3, common_bath):
        values = np.linspace(0.8, 1.4, 13)
        out = on.parameter_scan(chain3, ("omega", 1), values, common_bath)
        assert np.array_equal(out.values, values)
        for k, v in enumerate(values):
            dec = on.effective_couplings(
                on.diagonalize(chain3.with_omega(1, v)), common_bath
            )
            slowest = np.argmin(np.abs(dec.eff_coupling))
            assert out.sigma_index[k] == slowest
            assert out.kappa_sigma[k] == pytest.approx(
                abs(dec.eff_coupling[slowest]), abs=1e-14
            )
        assert np.all(out.stable)

    def test_unstable_points_are_nan_not_raised(self, common_bath):
        # strong couplings push the quadratic form indefinite at small omega
        net = on.build_network(
            np.array([1.0, 1.0]), np.array([[0.0, -0.9], [-0.9, 0.0]])
        )
        values = np.linspace(0.05, 1.5, 12)
        out = on.parameter_scan(net, ("omega", 0), values, common_bath)
        assert np.any(~out.stable)
        assert np.all(np.isnan(out.kappa_sigma[~out.stable]))
        assert np.all(np.isfinite(out.kappa_sigma[out.stable]))

    def test_swap_flag(self, common_bath):
        net = detuned_pair_network(omega_b=1.0)
        values = np.linspace(0.85, 1.2, 36)
        out = on.parameter_scan(net, ("omega", 3), values, common_bath)
        # the identity of the least-coupled mode changes across the scan
        assert np.any(out.swapped)
        changes = np.flatnonzero(np.diff(out.sigma_index) != 0) + 1
        assert set(changes) == set(np.flatnonzero(out.swapped))

    def test_separate_bath_rejected(self, chain3, separate_bath):
        with pytest.raises(ValueError):
            on.parameter_scan(chain3, ("omega", 0), [1.0, 1.1], separate_bath)

    def test_fig5_skips_mode_the_parameter_cannot_move(self, common_bath):
        # The pair mode at Omega = 1 has no amplitude on node 3 and is
        # frozen at any omega_3; the scan must follow the modes node 3
        # moves, whose kappa vanishes only at the closed-form roots.
        net = preset_network("fig5_network.txt")
        roots = on.find_sync_parameter(net, ("omega", 3), (1.0, 1.3), common_bath).roots
        values = np.array([1.0, 1.1, 1.2, *roots])
        out = on.parameter_scan(net, ("omega", 3), values, common_bath)
        for k, v in enumerate(values):
            dec = on.effective_couplings(on.diagonalize(net.with_omega(3, v)), common_bath)
            movable = np.abs(dec.modes[3]) > 1e-8 * np.abs(dec.modes).max()
            assert movable[out.sigma_index[k]]
            assert abs(dec.freqs[out.sigma_index[k]] - 1.0) > 1e-6
            assert out.kappa_sigma[k] == np.min(np.abs(dec.eff_coupling[movable]))
        assert np.all(out.kappa_sigma[:3] > 0.1)
        assert np.all(out.kappa_sigma[3:] <= 1e-10)


class TestFindSyncFrequency:
    def test_recovers_exact_pair_resonance(self, common_bath):
        # equal links means the antisymmetric mode decouples exactly when
        # the pair frequencies match: the zero must land on 1.0
        net = detuned_pair_network(omega_b=1.05)
        res = on.find_sync_parameter(net, ("omega", 3), (0.9, 1.15), common_bath)
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert res.residual <= 1e-10
        assert res.param == ("omega", 3)
        assert res.report.frozen != ()

    def test_result_verified_against_fresh_decomposition(self, common_bath):
        net = detuned_pair_network()
        res = on.find_sync_parameter(net, ("omega", 3), (0.9, 1.15), common_bath)
        dec = on.effective_couplings(
            on.diagonalize(net.with_omega(3, res.value)), common_bath
        )
        slowest = np.argmin(np.abs(dec.eff_coupling))
        assert abs(dec.eff_coupling[slowest]) <= 1e-10
        assert dec.freqs[slowest] == pytest.approx(res.mode_freq)
        assert slowest == res.mode_index

    def test_matches_fine_grid_minimum(self, er10, common_bath):
        # independent route: brute-force the |kappa| dip location
        bracket = (0.95, 1.15)
        res = on.find_sync_parameter(er10, ("omega", 4), bracket, common_bath, tol=1e-9)
        grid = np.linspace(*bracket, 4001)
        kmin = np.empty(grid.shape)
        for k, v in enumerate(grid):
            dec = on.effective_couplings(
                on.diagonalize(er10.with_omega(4, v)), common_bath
            )
            kmin[k] = np.min(np.abs(dec.eff_coupling))
        assert abs(res.value - grid[np.argmin(kmin)]) < (grid[1] - grid[0]) * 1.5

    def test_local_bath(self, common_bath):
        net = detuned_pair_network()
        bath = BathConfig(kind="local", gamma=0.01, temperature=10.0,
                          cutoff=50.0, node=0)
        res = on.find_sync_parameter(net, ("omega", 3), (0.9, 1.15), bath)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_no_zero_in_bracket(self, common_bath):
        # (1.6, 2.0) was grid-checked: |kappa| stays above 0.5 throughout
        net = detuned_pair_network()
        with pytest.raises(NoZeroInBracket):
            on.find_sync_parameter(net, ("omega", 3), (1.6, 2.0), common_bath)

    def test_bad_bracket(self, chain3, common_bath):
        with pytest.raises(ValueError):
            on.find_sync_parameter(chain3, ("omega", 0), (1.5, 1.5), common_bath)


def preset_network(name):
    return on.load_network(str(resources.files("oscnet") / "presets" / name))


class TestClosedFormRoots:
    # Every omega_6 in (0.8, 1.4) that freezes a mode of the fig3 network.
    FIG3_ROOTS = (0.8140636180005536, 0.9459981552461165, 0.9850094685609079,
                  1.0156702665697543, 1.1875560805314034, 1.2053602242876165,
                  1.230650018734387)
    FIG3_SHIPPED = 1.230650018734386  # omega_6 of the shipped preset

    def test_fig3_roots_against_kappa_oracle(self, common_bath):
        net = preset_network("fig3_network.txt")
        res = on.find_sync_parameter(net, ("omega", 6), (0.8, 1.4), common_bath)
        assert res.roots == pytest.approx(self.FIG3_ROOTS, rel=1e-12)
        assert res.value == res.roots[-1]
        assert res.always_frozen == ()
        for root in res.roots:
            dec = on.effective_couplings(
                on.diagonalize(net.with_omega(6, root)), common_bath
            )
            assert np.min(np.abs(dec.eff_coupling)) <= 1e-12

    def test_fig3_tune_writes_shipped_frequency(self, tmp_path):
        net_path = resources.files("oscnet") / "presets" / "fig3_network.txt"
        ini = tmp_path / "tune.ini"
        ini.write_text(
            f"[network]\nsource = file\npath = {net_path}\n\n"
            "[bath]\nkind = common\ngamma = 0.01\ntemperature = 10.0\ncutoff = 50.0\n\n"
            "[time]\nt_end = 5.0\n\n"
            "[tuning]\nparameter = omega 6\nbracket = 0.8 1.4\n"
        )
        on.run_tune(on.load_config(str(ini)), out_dir=str(tmp_path / "out"))
        tuned = on.load_network(str(tmp_path / "out" / "tuned_network.txt"))
        assert abs(tuned.omega[6] - self.FIG3_SHIPPED) <= 8 * np.spacing(self.FIG3_SHIPPED)

    def test_fig5_pair_mode_frozen_at_any_value(self, common_bath):
        # The balanced pair's antisymmetric mode (Omega = 1) is frozen for
        # every omega_3: it must be reported, and each root must freeze a
        # second mode on top of it.
        net = preset_network("fig5_network.txt")

        def second_smallest_kappa(omega_3):
            dec = on.effective_couplings(
                on.diagonalize(net.with_omega(3, omega_3)), common_bath
            )
            return np.sort(np.abs(dec.eff_coupling))[1]

        res = on.find_sync_parameter(net, ("omega", 3), (1.0, 1.3), common_bath)
        assert second_smallest_kappa(res.value) <= 1e-10
        assert all(second_smallest_kappa(root) <= 1e-10 for root in res.roots)
        assert res.always_frozen == pytest.approx((1.0,), abs=1e-12)
        assert abs(res.mode_freq - 1.0) > 1e-6

    def test_coupling_selector_rejected(self, common_bath):
        net = detuned_pair_network(omega_b=1.0)
        with pytest.raises(ValueError):
            on.find_sync_parameter(net, ("coupling", 3, 1), (-0.2, -0.03), common_bath)


class TestEstimateSyncTimes:
    def test_formula_oracle(self, er10, common_bath):
        dec = on.analyze(er10, common_bath)
        est = on.estimate_sync_times(dec)
        gamma, f = dec.damping, dec.modes
        sigma = int(np.argmin(gamma))
        assert est.sigma == sigma
        for j in range(10):
            ts = [
                2.0 * (np.log(abs(f[j, m])) - np.log(abs(f[j, sigma])))
                / (gamma[m] - gamma[sigma])
                for m in range(10)
                if m != sigma and abs(f[j, m]) > 0.0
            ]
            assert est.node_times[j] == pytest.approx(max(max(ts), 0.0), rel=1e-12)
        assert est.t_sync == pytest.approx(
            np.max(est.node_times[np.isfinite(est.node_times)])
        )
        assert np.all(np.isfinite(est.node_times))

    def test_unreachable_nodes_flagged(self, common_bath):
        # the frozen antisymmetric pair mode has no weight on the base
        # nodes, so they can never lock to it
        net = detuned_pair_network(omega_b=1.0)
        dec = on.analyze(net, common_bath)
        est = on.estimate_sync_times(dec)
        assert list(np.isinf(est.node_times)) == [True, True, False, False]
        assert np.all(np.isfinite(est.node_times[2:]))
        assert est.t_sync == pytest.approx(np.max(est.node_times[2:]))

    def test_tie_raises(self, chain3, separate_bath):
        dec = on.analyze(chain3, separate_bath)
        with pytest.raises(NoDominantMode):
            on.estimate_sync_times(dec)

    def test_requires_rates(self, chain3):
        with pytest.raises(ValueError):
            on.estimate_sync_times(on.diagonalize(chain3))


class TestMotifFormulas:
    """A three-node motif (branches 0 and 1, hub 2) frozen by the pencil.

    The branch amplitudes u_x = lam_xc / (W^2 - w_x^2) of a motif mode at
    W against a unit hub amplitude give the closed forms used as oracles:
    the common-bath weight u_a + u_b + 1 and the hub eigenvalue condition
    w_c^2 = W^2 - lam_ac^2 / (W^2 - w_a^2) - lam_bc^2 / (W^2 - w_b^2).
    """

    OMEGA_A, OMEGA_B = 1.0, 1.3
    LAM_AC, LAM_BC = -0.09, -0.11

    def tuned_motif(self, bath):
        """The motif with its hub tuned by the pencil, and the frozen Omega."""
        coupling = np.zeros((3, 3))
        coupling[0, 2] = coupling[2, 0] = self.LAM_AC
        coupling[1, 2] = coupling[2, 1] = self.LAM_BC
        net = on.build_network(np.array([self.OMEGA_A, self.OMEGA_B, 1.5]), coupling)
        res = on.find_sync_parameter(net, ("omega", 2), (1.2, 1.4), bath)
        return net.with_omega(2, res.value), res.mode_freq

    def test_residual_formula(self, common_bath):
        _, w = self.tuned_motif(common_bath)
        residual = (self.LAM_AC / (w**2 - self.OMEGA_A**2)
                    + self.LAM_BC / (w**2 - self.OMEGA_B**2) + 1.0)
        assert abs(residual) < 1e-12

    def test_hub_frequency_places_eigenmode(self, common_bath):
        net, w = self.tuned_motif(common_bath)
        w2 = w**2
        hub2 = (w2 - self.LAM_AC**2 / (w2 - self.OMEGA_A**2)
                - self.LAM_BC**2 / (w2 - self.OMEGA_B**2))
        assert net.omega[2] == pytest.approx(np.sqrt(hub2), rel=1e-12)

    def test_tuned_motif_mode_is_frozen(self, common_bath):
        net, target = self.tuned_motif(common_bath)
        dec = on.effective_couplings(on.diagonalize(net), common_bath)
        k = int(np.argmin(np.abs(dec.freqs - target)))
        assert dec.freqs[k] == pytest.approx(target, abs=1e-10)
        assert abs(dec.eff_coupling[k]) < 1e-10
        assert on.frozen_mode_report(dec, common_bath).frozen == (k,)


class TestEmbeddingResiduals:
    """External node j breaks the motif mode by u_a lam_aj + u_b lam_bj + lam_cj."""

    def build_embedded(self, rewire, bath):
        motif, target = TestMotifFormulas().tuned_motif(bath)
        n = 5
        omega = np.concatenate([motif.omega, [1.45, 1.7]])
        lam = np.zeros((n, n))
        lam[:3, :3] = motif.coupling
        # externals couple to all three motif nodes
        for j, links in ((3, (-0.06, -0.04, -0.05)), (4, (0.03, -0.02, 0.04))):
            lam[0, j] = lam[j, 0] = links[0]
            lam[1, j] = lam[j, 1] = links[1]
            lam[2, j] = lam[j, 2] = links[2]
        lam[3, 4] = lam[4, 3] = -0.03
        w2 = target**2
        u_a = lam[0, 2] / (w2 - omega[0] ** 2)
        u_b = lam[1, 2] / (w2 - omega[1] ** 2)
        if rewire:
            for j in (3, 4):
                lam[2, j] = lam[j, 2] = -(u_a * lam[0, j] + u_b * lam[1, j])
        residuals = u_a * lam[0, 3:] + u_b * lam[1, 3:] + lam[2, 3:]
        return on.build_network(omega, lam), target, np.array([u_a, u_b, 1.0]), residuals

    def test_residual_values(self, common_bath):
        # the residuals are the external rows of (H - W^2) acting on the
        # motif vector; its motif rows vanish, and nothing stays frozen
        net, target, motif_vec, res = self.build_embedded(False, common_bath)
        vec = np.concatenate([motif_vec, np.zeros(2)])
        hv = (on.hamiltonian_matrix(net) - target**2 * np.eye(5)) @ vec
        assert np.max(np.abs(hv[:3])) < 1e-14
        np.testing.assert_allclose(hv[3:], res, rtol=1e-13)
        assert np.any(np.abs(res) > 1e-3)
        dec = on.analyze(net, common_bath)
        assert on.frozen_mode_report(dec, common_bath).frozen == ()

    def test_rewired_embedding_freezes_mode(self, common_bath):
        # zero residuals must give the full network an exact eigenmode at
        # the motif frequency with vanishing common-bath weight
        net, target, _, res = self.build_embedded(True, common_bath)
        assert np.max(np.abs(res)) < 1e-15
        dec = on.effective_couplings(on.diagonalize(net), common_bath)
        k = int(np.argmin(np.abs(dec.freqs - target)))
        assert dec.freqs[k] == pytest.approx(target, abs=1e-10)
        assert abs(dec.eff_coupling[k]) < 1e-10
        assert np.max(np.abs(dec.modes[3:, k])) < 1e-10
