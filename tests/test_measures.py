import tracemalloc
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oscnet as on
from oscnet import measures
from oscnet.dynamics import GaussianState, Trajectory
from oscnet.errors import UnphysicalCovariance
from oscnet.measures import (
    DISCORD,
    LOG_NEGATIVITY,
    MUTUAL_INFORMATION,
    _windowed_pearson,
    pair_covariance,
    symplectic_form,
)
from oscnet.scenarios import load_config, prepare

from conftest import random_physical_cov, tmsv_cov


def entropy_of_nu(nu):
    nu = np.asarray(nu, dtype=float)
    plus = nu + 0.5
    minus = nu - 0.5
    out = plus * np.log(plus)
    mask = minus > 0.0
    out = np.where(mask, out - np.where(mask, minus, 1.0) * np.log(np.where(mask, minus, 1.0)), out)
    return float(np.sum(out))


def corrcoef_window(f, g):
    """Plain per-window Pearson, the obvious way."""
    fc = f - f.mean()
    gc = g - g.mean()
    denom = np.sqrt((fc @ fc) * (gc @ gc))
    if denom == 0.0:
        return np.nan
    return float(np.clip(fc @ gc / denom, -1.0, 1.0))


def pearson_two_pass(series, window, pairs):
    """Windowed Pearson the slow way: per window, subtract its mean, then sum.

    Same contract as the kernel: (T - window + 1, P), NaN where either
    column is constant over the window.  No sums carry across windows.
    """
    n_win = series.shape[0] - window + 1
    out = np.full((n_win, len(pairs)), np.nan)
    for t0 in range(n_win):
        block = series[t0:t0 + window]
        dev = block - block.mean(axis=0)
        for ip, (i, j) in enumerate(pairs):
            sxx = dev[:, i] @ dev[:, i]
            syy = dev[:, j] @ dev[:, j]
            if sxx > 0.0 and syy > 0.0:
                out[t0, ip] = np.clip(dev[:, i] @ dev[:, j] / np.sqrt(sxx * syy), -1.0, 1.0)
    return out


class TestSymplecticSpectrum:
    def test_vacuum(self):
        assert np.allclose(on.symplectic_spectrum(0.5 * np.eye(6)), 0.5)

    def test_recovers_williamson_construction(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 4):
            cov, nus = random_physical_cov(rng, n)
            got = on.symplectic_spectrum(cov)
            assert np.allclose(np.sort(got), np.sort(nus), atol=1e-9)

    def test_batched(self):
        rng = np.random.default_rng(1)
        covs = np.stack([random_physical_cov(rng, 2)[0] for _ in range(5)])
        out = on.symplectic_spectrum(covs)
        assert out.shape == (5, 2)
        for k in range(5):
            assert np.allclose(out[k], on.symplectic_spectrum(covs[k]))


class TestEntropyPurity:
    def test_pure_state_entropy_zero(self):
        assert on.von_neumann_entropy(0.5 * np.eye(4)) == pytest.approx(0.0, abs=1e-12)

    def test_thermal_entropy_closed_form(self):
        # one mode at occupation nbar: S = (nbar+1)ln(nbar+1) - nbar ln(nbar)
        for nbar in (0.3, 1.0, 4.2):
            cov = (nbar + 0.5) * np.eye(2)
            expected = (nbar + 1) * np.log(nbar + 1) - nbar * np.log(nbar)
            assert on.von_neumann_entropy(cov) == pytest.approx(expected, rel=1e-12)

    def test_entropy_additive_over_williamson_spectrum(self):
        rng = np.random.default_rng(2)
        cov, nus = random_physical_cov(rng, 3)
        assert on.von_neumann_entropy(cov) == pytest.approx(
            entropy_of_nu(nus), rel=1e-9
        )

    def test_purity_from_determinant(self):
        rng = np.random.default_rng(3)
        cov, nus = random_physical_cov(rng, 2)
        assert on.purity(cov) == pytest.approx(1.0 / np.prod(2.0 * nus), rel=1e-9)
        assert on.purity(0.5 * np.eye(8)) == pytest.approx(1.0, rel=1e-12)

    def test_symplectic_form_blocks(self):
        j = symplectic_form(2)
        assert np.array_equal(j, np.block(
            [[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]]
        ))


class TestEnergy:
    def test_matches_mode_basis_sum(self, chain3):
        rng = np.random.default_rng(4)
        cov, _ = random_physical_cov(rng, 3)
        mean = rng.normal(size=6)
        st_node = GaussianState(mean, cov, basis="node")
        value = on.energy(st_node, chain3)

        # independent route: diagonalize here and sum per-mode energies
        ham = on.hamiltonian_matrix(chain3)
        w2, f = np.linalg.eigh(ham)
        mq = f.T @ mean[:3]
        mp = f.T @ mean[3:]
        cq = f.T @ cov[:3, :3] @ f
        cp = f.T @ cov[3:, 3:] @ f
        expected = 0.5 * (
            np.trace(cp) + mp @ mp + w2 @ (np.diag(cq) + mq**2)
        )
        assert value == pytest.approx(expected, rel=1e-12)

    def test_requires_node_basis(self, chain3):
        st_mode = GaussianState(np.zeros(6), 0.5 * np.eye(6), basis="mode")
        with pytest.raises(ValueError):
            on.energy(st_mode, chain3)


class TestWindowedCorrelation:
    def test_against_per_window_corrcoef(self):
        rng = np.random.default_rng(5)
        times = np.linspace(0.0, 9.9, 100)
        f = np.sin(times) + 0.3 * rng.normal(size=100)
        g = np.cos(times) + 0.3 * rng.normal(size=100)
        out = on.windowed_correlation(times, f, g, window=2.0)
        assert out.samples == 20
        assert len(out) == 81
        for k in (0, 17, 80):
            sl = slice(k, k + out.samples)
            assert out.values[k] == pytest.approx(
                corrcoef_window(f[sl], g[sl]), abs=1e-10
            )

    def test_perfect_correlation(self):
        times = np.linspace(0.0, 5.0, 60)
        f = np.sin(times)
        out = on.windowed_correlation(times, f, 3.0 * f + 2.0, window=1.0)
        assert np.allclose(out.values, 1.0)
        out = on.windowed_correlation(times, f, -f, window=1.0)
        assert np.allclose(out.values, -1.0)

    def test_degenerate_window_is_nan(self):
        times = np.linspace(0.0, 5.0, 60)
        f = np.ones(60)
        g = np.sin(times)
        out = on.windowed_correlation(times, f, g, window=1.0)
        assert np.all(np.isnan(out.values))
        assert np.all(out.degenerate)

    def test_grid_validation(self):
        times = np.concatenate([np.linspace(0, 1, 30), [1.5, 2.0, 2.6]])
        with pytest.raises(ValueError):
            on.windowed_correlation(times, times, times, window=0.5)
        uniform = np.linspace(0.0, 5.0, 51)
        with pytest.raises(ValueError):
            on.windowed_correlation(uniform, uniform, uniform, window=0.5)
        with pytest.raises(ValueError):
            on.windowed_correlation(uniform, uniform, uniform, window=9.0)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bounded(self, seed):
        rng = np.random.default_rng(seed)
        times = np.arange(64.0)
        f = rng.normal(size=64)
        g = rng.normal(size=64)
        out = on.windowed_correlation(times, f, g, window=16.0)
        finite = out.values[~out.degenerate]
        assert np.all(np.abs(finite) <= 1.0)


class TestPearsonKernel:
    def test_prefix_sums_vs_two_pass(self):
        rng = np.random.default_rng(3)
        series = rng.normal(size=(120, 6))
        series[:, 5] = 2.5  # constant column: degenerate windows -> NaN
        pairs = np.array([[0, 1], [2, 4], [3, 3], [1, 5]])
        got = _windowed_pearson(series, 20, pairs)
        ref = pearson_two_pass(series, 20, pairs)
        assert np.all(np.isnan(got[:, 3])) and np.all(np.isnan(ref[:, 3]))
        assert np.allclose(got, ref, atol=1e-12, equal_nan=True)

    @pytest.mark.parametrize("block_elements", [None, 7 * 15 * 3])
    def test_batched_gram_vs_two_pass_per_pair(self, monkeypatch, block_elements):
        # one Gram product per window over all seven series, pairs gathered
        # afterwards, in any order and with repeats; constant stretches
        # make some windows degenerate for some pairs only
        if block_elements is not None:
            monkeypatch.setattr(measures, "_PEARSON_BLOCK_ELEMENTS", block_elements)
        rng = np.random.default_rng(12)
        series = rng.normal(size=(90, 7)) + np.linspace(0.0, 4.0, 90)[:, None]
        series[10:40, 2] = -1.25
        series[:, 6] = 3.0
        pairs = np.array([(i, j) for i in range(7) for j in range(7) if i != j] + [(4, 4), (1, 2)])
        got = np.concatenate(list(measures._pearson_blocks(series, 15, pairs)))
        ref = pearson_two_pass(series, 15, pairs)
        assert np.array_equal(np.isnan(got), np.isnan(ref))
        assert np.isnan(got).any() and not np.isnan(got).all()
        assert np.allclose(got, ref, rtol=0.0, atol=1e-12, equal_nan=True)

    def test_drifting_series(self):
        # a large level plus a drift is where running sums lose digits
        t = np.arange(100_000) * 0.01
        series = np.stack([
            1e3 + 0.5 * t + np.sin(2.0 * np.pi * t / 1.3),
            1e3 + 0.3 * t + np.sin(2.0 * np.pi * t / 1.3 + 0.4)
            + 0.5 * np.cos(2.0 * np.pi * t / 0.7),
        ], axis=1)
        pairs = np.array([[0, 1]])
        got = _windowed_pearson(series, 500, pairs)
        ref = pearson_two_pass(series, 500, pairs)
        assert got.shape == (99_501, 1)
        assert np.max(np.abs(got - ref)) < 1e-5

    def test_fig2_sb_signals_match_two_pass(self):
        # the early transient of the preset's <q^2> dominates any running
        # sum; window-local sums must still give every digit
        cfg = load_config(str(resources.files("oscnet") / "presets" / "fig2_sb.ini"))
        prep = prepare(cfg)
        state = on.initial_state(prep.net, mean_q=cfg.initial.mean_q)
        traj = on.evolve(state, prep.decomp, prep.times)
        signal = traj.second_moment_q
        pairs = [(0, 1), (0, 2), (1, 2)]
        sync = on.collective_sync(traj, prep.window)
        ref = pearson_two_pass(signal, sync.samples, pairs)
        for k, (i, j) in enumerate(pairs):
            got = on.windowed_correlation(traj.times, signal[:, i], signal[:, j], prep.window)
            assert np.allclose(got.values, ref[:, k], rtol=0.0, atol=1e-12)
        assert np.allclose(sync.values, np.abs(ref).prod(axis=1), rtol=0.0, atol=1e-12)

    def test_independent_of_memory_layout(self):
        rng = np.random.default_rng(11)
        wide = rng.normal(size=(300, 7)) + np.linspace(0.0, 50.0, 300)[:, None]
        c_order = np.ascontiguousarray(wide[:, 1:5])
        f_order = np.asfortranarray(c_order)
        view = wide[:, 1:5]
        pairs = np.array([[0, 1], [0, 3], [1, 2], [2, 3]])
        expected = _windowed_pearson(c_order, 40, pairs)
        for series in (f_order, view):
            assert np.array_equal(_windowed_pearson(series, 40, pairs), expected,
                                  equal_nan=True)


class TestCollectiveSync:
    def make_traj(self, signals, dt=0.1):
        """Trajectory stub whose <q^2> equals the given (T, n) signals."""
        n_t, n = signals.shape
        times = np.arange(n_t) * dt
        means = np.zeros((n_t, 2 * n))
        covs = np.zeros((n_t, 2 * n, 2 * n))
        idx = np.arange(n)
        covs[:, idx, idx] = signals
        covs[:, n + idx, n + idx] = 1.0
        return Trajectory(times=times, means=means, covs=covs,
                          energy=np.zeros(n_t))

    def test_product_of_pair_correlations(self):
        rng = np.random.default_rng(6)
        sig = rng.normal(size=(50, 3)) + 2.0
        traj = self.make_traj(sig)
        out = on.collective_sync(traj, window=1.2)
        assert out.samples == 12
        for k in (0, 20, len(out) - 1):
            sl = slice(k, k + 12)
            expected = 1.0
            for i, j in [(0, 1), (0, 2), (1, 2)]:
                expected *= abs(corrcoef_window(sig[sl, i], sig[sl, j]))
            assert out.values[k] == pytest.approx(expected, abs=1e-10)

    def test_synchronized_network_saturates(self):
        t = np.arange(200) * 0.05
        base = 2.0 + np.sin(1.3 * t)
        sig = np.stack([base, 0.7 * base + 0.1, 1.4 * base - 0.2], axis=1)
        traj = self.make_traj(sig, dt=0.05)
        out = on.collective_sync(traj, window=1.0)
        assert np.allclose(out.values, 1.0, atol=1e-12)

    def test_subset(self):
        rng = np.random.default_rng(7)
        sig = rng.normal(size=(40, 4)) + 3.0
        traj = self.make_traj(sig)
        full = on.collective_sync(traj, window=1.5)
        sub = on.collective_sync(traj, window=1.5, subset=[0, 2])
        pairwise = on.windowed_correlation(
            traj.times, sig[:, 0] + 0.0, sig[:, 2] + 0.0, window=1.5
        )
        assert np.allclose(sub.values, np.abs(pairwise.values), atol=1e-12)
        assert not np.allclose(sub.values, full.values)

    def test_streamed_blocks_match_whole_correlation(self, monkeypatch):
        # S(t) is reduced block by block; over many short blocks it must
        # equal the reduction of the whole correlation array, bit for bit
        rng = np.random.default_rng(9)
        sig = rng.normal(size=(90, 4)) + 2.0
        sig[30:45, 3] = 1.0  # a constant stretch: degenerate windows
        pairs = np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])
        corr = _windowed_pearson(sig, 12, pairs)
        monkeypatch.setattr(measures, "_PEARSON_BLOCK_ELEMENTS", 4 * 12 * 5)
        out = on.collective_sync(self.make_traj(sig), window=1.2)
        assert out.samples == 12
        assert np.array_equal(out.values, np.abs(corr).prod(axis=1), equal_nan=True)
        assert np.array_equal(out.degenerate, np.isnan(corr).any(axis=1))
        assert out.degenerate.any()

    def test_memory_does_not_hold_every_pair(self):
        # n = 40 gives 780 pairs.  Holding the whole (windows, pairs)
        # correlation and its |C| copy peaked at 24.7 MB here (T = 2001);
        # reduced block by block, 6.2 MB.
        net = on.random_network(40, 0.3, 0.9, 1.2, 0.0, 0.05, seed=7)
        bath = on.BathConfig(kind="common", gamma=0.01, temperature=10.0, cutoff=50.0)
        traj = on.evolve(on.initial_state(net, mean_q=0.5, squeeze_r=0.5),
                         on.analyze(net, bath), np.linspace(0.0, 1000.0, 2001))
        tracemalloc.start()
        try:
            sync = on.collective_sync(traj, 40.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sync.values.shape == (2001 - 80 + 1,)
        assert peak < 12e6, f"collective_sync peaked at {peak / 1e6:.1f} MB"

    def test_subset_validation(self):
        traj = self.make_traj(np.random.default_rng(8).normal(size=(30, 3)))
        with pytest.raises(ValueError):
            on.collective_sync(traj, window=1.0, subset=[1])
        with pytest.raises(ValueError):
            on.collective_sync(traj, window=1.0, subset=[1, 1])


class TestPairExtraction:
    def test_pair_covariance_layout(self):
        n = 4
        cov = np.arange(64, dtype=float).reshape(8, 8)
        cov = 0.5 * (cov + cov.T)
        out = pair_covariance(cov, 1, 3, n)
        # (x_i, x_j, p_i, p_j) ordering
        rows = [1, 3, n + 1, n + 3]
        assert np.array_equal(out, cov[np.ix_(rows, rows)])

    def test_batched_extraction(self):
        rng = np.random.default_rng(9)
        covs = rng.normal(size=(5, 6, 6))
        covs = covs + np.swapaxes(covs, -1, -2)
        out = pair_covariance(covs, 0, 2, 3)
        assert out.shape == (5, 4, 4)
        assert np.array_equal(out[2], pair_covariance(covs[2], 0, 2, 3))


class TestTwoModeMeasures:
    def test_tmsv_closed_forms(self):
        for r in (0.3, 1.0, 2.0):
            cov = tmsv_cov(r)
            ch, sh = np.cosh(r) ** 2, np.sinh(r) ** 2
            expected_info = 2.0 * (ch * np.log(ch) - sh * np.log(sh))
            assert on.mutual_information(cov) == pytest.approx(expected_info, rel=1e-10)
            assert on.log_negativity(cov) == pytest.approx(2.0 * r, rel=1e-10)

    def test_product_state_has_no_correlations(self):
        cov = np.diag([0.8, 1.1, 0.9, 1.3])
        assert on.mutual_information(cov) == pytest.approx(0.0, abs=1e-12)
        assert on.log_negativity(cov) == 0.0
        assert on.gaussian_discord(cov) == pytest.approx(0.0, abs=1e-9)

    def test_thermal_correlated_but_separable(self):
        # classically correlated two-mode state: I > 0, E_N = 0
        cov = tmsv_cov(0.6) + 1.5 * np.eye(4)
        assert on.mutual_information(cov) > 0.01
        assert on.log_negativity(cov) == 0.0

    def test_unphysical_pair_rejected(self):
        with pytest.raises(UnphysicalCovariance):
            on.mutual_information(0.1 * np.eye(4))
        with pytest.raises(UnphysicalCovariance):
            on.log_negativity(0.1 * np.eye(4))
        with pytest.raises(UnphysicalCovariance):
            on.gaussian_discord(0.1 * np.eye(4))

    def test_indefinite_covariance_rejected(self):
        # -0.6 I reads as symplectic eigenvalues 0.6 through |eig(J cov)|
        for measure, dim in ((on.mutual_information, 4), (on.log_negativity, 4),
                             (on.gaussian_discord, 4), (on.von_neumann_entropy, 2)):
            with pytest.raises(UnphysicalCovariance):
                measure(-0.6 * np.eye(dim))

    def test_batched_info_and_logneg(self):
        covs = np.stack([tmsv_cov(r) for r in (0.2, 0.7, 1.4)])
        out = on.log_negativity(covs)
        assert np.allclose(out, [0.4, 1.4, 2.8], rtol=1e-10)
        info = on.mutual_information(covs)
        assert info.shape == (3,)
        assert np.all(np.diff(info) > 0.0)
        disc = on.gaussian_discord(covs)
        assert disc.shape == (3,)
        assert np.array_equal(disc, [on.gaussian_discord(cov) for cov in covs])

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_states_bounded(self, seed):
        rng = np.random.default_rng(seed)
        cov, _ = random_physical_cov(rng, 2, nu_max=3.0)
        # reorder (x1, p1, x2, p2) -> matches pair_covariance of a 2-node state
        cov4 = pair_covariance(cov, 0, 1, 2)
        info = on.mutual_information(cov4)
        assert info >= 0.0
        assert on.log_negativity(cov4) >= 0.0
        # subadditivity upper bound: I <= S_A + S_B
        a = cov4[np.ix_([0, 2], [0, 2])]
        b = cov4[np.ix_([1, 3], [1, 3])]
        s_a = entropy_of_nu(np.sqrt(np.linalg.det(a)))
        s_b = entropy_of_nu(np.sqrt(np.linalg.det(b)))
        assert info <= s_a + s_b + 1e-9


def _fig5_pin_cov():
    """fig5 pair (15, 16) at t = 240, where the optimum is a homodyne limit."""
    cfg = load_config(str(resources.files("oscnet") / "presets" / "fig5_entangle.ini"))
    prep = prepare(cfg)
    state = on.initial_state(prep.net, squeeze_r=cfg.initial.squeeze_r)
    traj = on.evolve(state, prep.decomp, np.array([0.0, 240.0]), method="exact")
    return pair_covariance(traj.covs[1], 15, 16, traj.n)


def _random_pair_cov(seed):
    cov, _ = random_physical_cov(np.random.default_rng(seed), 2)
    return pair_covariance(cov, 0, 1, 2)


#: name -> (covariance builder, pinned discord or None)
DISCORD_CASES = {
    "noisy_tmsv": (lambda: tmsv_cov(0.8) + 0.15 * np.eye(4), None),
    "random_0": (lambda: _random_pair_cov(100), None),
    "random_1": (lambda: _random_pair_cov(101), None),
    "random_2": (lambda: _random_pair_cov(102), None),
    "fig5_pin": (_fig5_pin_cov, 0.2545),
    # the measured mode is vacuum, so the state is a product
    "vacuum_measured_product": (lambda: np.diag([0.8, 0.5, 0.9, 0.5]), 0.0),
}


class TestDiscord:
    def brute_force(self, cov4, s_pts=321, t_pts=180, homodyne_pts=3600):
        """Dense independent scan over homodyne-to-heterodyne measurements.

        The (s, theta) grid stops at |s| = 4, so the homodyne limit
        s -> infinity is scanned separately: measuring the quadrature v of
        B leaves A with covariance a - (c v)(c v)^T / (v^T b v).
        """
        a = cov4[np.ix_([0, 2], [0, 2])]
        b = cov4[np.ix_([1, 3], [1, 3])]
        c = cov4[np.ix_([0, 2], [1, 3])]
        best = np.inf
        for s in np.linspace(-4.0, 4.0, s_pts):
            for theta in np.linspace(0.0, np.pi, t_pts, endpoint=False):
                ct, stn = np.cos(theta), np.sin(theta)
                rot = np.array([[ct, -stn], [stn, ct]])
                sig_m = 0.5 * rot @ np.diag([np.exp(2 * s), np.exp(-2 * s)]) @ rot.T
                cond = a - c @ np.linalg.inv(b + sig_m) @ c.T
                best = min(best, np.linalg.det(cond))
        for theta in np.linspace(0.0, np.pi, homodyne_pts, endpoint=False):
            v = np.array([np.cos(theta), np.sin(theta)])
            cv = c @ v
            best = min(best, np.linalg.det(a - np.outer(cv, cv) / (v @ b @ v)))
        info = on.mutual_information(cov4)
        s_a = entropy_of_nu(np.sqrt(np.linalg.det(a)))
        cond_ent = entropy_of_nu(np.sqrt(max(best, 0.25)))
        return info - (s_a - cond_ent)

    @pytest.mark.parametrize("case", list(DISCORD_CASES))
    def test_against_dense_grid(self, case):
        build, pinned = DISCORD_CASES[case]
        cov4 = build()
        oracle = self.brute_force(cov4)
        # the value of the function itself and the value the pipeline
        # ships, as one pair of a one-time trajectory
        traj = Trajectory(times=np.zeros(1), means=np.zeros((1, 4)),
                          covs=cov4[None], energy=np.zeros(1))
        shipped = on.pair_measure_series(traj, DISCORD).values[0, 0]
        for got in (on.gaussian_discord(cov4), shipped):
            # the package minimizer must do at least as well as the dense scan
            assert got <= oracle + 1e-9
            assert got == pytest.approx(oracle, abs=1e-4)
            if pinned is not None:
                assert got == pytest.approx(pinned, abs=5e-5)

    def test_pure_state_discord_equals_local_entropy(self):
        # measuring half of a pure state: discord reduces to S(A)
        for r in (0.5, 1.2):
            cov4 = tmsv_cov(r)
            s_a = entropy_of_nu(np.cosh(2.0 * r) / 2.0)
            assert on.gaussian_discord(cov4) == pytest.approx(s_a, abs=1e-8)

    def test_measured_side_asymmetry_runs(self):
        cov4 = tmsv_cov(0.6) + np.diag([0.3, 0.05, 0.3, 0.05])
        d_b = on.gaussian_discord(cov4, measured="B")
        d_a = on.gaussian_discord(cov4, measured="A")
        assert d_b >= 0.0 and d_a >= 0.0
        with pytest.raises(ValueError):
            on.gaussian_discord(cov4, measured="C")


class TestPairSeries:
    def make_two_node_traj(self, n_t=40, extra=None):
        # thermal pair with a weak classical x-x correlation, constant in
        # time (vacuum cannot carry classical correlations)
        times = np.arange(n_t) * 0.25
        covs = np.tile(np.eye(4) * 1.0, (n_t, 1, 1))
        covs[:, 0, 1] = covs[:, 1, 0] = 0.1
        if extra is not None:
            covs = covs + extra
        means = np.zeros((n_t, 4))
        return Trajectory(times=times, means=means, covs=covs,
                          energy=np.zeros(n_t))

    def test_values_match_scalar_measures(self):
        traj = self.make_two_node_traj()
        out = on.pair_measure_series(traj, MUTUAL_INFORMATION)
        assert out.pairs == ((0, 1),)
        cov4 = pair_covariance(traj.covs[0], 0, 1, 2)
        assert out.values[0, 0] == pytest.approx(on.mutual_information(cov4))
        disc = on.pair_measure_series(traj, DISCORD)
        assert disc.values[3, 0] == pytest.approx(on.gaussian_discord(cov4), abs=1e-9)

    def test_stride(self):
        traj = self.make_two_node_traj(n_t=40)
        out = on.pair_measure_series(traj, LOG_NEGATIVITY, stride=5)
        assert out.times.shape == (8,)
        assert np.array_equal(out.times, traj.times[::5])

    def test_unphysical_pair_excluded(self):
        n_t = 30
        times = np.arange(n_t) * 0.2
        covs = np.tile(np.diag([0.5, 0.5, 0.3, 0.5, 0.5, 0.3]).astype(float),
                       (n_t, 1, 1))
        traj = Trajectory(times=times, means=np.zeros((n_t, 6)),
                          covs=covs, energy=np.zeros(n_t))
        out = on.pair_measure_series(traj, MUTUAL_INFORMATION)
        assert set(out.excluded) == {(0, 2), (1, 2)}
        k = out.pairs.index((0, 2))
        assert np.all(np.isnan(out.values[:, k]))
        good = out.pairs.index((0, 1))
        assert np.all(np.isfinite(out.values[:, good]))

    @pytest.mark.parametrize("measure", [MUTUAL_INFORMATION, DISCORD, LOG_NEGATIVITY])
    def test_indefinite_pair_excluded(self, measure):
        # nodes 0 and 1 carry -0.6 in every variance: each pair touching
        # them has no Cholesky factor (|eig(J cov)| would read nu = 0.6)
        n_t, n = 12, 4
        covs = np.tile(np.diag([-0.6, -0.6, 0.5, 0.5] * 2), (n_t, 1, 1))
        traj = Trajectory(times=np.arange(n_t) * 0.5, means=np.zeros((n_t, 2 * n)),
                          covs=covs, energy=np.zeros(n_t))
        out = on.pair_measure_series(traj, measure)
        assert set(out.excluded) == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)}
        kept = out.pairs.index((2, 3))
        assert np.all(np.isnan(np.delete(out.values, kept, axis=1)))
        assert np.allclose(out.values[:, kept], 0.0, atol=1e-12)  # vacuum pair

    @pytest.mark.parametrize("measure, spectra", [
        (MUTUAL_INFORMATION, 1), (DISCORD, 1), (LOG_NEGATIVITY, 2),
    ])
    def test_one_spectrum_per_pair_check(self, monkeypatch, measure, spectra):
        # the exclusion check's (nu_-, nu_+) feeds the measure; only E_N
        # needs a second spectrum, of the partial transpose
        calls = []
        real = measures.symplectic_spectrum

        def counting(cov):
            calls.append(np.shape(cov))
            return real(cov)

        monkeypatch.setattr(measures, "symplectic_spectrum", counting)
        on.pair_measure_series(self.make_two_node_traj(), measure)
        assert len(calls) == spectra

    def test_explicit_pairs_and_errors(self):
        traj = self.make_two_node_traj()
        out = on.pair_measure_series(traj, LOG_NEGATIVITY, pairs=[(0, 1)])
        assert out.pairs == ((0, 1),)
        with pytest.raises(ValueError):
            on.pair_measure_series(traj, "entanglement_of_formation")
        with pytest.raises(ValueError):
            on.pair_measure_series(traj, MUTUAL_INFORMATION, stride=0)


class TestPairwiseAverage:
    def test_moving_average_brute_force(self):
        rng = np.random.default_rng(10)
        n_t, n = 60, 3
        times = np.arange(n_t) * 0.5
        base = 1.0 * np.eye(2 * n)
        covs = np.tile(base, (n_t, 1, 1))
        wob = 0.05 * np.sin(times)
        covs[:, 0, 1] = covs[:, 1, 0] = wob
        covs[:, 0, 2] = covs[:, 2, 0] = 0.04
        traj = Trajectory(times=times, means=np.zeros((n_t, 2 * n)),
                          covs=covs, energy=np.zeros(n_t))

        raw = on.pair_measure_series(traj, MUTUAL_INFORMATION)
        avg = on.pairwise_average(traj, MUTUAL_INFORMATION, window=5.0)
        per_t = raw.values.mean(axis=1)
        w = avg.samples
        assert w == 10
        for k in (0, 13, len(avg.values) - 1):
            assert avg.values[k] == pytest.approx(per_t[k:k + w].mean(), abs=1e-12)

    def test_all_pairs_excluded_raises(self):
        n_t = 20
        covs = np.tile(np.diag([0.3, 0.3, 0.3, 0.3]).astype(float), (n_t, 1, 1))
        traj = Trajectory(times=np.arange(n_t) * 0.1,
                          means=np.zeros((n_t, 4)), covs=covs,
                          energy=np.zeros(n_t))
        with pytest.raises(UnphysicalCovariance):
            on.pairwise_average(traj, MUTUAL_INFORMATION, window=1.0)
