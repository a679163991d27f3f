import tracemalloc
import warnings
from importlib import resources
from itertools import combinations

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oscnet as on
from oscnet import measures, scenarios
from oscnet.dynamics import GaussianState, Trajectory
from oscnet.errors import UnphysicalCovariance
from oscnet.measures import (
    DISCORD,
    LOG_NEGATIVITY,
    MUTUAL_INFORMATION,
    _windowed_pearson,
    symplectic_form,
)
from oscnet.scenarios import load_config, prepare

from conftest import random_physical_cov, tmsv_cov
from oracles import energy, pair_covariance, von_neumann_entropy


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
    column is flat over the window (std at most _FLAT_WINDOW_ULPS ulp of
    its mean).  No sums carry across windows.
    """
    n_win = series.shape[0] - window + 1
    out = np.full((n_win, len(pairs)), np.nan)
    floor = measures._FLAT_WINDOW_ULPS * np.finfo(float).eps
    for t0 in range(n_win):
        block = series[t0:t0 + window]
        dev = block - block.mean(axis=0)
        live = block.std(axis=0) > floor * np.abs(block.mean(axis=0))
        for ip, (i, j) in enumerate(pairs):
            sxx = dev[:, i] @ dev[:, i]
            syy = dev[:, j] @ dev[:, j]
            if live[i] and live[j]:
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


def _two_mode_squeezer(r):
    """The two-mode squeezing symplectic matrix in (x_i, x_j, p_i, p_j) order."""
    ch, sh = np.cosh(r), np.sinh(r)
    return np.array([[ch, sh, 0.0, 0.0], [sh, ch, 0.0, 0.0],
                     [0.0, 0.0, ch, -sh], [0.0, 0.0, -sh, ch]])


def _local_symplectic(r_a, theta_a, r_b, theta_b):
    """Each mode squeezed by r and rotated by theta, in (x_i, x_j, p_i, p_j) order."""
    out = np.zeros((4, 4))
    for idx, r, theta in (([0, 2], r_a, theta_a), ([1, 3], r_b, theta_b)):
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        out[np.ix_(idx, idx)] = rot @ np.diag([np.exp(r), np.exp(-r)])
    return out


def _williamson(s, nu_a, nu_b):
    return s @ np.diag([nu_a, nu_b, nu_a, nu_b]) @ s.T


def _local_squeezed_states():
    # Local and two-mode squeezing add up to at most 2.5, the range of the
    # pure family: the roundoff of either route grows as cond(sigma).
    rng = np.random.default_rng(21)
    out = []
    for _ in range(12):
        r_a, r_b = rng.uniform(-1.0, 1.0, 2)
        theta_a, theta_b = rng.uniform(0.0, np.pi, 2)
        local = _local_symplectic(r_a, theta_a, r_b, theta_b)
        s = local @ _two_mode_squeezer(rng.uniform(0.0, 1.5))
        out.append(_williamson(s, *rng.uniform(0.5, 3.0, 2)))
    return out


def _beam_splitter(theta):
    """Mixing of the two modes by angle theta, in (x_i, x_j, p_i, p_j) order."""
    c, s = np.cos(theta), np.sin(theta)
    return np.kron(np.eye(2), np.array([[c, s], [-s, c]]))


def _squeeze_edge_states(nus=((0.5, 0.5), (0.9, 2.3))):
    # Both modes squeezed in the same quadrature, by r up to the largest
    # |squeeze_r| a config accepts, then mixed: entangled wherever the two
    # squeezings differ.  Mixing quadratures squeezed by r_a and r_b costs
    # about eps e^(2|r_a - r_b|) of relative accuracy in nu_- on any route
    # (it is the conditioning of the rounded entries), so r_b stays >= r_a / 2.
    out = []
    for r in (3.0, 6.0, scenarios._MAX_SQUEEZE):
        for ratio, theta in ((1.0, np.pi / 4), (0.75, 1.2), (0.5, np.pi / 7)):
            s = _beam_splitter(theta) @ _local_symplectic(r, 0.0, ratio * r, 0.0)
            out.extend(_williamson(s, *nu) for nu in nus)
    return out


#: family -> builder of its two-mode covariances, (x_i, x_j, p_i, p_j) order
TWO_MODE_FAMILIES = {
    "pure_tmsv": lambda: [tmsv_cov(r) for r in np.linspace(0.1, 2.5, 13)],
    # nu_+ = nu_-: scaled identities and scaled pure states
    "thermal": lambda: [nu * np.eye(4) for nu in (0.5, 0.8, 3.0, 25.0)]
    + [2.0 * nu * tmsv_cov(r) for nu, r in ((0.7, 0.4), (2.0, 1.5), (0.5, 2.5))],
    "local_squeezed_rotated": _local_squeezed_states,
    "nearly_pure_weak": lambda: [
        _williamson(_local_symplectic(0.3, 0.2, -0.5, 1.1) @ _two_mode_squeezer(r),
                    0.5 + eps, 0.5 + 2.0 * eps)
        for eps in (1e-12, 1e-9, 1e-6, 1e-3) for r in (1e-4, 1e-2, 0.05)
    ],
    "squeeze_edge": _squeeze_edge_states,
}


def _partial_transpose(cov4):
    flipped = np.array(cov4, dtype=float, copy=True)
    flipped[..., 3, :] *= -1.0
    flipped[..., :, 3] *= -1.0
    return flipped


def _mp_symplectic_pair(cov4):
    """(nu_-, nu_+) as the moduli of the eigenvalues of J sigma, at 50 digits."""
    with mpmath.workdps(50):
        j_sigma = mpmath.matrix(symplectic_form(2).tolist()) * mpmath.matrix(cov4.tolist())
        moduli = sorted(abs(mpmath.im(e)) for e in mpmath.eig(j_sigma, left=False, right=False))
        return np.array([float(moduli[0]), float(moduli[2])])


class TestClosedFormPairSpectrum:
    @pytest.mark.parametrize("family", list(TWO_MODE_FAMILIES))
    def test_against_high_precision_eigenvalues(self, family):
        worst = {"closed": 0.0, "svd": 0.0}
        for cov in TWO_MODE_FAMILIES[family]():
            _, l = measures._cholesky(measures._entries(cov))
            for sign, target in ((1.0, cov), (-1.0, _partial_transpose(cov))):
                exact = _mp_symplectic_pair(target)
                routes = {"closed": np.array(measures._symplectic_pair(l, sign)),
                          "svd": on.symplectic_spectrum(target)}
                for route, got in routes.items():
                    worst[route] = max(worst[route], float(np.max(np.abs(got / exact - 1.0))))
        assert worst["closed"] <= 1e-12, worst
        # Both routes start from a Cholesky factor; its roundoff, of order
        # cond(sigma) eps, sets the error of either, and two factorizations
        # round differently.  So each family's worst case is compared, with
        # a factor 2 for that rounding.
        eps = np.finfo(float).eps
        assert worst["closed"] <= 2.0 * worst["svd"] + 4.0 * eps, worst

    def test_squeeze_edge_log_negativity(self):
        # E_N = max(0, -ln 2 nu~_-) with nu~_- of the partial transpose at 50 digits
        for cov in _squeeze_edge_states():
            exact = max(0.0, -np.log(2.0 * _mp_symplectic_pair(_partial_transpose(cov))[0]))
            assert on.log_negativity(cov) == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_squeeze_edge_pure_discord_is_entanglement_entropy(self):
        # measuring half of a pure state: discord is S(A), from nu_A =
        # sqrt(det A) at 50 digits
        for cov in _squeeze_edge_states(nus=((0.5, 0.5),)):
            with mpmath.workdps(50):
                nu = mpmath.sqrt(mpmath.det(mpmath.matrix(cov[np.ix_([0, 2], [0, 2])].tolist())))
                s_a = (nu + 0.5) * mpmath.log(nu + 0.5)
                if nu > 0.5:
                    s_a -= (nu - 0.5) * mpmath.log(nu - 0.5)
            assert on.gaussian_discord(cov) == pytest.approx(float(s_a), rel=1e-12, abs=1e-12)

    def test_indefinite_entries_are_masked(self):
        covs = np.stack([tmsv_cov(0.5), -0.6 * np.eye(4), np.diag([1.0, 1.0, 1.0, 0.0])])
        definite, l = measures._cholesky(measures._entries(covs))
        assert definite.tolist() == [True, False, False]
        nu_minus, nu_plus = measures._symplectic_pair(l)
        assert np.all(np.isfinite(nu_minus)) and np.all(np.isfinite(nu_plus))


class TestEntropyPurity:
    def test_pure_state_entropy_zero(self):
        assert von_neumann_entropy(0.5 * np.eye(4)) == pytest.approx(0.0, abs=1e-12)

    def test_thermal_entropy_closed_form(self):
        # one mode at occupation nbar: S = (nbar+1)ln(nbar+1) - nbar ln(nbar)
        for nbar in (0.3, 1.0, 4.2):
            cov = (nbar + 0.5) * np.eye(2)
            expected = (nbar + 1) * np.log(nbar + 1) - nbar * np.log(nbar)
            assert von_neumann_entropy(cov) == pytest.approx(expected, rel=1e-12)

    def test_entropy_additive_over_williamson_spectrum(self):
        rng = np.random.default_rng(2)
        cov, nus = random_physical_cov(rng, 3)
        assert von_neumann_entropy(cov) == pytest.approx(
            entropy_of_nu(nus), rel=1e-9
        )

    def test_entropy_term_matches_xlogy(self):
        # oracle: scipy's xlogy.  nu = 1/2 is the 0 log 0 limit and nu < 1/2
        # is clipped to it.  Up to nu ~ 3/2 the two terms add, so the
        # results agree to rtol 1e-14; above that they cancel (at 1e6, six
        # digits), so the bound is relative to the terms' magnitudes, the
        # size a one-ulp difference between two log routines can move.
        from scipy.special import xlogy

        def reference(nu):
            nu = np.maximum(nu, 0.5)
            plus, minus = xlogy(nu + 0.5, nu + 0.5), xlogy(nu - 0.5, nu - 0.5)
            return plus - minus, np.abs(plus) + np.abs(minus)

        rng = np.random.default_rng(12)
        flat = np.concatenate([
            [0.5, 0.5 - 1e-12, 0.3, 0.0, 0.5 + 1e-15, 0.5 + 1e-9, 1.5, 1e6],
            0.5 + 10.0 ** rng.uniform(-15.0, 6.0, size=2000),
        ])
        grid = 0.5 + 10.0 ** rng.uniform(-15.0, 6.0, size=(40, 7))
        scalars = [np.float64(0.5), np.array(0.25), np.array(2.3), np.float64(1e6)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = [(nu, measures._entropy_term(nu)) for nu in (flat, grid, *scalars)]
        for nu, got in results:
            ref, magnitude = reference(nu)
            assert np.shape(got) == np.shape(nu)
            assert np.all(np.abs(got - ref) <= 1e-14 * magnitude)
            small = np.asarray(nu) <= 1.5
            assert np.allclose(np.asarray(got)[small], np.asarray(ref)[small],
                               rtol=1e-14, atol=0.0)
        assert measures._entropy_term(np.float64(0.5)) == 0.0
        assert measures._entropy_term(np.array(0.25)) == 0.0

    def test_purity_from_determinant(self):
        # Tr rho^2 = 1 / (2^n sqrt(det cov)) = 1 / prod(2 nu), since det cov = prod nu^2
        rng = np.random.default_rng(3)
        cov, nus = random_physical_cov(rng, 2)
        from_det = 1.0 / (2.0**2 * np.sqrt(np.linalg.det(cov)))
        assert from_det == pytest.approx(1.0 / np.prod(2.0 * nus), rel=1e-9)
        assert 1.0 / np.prod(2.0 * on.symplectic_spectrum(cov)) == pytest.approx(from_det, rel=1e-9)
        assert np.prod(2.0 * on.symplectic_spectrum(0.5 * np.eye(8))) == pytest.approx(1.0, rel=1e-12)

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
        st_node = GaussianState(mean, cov)
        value = energy(st_node, chain3)

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


class TestWindowedCorrelation:
    def test_against_per_window_corrcoef(self):
        rng = np.random.default_rng(5)
        times = np.linspace(0.0, 9.9, 100)
        f = np.sin(times) + 0.3 * rng.normal(size=100)
        g = np.cos(times) + 0.3 * rng.normal(size=100)
        out = on.windowed_correlation(times, np.column_stack([f, g]), 2.0, [(0, 1)])
        assert out.samples == 20
        assert len(out) == 81
        for k in (0, 17, 80):
            sl = slice(k, k + out.samples)
            assert out.values[k, 0] == pytest.approx(
                corrcoef_window(f[sl], g[sl]), abs=1e-10
            )

    def test_perfect_correlation(self):
        times = np.linspace(0.0, 5.0, 60)
        f = np.sin(times)
        series = np.column_stack([f, 3.0 * f + 2.0, -f])
        out = on.windowed_correlation(times, series, 1.0, [(0, 1), (0, 2)])
        assert np.allclose(out.values[:, 0], 1.0)
        assert np.allclose(out.values[:, 1], -1.0)

    def test_degenerate_window_is_nan(self):
        times = np.linspace(0.0, 5.0, 60)
        f = np.ones(60)
        g = np.sin(times)
        out = on.windowed_correlation(times, np.column_stack([f, g]), 1.0, [(0, 1)])
        assert np.all(np.isnan(out.values))

    def test_window_moving_in_last_bits_is_nan(self):
        # a level that moves only by a few ulp has no correlation to speak
        # of; the same wiggle a thousand times larger is a real signal
        rng = np.random.default_rng(5)
        times = np.linspace(0.0, 5.0, 60)
        bits = rng.integers(0, 8, size=60) * np.spacing(1.0)
        g = np.sin(times)
        flat = on.windowed_correlation(times, np.column_stack([1.0 + bits, g]), 1.0, [(0, 1)])
        assert np.all(np.isnan(flat.values))
        live = on.windowed_correlation(times, np.column_stack([1.0 + 1e3 * bits, g]), 1.0,
                                       [(0, 1)])
        assert not np.isnan(live.values).any()

    def test_grid_validation(self):
        times = np.concatenate([np.linspace(0, 1, 30), [1.5, 2.0, 2.6]])
        with pytest.raises(ValueError):
            on.windowed_correlation(times, np.column_stack([times, times]), 0.5, [(0, 1)])
        uniform = np.linspace(0.0, 5.0, 51)
        both = np.column_stack([uniform, uniform])
        with pytest.raises(ValueError):
            on.windowed_correlation(uniform, both, 0.5, [(0, 1)])
        with pytest.raises(ValueError):
            on.windowed_correlation(uniform, both, 9.0, [(0, 1)])

    def test_many_pairs_over_column_union(self):
        # one call for every pair, over only the columns the pairs name;
        # column 3 is constant, so its pair is degenerate throughout
        rng = np.random.default_rng(13)
        times = np.arange(150) * 0.1
        series = rng.normal(size=(150, 7)) + np.linspace(0.0, 3.0, 150)[:, None]
        series[:, 3] = 1.0
        pairs = [(5, 1), (1, 6), (2, 5), (3, 5), (6, 6)]
        out = on.windowed_correlation(times, series, 2.0, pairs)
        ref = pearson_two_pass(series, out.samples, pairs)
        assert out.values.shape == (150 - 20 + 1, 5)
        assert np.allclose(out.values, ref, rtol=0.0, atol=1e-12, equal_nan=True)
        nan = np.isnan(out.values)
        assert nan[:, 3].all() and not nan[:, :3].any() and not nan[:, 4:].any()
        # windows at every 4th start only, each computed as before
        strided = on.windowed_correlation(times, series, 2.0, pairs, stride=4)
        assert np.array_equal(strided.times, out.times[::4])
        assert np.array_equal(strided.values, out.values[::4], equal_nan=True)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bounded(self, seed):
        rng = np.random.default_rng(seed)
        times = np.arange(64.0)
        f = rng.normal(size=64)
        g = rng.normal(size=64)
        out = on.windowed_correlation(times, np.column_stack([f, g]), 16.0, [(0, 1)])
        finite = out.values[~np.isnan(out.values)]
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
        got = on.windowed_correlation(traj.times, signal, prep.window, pairs)
        assert np.allclose(got.values, ref, rtol=0.0, atol=1e-12)
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
        pairwise = on.windowed_correlation(traj.times, sig, 1.5, [(0, 2)])
        assert np.allclose(sub.values, np.abs(pairwise.values[:, 0]), atol=1e-12)
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
        assert np.array_equal(np.isnan(out.values), np.isnan(corr).any(axis=1))
        assert np.isnan(out.values).any()

    @pytest.mark.parametrize("stride", [2, 3, 7])
    def test_stride_is_every_stride_th_window(self, monkeypatch, stride):
        # each window is its own Gram product, so a strided S(t) is the
        # full one sliced, bit for bit, whatever the block boundaries
        rng = np.random.default_rng(10)
        sig = rng.normal(size=(90, 4)) + 2.0
        sig[30:55, 3] = 1.0  # a constant stretch: degenerate windows
        traj = self.make_traj(sig)
        monkeypatch.setattr(measures, "_PEARSON_BLOCK_ELEMENTS", 4 * 12 * 5)
        full = on.collective_sync(traj, window=1.2)
        out = on.collective_sync(traj, window=1.2, stride=stride)
        assert np.array_equal(out.values, full.values[::stride], equal_nan=True)
        assert np.array_equal(out.times, full.times[::stride])
        assert np.isnan(out.values).any() and out.samples == full.samples
        with pytest.raises(ValueError):
            on.collective_sync(traj, window=1.2, stride=0)

    def test_memory_does_not_hold_every_pair(self):
        # n = 40 gives 780 pairs.  Holding the whole (windows, pairs)
        # correlation and its |C| copy peaked at 24.7 MB here (T = 2001);
        # reduced block by block, 6.2 MB.
        net = on.random_network(40, 0.3, 0.9, 1.2, 0.0, 0.05, seed=7)
        bath = on.BathConfig(kind="common", gamma=0.01, temperature=10.0)
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
                             (on.gaussian_discord, 4), (von_neumann_entropy, 2)):
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


def _lapack_infimum(cov4, nu_minus, nu_plus):
    """The Adesso-Datta infimum through numpy.linalg on (..., 2, 2) stacks.

    The reference for the elementwise kernel: the same rewrites, with the
    2x2 algebra left to LAPACK (Cholesky, inverse, solve, eigvalsh).
    Returns (infimum, general branch taken).
    """
    a_idx, b_idx = np.array([0, 2]), np.array([1, 3])
    a = cov4[..., a_idx[:, None], a_idx[None, :]]
    b = cov4[..., b_idx[:, None], b_idx[None, :]]
    c = cov4[..., a_idx[:, None], b_idx[None, :]]
    det_a, det_b, det_c = (m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
                           for m in (a, b, c))
    chol_inv = np.linalg.inv(np.linalg.cholesky(b))
    k = chol_inv @ np.swapaxes(c, -1, -2) @ np.linalg.solve(a, c) @ np.swapaxes(chol_inv, -1, -2)
    homodyne = det_a * (1.0 - np.linalg.eigvalsh(k)[..., -1])
    big_a, big_b, big_c = 4.0 * det_a, 4.0 * det_b, 4.0 * det_c
    big_d = (4.0 * nu_minus * nu_plus) ** 2
    d_minus_ab = big_c**2 - big_a * big_b * np.trace(k, axis1=-2, axis2=-1)
    pure_b = big_b - 1.0 <= measures._PURE_MODE_TOL
    bm1 = np.where(pure_b, 1.0, big_b - 1.0)
    excess = (2.0 * nu_minus - 1.0) * (2.0 * nu_minus + 1.0)
    excess = excess * (2.0 * nu_plus - 1.0) * (2.0 * nu_plus + 1.0)
    root = np.sqrt(np.maximum((big_c + bm1) ** 2 + bm1 * excess, 0.0))
    general = ((np.abs(big_c) + root) / bm1) ** 2 / 4.0
    use_general = ~pure_b & (d_minus_ab**2 <= (1.0 + big_b) * big_c**2 * (big_a + big_d))
    out = np.where(use_general, np.minimum(general, homodyne), homodyne)
    return np.maximum(out, 0.25), use_general


PRESETS = ("fig2_cb", "fig2_sb", "fig3_sweep", "fig4_motif", "fig5_entangle")


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

    @pytest.mark.parametrize("preset", PRESETS)
    def test_branch_matches_lapack_reference(self, preset):
        # every pair state a preset's pipeline measures, on its measure grid
        cfg = load_config(str(resources.files("oscnet") / "presets" / f"{preset}.ini"))
        prep = prepare(cfg)
        traj = scenarios._run_traj(prep)
        pairs = cfg.analysis.pairs or tuple(combinations(range(traj.n), 2))
        n = traj.n
        quads = np.array([[i, j, n + i, n + j] for i, j in pairs])
        cov4 = traj.covs[::cfg.analysis.stride, quads[:, :, None], quads[:, None, :]]
        nus = on.symplectic_spectrum(cov4)
        ref, ref_general = _lapack_infimum(cov4, nus[..., 0], nus[..., 1])
        s = measures._entries(cov4)
        definite, l = measures._cholesky(s)
        assert definite.all()
        got, general = measures._conditional_det_infimum(
            *measures._pair_blocks(s), *measures._symplectic_pair(l))
        assert np.array_equal(general, ref_general)
        assert np.allclose(got, ref, rtol=1e-10, atol=0.0)

    def test_pure_state_discord_equals_local_entropy(self):
        # measuring half of a pure state: discord reduces to S(A)
        for r in (0.5, 1.2):
            cov4 = tmsv_cov(r)
            s_a = entropy_of_nu(np.cosh(2.0 * r) / 2.0)
            assert on.gaussian_discord(cov4) == pytest.approx(s_a, abs=1e-8)

    def test_measured_side_asymmetry_runs(self):
        # measuring mode A is measuring mode B of the state with its modes swapped
        cov4 = tmsv_cov(0.6) + np.diag([0.3, 0.05, 0.3, 0.05])
        swap = np.array([1, 0, 3, 2])
        d_b = on.gaussian_discord(cov4)
        d_a = on.gaussian_discord(cov4[swap[:, None], swap[None, :]])
        assert d_b >= 0.0 and d_a >= 0.0
        assert d_a != pytest.approx(d_b, rel=1e-3)


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
        # One elementwise pass of the pair kernel serves every pair: per call
        # it forms the so(4) split once, and E_N once more for the partial
        # transpose, whatever the number of pairs.  The SVD route is not used.
        kernels, splits = [], []
        real_kernel, real_split = measures._pair_kernel, measures._symplectic_pair

        def counting_kernel(cov4, measure):
            kernels.append(np.shape(cov4))
            return real_kernel(cov4, measure)

        def counting_split(l, sign=1.0):
            splits.append(sign)
            return real_split(l, sign)

        def no_svd(cov):
            raise AssertionError("the pair path called symplectic_spectrum")

        monkeypatch.setattr(measures, "_pair_kernel", counting_kernel)
        monkeypatch.setattr(measures, "_symplectic_pair", counting_split)
        monkeypatch.setattr(measures, "symplectic_spectrum", no_svd)
        four_nodes = np.tile(np.eye(8), (40, 1, 1))
        four_nodes[:, 0, 3] = four_nodes[:, 3, 0] = 0.1
        trajs = (self.make_two_node_traj(),
                 Trajectory(times=np.arange(40) * 0.25, means=np.zeros((40, 8)),
                            covs=four_nodes, energy=np.zeros(40)))
        for traj, pairs in zip(trajs, (1, 6)):
            kernels.clear()
            splits.clear()
            out = on.pair_measure_series(traj, measure)
            assert len(out.pairs) == pairs
            assert kernels == [(40, pairs, 4, 4)]
            assert len(splits) == spectra

    @pytest.mark.parametrize("measure", [MUTUAL_INFORMATION, DISCORD, LOG_NEGATIVITY])
    def test_pair_values_do_not_depend_on_the_batch(self, measure):
        # a pair alone and the same pair among all 45 of fig3's network, read
        # through the covariance view of an evolved trajectory
        cfg = load_config(str(resources.files("oscnet") / "presets" / "fig3_sweep.ini"))
        prep = prepare(cfg)
        traj = scenarios._run_traj(prep)
        stride = cfg.analysis.stride
        together = on.pair_measure_series(traj, measure, stride=stride)
        assert len(together.pairs) == 45 and not together.excluded
        for k in (0, 17, 44):
            alone = on.pair_measure_series(traj, measure, [together.pairs[k]], stride)
            assert np.array_equal(alone.values[:, 0], together.values[:, k])

    @pytest.mark.parametrize("stride", [10, 1])
    def test_fig5_pair_values_do_not_depend_on_the_batch(self, stride):
        # n = 17, where the covariance view's matrix products have inner
        # dimension n >= 16: fig5's attached pair (15, 16) alone and among
        # random sets of the other 135 pairs, at a random place in each
        cfg = load_config(str(resources.files("oscnet") / "presets" / "fig5_entangle.ini"))
        traj = scenarios._run_traj(prepare(cfg))
        others = [p for p in combinations(range(traj.n), 2) if p != (15, 16)]
        rng = np.random.default_rng(17)
        batches = []
        for size in (1, 3, 8, 20):
            batch = [others[k] for k in rng.choice(len(others), size, replace=False)]
            batch.insert(int(rng.integers(size + 1)), (15, 16))
            batches.append(batch)
        for measure in (MUTUAL_INFORMATION, DISCORD, LOG_NEGATIVITY):
            alone = on.pair_measure_series(traj, measure, [(15, 16)], stride).values[:, 0]
            for batch in batches:
                together = on.pair_measure_series(traj, measure, batch, stride)
                assert np.array_equal(together.values[:, batch.index((15, 16))], alone), (
                    measure, len(batch))

    @pytest.mark.parametrize("measure", [MUTUAL_INFORMATION, DISCORD, LOG_NEGATIVITY])
    def test_one_indefinite_column_excludes_only_it(self, measure):
        # pair (0, 1) is indefinite at one time only; the other columns are
        # evaluated as if it were not in the stack
        n_t, n = 20, 3
        covs = np.tile(np.eye(2 * n), (n_t, 1, 1))
        covs[:, 0, 2] = covs[:, 2, 0] = 0.3
        covs[7, 0, 1] = covs[7, 1, 0] = 1.5
        traj = Trajectory(times=np.arange(n_t) * 0.5, means=np.zeros((n_t, 2 * n)),
                          covs=covs, energy=np.zeros(n_t))
        out = on.pair_measure_series(traj, measure)
        assert out.pairs == ((0, 1), (0, 2), (1, 2))
        assert out.excluded == ((0, 1),)
        assert np.all(np.isnan(out.values[:, 0]))
        rest = on.pair_measure_series(traj, measure, [(0, 2), (1, 2)])
        assert np.array_equal(out.values[:, 1:], rest.values)
        assert np.all(np.isfinite(rest.values))

    def test_all_pairs_stack_is_chunked(self):
        # n = 40 gives 780 pairs; their (T, P, 4, 4) stack over 501 times
        # would take 50 MB, and the kernel's temporaries as much again
        net = on.random_network(40, 0.3, 0.9, 1.2, 0.0, 0.05, seed=7)
        bath = on.BathConfig(kind="common", gamma=0.01, temperature=10.0)
        traj = on.evolve(on.initial_state(net, mean_q=0.5, squeeze_r=0.5),
                         on.analyze(net, bath), np.linspace(0.0, 1000.0, 2001))
        tracemalloc.start()
        try:
            out = on.pair_measure_series(traj, MUTUAL_INFORMATION, stride=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.values.shape == (501, 780) and not out.excluded
        assert peak < 16e6, f"pair_measure_series peaked at {peak / 1e6:.1f} MB"

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
        assert raw.excluded == ()
        w = 10  # a window of 5.0 on the 0.5 grid
        avg = measures._smoothed_pair_mean(raw.values, [0, 1, 2], w)
        per_t = raw.values.mean(axis=1)
        assert avg.shape == (n_t - w + 1,)
        for k in (0, 13, len(avg) - 1):
            assert avg[k] == pytest.approx(per_t[k:k + w].mean(), abs=1e-12)

    def test_all_pairs_excluded_is_nan(self):
        n_t = 20
        covs = np.tile(np.diag([0.3, 0.3, 0.3, 0.3]).astype(float), (n_t, 1, 1))
        traj = Trajectory(times=np.arange(n_t) * 0.1,
                          means=np.zeros((n_t, 4)), covs=covs,
                          energy=np.zeros(n_t))
        raw = on.pair_measure_series(traj, MUTUAL_INFORMATION)
        assert raw.excluded == ((0, 1),)
        avg = measures._smoothed_pair_mean(raw.values, [], 10)
        assert avg.shape == (n_t - 9,) and np.isnan(avg).all()
