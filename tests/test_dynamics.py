import tracemalloc
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oscnet as on
from oscnet import dynamics
from oscnet.cli import preset_names
from oscnet.errors import DimensionMismatch, IntegratorStepFailure, PhysicalityViolation
from oscnet.measures import DISCORD, LOG_NEGATIVITY, MUTUAL_INFORMATION
from oscnet.scenarios import _run_traj, load_config, prepare, run_simulate
from oscnet.spectral import BathConfig

PRESETS = resources.files("oscnet") / "presets"


def min_symplectic_eigenvalue(covs):
    return float(on.symplectic_spectrum(covs)[..., 0].min())


def to_modes(state, dec):
    """A node-basis state's mean and covariance in the normal-mode basis."""
    u = np.kron(np.eye(2), dec.modes)  # blockdiag(F, F)
    return u.T @ state.mean, u.T @ state.cov @ u


def thermal_mode_variances(dec, temperature):
    """Per-mode thermal <Q^2> = coth(W/2T)/(2W) and <P^2> = W coth(W/2T)/2."""
    coth = 1.0 / np.tanh(dec.freqs / (2.0 * temperature))
    return coth / (2.0 * dec.freqs), 0.5 * dec.freqs * coth


def single_mode_rhs(sigma, gamma, w2, diff):
    """Covariance ODE right-hand side for one mode, written out by hand."""
    a = np.array([[-0.5 * gamma, 1.0], [-w2, -0.5 * gamma]])
    dbar = np.diag([diff / (4.0 * w2), diff / 4.0])
    return a @ sigma + sigma @ a.T + 2.0 * dbar


class TestInitialState:
    def test_vacuum(self, chain3):
        st = on.initial_state(chain3)
        assert np.array_equal(st.mean, np.zeros(6))
        assert np.array_equal(st.cov, 0.5 * np.eye(6))

    def test_squeezed_variances(self, chain3):
        r = 0.7
        st = on.initial_state(chain3, squeeze_r=[r, 0.0, 0.0])
        assert np.isclose(st.cov[0, 0], 0.5 * np.exp(-2 * r))
        assert np.isclose(st.cov[3, 3], 0.5 * np.exp(2 * r))
        assert st.cov[0, 3] == 0.0
        # the other two nodes stay at vacuum
        assert np.isclose(st.cov[1, 1], 0.5)
        assert np.isclose(st.cov[4, 4], 0.5)

    def test_squeeze_angle_swaps_quadratures(self, chain3):
        r = 0.4
        st = on.initial_state(chain3, squeeze_r=r, squeeze_angle=np.pi / 2)
        assert np.allclose(np.diag(st.cov)[:3], 0.5 * np.exp(2 * r))
        assert np.allclose(np.diag(st.cov)[3:], 0.5 * np.exp(-2 * r))

    def test_thermal_occupation(self, chain3):
        st = on.initial_state(chain3, thermal_n=[0.0, 2.0, 0.0])
        assert np.isclose(st.cov[1, 1], 2.5)
        assert np.isclose(st.cov[4, 4], 2.5)

    def test_displacement(self, chain3):
        st = on.initial_state(chain3, mean_q=[-1.0, 0.0, 1.0], mean_p=0.25)
        assert np.array_equal(st.mean_q, [-1.0, 0.0, 1.0])
        assert np.array_equal(st.mean_p, [0.25, 0.25, 0.25])

    def test_validation(self, chain3):
        with pytest.raises(on.UnphysicalSpec):
            on.initial_state(chain3, thermal_n=-0.1)
        with pytest.raises(DimensionMismatch):
            on.GaussianState(np.zeros(5), np.eye(5))


class TestBasisChange:
    def test_preserves_symplectic_spectrum(self, chain3, common_bath):
        dec = on.analyze(chain3, common_bath)
        st = on.initial_state(chain3, squeeze_r=[0.5, 0.0, -0.2])
        nus_node = on.symplectic_spectrum(st.cov)
        nus_mode = on.symplectic_spectrum(to_modes(st, dec)[1])
        assert np.allclose(np.sort(nus_node), np.sort(nus_mode), atol=1e-12)


class TestThermalFixedPoint:
    def test_rhs_vanishes_at_thermal(self, er10, common_bath):
        # with no frozen mode the asymptote holds each mode at the thermal
        # variances, and they must kill the hand-written ODE
        dec = on.analyze(er10, common_bath)
        st = on.initial_state(er10, mean_q=0.5, squeeze_r=0.3)
        mean, cov = to_modes(on.asymptotic_state(st, dec, 7.0), dec)
        vq, vp = thermal_mode_variances(dec, common_bath.temperature)
        n = dec.n
        assert np.array_equal(mean, np.zeros(2 * n))
        assert np.allclose(cov, np.diag(np.concatenate([vq, vp])), rtol=1e-12, atol=1e-12)
        for m in range(n):
            sigma = cov[np.ix_([m, n + m], [m, n + m])]
            res = single_mode_rhs(sigma, dec.damping[m], dec.freqs[m] ** 2,
                                  dec.diffusion[m])
            assert np.max(np.abs(res)) < 1e-12

    def test_relaxation_reaches_thermal(self, chain3, separate_bath):
        dec = on.analyze(chain3, separate_bath)
        st = on.initial_state(chain3, mean_q=[1.0, 0.0, -1.0])
        t_end = 20.0 / separate_bath.gamma
        traj = on.evolve(st, dec, np.linspace(0.0, t_end, 41), method="exact")
        mean, cov = to_modes(traj.state(-1), dec)
        vq, vp = thermal_mode_variances(dec, separate_bath.temperature)
        n = dec.n
        assert np.max(np.abs(mean)) < 1e-4
        assert np.allclose(np.diag(cov)[:n], vq, rtol=1e-4)
        assert np.allclose(np.diag(cov)[n:], vp, rtol=1e-4)

    def test_steady_state_matches_long_evolution(self, er10, common_bath):
        dec = on.analyze(er10, common_bath)
        assert not on.frozen_mode_report(dec, common_bath).frozen
        st = on.initial_state(er10, mean_q=0.5)
        t = 30.0 / dec.damping.min()
        traj = on.evolve(st, dec, [0.0, t], method="exact")
        assert np.allclose(traj.state(-1).cov, on.asymptotic_state(st, dec, t).cov, atol=1e-8)

    @pytest.mark.parametrize("preset", preset_names())
    def test_asymptote_matches_evolve(self, preset):
        # by t = 60 / Gamma_min over the damped modes only the frozen
        # modes remember the initial state (measured gap 3.6e-15)
        cfg = load_config(str(PRESETS / f"{preset}.ini"))
        prep = prepare(cfg)
        dec = prep.decomp
        damped = np.setdiff1d(np.arange(dec.n), on.frozen_mode_report(dec, cfg.bath).frozen)
        t = 60.0 / dec.damping[damped].min()
        late = on.evolve(prep.state0, dec, [0.0, t]).state(-1)
        limit = on.asymptotic_state(prep.state0, dec, t)
        assert np.allclose(limit.cov, late.cov, rtol=0.0, atol=1e-12)
        assert np.allclose(limit.mean, late.mean, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("preset", ["fig3_sweep", "fig4_motif", "fig5_entangle"])
    def test_steady_state_frozen_modes_match_report(self, preset):
        # the shipped frozen modes keep Gamma ~ 1e-32 from eigh roundoff,
        # so only the relative |kappa| test finds them; in the asymptote
        # exactly they keep their initial energy, every other mode is thermal
        cfg = load_config(str(PRESETS / f"{preset}.ini"))
        prep = prepare(cfg)
        dec = prep.decomp
        frozen = on.frozen_mode_report(dec, cfg.bath).frozen
        assert len(frozen) == 1
        n, w2 = dec.n, dec.freqs**2

        def mode_energy(state):  # W^2 <Q^2> + <P^2> per mode
            mean, cov = to_modes(state, dec)
            second = np.diag(cov) + mean**2
            return w2 * second[:n] + second[n:]

        energy = mode_energy(on.asymptotic_state(prep.state0, dec, 123.4))
        vq, vp = thermal_mode_variances(dec, cfg.bath.temperature)
        kept = np.flatnonzero(np.isclose(energy, mode_energy(prep.state0), rtol=1e-12))
        relaxed = np.flatnonzero(np.isclose(energy, w2 * vq + vp, rtol=1e-12))
        assert tuple(kept) == frozen
        assert np.array_equal(relaxed, np.setdiff1d(np.arange(n), frozen))

    def test_steady_state_without_damping_keeps_every_mode_frozen(self, chain3):
        # with gamma = 0 the asymptote is the whole evolution, at any t
        closed = BathConfig(kind="common", gamma=0.0, temperature=10.0, cutoff=50.0)
        dec = on.analyze(chain3, closed)
        st = on.initial_state(chain3, mean_q=[1.0, 0.0, -1.0], squeeze_r=[0.3, 0.0, 0.6],
                              squeeze_angle=0.4)
        times = np.array([0.0, 0.7, 13.0, 250.0])
        traj = on.evolve(st, dec, times)
        for k, t in enumerate(times):
            limit = on.asymptotic_state(st, dec, t)
            assert np.allclose(limit.mean, traj.means[k], rtol=0.0, atol=1e-12)
            assert np.allclose(limit.cov, traj.covs[k], rtol=0.0, atol=1e-12)


class TestExactPropagator:
    def test_against_node_reference(self, chain3, common_bath):
        # independent route: dense node-basis Van Loan exponential
        dec = on.analyze(chain3, common_bath)
        st = on.initial_state(chain3, mean_q=[-1.0, 0.0, 1.0], squeeze_r=0.2)
        times = np.linspace(0.0, 50.0, 26)
        fast = on.evolve(st, dec, times, method="exact")
        ref = on.evolve_node_reference(st, chain3, dec, times, method="expm")
        assert np.max(np.abs(fast.means - ref.means)) < 1e-10
        assert np.max(np.abs(fast.covs - ref.covs)) < 1e-10
        assert np.max(np.abs(fast.energy - ref.energy)) < 1e-10

    def test_frozen_mode_rotates_without_decay(self, common_bath):
        base = on.build_network(np.array([1.3]), np.zeros((1, 1)))
        net = on.attach_pair(base, 1.0, 1.0, links_a={0: -0.1}, links_b={0: -0.1})
        dec = on.analyze(net, common_bath)
        frozen = int(np.argmin(np.abs(dec.eff_coupling)))
        # eigh roundoff leaves kappa at ~1e-16, so damping ~1e-34: frozen
        # on any timescale the integrator can represent
        assert dec.damping[frozen] < 1e-30
        w = dec.freqs[frozen]

        st = on.initial_state(net, mean_q=[0.0, 1.0, -1.0])
        times = np.linspace(0.0, 200.0, 101)
        traj = on.evolve(st, dec, times, method="exact")
        mode_means = np.einsum("jm,tj->tm", dec.modes, traj.mean_q)
        # amplitude of the undamped mode follows a pure cosine indefinitely
        expected = mode_means[0, frozen] * np.cos(w * times)
        assert np.allclose(mode_means[:, frozen], expected, atol=1e-10)

    def test_closed_system_conserves_energy(self, chain3):
        bath = BathConfig(kind="common", gamma=0.0, temperature=10.0, cutoff=50.0)
        dec = on.analyze(chain3, bath)
        st = on.initial_state(chain3, mean_q=[1.0, 0.0, -1.0], squeeze_r=0.1)
        traj = on.evolve(st, dec, np.linspace(0.0, 100.0, 51), method="exact")
        assert np.max(np.abs(traj.energy - traj.energy[0])) < 1e-12 * traj.energy[0]


class TestGuards:
    def test_unphysical_state_rejected(self, chain3, common_bath):
        # 0.1 I stays 0.1 I in any orthogonal basis, so the gate must report
        # exactly that symplectic eigenvalue at the initial time
        dec = on.analyze(chain3, common_bath)
        st = on.GaussianState(np.zeros(6), 0.1 * np.eye(6))
        with pytest.raises(PhysicalityViolation, match=r"eigenvalue 0\.1 "):
            on.evolve(st, dec, [0.0, 1.0, 2.0])

    def test_evolve_flags_unphysical_input(self, chain3, common_bath):
        dec = on.analyze(chain3, common_bath)
        bad = on.GaussianState(np.zeros(6), 0.1 * np.eye(6))
        with pytest.raises(PhysicalityViolation):
            on.evolve(bad, dec, [0.0, 1.0], method="exact")

    def test_times_must_increase(self, chain3, common_bath):
        dec = on.analyze(chain3, common_bath)
        st = on.initial_state(chain3)
        with pytest.raises(ValueError):
            on.evolve(st, dec, [0.0, 1.0, 1.0], method="exact")
        with pytest.raises(ValueError):
            on.evolve(st, dec, [0.0], method="exact")

    def test_dimension_mismatch(self, chain3, er10, common_bath):
        dec = on.analyze(er10, common_bath)
        st = on.initial_state(chain3)
        with pytest.raises(DimensionMismatch):
            on.evolve(st, dec, [0.0, 1.0])

    def test_indefinite_initial_state_rejected(self, chain3, common_bath):
        # -0.6 I has symplectic eigenvalues 0.6 but is no covariance at all;
        # with gamma = 0 nothing would ever relax it towards a physical state
        closed = BathConfig(kind="common", gamma=0.0, temperature=10.0, cutoff=50.0)
        bad = on.GaussianState(np.zeros(6), -0.6 * np.eye(6))
        for bath in (closed, common_bath):
            with pytest.raises(PhysicalityViolation, match="positive definite"):
                on.evolve(bad, on.analyze(chain3, bath), [0.0, 1.0])

    def test_asymmetric_initial_state_checked_as_propagated(self, chain3, common_bath):
        # the lower triangle is I (physical), but evolve propagates the
        # symmetric part, whose (q0, p0) block [[1, 1], [1, 1]] is singular
        cov = np.eye(6)
        cov[0, 3] = 2.0
        bad = on.GaussianState(np.zeros(6), cov)
        with pytest.raises(PhysicalityViolation):
            on.evolve(bad, on.analyze(chain3, common_bath), [0.0, 1.0])

    def test_initial_state_checked_once(self, chain3, common_bath, monkeypatch):
        from oscnet import measures

        shapes = []
        spectrum = measures.symplectic_spectrum

        def counting(cov):
            shapes.append(np.shape(cov))
            return spectrum(cov)

        monkeypatch.setattr(measures, "symplectic_spectrum", counting)
        dec = on.analyze(chain3, common_bath)
        on.evolve(on.initial_state(chain3), dec, np.linspace(0.0, 10.0, 11))
        assert shapes == [(6, 6)]

    def test_channel_must_be_completely_positive(self, chain3, common_bath):
        dec = on.analyze(chain3, common_bath)
        st = on.initial_state(chain3)
        weak = replace(dec, diffusion=0.5 * dec.damping * dec.freqs)
        negative = replace(dec, damping=-dec.damping)
        for bad in (weak, negative):
            with pytest.raises(PhysicalityViolation, match="completely positive"):
                on.evolve(st, bad, [0.0, 1.0])

    def test_only_closed_form_methods(self, chain3, common_bath):
        dec = on.analyze(chain3, common_bath)
        st = on.initial_state(chain3)
        with pytest.raises(ValueError):
            on.evolve(st, dec, [0.0, 1.0], method="rk4")
        with pytest.raises(ValueError):
            on.evolve_node_reference(st, chain3, dec, [0.0, 1.0], method="rk4")

    def test_rates_required(self, chain3, common_bath):
        dec = on.diagonalize(chain3)
        with pytest.raises(ValueError):
            on.evolve(on.initial_state(chain3), dec, [0.0, 1.0])


class TestTrajectoryViews:
    def test_shapes_and_state_access(self, chain3, common_bath):
        dec = on.analyze(chain3, common_bath)
        st = on.initial_state(chain3, mean_q=[1.0, 0.0, -1.0])
        times = np.linspace(0.0, 5.0, 9)
        traj = on.evolve(st, dec, times, method="exact")
        assert traj.mean_q.shape == (9, 3)
        assert traj.var_p.shape == (9, 3)
        assert traj.cov_qp.shape == (9, 3)
        first = traj.state(0)
        assert np.allclose(first.mean, st.mean, atol=1e-14)
        assert np.allclose(
            traj.second_moment_q, traj.var_q + traj.mean_q**2, atol=1e-14
        )


class TestMomentsOnDemand:
    """evolve works through time chunks, and covs computes what it is asked for."""

    TIMES = np.linspace(0.0, 40.0, 53)
    CHUNK = 7  # 53 = 7 * 7 + 4: the last chunk is short

    @pytest.fixture
    def trajs(self, chain3, common_bath, monkeypatch):
        """(one-chunk trajectory, its whole covariance stack, chunked trajectory)."""
        dec = on.analyze(chain3, common_bath)
        st = on.initial_state(chain3, mean_q=[1.0, 0.0, -1.0], mean_p=0.3,
                              squeeze_r=[0.4, 0.0, 0.2], squeeze_angle=0.3)
        assert dynamics._CHUNK_ELEMENTS >= self.TIMES.shape[0] * 36
        whole = on.evolve(st, dec, self.TIMES)
        stack = np.asarray(whole.covs)
        monkeypatch.setattr(dynamics, "_CHUNK_ELEMENTS", self.CHUNK * 36)
        return whole, stack, on.evolve(st, dec, self.TIMES)

    def test_chunked_pass_is_bitwise_one_chunk(self, trajs):
        whole, stack, chunked = trajs
        for name in ("times", "means", "blocks", "energy"):
            assert np.array_equal(getattr(chunked, name), getattr(whole, name)), name
        assert np.array_equal(np.asarray(chunked.covs), stack)

    @pytest.mark.parametrize("key", [
        0, 17, -1,
        slice(None), slice(3, 50, 6), slice(None, None, -4), slice(10, 10),
        np.array([52, 0, 7, 7, 30]), np.arange(53) % 3 == 0,
        (slice(None), slice(0, 3), slice(0, 3)), (5, 1, 4), (5, 0, 2),
        (np.array([2, 9]), np.array([5, 3]), 4), (np.array([2, 9]), 0),
    ], ids=["int", "int17", "negative", "all", "strided", "reversed", "empty",
            "int_array", "bool_mask", "tuple_block", "tuple_entry", "tuple_q_only",
            "tuple_p_only", "tuple_array"])
    def test_view_keys_match_stack(self, trajs, key):
        _, stack, chunked = trajs
        got = chunked.covs[key]
        assert type(got) is type(stack[key])
        assert np.shape(got) == stack[key].shape
        assert np.array_equal(got, stack[key])

    def test_view_is_array_like_and_uncached(self, trajs):
        _, stack, chunked = trajs
        view = chunked.covs
        assert view.shape == stack.shape and len(view) == stack.shape[0]
        first = view[4]
        first[:] = 0.0  # a fresh array: writing to it reaches nothing else
        assert np.array_equal(view[4], stack[4])
        assert np.array_equal(np.asarray(view), stack)
        assert np.array_equal(on.symplectic_spectrum(view), on.symplectic_spectrum(stack))

    def test_state_reads_view(self, trajs):
        _, stack, chunked = trajs
        for k in (0, 8, -1):
            state = chunked.state(k)
            assert np.array_equal(state.cov, stack[k])
            assert np.array_equal(state.mean, chunked.means[k])

    def test_blocks_derived_from_plain_covs(self, trajs):
        whole, stack, _ = trajs
        plain = on.Trajectory(times=whole.times, means=whole.means, covs=stack,
                              energy=whole.energy)
        assert np.array_equal(plain.blocks, whole.blocks)
        n = whole.n
        idx = np.arange(n)
        assert np.array_equal(whole.var_q, stack[:, idx, idx])
        assert np.array_equal(whole.var_p, stack[:, n + idx, n + idx])
        assert np.array_equal(whole.cov_qp, stack[:, idx, n + idx])

    def test_zero_mean_is_positive_zero(self, chain3, common_bath):
        # a zero-mean state keeps means of exactly +0.0, so trajectory.csv
        # prints 0 and never -0 (fig5's 34 mean columns)
        fig5 = prepare(load_config(str(PRESETS / "fig5_entangle.ini")))
        chain = on.initial_state(chain3, squeeze_r=[0.4, 0.0, 0.2], squeeze_angle=0.3)
        for state, dec, times in ((chain, on.analyze(chain3, common_bath), self.TIMES),
                                  (fig5.state0, fig5.decomp, fig5.times)):
            assert not np.any(state.mean)
            means = on.evolve(state, dec, times).means
            assert np.all(means == 0.0) and not np.any(np.signbit(means))

    def test_non_finite_mean_raises(self, chain3, common_bath, monkeypatch):
        # the exit-3 path of the CLI: IntegratorStepFailure from the chunked pass
        monkeypatch.setattr(dynamics, "_CHUNK_ELEMENTS", self.CHUNK * 36)
        dec = on.analyze(chain3, common_bath)
        st = on.initial_state(chain3, mean_q=[0.0, np.nan, 0.0])
        with pytest.raises(IntegratorStepFailure, match="non-finite"):
            on.evolve(st, dec, self.TIMES)

    def test_fig5_evolve_memory(self):
        # Whole (T, 2n, 2n) propagator, product and covariance stacks
        # (T = 5001, 2n = 34) peak at 140 MB; chunked, about 12 MB: the
        # outputs plus one chunk's temporaries.  tracemalloc sees numpy's
        # buffers and none of the RSS noise.
        cfg = load_config(str(PRESETS / "fig5_entangle.ini"))
        prep = prepare(cfg)
        ib = cfg.initial
        state = on.initial_state(prep.net, mean_q=ib.mean_q, mean_p=ib.mean_p,
                                 squeeze_r=ib.squeeze_r, squeeze_angle=ib.squeeze_angle,
                                 thermal_n=ib.thermal_n)
        tracemalloc.start()
        try:
            traj = on.evolve(state, prep.decomp, prep.times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.times.shape[0] == 5001
        assert peak < 25e6, f"evolve peaked at {peak / 1e6:.1f} MB"


class TestSquareRootMoments:
    """evolve and the view build every entry with one kernel: per-mode
    weights against two rows of F, plus the low-rank initial deviation."""

    @pytest.mark.parametrize("preset", preset_names())
    def test_preset_moments_match_node_reference(self, preset):
        # means, node blocks and the mode-basis energy against the dense
        # node-basis expm route, over the first 40 stored steps
        prep = prepare(load_config(str(PRESETS / f"{preset}.ini")))
        times = prep.times[:41]
        traj = on.evolve(prep.state0, prep.decomp, times)
        ref = on.evolve_node_reference(prep.state0, prep.net, prep.decomp, times)
        assert np.allclose(traj.means, ref.means, rtol=1e-10, atol=1e-10)
        assert np.allclose(traj.blocks, ref.blocks, rtol=1e-10, atol=1e-10)
        assert np.allclose(traj.energy, ref.energy, rtol=1e-10, atol=1e-10)

    # fig5 squeezes nodes 15 and 16 of a vacuum network: two 2x2 blocks
    # differ from the common one, each by a rank-2 difference
    DEVIATION_RANK = {"fig2_cb": 0, "fig2_sb": 0, "fig3_sweep": 0, "fig4_motif": 0,
                      "fig5_entangle": 4}

    @pytest.mark.parametrize("preset", preset_names())
    def test_preset_deviation_rank(self, preset):
        cov = prepare(load_config(str(PRESETS / f"{preset}.ini"))).state0.cov
        (var_q, var_p, cov_qp), lam, v = dynamics._deviation(cov)
        assert lam.shape[0] == self.DEVIATION_RANK[preset]
        common = np.kron([[var_q, cov_qp], [cov_qp, var_p]], np.eye(cov.shape[0] // 2))
        assert np.allclose(common + (v * lam) @ v.T, cov, rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("preset", [p for p, r in DEVIATION_RANK.items() if r == 0])
    def test_product_state_reads_back_at_t0(self, preset):
        # sigma (x) I is added to a node's own entries as it is, not passed
        # through F F^T, so a product state's t = 0 moments are its own bits
        prep = prepare(load_config(str(PRESETS / f"{preset}.ini")))
        traj = on.evolve(prep.state0, prep.decomp, prep.times[:3])
        cov0 = prep.state0.cov
        assert np.array_equal(traj.blocks[0], dynamics._node_blocks(cov0[None])[0])
        assert np.array_equal(np.asarray(traj.covs)[0], cov0)
        assert np.array_equal(traj.covs[0], cov0)

    @staticmethod
    def _subset_case(net, state):
        dec = on.analyze(net, BathConfig(kind="common", gamma=0.02, temperature=2.0, cutoff=50.0))
        traj = on.evolve(state, dec, np.linspace(0.0, 60.0, 121))
        return traj, np.asarray(traj.covs), (state, net, dec)

    @pytest.fixture(scope="class")
    def subset_trajs(self):
        """(trajectory, its whole stack, its inputs) at n = 6 and n = 17 from
        product states, and at n = 17 from a correlated state, whose
        deviation has rank 2n."""
        small = on.random_network(6, 0.6, 0.8, 1.5, -0.1, 0.05, seed=3)
        large = on.random_network(17, 0.6, 0.8, 1.5, -0.1, 0.05, seed=5)
        squeeze = np.zeros(17)
        squeeze[[2, 9, 16]] = [0.9, 0.3, 0.6]
        product = on.initial_state(large, mean_q=0.4, squeeze_r=squeeze, squeeze_angle=0.2)
        # a passive (orthogonal symplectic) mix of every node correlates them all
        mix = np.kron(np.eye(2), np.linalg.qr(np.random.default_rng(17).normal(size=(17, 17)))[0])
        correlated = on.GaussianState(mix @ product.mean, mix @ product.cov @ mix.T)
        assert dynamics._deviation(correlated.cov)[1].shape[0] == 34
        return [
            self._subset_case(small, on.initial_state(
                small, mean_q=0.4, squeeze_r=[0.0, 0.9, 0.0, 0.3, 0.0, 0.6], squeeze_angle=0.2)),
            self._subset_case(large, product),
            self._subset_case(large, correlated),
        ]

    @pytest.fixture
    def pair_trajs(self, subset_trajs):
        """(the n = 6 trajectory, its whole stack, the same as a plain-array trajectory)."""
        traj, stack, _ = subset_trajs[0]
        plain = on.Trajectory(times=traj.times, means=traj.means, covs=stack,
                              energy=traj.energy)
        return traj, stack, plain

    @pytest.mark.parametrize("rows", [
        lambda n: [1, 4, n + 1, n + 4],                    # the pair (1, 4)
        lambda n: [4, 1, n + 4, n + 1],                    # the same rows, unsorted
        lambda n: [0, 1, 4, 5, n, n + 1, n + 4, n + 5],    # the union of (0, 5) and (1, 4)
        lambda n: [3, n + 3],                              # one node's (q, p)
        lambda n: [2 * n - 1, 0, 2 * n - 1],               # repeats
        lambda n: [2],                                     # a lone q row
        lambda n: [n + 2],                                 # a lone p row
    ], ids=["pair", "pair_unsorted", "union", "node", "repeats", "lone_q", "lone_p"])
    @pytest.mark.parametrize("times", [slice(None, None, 10), np.array([120, 3, 3])[:, None, None], 7],
                             ids=["strided", "int_array", "int"])
    def test_row_subset_is_bitwise_stack(self, subset_trajs, rows, times):
        for traj, stack, _ in subset_trajs:
            r = np.array(rows(traj.n))
            plain = on.Trajectory(times=traj.times, means=traj.means, covs=stack,
                                  energy=traj.energy)
            for key in ((times, r[:, None], r[None, :]), (times, r, r[::-1]),
                        (times, r[0], r[-1])):
                got = traj.covs[key]
                assert np.shape(got) == np.shape(stack[key])
                assert np.array_equal(got, stack[key])
                assert np.array_equal(plain.covs[key], got)

    def test_blocks_are_the_stack_diagonal(self, subset_trajs):
        for traj, stack, _ in subset_trajs:
            n = traj.n
            idx = np.arange(n)
            assert np.array_equal(traj.blocks, np.stack(
                [stack[:, idx, idx], stack[:, n + idx, n + idx], stack[:, idx, n + idx]], axis=-1))
            assert np.array_equal(stack, np.swapaxes(stack, 1, 2))

    def test_correlated_state_matches_node_reference(self, subset_trajs):
        # the full-rank deviation against the dense expm route
        traj, stack, (state, net, dec) = subset_trajs[2]
        ref = on.evolve_node_reference(state, net, dec, traj.times)
        assert np.allclose(stack, ref.covs, rtol=1e-10, atol=1e-10)
        assert np.allclose(traj.means, ref.means, rtol=1e-10, atol=1e-10)

    def test_row_subset_index_errors(self, pair_trajs):
        traj, _, _ = pair_trajs
        with pytest.raises(IndexError):
            traj.covs[:, np.array([0, 12]), np.array([0, 1])]

    def test_pair_series_same_on_view_and_array(self, pair_trajs):
        traj, _, plain = pair_trajs
        for measure in (MUTUAL_INFORMATION, DISCORD, LOG_NEGATIVITY):
            got = on.pair_measure_series(traj, measure, [(0, 5), (1, 4), (2, 3)], stride=4)
            ref = on.pair_measure_series(plain, measure, [(0, 5), (1, 4), (2, 3)], stride=4)
            assert np.array_equal(got.values, ref.values)
            assert got.excluded == ref.excluded == ()

    def test_fig5_simulate_reads_pair_rows_only(self, tmp_path, monkeypatch):
        # evolve asks the entry kernel for each node's three block entries;
        # then each of the three pair series makes one read, of the 8
        # quadrature rows of the pairs (15, 16) and (3, 7), 8 x 8 entries
        # per time, and no read evaluates all 2n = 34 rows.
        calls = []
        real = dynamics._CovarianceView._entries

        def spy(self, coef, dphi, a, b):
            calls.append((np.unique(np.concatenate([a, b])).shape[0], a.shape[0]))
            return real(self, coef, dphi, a, b)

        monkeypatch.setattr(dynamics._CovarianceView, "_entries", spy)
        run_simulate(load_config(str(PRESETS / "fig5_entangle.ini")), out_dir=str(tmp_path))
        assert calls == [(34, 3 * 17), (8, 64), (8, 64), (8, 64)]


class TestPhysicalityOracle:
    """evolve checks only its input; these check every stored covariance."""

    @pytest.mark.parametrize("preset", preset_names())
    def test_preset_trajectory_stays_physical(self, preset):
        traj = _run_traj(prepare(load_config(str(PRESETS / f"{preset}.ini"))))
        assert min_symplectic_eigenvalue(traj.covs) >= 0.5 - 1e-8

    @given(
        n=st.integers(2, 8),
        seed=st.integers(0, 2**31 - 1),
        kind=st.sampled_from(["separate", "common", "local"]),
        gamma=st.one_of(st.just(0.0), st.floats(1e-4, 0.2)),
        temperature=st.floats(0.01, 20.0),
        squeezed=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_trajectory_stays_physical(self, n, seed, kind, gamma, temperature,
                                              squeezed):
        net = on.random_network(n, 0.6, 0.8, 1.5, -0.1, 0.05, seed=seed)
        rng = np.random.default_rng(seed)
        node = int(rng.integers(n)) if kind == "local" else None
        bath = BathConfig(kind=kind, gamma=gamma, temperature=temperature,
                          cutoff=50.0, node=node)
        if squeezed:
            state = on.initial_state(net, mean_q=rng.normal(size=n),
                                     squeeze_r=rng.uniform(0.0, 1.2, size=n),
                                     squeeze_angle=rng.uniform(0.0, np.pi, size=n))
        else:
            state = on.initial_state(net, thermal_n=rng.uniform(0.0, 3.0, size=n))
        times = np.linspace(0.0, rng.uniform(1.0, 500.0), 201)
        traj = on.evolve(state, on.analyze(net, bath), times)
        assert min_symplectic_eigenvalue(traj.covs) >= 0.5 - 1e-8
