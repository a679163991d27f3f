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
from oscnet.dynamics import MODE, NODE, thermal_variances
from oscnet.errors import DimensionMismatch, IntegratorStepFailure, PhysicalityViolation
from oscnet.measures import DISCORD, LOG_NEGATIVITY, MUTUAL_INFORMATION
from oscnet.scenarios import _initial_state, _run_traj, load_config, prepare, run_simulate
from oscnet.spectral import BathConfig

PRESETS = resources.files("oscnet") / "presets"


def min_symplectic_eigenvalue(covs):
    return float(on.symplectic_spectrum(covs)[..., 0].min())


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
    def test_round_trip(self, chain3, common_bath):
        dec = on.analyze(chain3, common_bath)
        st = on.initial_state(chain3, mean_q=[1.0, -0.5, 0.2], squeeze_r=0.3)
        back = on.change_basis(on.change_basis(st, dec, MODE), dec, NODE)
        assert np.allclose(back.mean, st.mean, atol=1e-14)
        assert np.allclose(back.cov, st.cov, atol=1e-14)

    def test_preserves_symplectic_spectrum(self, chain3, common_bath):
        dec = on.analyze(chain3, common_bath)
        st = on.initial_state(chain3, squeeze_r=[0.5, 0.0, -0.2])
        nus_node = on.symplectic_spectrum(st.cov)
        nus_mode = on.symplectic_spectrum(on.change_basis(st, dec, MODE).cov)
        assert np.allclose(np.sort(nus_node), np.sort(nus_mode), atol=1e-12)

    def test_rejects_same_basis(self, chain3, common_bath):
        dec = on.analyze(chain3, common_bath)
        st = on.initial_state(chain3)
        with pytest.raises(ValueError):
            on.change_basis(st, dec, NODE)


class TestThermalFixedPoint:
    def test_rhs_vanishes_at_thermal(self, er10, common_bath):
        # the claimed stationary variances must kill the hand-written ODE
        dec = on.analyze(er10, common_bath)
        targets = thermal_variances(dec, common_bath)
        for m in range(dec.n):
            sigma = np.diag(targets[m])
            res = single_mode_rhs(sigma, dec.damping[m], dec.freqs[m] ** 2,
                                  dec.diffusion[m])
            assert np.max(np.abs(res)) < 1e-12

    def test_relaxation_reaches_thermal(self, chain3, separate_bath):
        dec = on.analyze(chain3, separate_bath)
        st = on.initial_state(chain3, mean_q=[1.0, 0.0, -1.0])
        t_end = 20.0 / separate_bath.gamma
        traj = on.evolve(st, dec, np.linspace(0.0, t_end, 41), method="exact")
        final = on.change_basis(traj.state(-1), dec, MODE)
        targets = thermal_variances(dec, separate_bath)
        n = dec.n
        assert np.max(np.abs(final.mean)) < 1e-4
        assert np.allclose(np.diag(final.cov)[:n], targets[:, 0], rtol=1e-4)
        assert np.allclose(np.diag(final.cov)[n:], targets[:, 1], rtol=1e-4)

    def test_steady_state_matches_long_evolution(self, er10, common_bath):
        dec = on.analyze(er10, common_bath)
        st = on.initial_state(er10, mean_q=0.5)
        gmin = dec.damping.min()
        traj = on.evolve(st, dec, [0.0, 30.0 / gmin], method="exact")
        ss = on.steady_state(dec, basis=NODE)
        assert ss.frozen_modes == ()
        assert np.allclose(traj.state(-1).cov, ss.state.cov, atol=1e-8)

    @pytest.mark.parametrize("preset", ["fig3_sweep", "fig4_motif", "fig5_entangle"])
    def test_steady_state_frozen_modes_match_report(self, preset):
        # the shipped frozen modes keep Gamma ~ 1e-32 from eigh roundoff,
        # so only the relative |kappa| test finds them
        cfg = load_config(str(PRESETS / f"{preset}.ini"))
        dec = prepare(cfg).decomp
        frozen = on.steady_state(dec).frozen_modes
        assert frozen == on.frozen_mode_report(dec, cfg.bath).frozen
        assert len(frozen) == 1

    def test_steady_state_without_damping_keeps_every_mode_frozen(self, chain3):
        closed = BathConfig(kind="common", gamma=0.0, temperature=10.0, cutoff=50.0)
        ss = on.steady_state(on.analyze(chain3, closed), basis=MODE)
        assert ss.frozen_modes == (0, 1, 2)
        assert np.all(np.isfinite(ss.state.cov))


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

    def test_mode_basis_state_rejected(self, chain3, common_bath):
        dec = on.analyze(chain3, common_bath)
        st = on.change_basis(on.initial_state(chain3), dec, MODE)
        with pytest.raises(ValueError):
            on.evolve(st, dec, [0.0, 1.0])

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
        assert first.basis == NODE
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
        (slice(None), slice(0, 3), slice(0, 3)), (5, 1, 4), (np.array([2, 9]), 0),
    ], ids=["int", "int17", "negative", "all", "strided", "reversed", "empty",
            "int_array", "bool_mask", "tuple_block", "tuple_entry", "tuple_array"])
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
    """evolve and the view form entries as row dot products of one factor."""

    @pytest.mark.parametrize("preset", preset_names())
    def test_preset_moments_match_node_reference(self, preset):
        # means, node blocks and the mode-basis energy against the dense
        # node-basis expm route, over the first 40 stored steps
        prep = prepare(load_config(str(PRESETS / f"{preset}.ini")))
        state = _initial_state(prep.cfg, prep.net)
        times = prep.times[:41]
        traj = on.evolve(state, prep.decomp, times)
        ref = on.evolve_node_reference(state, prep.net, prep.decomp, times)
        assert np.allclose(traj.means, ref.means, rtol=1e-10, atol=1e-10)
        assert np.allclose(traj.blocks, ref.blocks, rtol=1e-10, atol=1e-10)
        assert np.allclose(traj.energy, ref.energy, rtol=1e-10, atol=1e-10)

    @pytest.fixture
    def pair_trajs(self):
        """(evolved trajectory, its whole stack, the same as a plain-array trajectory)."""
        net = on.random_network(6, 0.6, 0.8, 1.5, -0.1, 0.05, seed=3)
        bath = BathConfig(kind="common", gamma=0.02, temperature=2.0, cutoff=50.0)
        state = on.initial_state(net, mean_q=0.4, squeeze_r=[0.0, 0.9, 0.0, 0.3, 0.0, 0.6],
                                 squeeze_angle=0.2)
        traj = on.evolve(state, on.analyze(net, bath), np.linspace(0.0, 60.0, 121))
        stack = np.asarray(traj.covs)
        plain = on.Trajectory(times=traj.times, means=traj.means, covs=stack,
                              energy=traj.energy)
        return traj, stack, plain

    @pytest.mark.parametrize("rows", [
        [1, 4, 7, 10],                    # the pair (1, 4)
        [4, 1, 10, 7],                    # the same rows, unsorted
        [0, 1, 4, 5, 6, 7, 10, 11],       # the union of (0, 5) and (1, 4)
        [3, 9],                           # one node's (q, p)
        [11, 0, 11],                      # repeats
    ], ids=["pair", "pair_unsorted", "union", "node", "repeats"])
    @pytest.mark.parametrize("times", [slice(None, None, 10), np.array([120, 3, 3])[:, None, None], 7],
                             ids=["strided", "int_array", "int"])
    def test_row_subset_is_bitwise_stack(self, pair_trajs, rows, times):
        traj, stack, plain = pair_trajs
        r = np.array(rows)
        for key in ((times, r[:, None], r[None, :]), (times, r, r[::-1]), (times, r[0], r[-1])):
            got = traj.covs[key]
            assert np.shape(got) == np.shape(stack[key])
            assert np.array_equal(got, stack[key])
            assert np.array_equal(plain.covs[key], got)

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
        # Each of the three pair series makes one read, of the 8 quadrature
        # rows of the pairs (15, 16) and (3, 7); no read evaluates all 2n = 34.
        reads = []
        real = dynamics._CovarianceView._rows_read

        def spy(self, rest):
            rows, remapped = real(self, rest)
            reads.append(rows.shape[0])
            return rows, remapped

        monkeypatch.setattr(dynamics._CovarianceView, "_rows_read", spy)
        run_simulate(load_config(str(PRESETS / "fig5_entangle.ini")), out_dir=str(tmp_path))
        assert reads == [8, 8, 8]


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
