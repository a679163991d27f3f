"""End-to-end acceptance checks on the shipped presets.

Each test prints one PASS/FAIL line with the measured numbers, and
acceptance 11 a second one (the claim its preset is named for, read from
the CSVs it writes), so a full run gives a scorecard of eleven checks.
Thresholds are fixed here and are not derived from the code under test;
where a second, independent route exists (dense-grid discord, node-basis
integration, closed forms) the test uses it as the oracle.
"""

import csv
import os
import time
from importlib import resources
from itertools import combinations

import numpy as np
import pytest

import oscnet as on
from conftest import tmsv_cov
from oracles import (
    asymptotic_state,
    mode_variances,
    pair_covariance,
    single_mode_series,
    thermal_mode_variances,
    von_neumann_entropy,
)
from oscnet.scenarios import load_config, run_simulate, run_sweep

PRESETS = resources.files("oscnet") / "presets"

NETWORK_BATH = on.BathConfig(kind="common", gamma=0.01, temperature=10.0)
CHAIN_BATH_CB = on.BathConfig(kind="common", gamma=0.07, temperature=10.0)
CHAIN_BATH_SB = on.BathConfig(kind="separate", gamma=0.07, temperature=10.0)

SWEEP_NODE = 6          # tuned node of the fig3 preset network
MOTIF = (0, 1, 2)       # tuned motif of the fig4 preset (hub 1)
TWIN = (3, 4, 5)        # its untuned comparison motif (hub 4)
PAIR = (15, 16)         # attached oscillators of the fig5 preset
# late C that marks a synchronized pair and late |C| that marks an
# unsynchronized one; the measured values are in preset_claim
WITNESS_C_HI = 0.75
WITNESS_C_LO = 0.6


def report(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nacceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def load_preset_network(fname: str):
    return on.load_network(str(PRESETS / fname))


def chain_network():
    return on.build_network(
        np.array([1.2, 1.0, 1.8]),
        np.array([[0.0, 0.4, 0.0], [0.4, 0.0, 0.4], [0.0, 0.4, 0.0]]),
    )


def alternating(n: int) -> np.ndarray:
    return np.where(np.arange(n) % 2 == 0, 2.0, -2.0)


def test_01_effective_coupling_exactness(capsys):
    t0 = time.perf_counter()
    net = on.random_network(6, 0.7, 0.8, 1.3, -0.08, 0.04, seed=7)
    sep = on.analyze(net, on.BathConfig(kind="separate", gamma=0.05,
                                        temperature=5.0))
    sb_exact = bool(np.all(sep.eff_coupling == 1.0))

    pair = on.build_network(np.array([1.0, 1.0]),
                            np.array([[0.0, -0.1], [-0.1, 0.0]]))
    antisym = float(np.abs(on.analyze(pair, NETWORK_BATH).eff_coupling).min())

    big = on.random_network(10, 0.6, 0.9, 1.2, -0.1, 0.05, seed=11)
    parseval = float(abs(np.sum(on.analyze(big, NETWORK_BATH).eff_coupling ** 2) - 10.0))
    elapsed = time.perf_counter() - t0

    ok = sb_exact and antisym <= 1e-12 and parseval <= 1e-10 and elapsed < 1.0
    report(capsys, "01 effective couplings", ok,
           f"separate-bath exact={sb_exact}, pair antisym={antisym:.1e}, "
           f"parseval dev={parseval:.1e}, {elapsed:.2f}s")
    assert sb_exact
    assert antisym <= 1e-12
    assert parseval <= 1e-10
    assert elapsed < 1.0


def test_02_thermal_fixed_point(capsys):
    worst = 0.0
    cases = ((chain_network(), CHAIN_BATH_CB),
             (on.random_network(5, 0.8, 0.9, 1.4, -0.07, 0.03, seed=3), CHAIN_BATH_SB))
    for net, bath in cases:
        dec = on.analyze(net, bath)
        state = on.initial_state(net, mean_q=1.0, squeeze_r=0.4)
        t_relax = 20.0 / dec.damping.min()
        traj = on.evolve(state, dec, np.array([0.0, t_relax]), method="exact")
        vq, vp = mode_variances(traj.state(-1), dec)
        target_q, target_p = thermal_mode_variances(dec, bath.temperature)
        dev_q = np.abs(vq / target_q - 1.0).max()
        dev_p = np.abs(vp / target_p - 1.0).max()
        worst = max(worst, float(dev_q), float(dev_p))
    ok = worst < 1e-6
    report(capsys, "02 thermal fixed point", ok,
           f"max relative variance deviation {worst:.2e} at t = 20/Gamma_min")
    assert worst < 1e-6


def test_03_frozen_mode_conservation(capsys):
    t0 = time.perf_counter()
    net = load_preset_network("fig3_network.txt")
    dec = on.analyze(net, NETWORK_BATH)
    rep = on.frozen_mode_report(dec)
    sigma = rep.frozen[0]
    state = on.initial_state(net, mean_q=alternating(10))
    traj = on.evolve(state, dec, np.linspace(0.0, 1000.0, 101), method="exact")
    mq, mp, vq, vp, cqp = single_mode_series(traj, dec, sigma)
    w2 = dec.freqs[sigma] ** 2
    energy = 0.5 * (mp**2 + w2 * mq**2 + vp + w2 * vq)
    nu = np.sqrt(vq * vp - cqp**2)
    drift_e = float(np.abs(energy / energy[0] - 1.0).max())
    drift_nu = float(np.abs(nu / nu[0] - 1.0).max())

    wbar = net.omega[SWEEP_NODE]
    dev_detuned = 0.0
    for factor in (0.95, 1.05):
        net2 = net.with_omega(SWEEP_NODE, wbar * factor)
        dec2 = on.analyze(net2, NETWORK_BATH)
        t_th = 8.0 / dec2.damping.min()
        st2 = on.initial_state(net2, mean_q=alternating(10))
        tr2 = on.evolve(st2, dec2, np.array([0.0, t_th]), method="exact")
        vq2, vp2 = mode_variances(tr2.state(-1), dec2)
        target_q, target_p = thermal_mode_variances(dec2, NETWORK_BATH.temperature)
        dev = max(np.abs(vq2 / target_q - 1.0).max(),
                  np.abs(vp2 / target_p - 1.0).max())
        dev_detuned = max(dev_detuned, float(dev))
    elapsed = time.perf_counter() - t0

    ok = drift_e < 1e-6 and drift_nu < 1e-6 and dev_detuned < 0.01 and elapsed < 60.0
    report(capsys, "03 frozen-mode conservation", ok,
           f"energy drift {drift_e:.1e}, nu drift {drift_nu:.1e} over t=1000; "
           f"detuned thermalization dev {dev_detuned:.2e}; {elapsed:.1f}s")
    assert drift_e < 1e-6
    assert drift_nu < 1e-6
    assert dev_detuned < 0.01
    assert elapsed < 60.0


def test_04_node_vs_mode_integration(capsys):
    t0 = time.perf_counter()
    kinds = ("separate", "common", "local")
    times = np.linspace(0.0, 10.0, 21)
    worst = 0.0
    for seed in range(20):
        n = 5 + seed % 6
        net = on.random_network(n, 0.7, 0.8, 1.3, -0.08, 0.04, seed=seed)
        kind = kinds[seed % 3]
        bath = on.BathConfig(kind=kind, gamma=0.03, temperature=4.0,
                             node=(seed % n) if kind == "local" else None)
        dec = on.analyze(net, bath)
        state = on.initial_state(net, mean_q=alternating(n), squeeze_r=0.3)
        fast = on.evolve(state, dec, times, method="exact")
        ref = on.evolve_node_reference(net=net, decomp=dec, state=state,
                                       times=times, method="expm")
        worst = max(worst,
                    float(np.abs(fast.means - ref.means).max()),
                    float(np.abs(fast.covs - ref.covs).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 120.0
    report(capsys, "04 node vs mode integration", ok,
           f"max abs deviation {worst:.2e} over 20 networks, {elapsed:.1f}s")
    assert worst < 1e-8
    assert elapsed < 120.0


def test_05_chain_sync_contrast(capsys):
    net = chain_network()
    state = on.initial_state(net, mean_q=np.array([-1.0, 0.0, 1.0]))
    times = np.linspace(0.0, 160.0, 3201)
    window, t_lo, t_hi = 8.0, 100.0, 140.0

    def window_stats(bath):
        traj = on.evolve(state, on.analyze(net, bath), times, method="exact")
        out = []
        for signal in (traj.mean_q, traj.second_moment_q):
            ws = on.windowed_correlation(traj.times, signal, window,
                                         list(combinations(range(3), 2)))
            absc = np.abs(ws.values)
            edges = ws.times
            mask = (edges >= t_lo) & (edges + window <= t_hi + 1e-9)
            out.append(absc[mask])
        return out   # [mean_q windows, q^2 windows], each (n_win, 3)

    cb_q, cb_q2 = window_stats(CHAIN_BATH_CB)
    _, sb_q2 = window_stats(CHAIN_BATH_SB)
    cb_min = float(min(cb_q.mean(axis=0).min(), cb_q2.mean(axis=0).min()))
    sb_s = float(np.prod(sb_q2, axis=1).mean())
    ok = cb_min > 0.9 and sb_s < 0.5
    report(capsys, "05 chain bath contrast", ok,
           f"common-bath min pair |C| {cb_min:.4f} (> 0.9), "
           f"separate-bath S {sb_s:.3f} (< 0.5), window [{t_lo},{t_hi}]")
    assert cb_min > 0.9
    assert sb_s < 0.5


def test_06_sync_time_estimate(capsys):
    net = load_preset_network("fig3_network.txt")
    dec = on.analyze(net, NETWORK_BATH)
    est = on.estimate_sync_times(dec)
    state = on.initial_state(net, mean_q=alternating(10))
    traj = on.evolve(state, dec, np.linspace(0.0, 12000.0, 24001), method="exact")
    window = 10.0
    sync = on.collective_sync(traj, window=window)
    above = np.flatnonzero(sync.values > 0.9)
    assert above.size, "collective sync never crossed 0.9"
    t_cross = float(sync.times[above[0]] + window / 2.0)
    ratio = t_cross / est.t_sync
    ok = 0.5 <= ratio <= 2.0
    report(capsys, "06 sync time estimate", ok,
           f"estimate {est.t_sync:.0f}, measured crossing {t_cross:.0f}, "
           f"ratio {ratio:.2f} within [0.5, 2]")
    assert 0.5 <= ratio <= 2.0


def test_07_discord_ridge(capsys):
    net = load_preset_network("fig3_network.txt")
    wbar = net.omega[SWEEP_NODE]

    def discord_at_1000(network):
        dec = on.analyze(network, NETWORK_BATH)
        traj = on.evolve(on.initial_state(network, mean_q=alternating(10)), dec,
                         np.array([0.0, 1000.0]), method="exact")
        series = on.pair_measure_series(traj, measure="discord")
        return float(np.nanmean(series.values[1]))

    tuned = discord_at_1000(net)
    ratio_lo = tuned / discord_at_1000(net.with_omega(SWEEP_NODE, wbar * 0.95))
    ratio_hi = tuned / discord_at_1000(net.with_omega(SWEEP_NODE, wbar * 1.05))
    ok = ratio_lo >= 10.0 and ratio_hi >= 10.0
    report(capsys, "07 discord ridge", ok,
           f"tuned {tuned:.2e}, ratios vs -5%/+5%: {ratio_lo:.1f}/{ratio_hi:.1f} (>= 10)")
    assert ratio_lo >= 10.0
    assert ratio_hi >= 10.0


def test_08_tuned_motif(capsys):
    net = load_preset_network("fig4_network.txt")
    dec = on.analyze(net, NETWORK_BATH)
    rep = on.frozen_mode_report(dec)
    sigma = rep.frozen[0]
    mode_freq = float(dec.freqs[sigma])
    a, c, b = MOTIF
    # closed forms: branch amplitudes u_x = lam_xc / (W^2 - w_x^2) against a
    # unit hub cancel the common-bath weight, and every external node j
    # sees u_a lam_aj + u_b lam_bj + lam_cj of the motif mode
    w2 = mode_freq**2
    u_a = net.coupling[a, c] / (w2 - net.omega[a] ** 2)
    u_b = net.coupling[b, c] / (w2 - net.omega[b] ** 2)
    resid_motif = abs(u_a + u_b + 1.0)
    external = [j for j in range(net.n) if j not in MOTIF]
    resid_embed = float(np.abs(u_a * net.coupling[a, external] + u_b * net.coupling[b, external]
                               + net.coupling[c, external]).max())
    # the bordered pencil puts the hub back at the shipped frequency
    tuned = on.find_sync_parameter(net, ("omega", c), (1.45, 1.55), NETWORK_BATH)
    hub_err = abs(tuned.value / net.omega[c] - 1.0)

    state = on.initial_state(net, mean_q=alternating(15))
    coarse = on.evolve(state, dec, np.array([0.0, 20000.0]), method="exact")
    late = on.evolve(coarse.state(-1), dec,
                     np.linspace(20000.0, 20300.0, 6001), method="exact")
    s_motif = on.collective_sync(late, window=10.0, subset=(a, c, b))
    s_min = float(s_motif.values.min())
    pairs = [(a, c), (a, b), (c, b),
             (TWIN[0], TWIN[1]), (TWIN[0], TWIN[2]), (TWIN[1], TWIN[2])]
    series = on.pair_measure_series(late, measure="discord", pairs=pairs)
    ratio = float(np.nanmean(series.values[:, :3]) / np.nanmean(series.values[:, 3:]))

    ok = (resid_motif < 1e-8 and resid_embed < 1e-8 and hub_err < 1e-12
          and s_min > 0.9 and ratio >= 10.0)
    report(capsys, "08 tuned motif", ok,
           f"residuals {resid_motif:.1e}/{resid_embed:.1e}, pencil hub off by {hub_err:.1e}, "
           f"min S_motif {s_min:.4f}, tuned/untuned discord ratio {ratio:.0f}")
    assert resid_motif < 1e-8
    assert resid_embed < 1e-8
    assert hub_err < 1e-12
    assert s_min > 0.9
    assert ratio >= 10.0


def test_09_pair_entanglement(capsys):
    net = load_preset_network("fig5_network.txt")
    dec = on.analyze(net, NETWORK_BATH)
    squeeze = np.zeros(17)
    squeeze[list(PAIR)] = 2.0
    state = on.initial_state(net, squeeze_r=squeeze)
    watch = [PAIR, (3, 7)]

    coarse = on.evolve(state, dec, np.linspace(0.0, 8000.0, 801), method="exact")
    fine = on.evolve(coarse.state(-1), dec,
                     np.linspace(8000.0, 10000.0, 8001), method="exact")
    ser_coarse = on.pair_measure_series(coarse, measure="log_negativity", pairs=watch)
    ser_fine = on.pair_measure_series(fine, measure="log_negativity", pairs=watch)

    en_start = float(ser_coarse.values[0, 0])
    wmeans = ser_fine.values[:8000, 0].reshape(-1, 100).mean(axis=1)
    plateau = float(wmeans.mean())
    spread = float((wmeans.max() - wmeans.min()) / plateau)
    third_max = float(max(ser_coarse.values[:, 1].max(), ser_fine.values[:, 1].max()))

    # Oracle: the frozen-mode asymptote from the initial state, on every
    # 50th fine time.  The slowest damped mode (Gamma_2 = 2.4e-4) still
    # keeps e^{-Gamma_2 t} = 0.14 .. 0.09 of its transient here, which
    # moves E_N by up to 7.1e-4; 2e-3 allows that and no more than 0.4% of
    # the plateau, far below what a wrong frozen-mode block would shift.
    picked = slice(0, 8000, 50)
    limits = [asymptotic_state(state, dec, t).cov for t in fine.times[picked]]
    predicted = on.log_negativity(pair_covariance(np.array(limits), *PAIR, 17))
    measured = ser_fine.values[picked, 0]
    gap = float(np.abs(measured - predicted).max())

    a, b = PAIR
    perturbed = net
    for j, shift in ((0, 0.04), (1, 0.04)):
        perturbed = perturbed.with_coupling(a, j, net.coupling[a, j] + shift)
    dec_p = on.analyze(perturbed, NETWORK_BATH)
    traj_p = on.evolve(on.initial_state(perturbed, squeeze_r=squeeze), dec_p,
                       np.linspace(0.0, 10000.0, 2001), method="exact")
    ser_p = on.pair_measure_series(traj_p, measure="log_negativity", pairs=[PAIR])
    pert_end = float(ser_p.values[-400:, 0].max())   # last 20% of the run

    ok = (en_start < 1e-9 and plateau > 0.3 and spread < 0.10
          and pert_end < 1e-3 and third_max < plateau and gap < 2e-3)
    report(capsys, "09 pair entanglement", ok,
           f"E_N start {en_start:.1e}, plateau {plateau:.3f} (spread {spread:.1%}), "
           f"every 50th time {float(measured.mean()):.5f} against asymptote "
           f"{float(predicted.mean()):.5f} (max gap {gap:.1e}), "
           f"perturbed tail {pert_end:.1e}, reference pair {third_max:.1e}")
    assert en_start < 1e-9
    assert plateau > 0.3
    assert spread < 0.10
    assert pert_end < 1e-3
    assert third_max < plateau
    assert gap < 2e-3


def _dense_grid_discord(cov4: np.ndarray) -> float:
    """Brute-force reference: scan homodyne-to-heterodyne Gaussian measurements."""
    cov = np.asarray(cov4, dtype=float)
    a = cov[np.ix_([0, 2], [0, 2])]
    b = cov[np.ix_([1, 3], [1, 3])]
    c = cov[np.ix_([0, 2], [1, 3])]
    best = np.inf
    for log_s in np.linspace(-4.0, 4.0, 321):
        s = np.exp(log_s)
        for theta in np.linspace(0.0, np.pi, 180, endpoint=False):
            ct, st = np.cos(theta), np.sin(theta)
            rot = np.array([[ct, -st], [st, ct]])
            seed = rot @ np.diag([s / 2.0, 1.0 / (2.0 * s)]) @ rot.T
            cond = a - c @ np.linalg.inv(b + seed) @ c.T
            ent = _entropy_from_cov1(cond)
            best = min(best, ent)
    i_ab = (_entropy_from_cov1(a) + _entropy_from_cov1(b)
            - float(von_neumann_entropy(cov)))
    return i_ab - (_entropy_from_cov1(a) - best)


def _entropy_from_cov1(cov2: np.ndarray) -> float:
    nu = max(float(np.sqrt(np.linalg.det(cov2))), 0.5)
    if nu - 0.5 < 1e-15:
        return 0.0
    return float((nu + 0.5) * np.log(nu + 0.5) - (nu - 0.5) * np.log(nu - 0.5))


def test_10_measure_correctness(capsys):
    worst_en = worst_i = 0.0
    for r in (0.3, 1.0, 2.0):
        cov = tmsv_cov(r)
        worst_en = max(worst_en, abs(float(on.log_negativity(cov)) - 2.0 * r))
        nu_local = np.cosh(2.0 * r) / 2.0
        i_exact = 2.0 * ((nu_local + 0.5) * np.log(nu_local + 0.5)
                         - (nu_local - 0.5) * np.log(nu_local - 0.5))
        worst_i = max(worst_i, abs(float(on.mutual_information(cov)) - i_exact))

    worst_d = 0.0
    for cov in (tmsv_cov(0.8) + 0.15 * np.eye(4), tmsv_cov(1.2)):
        got = float(on.gaussian_discord(cov))
        worst_d = max(worst_d, abs(got - _dense_grid_discord(cov)))

    # physicality along stored trajectories of the shipped scenarios
    min_nu = np.inf
    chain = chain_network()
    traj = on.evolve(on.initial_state(chain, mean_q=np.array([-1.0, 0.0, 1.0])),
                     on.analyze(chain, CHAIN_BATH_CB),
                     np.linspace(0.0, 160.0, 3201), method="exact")
    min_nu = min(min_nu, float(on.symplectic_spectrum(traj.covs).min()))
    net3 = load_preset_network("fig3_network.txt")
    traj3 = on.evolve(on.initial_state(net3, mean_q=alternating(10)),
                      on.analyze(net3, NETWORK_BATH),
                      np.linspace(0.0, 1000.0, 101), method="exact")
    min_nu = min(min_nu, float(on.symplectic_spectrum(traj3.covs).min()))
    net5 = load_preset_network("fig5_network.txt")
    squeeze = np.zeros(17)
    squeeze[list(PAIR)] = 2.0
    traj5 = on.evolve(on.initial_state(net5, squeeze_r=squeeze),
                      on.analyze(net5, NETWORK_BATH),
                      np.linspace(0.0, 2000.0, 1001), method="exact")
    min_nu = min(min_nu, float(on.symplectic_spectrum(traj5.covs).min()))

    ok = (worst_en <= 1e-9 and worst_i <= 1e-9 and worst_d <= 1e-4
          and min_nu >= 0.5 - 1e-8)
    report(capsys, "10 measure correctness", ok,
           f"E_N dev {worst_en:.1e}, I dev {worst_i:.1e}, discord vs grid "
           f"{worst_d:.1e}, min nu {min_nu:.9f}")
    assert worst_en <= 1e-9
    assert worst_i <= 1e-9
    assert worst_d <= 1e-4
    assert min_nu >= 0.5 - 1e-8


def read_table(path):
    with open(path, newline="") as fh:
        return np.array(list(csv.reader(fh))[1:], dtype=float)


def preset_claim(preset, out):
    """Score the claim a preset is named for from the CSVs its run wrote.

    Bounds sit outside the values measured on the shipped presets: fig2_cb
    late S 0.99948 and S >= 0.99 from t = 104, fig2_sb late S 0.407; the
    fig3 discord ridge 1.235e-3 at the tuned omega_6 against at most
    2.88e-4; fig4 discord at least 1.70e-3 on the motif pairs and at most
    1.44e-4 on the twin pairs; fig5 late E_N of the pair 0.4845 to 0.5025.

    On fig4 and fig5 it also scores the witness claim: every pair whose
    late C is at least WITNESS_C_HI carries at least ten times the late
    discord of every pair whose late |C| is at most WITNESS_C_LO, and those
    are the frozen-mode pairs and their references.  Measured late means:
    fig4 (t >= 1500) C 0.960 on (0, 1), 0.915 on (1, 2) and 0.792 on the
    unlinked (0, 2), with discord 7.25e-2, 4.24e-2 and 1.70e-3; the twin
    pairs |C| 0.269, 0.521 and 0.272, discord at most 1.44e-4 (ratio 11.8).
    fig5 (t >= 7500) C 1.000 on (15, 16), discord 0.259; (3, 7) |C| 0.321,
    discord 4.2e-7.
    Returns (ok, detail).
    """
    if preset.startswith("fig2"):
        t, sync = read_table(out / "aggregate.csv")[:, :2].T
        late = np.nanmean(sync[t >= t[-1] - 30.0])  # the last row's window does not fit
        onset = t[sync >= 0.99][0] if np.any(sync >= 0.99) else np.inf
        if preset == "fig2_cb":  # a common bath synchronizes the chain
            ok = late >= 0.999 and 95.0 <= onset <= 115.0
        else:  # separate baths do not
            ok = late <= 0.45 and onset == np.inf
        return ok, f"late S {late:.5f}, S >= 0.99 from t = {onset:g}"
    if preset == "fig3_sweep":
        table = read_table(out / "map.csv")
        values = np.unique(table[:, 0])
        late = np.array([table[(table[:, 0] == v) & (table[:, 1] >= 700.0), 3].mean()
                         for v in values])
        peak = int(np.argmax(late))
        tuned = load_preset_network("fig3_network.txt").omega[SWEEP_NODE]
        rest = np.delete(late, peak).max()
        ok = abs(values[peak] - tuned) < 1e-9 and late[peak] >= 1.1e-3 and rest <= 3.5e-4
        return ok, f"late discord {late[peak]:.3e} at omega {values[peak]:.6f}, else <= {rest:.3e}"
    table = read_table(out / "measures.csv")

    def pair(i, j, since=0.0):
        return table[(table[:, 1] == i) & (table[:, 2] == j) & (table[:, 0] >= since)]

    if preset == "fig4_motif":
        t_late, synced, unsynced = 1500.0, set(combinations(MOTIF, 2)), set(combinations(TWIN, 2))
    else:
        t_late, synced, unsynced = 0.75 * table[-1, 0], {PAIR}, {(3, 7)}
    measured = {(int(i), int(j)) for i, j in table[:, 1:3]}
    late = {p: pair(*p, since=t_late) for p in measured}
    discord = {p: rows[:, 5].mean() for p, rows in late.items()}
    # the witness claim: the pairs that synchronize, linked or not, keep the correlations
    high = {p for p, rows in late.items() if np.nanmean(rows[:, 3]) >= WITNESS_C_HI}
    low = {p for p, rows in late.items() if np.nanmean(np.abs(rows[:, 3])) <= WITNESS_C_LO}
    ratio = min(discord[p] for p in synced) / max(discord[p] for p in unsynced)
    witness = high == synced and low == unsynced and ratio >= 10.0
    witness_detail = (f"late C >= {WITNESS_C_HI} on {sorted(high)}, |C| <= {WITNESS_C_LO} on "
                      f"{sorted(low)}, discord ratio {ratio:.1f}")
    if preset == "fig4_motif":
        motif = min(discord[p] for p in synced)
        twin = max(discord[p] for p in unsynced)
        ok = motif >= 1.5e-3 and twin <= 2e-4 and witness
        return ok, f"late discord motif >= {motif:.3e}, twin <= {twin:.3e}; {witness_detail}"
    apart, late_en = pair(3, 7), late[PAIR][:, 6]
    ok = (0.47 <= late_en.min() and late_en.max() <= 0.52 and np.all(apart[:, 6] == 0.0)
          and witness)
    return ok, (f"late E_N of {PAIR} in [{late_en.min():.4f}, {late_en.max():.4f}], "
                f"(3, 7) max {apart[:, 6].max():g}; {witness_detail}")


@pytest.mark.parametrize("preset", ["fig2_sb", "fig2_cb", "fig3_sweep",
                                    "fig4_motif", "fig5_entangle"])
def test_11_preset_determinism(preset, tmp_path, capsys):
    runner = run_sweep if preset == "fig3_sweep" else run_simulate
    outs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        runner(load_config(str(PRESETS / f"{preset}.ini")), out_dir=str(out))
        outs.append(out)
    csvs = sorted(p.name for p in outs[0].iterdir() if p.suffix == ".csv")
    assert csvs, "preset produced no CSV artifacts"
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in csvs
    )
    report(capsys, f"11 determinism [{preset}]", identical,
           f"{len(csvs)} CSVs byte-identical" if identical else "CSV mismatch")
    claimed, detail = preset_claim(preset, outs[0])
    report(capsys, f"11 claim [{preset}]", claimed, detail)
    assert identical
    assert claimed
