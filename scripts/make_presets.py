"""Regenerate the packaged preset configs and their frozen network files.

The random networks behind the shipped scenarios were selected by seed
search: the sampling distributions are fixed, but most draws either hide a
second weakly damped mode (which keeps pair correlations alive long past
the comparison horizon) or put the measured sync crossing far from the
log-contrast estimate.  The seeds pinned below are the survivors of that
search.  Rerunning this script rewrites the same seeds, networks and
settings, but not always the same bytes: the tuned fig3 node-6 frequency
and the sweep list around it come from the scipy pencil eigensolver and
can move by a few ulp (e.g. 1.230650018734386 shipped against
1.2306500187343867 regenerated), which shows up in their 16th printed
digit.  ``tests/test_tuning.py::test_fig3_tune_writes_shipped_frequency``
holds a fresh tuning to within 8 ulp of the shipped value.

Usage:
    python3 scripts/make_presets.py          # rewrite presets + fast checks
    python3 scripts/make_presets.py --check  # also rerun the slow dynamics
                                             # verifications (a few minutes)
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

import oscnet as on

PRESET_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src", "oscnet", "presets",
)

CB = dict(kind="common", gamma=0.01, temperature=10.0, cutoff=50.0)

# --- ten-node sweep scenario -------------------------------------------------
# Seed 135 survived a 30k-seed scan: after tuning node 6 every other mode
# keeps |kappa| >= 0.34, so by t ~ 1000 the detuned variants have lost their
# pair correlations while the tuned one keeps the frozen-mode share.
FIG3_SEED = 135
FIG3_NODE = 6
FIG3_BRACKET = (0.80, 1.40)

# --- fifteen-node motif scenario ---------------------------------------------
# Hub frequency and the two motif couplings as quoted for the figure; equal
# branch weights u_a = u_b = -1/2 then fix the motif frequencies exactly.
FIG4_SEED = 9
MOTIF_A, MOTIF_C, MOTIF_B = 0, 1, 2      # tuned motif, C is the hub
TWIN_D, TWIN_F, TWIN_E = 3, 4, 5         # untuned comparison motif, F is the hub
OMEGA_C = 1.51
LAM_AC = -0.09
LAM_BC = -0.11

# --- attached-pair scenario ----------------------------------------------------
FIG5_SEED = 1
PAIR_LINKS = {0: -0.15, 1: -0.12}


def motif_constants():
    """Frequencies that make the three-node motif carry an exact frozen mode."""
    w2 = OMEGA_C**2 - 0.5 * LAM_AC - 0.5 * LAM_BC
    omega_a = np.sqrt(w2 + 2.0 * LAM_AC)
    omega_b = np.sqrt(w2 + 2.0 * LAM_BC)
    return w2, omega_a, omega_b


def build_fig3():
    bath = on.BathConfig(**CB)
    net = on.random_network(10, 0.6, 0.9, 1.2, -0.1, 0.05, FIG3_SEED)
    res = on.find_sync_parameter(net, ("omega", FIG3_NODE), FIG3_BRACKET, bath)
    return net.with_omega(FIG3_NODE, res.value), res.value


def build_fig4():
    w2, omega_a, omega_b = motif_constants()
    base = on.random_network(15, 0.6, 1.0, 1.8, -0.1, 0.05, FIG4_SEED)
    om, lam = base.omega.copy(), base.coupling.copy()
    om[MOTIF_A], om[MOTIF_C], om[MOTIF_B] = omega_a, OMEGA_C, omega_b
    lam[MOTIF_A, MOTIF_C] = lam[MOTIF_C, MOTIF_A] = LAM_AC
    lam[MOTIF_B, MOTIF_C] = lam[MOTIF_C, MOTIF_B] = LAM_BC
    lam[MOTIF_A, MOTIF_B] = lam[MOTIF_B, MOTIF_A] = 0.0
    for j in range(15):
        if j not in (MOTIF_A, MOTIF_B, MOTIF_C):
            # zero embedding residual: hub link balances the two branches
            lam[MOTIF_C, j] = lam[j, MOTIF_C] = 0.5 * (lam[MOTIF_A, j] + lam[MOTIF_B, j])
    lam[TWIN_D, TWIN_F] = lam[TWIN_F, TWIN_D] = LAM_AC
    lam[TWIN_E, TWIN_F] = lam[TWIN_F, TWIN_E] = LAM_BC
    lam[TWIN_D, TWIN_E] = lam[TWIN_E, TWIN_D] = 0.0
    return on.build_network(om, lam)


def build_fig5(perturb: bool = False):
    base = on.random_network(15, 0.6, 1.0, 1.8, -0.1, 0.05, FIG5_SEED)
    links_a = dict(PAIR_LINKS)
    if perturb:
        links_a = {j: w + 0.04 for j, w in links_a.items()}
    return on.attach_pair(base, 1.0, 1.0, links_a, dict(PAIR_LINKS))


FIG2_INI = """\
# Three-oscillator open chain relaxing into {article} {label} thermal bath.
# The displaced end nodes start in counterphase; with a shared bath the two
# fast collective modes die out and every node locks onto the long-lived
# slow mode, while independent baths damp all modes at the same rate and
# the chain decoheres without ever synchronizing.

[network]
source = inline
omega = 1.2 1.0 1.8
edges =
    0 1 0.4
    1 2 0.4

[bath]
kind = {kind}
gamma = 0.07
temperature = 10.0
cutoff = 50.0

[initial]
mean_q = -1.0 0.0 1.0

[time]
t_end = 160.0
step = 0.05
method = exact

[analysis]
window = 8.0

[output]
directory = {kind_short}_chain_out
"""

FIG3_INI = """\
# Frequency sweep around the collective sync point of a ten-node random
# network with a shared bath.  Node {node} is swept through {wbar:.6f}, where
# one normal mode decouples from the bath; the map shows pair discord
# surviving only in a narrow ridge around that value.

[network]
source = file
path = fig3_network.txt

[bath]
kind = common
gamma = 0.01
temperature = 10.0
cutoff = 50.0

[initial]
mean_q = 2.0 -2.0 2.0 -2.0 2.0 -2.0 2.0 -2.0 2.0 -2.0

[time]
t_end = 1000.0
step = 0.5
method = exact

[analysis]
window = 50.0
stride = 4

[sweep]
parameter = omega {node}
list = {values}

[output]
directory = sweep_out
"""

FIG4_INI = """\
# Fifteen-node random network carrying two linear three-node motifs with
# identical link weights.  The first motif (nodes 0-1-2, hub 1) has its
# frequencies tuned so an exact frozen mode lives on it; the twin motif
# (nodes 3-4-5, hub 4) keeps sampled frequencies and thermalizes.  The
# aggregate S column tracks only the tuned motif.

[network]
source = file
path = fig4_network.txt

[bath]
kind = common
gamma = 0.01
temperature = 10.0
cutoff = 50.0

[initial]
mean_q = 2.0 -2.0 2.0 -2.0 2.0 -2.0 2.0 -2.0 2.0 -2.0 2.0 -2.0 2.0 -2.0 2.0

[time]
t_end = 2000.0
step = 0.5
method = exact

[analysis]
window = 30.0
stride = 2
pairs = 0 1; 0 2; 1 2; 3 4; 3 5; 4 5
sync_subset = 0 1 2

[output]
directory = motif_out
"""

FIG5_INI = """\
# Two identical oscillators (nodes 15 and 16) attached to a fifteen-node
# random network through matched couplings, starting in a separable
# locally squeezed state.  The balanced attachment freezes their
# antisymmetric mode, so entanglement builds up and survives; node pair
# (3, 7) is logged as an uncorrelated reference.

[network]
source = file
path = fig5_network.txt

[bath]
kind = common
gamma = 0.01
temperature = 10.0
cutoff = 50.0

[initial]
squeeze_r = 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 2.0 2.0

[time]
t_end = 10000.0
step = 2.0
method = exact

[analysis]
window = 40.0
pairs = 15 16; 3 7

[output]
directory = pair_out
"""


def write(name: str, text: str) -> None:
    path = os.path.join(PRESET_DIR, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {path}")


def emit() -> dict:
    os.makedirs(PRESET_DIR, exist_ok=True)
    bath = on.BathConfig(**CB)

    write("fig2_sb.ini", FIG2_INI.format(article="a", label="separate",
                                         kind="separate", kind_short="sb"))
    write("fig2_cb.ini", FIG2_INI.format(article="a", label="common",
                                         kind="common", kind_short="cb"))

    fig3_net, wbar = build_fig3()
    on.save_network(fig3_net, os.path.join(PRESET_DIR, "fig3_network.txt"))
    print(f"wrote {PRESET_DIR}/fig3_network.txt (node {FIG3_NODE} at {wbar!r})")
    offsets = (-0.07, -0.05, -0.03, -0.015, 0.0, 0.015, 0.03, 0.05, 0.07)
    values = " ".join(repr(wbar * (1.0 + f)) for f in offsets)
    write("fig3_sweep.ini", FIG3_INI.format(node=FIG3_NODE, wbar=wbar, values=values))

    fig4_net = build_fig4()
    on.save_network(fig4_net, os.path.join(PRESET_DIR, "fig4_network.txt"))
    print(f"wrote {PRESET_DIR}/fig4_network.txt")
    write("fig4_motif.ini", FIG4_INI)

    fig5_net = build_fig5()
    on.save_network(fig5_net, os.path.join(PRESET_DIR, "fig5_network.txt"))
    print(f"wrote {PRESET_DIR}/fig5_network.txt")
    write("fig5_entangle.ini", FIG5_INI)

    # fast structural verification
    dec3 = on.analyze(fig3_net, bath)
    rep3 = on.frozen_mode_report(dec3)
    assert len(rep3.frozen) == 1 and rep3.participation[:, rep3.frozen[0]].all(), rep3
    others = np.delete(np.abs(dec3.eff_coupling), rep3.frozen[0])
    print(f"fig3: kappa_sigma={dec3.eff_coupling[rep3.frozen[0]]:.2e}, "
          f"min other |kappa|={others.min():.3f}, "
          f"t_sync={on.estimate_sync_times(dec3).t_sync:.0f}")

    dec4 = on.analyze(fig4_net, bath)
    rep4 = on.frozen_mode_report(dec4)
    assert len(rep4.frozen) == 1, rep4
    sig4 = rep4.frozen[0]
    participants = rep4.participants(sig4)
    assert participants == tuple(sorted((MOTIF_A, MOTIF_B, MOTIF_C))), participants
    off_motif = np.delete(np.abs(dec4.modes[:, sig4]),
                          [MOTIF_A, MOTIF_B, MOTIF_C]).max()
    print(f"fig4: frozen mode at {dec4.freqs[sig4]:.6f}, "
          f"|kappa|={abs(dec4.eff_coupling[sig4]):.1e}, participants {participants}, "
          f"off-motif weight {off_motif:.1e}")

    dec5 = on.analyze(fig5_net, bath)
    rep5 = on.frozen_mode_report(dec5)
    assert len(rep5.frozen) == 1, rep5
    vec = dec5.modes[:, rep5.frozen[0]]
    print(f"fig5: frozen mode weights on pair ({vec[15]:+.4f}, {vec[16]:+.4f}), "
          f"elsewhere {np.abs(vec[:15]).max():.1e}")
    decp = on.analyze(build_fig5(perturb=True), bath)
    repp = on.frozen_mode_report(decp)
    assert repp.frozen == (), repp
    print("fig5 perturbed: no frozen mode, as intended")

    return {"fig3": (fig3_net, wbar), "fig4": fig4_net, "fig5": fig5_net}


def check(built: dict) -> None:
    """Slow dynamics verification of the headline behaviors."""
    bath = on.BathConfig(**CB)
    fig3_net, wbar = built["fig3"]

    pat = np.where(np.arange(10) % 2 == 0, 2.0, -2.0)
    dec = on.analyze(fig3_net, bath)
    est = on.estimate_sync_times(dec)
    traj = on.evolve(on.initial_state(fig3_net, mean_q=pat), dec,
                     np.linspace(0.0, 12000.0, 24001), method="exact")
    sync = on.collective_sync(traj, window=10.0)
    above = np.flatnonzero(sync.values > 0.9)
    t_first = sync.times[above[0]] + 5.0 if above.size else np.inf
    print(f"fig3 check: measured crossing {t_first:.0f} vs estimate "
          f"{est.t_sync:.0f} (ratio {t_first / est.t_sync:.2f})")

    def discord_at_1000(network):
        d = on.analyze(network, bath)
        tr = on.evolve(on.initial_state(network, mean_q=pat), d,
                       np.array([0.0, 1000.0]), method="exact")
        return float(np.nanmean(on.pair_measure_series(tr, measure="discord").values[1]))

    d_tuned = discord_at_1000(fig3_net)
    d_lo = discord_at_1000(fig3_net.with_omega(FIG3_NODE, wbar * 0.95))
    d_hi = discord_at_1000(fig3_net.with_omega(FIG3_NODE, wbar * 1.05))
    print(f"fig3 check: discord {d_tuned:.3e} vs detuned {d_lo:.3e}/{d_hi:.3e} "
          f"(ratios {d_tuned / d_lo:.1f}, {d_tuned / d_hi:.1f})")

    fig4_net = built["fig4"]
    dec4 = on.analyze(fig4_net, bath)
    pat15 = np.where(np.arange(15) % 2 == 0, 2.0, -2.0)
    coarse = on.evolve(on.initial_state(fig4_net, mean_q=pat15), dec4,
                       np.array([0.0, 20000.0]), method="exact")
    late = on.evolve(coarse.state(-1), dec4,
                     np.linspace(20000.0, 20300.0, 6001), method="exact")
    s_c1 = on.collective_sync(late, window=10.0, subset=(MOTIF_A, MOTIF_C, MOTIF_B))
    ser = on.pair_measure_series(
        late, measure="discord",
        pairs=[(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    d1 = float(np.nanmean(ser.values[:, :3]))
    d2 = float(np.nanmean(ser.values[:, 3:]))
    print(f"fig4 check: min S_C1 {s_c1.values.min():.4f}, motif discord ratio "
          f"{d1 / d2:.0f}")

    fig5_net = built["fig5"]
    dec5 = on.analyze(fig5_net, bath)
    r = np.zeros(17)
    r[15] = r[16] = 2.0
    coarse = on.evolve(on.initial_state(fig5_net, squeeze_r=r), dec5,
                       np.linspace(0.0, 8000.0, 801), method="exact")
    fine = on.evolve(coarse.state(-1), dec5,
                     np.linspace(8000.0, 10000.0, 8001), method="exact")
    series = on.pair_measure_series(fine, measure="log_negativity",
                                    pairs=[(15, 16), (3, 7)])
    wmeans = series.values[:8000, 0].reshape(-1, 100).mean(axis=1)
    print(f"fig5 check: plateau windows [{wmeans.min():.4f}, {wmeans.max():.4f}], "
          f"reference pair max {series.values[:, 1].max():.1e}")
    decp = on.analyze(build_fig5(perturb=True), bath)
    trp = on.evolve(on.initial_state(build_fig5(perturb=True), squeeze_r=r), decp,
                    np.linspace(0.0, 10000.0, 2001), method="exact")
    serp = on.pair_measure_series(trp, measure="log_negativity", pairs=[(15, 16)])
    print(f"fig5 check: perturbed max E_N {serp.values[:, 0].max():.1e}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="rerun the slow dynamics verifications")
    args = parser.parse_args(argv)
    built = emit()
    if args.check:
        check(built)
    return 0


if __name__ == "__main__":
    sys.exit(main())
