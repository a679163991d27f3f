"""Regenerate the computed parts of the packaged presets.

The preset configs (``*.ini``) are written by hand and are the only copy
of their text.  This script writes what has to be computed:

* the three network files, ``fig3_network.txt``, ``fig4_network.txt``
  and ``fig5_network.txt``;
* the ``list =`` line of ``fig3_sweep.ini``, the sweep values around the
  tuned node-6 frequency, rewritten in place.

It then asserts that each network carries the frozen mode its preset is
named for.  The dynamics behind the headline numbers are checked by
acceptance 06-09 in ``tests/test_acceptance.py``.

The random networks behind the shipped scenarios were selected by seed
search: the sampling distributions are fixed, but most draws either hide a
second weakly damped mode (which keeps pair correlations alive long past
the comparison horizon) or put the measured sync crossing far from the
log-contrast estimate.  The seeds pinned below are the survivors of that
search.  Rerunning this script rewrites the same networks, but not always
the same bytes: the tuned fig3 node-6 frequency and the sweep list around
it come from the scipy pencil eigensolver and can move by a few ulp (e.g.
1.230650018734386 shipped against 1.2306500187343867 regenerated), which
shows up in their 16th printed digit.
``tests/test_tuning.py::test_fig3_tune_writes_shipped_frequency`` holds a
fresh tuning to within 8 ulp of the shipped value.

Usage:
    python3 scripts/make_presets.py
"""

from __future__ import annotations

import os
import re

import numpy as np

import oscnet as on

PRESET_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src", "oscnet", "presets",
)

BATH = on.BathConfig(kind="common", gamma=0.01, temperature=10.0)

# --- ten-node sweep scenario -------------------------------------------------
# Seed 135 survived a 30k-seed scan: after tuning node 6 every other mode
# keeps |kappa| >= 0.34, so by t ~ 1000 the detuned variants have lost their
# pair correlations while the tuned one keeps the frozen-mode share.
FIG3_SEED = 135
FIG3_NODE = 6
FIG3_BRACKET = (0.80, 1.40)
FIG3_OFFSETS = (-0.07, -0.05, -0.03, -0.015, 0.0, 0.015, 0.03, 0.05, 0.07)

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
    return np.sqrt(w2 + 2.0 * LAM_AC), np.sqrt(w2 + 2.0 * LAM_BC)


def build_fig3():
    net = on.random_network(10, 0.6, 0.9, 1.2, -0.1, 0.05, FIG3_SEED)
    res = on.find_sync_parameter(net, ("omega", FIG3_NODE), FIG3_BRACKET, BATH)
    return net.with_omega(FIG3_NODE, res.value), res.value


def build_fig4():
    omega_a, omega_b = motif_constants()
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


def save(name: str, net: on.NetworkSpec) -> None:
    path = os.path.join(PRESET_DIR, name)
    on.save_network(net, path)
    print(f"wrote {path}")


def write_fig3_list(wbar: float) -> None:
    """Rewrite the ``list =`` line of fig3_sweep.ini around the tuned value."""
    path = os.path.join(PRESET_DIR, "fig3_sweep.ini")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    values = " ".join(repr(wbar * (1.0 + f)) for f in FIG3_OFFSETS)
    text, count = re.subn(r"^list = .*$", lambda _: f"list = {values}", text, flags=re.M)
    assert count == 1, f"{path} has {count} 'list =' lines"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"rewrote the sweep list of {path} around {wbar!r}")


def frozen(net: on.NetworkSpec):
    """The analyzed network and its frozen-mode report."""
    dec = on.analyze(net, BATH)
    return dec, on.frozen_mode_report(dec)


def main() -> None:
    fig3_net, wbar = build_fig3()
    save("fig3_network.txt", fig3_net)
    write_fig3_list(wbar)
    dec3, rep3 = frozen(fig3_net)
    assert len(rep3.frozen) == 1 and rep3.participation[:, rep3.frozen[0]].all(), rep3
    others = np.delete(np.abs(dec3.eff_coupling), rep3.frozen[0])
    print(f"fig3: node {FIG3_NODE} at {wbar!r}, min other |kappa| {others.min():.3f}")

    fig4_net = build_fig4()
    save("fig4_network.txt", fig4_net)
    dec4, rep4 = frozen(fig4_net)
    assert len(rep4.frozen) == 1, rep4
    sig4 = rep4.frozen[0]
    participants = rep4.participants(sig4)
    assert participants == tuple(sorted((MOTIF_A, MOTIF_B, MOTIF_C))), participants
    off_motif = np.delete(np.abs(dec4.modes[:, sig4]), [MOTIF_A, MOTIF_B, MOTIF_C]).max()
    print(f"fig4: frozen mode at {dec4.freqs[sig4]:.6f}, participants {participants}, "
          f"off-motif weight {off_motif:.1e}")

    fig5_net = build_fig5()
    save("fig5_network.txt", fig5_net)
    dec5, rep5 = frozen(fig5_net)
    assert len(rep5.frozen) == 1, rep5
    vec = dec5.modes[:, rep5.frozen[0]]
    print(f"fig5: frozen mode weights on pair ({vec[15]:+.4f}, {vec[16]:+.4f}), "
          f"elsewhere {np.abs(vec[:15]).max():.1e}")
    assert frozen(build_fig5(perturb=True))[1].frozen == (), "perturbed fig5 stays frozen"
    print("fig5 perturbed: no frozen mode, as intended")


if __name__ == "__main__":
    main()
