"""Tuning a network so one normal mode decouples from its bath.

Under a common or local bath, each mode couples with an effective weight
kappa built from its eigenvector (column sums of the mode matrix for a
common bath, one row for a local one).  Driving kappa of the slowest
mode to zero freezes that mode; every tool here is about finding and
exploiting such zeros.

Root finding on kappa(parameter) is complicated by eigenvalue sorting:
as the parameter moves, eigenvalue order can swap and eigenvector signs
flip, so kappa sampled naively is neither continuous nor signed.  The
scan and bisection below track mode identity by eigenvector overlap with
the previous sample and orient signs along the way, which restores a
continuous signed kappa that an ordinary bisection can handle.

Closed-form helpers cover the constructions that need no search: the
frozen-mode residual of a two-branch motif, the residuals that measure
how well a motif mode stays frozen once embedded in a larger network,
and the coupling balance that freezes the antisymmetric mode of an
attached identical pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DirectLinkForbidden,
    FrequencyMismatch,
    ModeTrackingLost,
    NoDominantMode,
    NonPositiveDefinite,
    NoZeroInBracket,
    PoleAtOmega,
)
from .network import NetworkSpec, build_network
from .spectral import (
    LOCAL,
    SEPARATE,
    BathConfig,
    FrozenModeReport,
    ModeDecomposition,
    diagonalize,
    effective_couplings,
    frozen_mode_report,
)

#: Relative tolerance used to spot eigenvalue poles in residual formulas.
POLE_RTOL = 1e-12

#: Smallest |overlap| for which mode tracking is still trusted.
OVERLAP_MIN = 0.5


def _check_bath_kind(bath: BathConfig) -> None:
    if bath.kind == SEPARATE:
        raise ValueError(
            "separate baths damp every mode identically; there is nothing to tune"
        )


def _with_param(net: NetworkSpec, param, value: float) -> NetworkSpec:
    kind = param[0]
    if kind == "omega":
        return net.with_omega(int(param[1]), float(value))
    if kind == "coupling":
        return net.with_coupling(int(param[1]), int(param[2]), float(value))
    raise ValueError(f"unknown parameter selector {param!r}")


def _raw_kappa(modes: np.ndarray, bath: BathConfig) -> np.ndarray:
    """Signed bath weight of each eigenvector column, convention-free."""
    if bath.kind == LOCAL:
        return modes[bath.node, :].copy()
    return modes.sum(axis=0)


# ---------------------------------------------------------------------------
# Scanning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanResult:
    """kappa of the least-coupled mode along a parameter grid."""

    param: tuple
    values: np.ndarray
    kappa_sigma: np.ndarray
    sigma_index: np.ndarray
    stable: np.ndarray
    swapped: np.ndarray

    def __post_init__(self):
        for name in ("values", "kappa_sigma", "sigma_index", "stable", "swapped"):
            arr = getattr(self, name)
            arr.flags.writeable = False


def parameter_scan(net: NetworkSpec, param, values, bath: BathConfig) -> ScanResult:
    """|kappa_sigma| over a parameter grid, marking swaps and unstable points.

    Grid points where the modified network loses positive definiteness
    are kept (stable=False, NaN kappa) rather than raised, so a scan can
    sweep straight through an instability window.
    """
    _check_bath_kind(bath)
    values = np.asarray(values, dtype=float)
    kappa = np.full(values.shape, np.nan)
    sigma = np.full(values.shape, -1, dtype=np.int64)
    stable = np.zeros(values.shape, dtype=bool)
    for k, val in enumerate(values):
        try:
            decomp = effective_couplings(diagonalize(_with_param(net, param, val)), bath)
        except NonPositiveDefinite:
            continue
        stable[k] = True
        sigma[k] = decomp.slowest
        kappa[k] = np.abs(decomp.eff_coupling[decomp.slowest])
    swapped = np.zeros(values.shape, dtype=bool)
    both = stable[1:] & stable[:-1]
    swapped[1:] = both & (sigma[1:] != sigma[:-1])
    return ScanResult(
        param=tuple(param),
        values=values.copy(),
        kappa_sigma=kappa,
        sigma_index=sigma,
        stable=stable,
        swapped=swapped,
    )


# ---------------------------------------------------------------------------
# Root finding with mode tracking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TuneResult:
    """A parameter value at which one tracked mode decouples."""

    param: tuple
    value: float
    residual: float
    mode_index: int
    mode_freq: float
    report: FrozenModeReport
    bracket: tuple[float, float]


def _tracked_march(net, param, grid, bath):
    """Signed kappa per mode lineage along the grid, orientation-continued,
    and the oriented modes (lineages as columns) at every grid value."""
    n = net.n
    kappas = np.empty((grid.shape[0], n))
    lineages = np.empty((grid.shape[0], n, n))
    for k, val in enumerate(grid):
        try:
            decomp = diagonalize(_with_param(net, param, val))
        except NonPositiveDefinite as exc:
            raise NoZeroInBracket(
                f"network unstable at {param} = {val:.6g}; shrink the bracket"
            ) from exc
        modes = decomp.modes
        if k > 0:
            overlap = lineages[k - 1].T @ modes
            order = np.full(n, -1, dtype=np.int64)
            taken = np.zeros(n, dtype=bool)
            # Greedy assignment, strongest overlaps first.
            flat = np.argsort(np.abs(overlap), axis=None)[::-1]
            assigned = 0
            for pos in flat:
                row, col = divmod(int(pos), n)
                if order[row] >= 0 or taken[col]:
                    continue
                order[row] = col
                taken[col] = True
                assigned += 1
                if assigned == n:
                    break
            signs = np.sign(overlap[np.arange(n), order])
            best = np.abs(overlap[np.arange(n), order])
            if np.min(best) < OVERLAP_MIN:
                raise ModeTrackingLost(
                    f"eigenvector overlap fell to {np.min(best):.3g} at {param} = {val:.6g}"
                )
            modes = modes[:, order] * signs[None, :]
        kappas[k] = _raw_kappa(modes, bath)
        lineages[k] = modes
    return kappas, lineages


def _bisect_tracked(net, param, lo, hi, vec_lo, k_lo, k_hi, bath, tol):
    sign_lo = np.sign(k_lo)
    best_val, best_res = (lo, abs(k_lo)) if abs(k_lo) < abs(k_hi) else (hi, abs(k_hi))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        decomp = diagonalize(_with_param(net, param, mid))
        overlap = decomp.modes.T @ vec_lo
        idx = int(np.argmax(np.abs(overlap)))
        if np.abs(overlap[idx]) < OVERLAP_MIN:
            raise ModeTrackingLost(
                f"eigenvector overlap fell to {np.abs(overlap[idx]):.3g} "
                f"during bisection at {param} = {mid:.6g}"
            )
        vec_mid = decomp.modes[:, idx] * np.sign(overlap[idx])
        k_mid = _raw_kappa(vec_mid[:, None], bath)[0]
        if abs(k_mid) < best_res:
            best_val, best_res = mid, abs(k_mid)
        if abs(k_mid) == 0.0:
            return mid
        if np.sign(k_mid) == sign_lo:
            lo, vec_lo = mid, vec_mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, abs(lo), abs(hi)):
            break
    if best_res > tol:
        raise ModeTrackingLost(
            f"bisection converged to |kappa| = {best_res:.3g} > tol {tol:.3g}; "
            "the tracked zero is not a smooth crossing"
        )
    return best_val


def find_sync_parameter(
    net: NetworkSpec,
    param,
    bracket,
    bath: BathConfig,
    tol: float = 1e-10,
    grid_points: int = 33,
) -> TuneResult:
    """Tune one scalar parameter until the tracked slow mode decouples.

    The bracket is first marched on a coarse grid with eigenvector
    continuation; the sign change with the smallest |kappa| is then
    bisected.  Raises NoZeroInBracket when no lineage changes sign.
    """
    _check_bath_kind(bath)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    grid = np.linspace(lo, hi, max(int(grid_points), 3))
    kappas, lineages = _tracked_march(net, param, grid, bath)

    crossings = []
    for m in range(net.n):
        track = kappas[:, m]
        flips = np.flatnonzero(np.sign(track[:-1]) * np.sign(track[1:]) < 0)
        for k in flips:
            crossings.append((min(abs(track[k]), abs(track[k + 1])), k, m))
        for k in np.flatnonzero(track == 0.0):
            crossings.append((0.0, max(int(k) - 1, 0), m))
    if not crossings:
        raise NoZeroInBracket(
            f"no tracked mode changes the sign of kappa over {param} in "
            f"[{lo:.6g}, {hi:.6g}]"
        )
    crossings.sort()
    _, seg, _ = crossings[0]

    # Bisect each crossing lineage found on [grid[seg], grid[seg+1]],
    # starting from its oriented mode at grid[seg].
    value = None
    for _, k, m in crossings:
        if k != seg:
            continue
        try:
            value = _bisect_tracked(
                net, param, grid[seg], grid[seg + 1],
                lineages[seg, :, m], kappas[seg, m], kappas[seg + 1, m],
                bath, tol,
            )
            break
        except ModeTrackingLost:
            continue
    if value is None:
        raise ModeTrackingLost(
            f"all sign changes of kappa over {param} lost mode identity during bisection"
        )

    tuned = _with_param(net, param, value)
    decomp = effective_couplings(diagonalize(tuned), bath)
    residual = float(np.abs(decomp.eff_coupling[decomp.slowest]))
    if residual > tol:
        raise ModeTrackingLost(
            f"tuned point has |kappa_sigma| = {residual:.3g} > tol {tol:.3g}"
        )
    report = frozen_mode_report(decomp, bath)
    return TuneResult(
        param=tuple(param),
        value=float(value),
        residual=residual,
        mode_index=int(decomp.slowest),
        mode_freq=float(decomp.freqs[decomp.slowest]),
        report=report,
        bracket=(lo, hi),
    )


# ---------------------------------------------------------------------------
# Synchronization-time estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyncTimeEstimate:
    """Per-node onset times for slow-mode dominance, from rate gaps.

    Node j locks once every faster mode has decayed below the slow mode's
    weight there: t_j = max_k 2 (ln|F_jk| - ln|F_j sigma|) / (G_k - G_sigma),
    clipped at zero.  Nodes the slow mode misses entirely never lock
    (infinite entry, flagged in ``unreachable``).
    """

    node_times: np.ndarray
    t_sync: float
    dominant_mode: np.ndarray
    unreachable: np.ndarray
    sigma: int


def estimate_sync_times(decomp: ModeDecomposition) -> SyncTimeEstimate:
    if decomp.damping is None:
        raise ValueError("decomposition carries no bath rates; run spectral.analyze first")
    gamma = decomp.damping
    order = np.argsort(gamma, kind="stable")
    sigma = int(order[0])
    n = decomp.n
    if n > 1:
        gap = gamma[order[1]] - gamma[sigma]
        scale = max(float(gamma.max()), 1e-300)
        if gap <= 1e-12 * scale:
            raise NoDominantMode(
                "the two slowest modes damp at indistinguishable rates"
            )

    f = decomp.modes
    fmax = np.max(np.abs(f))
    weight_sigma = np.abs(f[:, sigma])
    unreachable = weight_sigma <= 1e-12 * fmax

    node_times = np.full(n, np.inf)
    dominant = np.full(n, -1, dtype=np.int64)
    others = np.array([m for m in range(n) if m != sigma], dtype=np.int64)
    for j in range(n):
        if unreachable[j]:
            continue
        best_t = 0.0
        best_m = -1
        for m in others:
            w = np.abs(f[j, m])
            if w <= 0.0:
                continue
            t = 2.0 * (np.log(w) - np.log(weight_sigma[j])) / (gamma[m] - gamma[sigma])
            if best_m < 0 or t > best_t:
                best_t, best_m = t, int(m)
        node_times[j] = max(best_t, 0.0)
        dominant[j] = best_m
    finite = node_times[np.isfinite(node_times)]
    t_sync = float(finite.max()) if finite.size else np.inf
    return SyncTimeEstimate(
        node_times=node_times,
        t_sync=t_sync,
        dominant_mode=dominant,
        unreachable=unreachable,
        sigma=sigma,
    )


# ---------------------------------------------------------------------------
# Closed-form residuals and constructions
# ---------------------------------------------------------------------------

def motif_frozen_residual(
    omega_a: float,
    omega_b: float,
    lam_ac: float,
    lam_bc: float,
    mode_freq: float,
) -> float:
    """Residual of the frozen-mode condition for an a-c-b branch motif.

    Zero means the motif mode at ``mode_freq`` has equal and opposite
    branch amplitudes summing against the hub, i.e. vanishing common-bath
    weight: lam_ac / (W^2 - w_a^2) + lam_bc / (W^2 - w_b^2) + 1.
    """
    w2 = mode_freq**2
    for w in (omega_a, omega_b):
        if abs(w2 - w**2) < POLE_RTOL * max(w2, w**2):
            raise PoleAtOmega(
                f"mode frequency {mode_freq:.6g} sits on a branch pole at {w:.6g}"
            )
    return lam_ac / (w2 - omega_a**2) + lam_bc / (w2 - omega_b**2) + 1.0


def motif_hub_frequency(
    omega_a: float,
    omega_b: float,
    lam_ac: float,
    lam_bc: float,
    mode_freq: float,
) -> float:
    """Hub frequency that places a motif eigenmode exactly at ``mode_freq``.

    From the eigenvalue condition of the three-node motif:
    w_c^2 = W^2 - lam_ac^2 / (W^2 - w_a^2) - lam_bc^2 / (W^2 - w_b^2).
    """
    w2 = mode_freq**2
    for w in (omega_a, omega_b):
        if abs(w2 - w**2) < POLE_RTOL * max(w2, w**2):
            raise PoleAtOmega(
                f"mode frequency {mode_freq:.6g} sits on a branch pole at {w:.6g}"
            )
    wc2 = w2 - lam_ac**2 / (w2 - omega_a**2) - lam_bc**2 / (w2 - omega_b**2)
    if wc2 <= 0.0:
        raise PoleAtOmega(
            f"requested motif mode {mode_freq:.6g} needs an imaginary hub frequency"
        )
    return float(np.sqrt(wc2))


def embedding_residuals(
    net: NetworkSpec,
    a: int,
    b: int,
    c: int,
    mode_freq: float,
) -> tuple[np.ndarray, np.ndarray]:
    """How strongly each external node breaks a motif's frozen mode.

    The motif eigenvector has branch weights u_a/u_c = lam_ac/(W^2-w_a^2)
    (same for b); external node j couples to it with residual
    r_j = u_a lam_aj + u_b lam_bj + lam_cj (u_c = 1).  Returns the
    external node indices and their residuals.
    """
    w2 = mode_freq**2
    lam = net.coupling
    for idx in (a, b):
        if abs(w2 - net.omega[idx] ** 2) < POLE_RTOL * max(w2, net.omega[idx] ** 2):
            raise PoleAtOmega(
                f"mode frequency {mode_freq:.6g} sits on the pole of node {idx}"
            )
    u_a = lam[a, c] / (w2 - net.omega[a] ** 2)
    u_b = lam[b, c] / (w2 - net.omega[b] ** 2)
    external = np.array([j for j in range(net.n) if j not in (a, b, c)], dtype=np.int64)
    residuals = u_a * lam[a, external] + u_b * lam[b, external] + lam[c, external]
    return external, residuals


@dataclass(frozen=True)
class BalanceResult:
    """Outcome of symmetrizing the external couplings of an attached pair."""

    net: NetworkSpec
    external: np.ndarray
    residual_before: np.ndarray
    residual_after: np.ndarray


def balance_pair_couplings(net: NetworkSpec, a: int, b: int) -> BalanceResult:
    """Make the antisymmetric mode of an identical pair exactly frozen.

    Preconditions: nodes a and b have identical bare frequencies and no
    direct link.  The residual of the antisymmetric mode (q_a - q_b)/sqrt(2)
    against external node j is (lam_aj - lam_bj)/sqrt(2); the operation
    copies a's external couplings onto b, zeroing every residual.
    """
    if a == b:
        raise ValueError("pair needs two distinct nodes")
    if net.omega[a] != net.omega[b]:
        raise FrequencyMismatch(
            f"pair frequencies differ: {net.omega[a]!r} vs {net.omega[b]!r}"
        )
    if net.coupling[a, b] != 0.0:
        raise DirectLinkForbidden("pair nodes must not couple directly")
    external = np.array([j for j in range(net.n) if j not in (a, b)], dtype=np.int64)
    lam = net.coupling
    before = (lam[a, external] - lam[b, external]) / np.sqrt(2.0)
    new_coupling = lam.copy()
    new_coupling[b, external] = lam[a, external]
    new_coupling[external, b] = lam[a, external]
    adjusted = build_network(net.omega, new_coupling)
    after = (adjusted.coupling[a, external] - adjusted.coupling[b, external]) / np.sqrt(2.0)
    return BalanceResult(
        net=adjusted,
        external=external,
        residual_before=before,
        residual_after=after,
    )
