"""Tuning a network so one normal mode decouples from its bath.

Under a common or local bath, each mode couples with an effective weight
kappa built from its eigenvector (column sums of the mode matrix for a
common bath, one row for a local one).  A mode with kappa = 0 is frozen:
it never damps.

Tuning node d's frequency adds x e_d e_d^T to the Hamiltonian matrix H0.
A mode v at mu = Omega^2 is then frozen when b^T v = 0 (b = 1 for a
common bath, e_node for a local one), so every frozen point is a finite
real eigenpair of the bordered pencil

    [[H0, e_d], [b^T, 0]] (v; y) = mu diag(I, 0) (v; y),   x = y / v_d,

the rank-one secular equation of Golub (SIAM Rev. 15, 318, 1973).  An
eigenpair with v_d = y = 0 is a mode of H0 that node d does not touch:
it is frozen at any omega_d and is reported, never returned as a tuning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    LocalBathNodeOutOfRange,
    NoDominantMode,
    NonPositiveDefinite,
    NoZeroInBracket,
)
from .network import NetworkSpec, hamiltonian_matrix
from .spectral import (
    LOCAL,
    SEPARATE,
    BathConfig,
    FrozenModeReport,
    ModeDecomposition,
    _slowest_order,
    diagonalize,
    effective_couplings,
    frozen_mode_report,
)

#: Relative roundoff scale of the pencil: imaginary parts and eigenvector
#: entries below it (against |mu| and the largest |v|) count as zero.
#: :func:`parameter_scan` reads mode-matrix entries on the same scale.
_PENCIL_RTOL = 1e-8


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


# ---------------------------------------------------------------------------
# Scanning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanResult:
    """|kappa| of the least-coupled mode the parameter can move, along a grid.

    A mode in which every swept node has a zero amplitude stays an
    eigenvector at every value, so its kappa never moves; ``sigma_index``
    ranges over the other modes only.
    """

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

    sigma is the least-coupled mode among those in which a swept node
    (``omega d``: d; ``coupling i j``: i or j) has an amplitude above
    _PENCIL_RTOL of the largest mode-matrix entry.

    Grid points where the modified network loses positive definiteness
    are kept (stable=False, NaN kappa) rather than raised, so a scan can
    sweep straight through an instability window.
    """
    _check_bath_kind(bath)
    nodes = list(param[1:])
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
        amp = np.abs(decomp.modes)
        movable = np.flatnonzero(amp[nodes].max(axis=0) > _PENCIL_RTOL * amp.max())
        sigma[k] = movable[np.argmin(np.abs(decomp.eff_coupling[movable]))]
        kappa[k] = np.abs(decomp.eff_coupling[sigma[k]])
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
# Closed-form frequency tuning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TuneResult:
    """Frozen points of one node frequency inside a bracket.

    ``roots`` lists the verified ones, ascending; ``value`` is the largest,
    and ``residual``, ``mode_index`` and ``mode_freq`` describe the mode it
    freezes.  ``always_frozen`` holds the Omega of the modes frozen at any
    value of that frequency.
    """

    param: tuple
    value: float
    residual: float
    mode_index: int
    mode_freq: float
    report: FrozenModeReport
    roots: tuple[float, ...]
    always_frozen: tuple[float, ...]


def _pencil_roots(net: NetworkSpec, d: int, bath: BathConfig):
    """Candidate tunings of node d from the bordered pencil.

    Returns the (omega_d, mu) of each tuning that freezes a mode at
    Omega^2 = mu, and the mu of each mode frozen at any omega_d.
    """
    import scipy.linalg  # only tuning needs the generalized eigensolver

    n = net.n
    h0 = hamiltonian_matrix(net)
    a = np.zeros((n + 1, n + 1))
    a[:n, :n] = h0
    a[d, n] = 1.0
    if bath.kind == LOCAL:
        if not 0 <= bath.node < n:
            raise LocalBathNodeOutOfRange(f"node {bath.node} outside 0..{n - 1}")
        a[n, bath.node] = 1.0
    else:
        a[n, :n] = 1.0
    mus, vecs = scipy.linalg.eig(a, np.diag(np.append(np.ones(n), 0.0)))
    roots, always = [], []
    for mu, vec in zip(mus, vecs.T):
        if not np.isfinite(mu) or abs(mu.imag) > _PENCIL_RTOL * abs(mu):
            continue
        v, y = vec[:n], vec[n]
        zero = _PENCIL_RTOL * np.max(np.abs(v))
        if abs(v[d]) > zero:
            omega2 = net.omega[d] ** 2 + (y / v[d]).real
            if omega2 > 0.0:
                roots.append((float(np.sqrt(omega2)), mu.real))
        elif abs(y) <= zero * np.max(np.abs(h0)):
            always.append(mu.real)  # y != 0 would freeze only as omega_d -> inf
    return roots, always


def find_sync_parameter(
    net: NetworkSpec,
    param,
    bracket,
    bath: BathConfig,
    tol: float = 1e-10,
) -> TuneResult:
    """Tune node d's frequency, ``param = ("omega", d)``, until a mode freezes.

    Candidates come from the bordered pencil (module docstring).  One is
    a root when it lies in the bracket, the tuned network is positive
    definite, and a fresh decomposition gives its mode at Omega^2 = mu a
    |kappa| of at most ``tol``.  The largest root is the tuning.

    Raises ValueError for any selector other than omega (a coupling is a
    rank-two, indefinite update) and NoZeroInBracket when no root is left.
    """
    _check_bath_kind(bath)
    if param[0] != "omega" or len(param) != 2:
        raise ValueError(f"only a node frequency ('omega', d) can be tuned, got {param!r}")
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    d = int(param[1])
    if not 0 <= d < net.n:
        raise ValueError(f"node {d} outside 0..{net.n - 1}")

    candidates, always = _pencil_roots(net, d, bath)
    found = []
    for value, mu in sorted(candidates):
        if not lo <= value <= hi:
            continue
        try:
            decomp = effective_couplings(diagonalize(net.with_omega(d, value)), bath)
        except NonPositiveDefinite:
            continue
        mode = int(np.argmin(np.abs(decomp.freqs**2 - mu)))
        residual = float(np.abs(decomp.eff_coupling[mode]))
        if residual <= tol:
            found.append((value, mode, residual, decomp))
    if not found:
        raise NoZeroInBracket(
            f"no frozen root of omega {d} with |kappa| <= {tol:.3g} in [{lo:.6g}, {hi:.6g}]"
        )
    value, mode, residual, decomp = found[-1]
    return TuneResult(
        param=("omega", d),
        value=value,
        residual=residual,
        mode_index=mode,
        mode_freq=float(decomp.freqs[mode]),
        report=frozen_mode_report(decomp, bath),
        roots=tuple(root[0] for root in found),
        always_frozen=tuple(sorted(float(np.sqrt(mu)) for mu in always)),
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
    (infinite entry).
    """

    node_times: np.ndarray
    t_sync: float
    sigma: int


def estimate_sync_times(decomp: ModeDecomposition) -> SyncTimeEstimate:
    if decomp.damping is None:
        raise ValueError("decomposition carries no bath rates; run spectral.analyze first")
    gamma = decomp.damping
    order = _slowest_order(decomp)
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
    others = np.array([m for m in range(n) if m != sigma], dtype=np.int64)
    for j in range(n):
        if unreachable[j]:
            continue
        t_j = 0.0
        for m in others:
            w = np.abs(f[j, m])
            if w > 0.0:
                t = 2.0 * (np.log(w) - np.log(weight_sigma[j])) / (gamma[m] - gamma[sigma])
                t_j = max(t_j, t)
        node_times[j] = t_j
    finite = node_times[np.isfinite(node_times)]
    t_sync = float(finite.max()) if finite.size else np.inf
    return SyncTimeEstimate(node_times=node_times, t_sync=t_sync, sigma=sigma)
