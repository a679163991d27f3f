"""Gaussian-state propagation for damped oscillator networks.

States are Gaussian and stay Gaussian: everything is first moments
``mean = (q_1..q_n, p_1..p_n)`` plus the symmetric covariance of the same
2n quadratures, with vacuum variance 1/2 (hbar = 1, k_B = 1).

:func:`evolve` works in the normal-mode basis, where the dynamics
decouples into independently damped modes: means drift with
``[[-G/2, 1], [-W^2, -G/2]]`` per mode and covariance blocks obey a
Lyapunov equation with diagonal diffusion.  The system is linear and
time-invariant, so it is solved in closed form: a damped-rotation
propagator plus the relaxation towards the stationary covariance,
evaluated directly at every stored time.  There is no step and no
accumulated stepping error, and the stored times need not be uniform.

:func:`evolve_node_reference` propagates the same physics straight in
the node basis as one dense 2n-dimensional system, advancing each stored
interval with a block matrix exponential.  It shares no code with the
mode-basis path, which makes it the cross-check for :func:`evolve`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import measures
from .errors import (
    DimensionMismatch,
    IntegratorStepFailure,
    PhysicalityViolation,
    UnphysicalSpec,
)
from .network import NetworkSpec, hamiltonian_matrix
from .spectral import BathConfig, ModeDecomposition

NODE = "node"
MODE = "mode"

#: Tolerance on the minimum symplectic eigenvalue (>= 1/2 - this).
PHYSICALITY_TOL = 1e-8


@dataclass(frozen=True)
class GaussianState:
    """First and second moments of n oscillators in a fixed basis.

    mean has shape (2n,) ordered (q_1..q_n, p_1..p_n); cov is the
    symmetric (2n, 2n) covariance of the same quadrature vector.
    """

    mean: np.ndarray
    cov: np.ndarray
    basis: str = NODE

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or mean.shape[0] % 2 != 0:
            raise DimensionMismatch("mean must be a flat (2n,) array")
        if cov.shape != (mean.shape[0], mean.shape[0]):
            raise DimensionMismatch(
                f"covariance shape {cov.shape} does not match mean of length {mean.shape[0]}"
            )
        if self.basis not in (NODE, MODE):
            raise ValueError(f"unknown basis {self.basis!r}")
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n(self) -> int:
        return self.mean.shape[0] // 2

    @property
    def mean_q(self) -> np.ndarray:
        return self.mean[: self.n]

    @property
    def mean_p(self) -> np.ndarray:
        return self.mean[self.n :]


def validate_state(state: GaussianState, tol: float = PHYSICALITY_TOL) -> None:
    """Raise PhysicalityViolation unless cov is symmetric and physical."""
    if not np.allclose(state.cov, state.cov.T, rtol=0.0, atol=1e-10):
        raise PhysicalityViolation("covariance is not symmetric")
    nu_min = measures.symplectic_spectrum(state.cov)[0]
    if nu_min < 0.5 - tol:
        raise PhysicalityViolation(
            f"minimum symplectic eigenvalue {nu_min:.6g} is below vacuum 1/2"
        )


def initial_state(
    net: NetworkSpec,
    mean_q=0.0,
    mean_p=0.0,
    squeeze_r=0.0,
    squeeze_angle=0.0,
    thermal_n=0.0,
) -> GaussianState:
    """Product of displaced, squeezed, thermal single-node states.

    Every argument broadcasts to one value per node.  A node's 2x2
    covariance is (n_th + 1/2) R(angle) diag(exp(-2r), exp(2r)) R(angle)^T
    in its own (q, p) plane; nodes are uncorrelated.
    """
    n = net.n
    mq = np.broadcast_to(np.asarray(mean_q, dtype=float), (n,))
    mp = np.broadcast_to(np.asarray(mean_p, dtype=float), (n,))
    r = np.broadcast_to(np.asarray(squeeze_r, dtype=float), (n,))
    angle = np.broadcast_to(np.asarray(squeeze_angle, dtype=float), (n,))
    nth = np.broadcast_to(np.asarray(thermal_n, dtype=float), (n,))
    if np.any(nth < 0.0):
        raise UnphysicalSpec("thermal occupation must be non-negative")

    cov = np.zeros((2 * n, 2 * n))
    cos = np.cos(angle)
    sin = np.sin(angle)
    lo = np.exp(-2.0 * r)
    hi = np.exp(2.0 * r)
    scale = nth + 0.5
    # R diag(lo, hi) R^T per node, scattered into the (q_j, p_j) rows/cols.
    cov[np.arange(n), np.arange(n)] = scale * (lo * cos**2 + hi * sin**2)
    cov[n + np.arange(n), n + np.arange(n)] = scale * (lo * sin**2 + hi * cos**2)
    off = scale * (lo - hi) * cos * sin
    cov[np.arange(n), n + np.arange(n)] = off
    cov[n + np.arange(n), np.arange(n)] = off
    return GaussianState(np.concatenate([mq, mp]), cov, basis=NODE)


def change_basis(state: GaussianState, decomp: ModeDecomposition, target: str) -> GaussianState:
    """Rotate a state between the node and normal-mode bases."""
    if target not in (NODE, MODE):
        raise ValueError(f"unknown basis {target!r}")
    if state.basis == target:
        raise ValueError(f"state is already in the {target!r} basis")
    if state.n != decomp.n:
        raise DimensionMismatch(
            f"state has {state.n} oscillators, decomposition has {decomp.n}"
        )
    f = decomp.modes
    u = scipy.linalg.block_diag(f, f)
    if target == MODE:
        u = u.T
    mean = u @ state.mean
    cov = u @ state.cov @ u.T
    cov = 0.5 * (cov + cov.T)
    return GaussianState(mean, cov, basis=target)


@dataclass(frozen=True)
class Trajectory:
    """Stored moments along a simulation, in the node basis.

    times: (T,); means: (T, 2n); covs: (T, 2n, 2n); energy: (T,).
    """

    times: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    energy: np.ndarray

    @property
    def n(self) -> int:
        return self.means.shape[1] // 2

    def state(self, index: int) -> GaussianState:
        return GaussianState(self.means[index], self.covs[index], basis=NODE)

    @property
    def mean_q(self) -> np.ndarray:
        return self.means[:, : self.n]

    @property
    def mean_p(self) -> np.ndarray:
        return self.means[:, self.n :]

    @property
    def var_q(self) -> np.ndarray:
        idx = np.arange(self.n)
        return self.covs[:, idx, idx]

    @property
    def var_p(self) -> np.ndarray:
        idx = self.n + np.arange(self.n)
        return self.covs[:, idx, idx]

    @property
    def cov_qp(self) -> np.ndarray:
        idx = np.arange(self.n)
        return self.covs[:, idx, self.n + idx]

    @property
    def second_moment_q(self) -> np.ndarray:
        """Per-node <q^2> = var + mean^2, the default synchronization signal."""
        return self.var_q + self.mean_q**2


def _require_rates(decomp: ModeDecomposition) -> None:
    if decomp.damping is None or decomp.diffusion is None:
        raise ValueError("decomposition carries no bath rates; run spectral.analyze first")


def _blocks_from_cov(cov: np.ndarray, n: int) -> np.ndarray:
    """(2n, 2n) covariance -> (n, n, 2, 2) per-mode-pair blocks."""
    blocks = np.empty((n, n, 2, 2))
    blocks[:, :, 0, 0] = cov[:n, :n]
    blocks[:, :, 0, 1] = cov[:n, n:]
    blocks[:, :, 1, 0] = cov[n:, :n]
    blocks[:, :, 1, 1] = cov[n:, n:]
    return blocks


def _cov_from_blocks(blocks: np.ndarray) -> np.ndarray:
    n = blocks.shape[0]
    cov = np.empty((2 * n, 2 * n))
    cov[:n, :n] = blocks[:, :, 0, 0]
    cov[:n, n:] = blocks[:, :, 0, 1]
    cov[n:, :n] = blocks[:, :, 1, 0]
    cov[n:, n:] = blocks[:, :, 1, 1]
    return cov


def _mode_propagators(freqs, damping, times):
    """Damped rotation E(t) per mode, shape (T, n, 2, 2)."""
    wt = times[:, None] * freqs[None, :]
    decay = np.exp(-0.5 * times[:, None] * damping[None, :])
    cos = np.cos(wt) * decay
    sin = np.sin(wt) * decay
    e = np.empty(times.shape + freqs.shape + (2, 2))
    e[..., 0, 0] = cos
    e[..., 0, 1] = sin / freqs[None, :]
    e[..., 1, 0] = -freqs[None, :] * sin
    e[..., 1, 1] = cos
    return e


def _stationary_blocks(freqs, damping, diffusion):
    """Per-mode stationary covariance diag(D/(2 G W^2), D/(2 G)); zeros for frozen modes."""
    n = freqs.shape[0]
    out = np.zeros((n, 2, 2))
    live = damping > 0.0
    out[live, 0, 0] = diffusion[live] / (2.0 * damping[live] * freqs[live] ** 2)
    out[live, 1, 1] = diffusion[live] / (2.0 * damping[live])
    return out


def _evolve_exact(mq0, mp0, blocks0, decomp, times):
    rel = times - times[0]
    e = _mode_propagators(decomp.freqs, decomp.damping, rel)
    means0 = np.stack([mq0, mp0], axis=-1)
    means = np.einsum("tmij,mj->tmi", e, means0)
    covs = np.einsum("tmij,mnjk,tnlk->tmnil", e, blocks0, e)
    # The stationary covariance is invariant under the rotational part of
    # E(t), so the driven term collapses to sigma_inf (1 - e^{-G t}); with
    # D = G W coth(W/2T) the prefactors below stay finite as G -> 0.
    g = decomp.damping[None, :]
    gt = g * rel[:, None]
    g_safe = np.where(g > 0.0, g, 1.0)
    phi = np.where(g > 0.0, -np.expm1(-gt) / (2.0 * g_safe), 0.5 * rel[:, None])
    idx = np.arange(decomp.n)
    covs[:, idx, idx, 0, 0] += (decomp.diffusion / decomp.freqs**2)[None, :] * phi
    covs[:, idx, idx, 1, 1] += decomp.diffusion[None, :] * phi
    return means[:, :, 0], means[:, :, 1], covs


def evolve(
    state: GaussianState,
    decomp: ModeDecomposition,
    times,
    method: str = "exact",
    check_physical: bool = True,
) -> Trajectory:
    """Propagate a state over the stored time grid, reported in the node basis.

    times must be strictly increasing and start at the state's own epoch
    (stored verbatim in the trajectory); their spacing is free.  Every
    stored time is evaluated in closed form from the initial state, so
    ``method`` accepts only ``"exact"``.  With ``check_physical`` the
    whole trajectory must keep its symplectic eigenvalues at or above
    vacuum, else PhysicalityViolation.
    """
    if method != "exact":
        raise ValueError(f"unknown method {method!r}; only 'exact' is available")
    _require_rates(decomp)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.shape[0] < 2:
        raise ValueError("need at least two stored times")
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be strictly increasing")
    if state.n != decomp.n:
        raise DimensionMismatch(
            f"state has {state.n} oscillators, decomposition has {decomp.n}"
        )

    mode_state = state if state.basis == MODE else change_basis(state, decomp, MODE)
    n = decomp.n
    mq0 = mode_state.mean[:n].copy()
    mp0 = mode_state.mean[n:].copy()
    blocks0 = _blocks_from_cov(mode_state.cov, n)

    mqs, mps, covblocks = _evolve_exact(mq0, mp0, blocks0, decomp, times)
    if not (np.all(np.isfinite(mqs)) and np.all(np.isfinite(covblocks))):
        raise IntegratorStepFailure("non-finite moments produced during integration")

    # Energy is basis-independent; in the mode basis it is a plain sum.
    w2 = decomp.freqs**2
    idx = np.arange(n)
    var_q = covblocks[:, idx, idx, 0, 0]
    var_p = covblocks[:, idx, idx, 1, 1]
    energy = 0.5 * ((var_p + mps**2).sum(axis=1) + (w2 * (var_q + mqs**2)).sum(axis=1))

    # Back to the node basis: congruence with U = blockdiag(F, F).
    f = decomp.modes
    means_node = np.concatenate(
        [np.einsum("jm,tm->tj", f, mqs), np.einsum("jm,tm->tj", f, mps)], axis=1
    )
    covs_node = np.empty((times.shape[0], 2 * n, 2 * n))
    covs_node[:, :n, :n] = np.einsum("im,tmn,jn->tij", f, covblocks[:, :, :, 0, 0], f)
    covs_node[:, :n, n:] = np.einsum("im,tmn,jn->tij", f, covblocks[:, :, :, 0, 1], f)
    covs_node[:, n:, :n] = np.einsum("im,tmn,jn->tij", f, covblocks[:, :, :, 1, 0], f)
    covs_node[:, n:, n:] = np.einsum("im,tmn,jn->tij", f, covblocks[:, :, :, 1, 1], f)
    covs_node = 0.5 * (covs_node + np.transpose(covs_node, (0, 2, 1)))

    if check_physical:
        nu_min = measures.symplectic_spectrum(covs_node)[..., 0].min()
        if nu_min < 0.5 - PHYSICALITY_TOL:
            raise PhysicalityViolation(
                f"trajectory dips to symplectic eigenvalue {nu_min:.6g} (< 1/2)"
            )

    return Trajectory(times=times.copy(), means=means_node, covs=covs_node, energy=energy)


@dataclass(frozen=True)
class SteadyState:
    """Asymptotic state of the damped subspace plus the modes that never relax."""

    state: GaussianState
    frozen_modes: tuple[int, ...]


def steady_state(decomp: ModeDecomposition, basis: str = NODE) -> SteadyState:
    """Stationary Gaussian state; frozen modes are reported and left at vacuum."""
    _require_rates(decomp)
    n = decomp.n
    frozen = tuple(int(m) for m in np.flatnonzero(decomp.damping == 0.0))
    sinf = _stationary_blocks(decomp.freqs, decomp.damping, decomp.diffusion)
    blocks = np.zeros((n, n, 2, 2))
    idx = np.arange(n)
    blocks[idx, idx] = sinf
    for m in frozen:
        blocks[m, m, 0, 0] = 0.5 / decomp.freqs[m]
        blocks[m, m, 1, 1] = 0.5 * decomp.freqs[m]
    state = GaussianState(np.zeros(2 * n), _cov_from_blocks(blocks), basis=MODE)
    if basis == MODE:
        return SteadyState(state=state, frozen_modes=frozen)
    return SteadyState(state=change_basis(state, decomp, NODE), frozen_modes=frozen)


def thermal_variances(decomp: ModeDecomposition, bath: BathConfig) -> np.ndarray:
    """Per-mode thermal (<Q^2>, <P^2>) targets, shape (n, 2).

    These are coth(W/2T)/(2W) and W coth(W/2T)/2; they coincide with the
    stationary point of the moment equations whenever the mode is damped.
    """
    w = decomp.freqs
    coth = 1.0 / np.tanh(w / (2.0 * bath.temperature))
    return np.stack([coth / (2.0 * w), 0.5 * w * coth], axis=-1)


# ---------------------------------------------------------------------------
# Node-basis reference integrator (independent cross-check)
# ---------------------------------------------------------------------------

def _node_drift_diffusion(net, decomp):
    n = decomp.n
    f = decomp.modes
    damp_node = f @ np.diag(decomp.damping) @ f.T
    drift = np.zeros((2 * n, 2 * n))
    drift[:n, :n] = -0.5 * damp_node
    drift[:n, n:] = np.eye(n)
    drift[n:, :n] = -hamiltonian_matrix(net)
    drift[n:, n:] = -0.5 * damp_node
    dq = decomp.diffusion / (4.0 * decomp.freqs**2)
    dp = decomp.diffusion / 4.0
    diff_mode = np.diag(np.concatenate([dq, dp]))
    u = scipy.linalg.block_diag(f, f)
    diffusion = u @ diff_mode @ u.T
    return drift, diffusion


def evolve_node_reference(
    state: GaussianState,
    net: NetworkSpec,
    decomp: ModeDecomposition,
    times,
    method: str = "expm",
) -> Trajectory:
    """Dense 2n-dimensional propagation in the node basis, the oracle for evolve.

    Slower than :func:`evolve` and kept deliberately separate from it:
    the drift uses the network Hamiltonian directly and the covariance is
    propagated as one (2n, 2n) matrix.  Each stored interval is advanced
    with the exponential of the block matrix [[A, 2D], [0, -A^T]] (Van
    Loan's construction), which is exact for this linear system; equal
    intervals share one exponential.  ``method`` accepts only ``"expm"``.
    """
    if method != "expm":
        raise ValueError(f"unknown method {method!r}; only 'expm' is available")
    _require_rates(decomp)
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be strictly increasing")
    if state.basis != NODE:
        raise ValueError("reference integrator expects a node-basis state")

    drift, diffusion = _node_drift_diffusion(net, decomp)
    mean = state.mean.copy()
    cov = state.cov.copy()
    n2 = mean.shape[0]
    means = np.empty((times.shape[0], n2))
    covs = np.empty((times.shape[0], n2, n2))
    means[0] = mean
    covs[0] = cov

    dts = np.diff(times)
    cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    for i, dt in enumerate(dts):
        key = round(float(dt), 15)
        if key not in cache:
            block = np.zeros((2 * n2, 2 * n2))
            block[:n2, :n2] = drift
            block[:n2, n2:] = 2.0 * diffusion
            block[n2:, n2:] = -drift.T
            full = scipy.linalg.expm(block * dt)
            cache[key] = (full[:n2, :n2], full[:n2, n2:])
        prop, source = cache[key]
        mean = prop @ mean
        cov = prop @ cov @ prop.T + source @ prop.T
        cov = 0.5 * (cov + cov.T)
        means[i + 1] = mean
        covs[i + 1] = cov

    if not np.all(np.isfinite(covs)):
        raise IntegratorStepFailure("non-finite moments produced during integration")

    ham = hamiltonian_matrix(net)
    n = net.n
    mean_q = means[:, :n]
    mean_p = means[:, n:]
    energy = 0.5 * (
        covs[:, n + np.arange(n), n + np.arange(n)].sum(axis=1)
        + (mean_p**2).sum(axis=1)
        + np.einsum("jk,tj,tk->t", ham, mean_q, mean_q)
        + np.einsum("jk,tjk->t", ham, covs[:, :n, :n])
    )
    return Trajectory(times=times.copy(), means=means, covs=covs, energy=energy)
