"""Second implementations of quantities the package computes, for the tests.

Each function here is an independent route to something the pipelines
already produce: the long-time state in closed form beside ``evolve``,
the node-basis energy beside ``evolve``'s per-mode energy, the von Neumann
entropy from the n-mode symplectic spectrum beside the closed-form
two-mode kernels, and a pair's covariance block read straight off a
(2n, 2n) matrix beside ``pair_measure_series``'s quadrature index.  The
node-to-mode projections and the thermal mode variances are shared by the
test modules that check the frozen-mode plateau and the thermal fixed point.
"""

import numpy as np

from oscnet.dynamics import GaussianState
from oscnet.errors import DimensionMismatch, UnphysicalCovariance
from oscnet.measures import PHYSICALITY_TOL, _entropy_term, symplectic_spectrum
from oscnet.network import hamiltonian_matrix
from oscnet.spectral import _frozen_mask


def to_modes(state, dec):
    """A node-basis state's mean and covariance in the normal-mode basis."""
    u = np.kron(np.eye(2), dec.modes)  # blockdiag(F, F)
    return u.T @ state.mean, u.T @ state.cov @ u


def mode_variances(state, dec):
    """A node-basis state's per-mode (var_Q, var_P)."""
    var = np.diag(to_modes(state, dec)[1])
    return var[:dec.n], var[dec.n:]


def single_mode_series(traj, dec, m: int):
    """Time series of one mode's (mean_Q, mean_P, var_Q, var_P, cov_QP)."""
    moments = [to_modes(traj.state(k), dec) for k in range(traj.times.shape[0])]
    means = np.array([mean for mean, _ in moments])
    covs = np.array([cov for _, cov in moments])
    q, p = m, dec.n + m
    return means[:, q], means[:, p], covs[:, q, q], covs[:, p, p], covs[:, q, p]


def thermal_mode_variances(dec, temperature: float):
    """Per-mode thermal <Q^2> = coth(W/2T)/(2W) and <P^2> = W coth(W/2T)/2."""
    coth = 1.0 / np.tanh(dec.freqs / (2.0 * temperature))
    return coth / (2.0 * dec.freqs), 0.5 * dec.freqs * coth


def asymptotic_state(state, dec, t: float) -> GaussianState:
    """Long-time limit of ``evolve`` from a node-basis state, t after it.

    Every damped mode has relaxed to its stationary covariance
    diag(D / (2 G W^2), D / (2 G)) and forgotten its mean; the frozen modes
    (``spectral._frozen_mask``, or no damping at all) keep rotating without
    loss.  With U = blockdiag(F, F), m0 = U^T mean and S0 = U^T cov U, the
    mean is U E m0 and the covariance U (E S0 E^T + stationary) U^T, with E
    each frozen mode's rotation [[cos Wt, sin Wt / W], [-W sin Wt, cos Wt]]
    and zero on the damped modes: cross terms between frozen modes persist,
    those between a frozen and a damped mode drop out.  It shares no
    propagation code with ``evolve``.
    """
    w = dec.freqs
    frozen = _frozen_mask(dec) | (dec.damping == 0.0)
    cos = np.where(frozen, np.cos(w * t), 0.0)
    sin = np.where(frozen, np.sin(w * t), 0.0)
    rot = np.block([[np.diag(cos), np.diag(sin / w)], [np.diag(-w * sin), np.diag(cos)]])
    var_p = np.where(frozen, 0.0, dec.diffusion / (2.0 * np.where(frozen, 1.0, dec.damping)))
    mean0, cov0 = to_modes(state, dec)
    cov = rot @ cov0 @ rot.T + np.diag(np.concatenate([var_p / w**2, var_p]))
    u = np.kron(np.eye(2), dec.modes)
    return GaussianState(u @ rot @ mean0, u @ cov @ u.T)


def energy(state, net) -> float:
    """Mean energy <H> of a node-basis state, first moments included."""
    n = net.n
    if state.n != n:
        raise DimensionMismatch(f"state has {state.n} nodes, network has {n}")
    ham = hamiltonian_matrix(net)
    mq = state.mean[:n]
    mp = state.mean[n:]
    cov = state.cov
    return 0.5 * float(
        np.trace(cov[n:, n:]) + mp @ mp + mq @ ham @ mq + np.sum(ham * cov[:n, :n])
    )


def von_neumann_entropy(cov):
    """Entropy (nats) of a Gaussian state from its symplectic spectrum."""
    nus = symplectic_spectrum(cov)
    if np.any(nus < 0.5 - PHYSICALITY_TOL):
        raise UnphysicalCovariance(
            f"symplectic eigenvalue {nus.min():.6g} below the vacuum floor 1/2"
        )
    out = _entropy_term(nus).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def pair_covariance(cov, i: int, j: int, n: int) -> np.ndarray:
    """Extract the (x_i, x_j, p_i, p_j) covariance from a (2n, 2n) matrix.

    Works on batched (..., 2n, 2n) input.
    """
    if i == j:
        raise ValueError("pair needs two distinct nodes")
    idx = np.array([i, j, n + i, n + j])
    return np.asarray(cov)[..., idx[:, None], idx[None, :]]
