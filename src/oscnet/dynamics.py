"""Gaussian-state propagation for damped oscillator networks.

States are Gaussian and stay Gaussian: everything is first moments
``mean = (q_1..q_n, p_1..p_n)`` plus the symmetric covariance of the same
2n quadratures, with vacuum variance 1/2 (hbar = 1, k_B = 1).

:func:`evolve` rests on the normal-mode decomposition, where the
dynamics decouples into independently damped modes: means drift with
``[[-G/2, 1], [-W^2, -G/2]]`` per mode and the covariance obeys a
Lyapunov equation with diagonal diffusion.  The system is linear and
time-invariant, so it is solved in closed form and reported straight in
the node basis: the propagator M(t) = U E(t), with U = blockdiag(F, F)
the normal-mode transform and E(t) each mode's damped rotation, is built
for a chunk of stored times at a time.  There is no step and no
accumulated stepping error, and the stored times need not be uniform.
The covariance is never formed as a congruence: with L the Cholesky
factor of the mode-basis initial covariance, Z(t) = [M(t) L, U Delta(t)^{1/2}]
is a square-root factor of it (Delta(t) the diagonal relaxation towards
the stationary covariance), so each entry is a dot product of two rows
of Z, and only the rows a caller reads are computed.  A trajectory keeps
the means, each node's 2x2 block and the energy, all O(T n); its
(2n, 2n) covariances are recomputed, from the same factor, for the times
and rows a caller indexes, so memory does not grow as T n^2.  Each mode's
map is a thermal attenuator, completely positive when D >= G W
(Heinosaari, Holevo & Wolf, QIC 10, 619 (2010)), so a physical initial
state stays physical at every stored time.

:func:`evolve_node_reference` propagates the same physics straight in
the node basis as one dense 2n-dimensional system, advancing each stored
interval with a block matrix exponential.  It shares no code with the
closed-form path, which makes it the cross-check for :func:`evolve`.
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
    UnphysicalCovariance,
    UnphysicalSpec,
)
from .network import NetworkSpec, hamiltonian_matrix
from .spectral import BathConfig, ModeDecomposition, _frozen_mask

NODE = "node"
MODE = "mode"

#: Most propagator entries one time chunk of the moments holds.  A chunk's
#: propagator and square-root factor (twice as wide) then stay within a
#: core's L2 cache, and no (T, 2n, 2n) stack is allocated at any T.
_CHUNK_ELEMENTS = 1 << 16


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


def _node_blocks(covs) -> np.ndarray:
    """Per-node (var_q, var_p, cov_qp) of (T, 2n, 2n) covariances, shape (T, n, 3)."""
    n = covs.shape[-1] // 2
    idx = np.arange(n)
    return np.stack([covs[:, idx, idx], covs[:, n + idx, n + idx], covs[:, idx, n + idx]], axis=-1)


@dataclass(frozen=True)
class Trajectory:
    """Stored moments along a simulation, in the node basis.

    times: (T,); means: (T, 2n); covs: (T, 2n, 2n); energy: (T,); blocks:
    (T, n, 3), each node's (var_q, var_p, cov_qp), derived from covs when
    not given.  covs is an array, or from :func:`evolve` a view that
    computes the covariances of the times (and integer-indexed rows) it is
    indexed with and returns them as a fresh array (``np.asarray`` gives
    all of them).
    """

    times: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    energy: np.ndarray
    blocks: np.ndarray | None = None

    def __post_init__(self):
        if self.blocks is None:
            object.__setattr__(self, "blocks", _node_blocks(np.asarray(self.covs)))

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
        return self.blocks[:, :, 0]

    @property
    def var_p(self) -> np.ndarray:
        return self.blocks[:, :, 1]

    @property
    def cov_qp(self) -> np.ndarray:
        return self.blocks[:, :, 2]

    @property
    def second_moment_q(self) -> np.ndarray:
        """Per-node <q^2> = var + mean^2, the default synchronization signal."""
        return self.var_q + self.mean_q**2


def _require_rates(decomp: ModeDecomposition) -> None:
    if decomp.damping is None or decomp.diffusion is None:
        raise ValueError("decomposition carries no bath rates; run spectral.analyze first")


def _check_physical(cov0: np.ndarray, decomp: ModeDecomposition) -> None:
    """The initial state, and complete positivity (G >= 0, D >= G W) per mode."""
    tol = measures.PHYSICALITY_TOL
    g = decomp.damping
    if not (np.all(g >= 0.0) and np.all(decomp.diffusion >= g * decomp.freqs * (1.0 - tol))):
        raise PhysicalityViolation("mode channel is not completely positive (G < 0 or D < G W)")
    try:
        nu_min = measures.symplectic_spectrum(cov0)[0]
    except UnphysicalCovariance as exc:
        raise PhysicalityViolation("initial covariance is not positive definite") from exc
    if nu_min < 0.5 - tol:
        raise PhysicalityViolation(f"initial state has symplectic eigenvalue {nu_min:.6g} (< 1/2)")


def _relaxation(decomp: ModeDecomposition, times: np.ndarray) -> np.ndarray:
    """phi = (1 - e^{-G t}) / 2G per time and mode, shape (T, n); t / 2 where G = 0.

    A mode's driven covariance is diag(D phi / W^2, D phi): the stationary
    covariance is invariant under the rotational part of E(t), so the
    relaxation towards it is sigma_inf (1 - e^{-G t}), and with
    D = G W coth(W/2T) that prefactor stays finite as G -> 0.
    """
    g = decomp.damping[None, :]
    g_safe = np.where(g > 0.0, g, 1.0)
    return np.where(g > 0.0, -np.expm1(-g * times[:, None]) / (2.0 * g_safe), 0.5 * times[:, None])


def _square_root(decomp: ModeDecomposition, chol: np.ndarray, times: np.ndarray, rows: np.ndarray):
    """Rows of the propagator M(t), shape (T, r, 2n), and of a square-root
    factor Z(t) of the node covariance, shape (T, r, 4n).

    rows are sorted indices of the node quadratures (q_1..q_n, p_1..p_n).
    M(t) = U E(t), with U = blockdiag(F, F) and E(t) each mode's damped
    rotation [[cos, sin / W], [-W sin, cos]] e^{-G t / 2}, so a q row of
    M(t) is its row of F, twice, scaled by (cos, sin / W) and a p row by
    (-W sin, cos).  chol is the Cholesky factor L of the mode-basis
    initial covariance, and Z(t) = [M(t) L, U Delta(t)^{1/2}], with
    Delta(t) the driven covariance of :func:`_relaxation`, so that the
    covariance is Z Z^T.  Each row of Z comes from its own elementwise
    products and one matrix product per time, so its bits do not depend
    on the other rows or times evaluated with it.
    """
    n = decomp.n
    w = decomp.freqs
    nq = np.searchsorted(rows, n)
    f_q = decomp.modes[rows[:nq]]
    f_p = decomp.modes[rows[nq:] - n]
    decay = np.exp(-0.5 * times[:, None] * decomp.damping[None, :])
    cos = np.cos(times[:, None] * w[None, :]) * decay
    sin = np.sin(times[:, None] * w[None, :]) * decay
    prop = np.empty((times.shape[0], rows.shape[0], 2 * n))
    np.multiply(np.tile(f_q, 2), np.hstack([cos, sin / w])[:, None, :], out=prop[:, :nq])
    np.multiply(np.tile(f_p, 2), np.hstack([-w * sin, cos])[:, None, :], out=prop[:, nq:])
    z = np.empty((times.shape[0], rows.shape[0], 4 * n))
    np.matmul(prop, chol, out=z[..., : 2 * n])
    root = np.sqrt(decomp.diffusion * _relaxation(decomp, times))[:, None, :]
    np.multiply(f_q, root / w, out=z[:, :nq, 2 * n : 3 * n])
    z[:, :nq, 3 * n :] = 0.0
    z[:, nq:, 2 * n : 3 * n] = 0.0
    np.multiply(f_p, root, out=z[:, nq:, 3 * n :])
    return prop, z


def _time_chunks(count: int, width: int):
    """Consecutive slices over count times, each holding at most
    _CHUNK_ELEMENTS entries when a time holds width of them."""
    step = max(1, _CHUNK_ELEMENTS // width)
    return (slice(start, start + step) for start in range(0, count, step))


class _CovarianceView:
    """The (T, 2n, 2n) covariances of an evolved trajectory, computed on access.

    The first index picks times (an int, a slice, or an int or bool
    array).  When the row and column indices after it are both integers or
    integer arrays, only the quadrature rows they read are evaluated, so
    ``covs[::s, r[:, None], r[None, :]]`` computes len(r) rows of the
    factor per time instead of 2n; any other key evaluates every row.  The entries are row dot products
    of the factor of :func:`_square_root`, worked through in time chunks
    into a fresh array, and are bit for bit those of ``np.asarray(view)``,
    which evaluates every time.  Nothing is cached, so memory holds only
    what the caller asked for.
    """

    def __init__(self, decomp: ModeDecomposition, chol: np.ndarray, rel: np.ndarray):
        self._decomp = decomp
        self._chol = chol
        self._rel = rel
        self.shape = (rel.shape[0], 2 * decomp.n, 2 * decomp.n)

    def __len__(self) -> int:
        return self.shape[0]

    def _rows_read(self, rest):
        """Rows the trailing indices read, and those indices remapped into them."""
        every = np.arange(self.shape[-1])
        if len(rest) == 2 and all(np.asarray(k).dtype.kind in "iu" for k in rest):
            row, col = every[rest[0]], every[rest[1]]
            rows = np.union1d(row, col)
            # One row would take numpy's matrix-vector product, whose
            # rounding differs from a row of the matrix product.
            if rows.shape[0] != 1:
                return rows, (np.searchsorted(rows, row), np.searchsorted(rows, col))
        return every, rest

    def __getitem__(self, key) -> np.ndarray:
        first, rest = (key[0], key[1:]) if isinstance(key, tuple) else (key, ())
        picked = np.arange(self.shape[0])[first]
        rows, rest = self._rows_read(rest)
        rel = self._rel[picked.ravel()]
        out = np.empty((rel.shape[0], rows.shape[0], rows.shape[0]))
        for chunk in _time_chunks(rel.shape[0], rows.shape[0] * self.shape[-1]):
            z = _square_root(self._decomp, self._chol, rel[chunk], rows)[1]
            out[chunk] = np.einsum("tak,tbk->tab", z, z)
        # An index array for the times broadcasts with the trailing ones, as
        # it would on an array.
        lead = slice(None) if isinstance(first, slice) else np.arange(rel.shape[0]).reshape(picked.shape)
        return out[(lead,) + rest]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = self[:]
        return out if dtype is None else out.astype(dtype, copy=False)


def _mode_energy(decomp: ModeDecomposition, mean0: np.ndarray, cov0: np.ndarray,
                 rel: np.ndarray) -> np.ndarray:
    """<H> at relative times rel from each mode's own moments, O(n) per time.

    In the mode basis H = sum_m (P_m^2 + W_m^2 Q_m^2) / 2.  E(t) rotates
    (W Q, P) and scales it by e^{-G t / 2}, so a mode's W^2 <Q^2> + <P^2>,
    means included, is its initial value times e^{-G t}, plus 2 D phi from
    the driven covariance diag(D phi / W^2, D phi).
    """
    n = decomp.n
    w2 = decomp.freqs**2
    initial = w2 * (np.diagonal(cov0)[:n] + mean0[:n] ** 2) + np.diagonal(cov0)[n:] + mean0[n:] ** 2
    decay = np.exp(-rel[:, None] * decomp.damping[None, :])
    return 0.5 * (decay * initial + 2.0 * decomp.diffusion * _relaxation(decomp, rel)).sum(axis=1)


def evolve(
    state: GaussianState,
    decomp: ModeDecomposition,
    times,
    method: str = "exact",
) -> Trajectory:
    """Propagate a node-basis state over the stored time grid.

    times must be strictly increasing and start at the state's own epoch
    (stored verbatim in the trajectory); their spacing is free.  Every
    stored time is evaluated in closed form from the initial state, so
    ``method`` accepts only ``"exact"``: with the initial moments m0, S0
    rotated into the normal-mode basis and M(t) = U E(t) the node-from-mode
    propagator, the means are M m0 and the covariances M S0 M^T plus the
    relaxation towards the stationary covariance, F diag(D phi / W^2) F^T
    in the q block and F diag(D phi) F^T in the p block.  Only the initial
    state and the mode channel are checked, once (PhysicalityViolation);
    complete positivity then keeps every stored covariance physical.

    The covariance is never formed: with S0 = L L^T, Z(t) = [M L, U
    Delta^{1/2}] is a square-root factor of it, and each node's block
    (var_q, var_p, cov_qp) is three dot products of its q and p rows of Z.
    The energy comes from each mode's own 2x2 moments.  The times are
    worked through in chunks of at most _CHUNK_ELEMENTS propagator
    entries, and a non-finite moment raises IntegratorStepFailure.  The
    trajectory's ``covs`` recomputes, from the same factor, the entries
    it is indexed with.
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

    n = decomp.n
    mode_state = change_basis(state, decomp, MODE)
    _check_physical(mode_state.cov, decomp)
    chol = np.linalg.cholesky(mode_state.cov)
    rel = times - times[0]
    rows = np.arange(2 * n)
    means = np.empty((times.shape[0], 2 * n))
    blocks = np.empty((times.shape[0], n, 3))
    for chunk in _time_chunks(times.shape[0], (2 * n) ** 2):
        prop, z = _square_root(decomp, chol, rel[chunk], rows)
        zq, zp = z[:, :n], z[:, n:]
        means[chunk] = prop @ mode_state.mean
        blocks[chunk, :, 0] = np.einsum("tjk,tjk->tj", zq, zq)
        blocks[chunk, :, 1] = np.einsum("tjk,tjk->tj", zp, zp)
        blocks[chunk, :, 2] = np.einsum("tjk,tjk->tj", zq, zp)
        if not (np.all(np.isfinite(means[chunk])) and np.all(np.isfinite(blocks[chunk]))):
            raise IntegratorStepFailure("non-finite moments produced during integration")
    energy = _mode_energy(decomp, mode_state.mean, mode_state.cov, rel)

    covs = _CovarianceView(decomp, chol, rel)
    return Trajectory(times=times.copy(), means=means, covs=covs, energy=energy, blocks=blocks)


@dataclass(frozen=True)
class SteadyState:
    """Asymptotic state of the damped subspace plus the modes that never relax."""

    state: GaussianState
    frozen_modes: tuple[int, ...]


def steady_state(decomp: ModeDecomposition, basis: str = NODE) -> SteadyState:
    """Stationary Gaussian state; frozen modes are reported and left at vacuum.

    Frozen means ``spectral._frozen_mask`` or no damping at all.
    """
    _require_rates(decomp)
    w = decomp.freqs
    frozen = _frozen_mask(decomp) | (decomp.damping == 0.0)
    # Damped modes relax to nu = D / (2 G W) per mode, i.e. diag(nu / W, nu W).
    nu = np.where(frozen, 0.5, decomp.diffusion / (2.0 * np.where(frozen, 1.0, decomp.damping) * w))
    state = GaussianState(np.zeros(2 * w.shape[0]), np.diag(np.concatenate([nu / w, nu * w])), MODE)
    if basis == NODE:
        state = change_basis(state, decomp, NODE)
    return SteadyState(state=state, frozen_modes=tuple(int(m) for m in np.flatnonzero(frozen)))


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
        + ((mean_q @ ham) * mean_q).sum(axis=1)
        + np.einsum("jk,tjk->t", ham, covs[:, :n, :n])
    )
    return Trajectory(times=times.copy(), means=means, covs=covs, energy=energy)
