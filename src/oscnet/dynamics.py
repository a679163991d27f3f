"""Gaussian-state propagation for damped oscillator networks.

States are Gaussian and stay Gaussian: everything is first moments
``mean = (q_1..q_n, p_1..p_n)`` plus the symmetric covariance of the same
2n quadratures, with vacuum variance 1/2 (hbar = 1, k_B = 1).

:func:`evolve` rests on the normal-mode decomposition, where the
dynamics decouples into independently damped modes: means drift with
``[[-G/2, 1], [-W^2, -G/2]]`` per mode and the covariance obeys a
Lyapunov equation with diagonal diffusion.  The system is linear and
time-invariant, so it is solved in closed form and reported straight in
the node basis: the propagator is U E(t), with U = blockdiag(F, F) the
normal-mode transform and E(t) each mode's damped rotation.  There is no
step and no accumulated stepping error, and the stored times need not be
uniform.  The covariance is never formed as a congruence: with L the
Cholesky factor of the mode-basis initial covariance, E(t) L is built for
every mode and a chunk of stored times at once, and F maps it onto the
node rows a caller reads, one matrix product per quadrature half.  The
relaxation towards the stationary covariance, diag(D phi / W^2, D phi) in
the mode basis, has no q-p terms and is added apart: F diag(D phi / W^2)
F^T to the q-q block and F diag(D phi) F^T to the p-p block.  Each entry
is thus a dot product of two node factor rows, plus, within a half, two
rows of F weighted per mode.  A trajectory keeps the means, each node's
2x2 block and the energy, all O(T n); its (2n, 2n) covariances are
recomputed, the same way, for the times and rows a caller indexes, so
memory does not grow as T n^2.  Each mode's map is a thermal attenuator,
completely positive when D >= G W (Heinosaari, Holevo & Wolf, QIC 10,
619 (2010)), so a physical initial state stays physical at every stored
time.

:func:`evolve_node_reference` propagates the same physics straight in
the node basis as one dense 2n-dimensional system, advancing each stored
interval with a block matrix exponential.  It shares no code with the
closed-form path, which makes it the cross-check for :func:`evolve`.
:func:`asymptotic_state` is the long-time limit in closed form, where
only the frozen modes still remember the initial state: the oracle for
the plateau the frozen modes keep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import measures
from .errors import (
    DimensionMismatch,
    IntegratorStepFailure,
    PhysicalityViolation,
    UnphysicalCovariance,
    UnphysicalSpec,
)
from .network import NetworkSpec, hamiltonian_matrix
from .spectral import ModeDecomposition, _frozen_mask

#: Most entries of E(t) L, (2n)^2 per time, one time chunk of the moments
#: holds.  That and the chunk's node factor (at most as large) then stay
#: within a core's L2 cache, and no (T, 2n, 2n) stack is allocated at any T.
_CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class GaussianState:
    """First and second moments of n oscillators in the node basis.

    mean has shape (2n,) ordered (q_1..q_n, p_1..p_n); cov is the
    symmetric (2n, 2n) covariance of the same quadrature vector.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or mean.shape[0] % 2 != 0:
            raise DimensionMismatch("mean must be a flat (2n,) array")
        if cov.shape != (mean.shape[0], mean.shape[0]):
            raise DimensionMismatch(
                f"covariance shape {cov.shape} does not match mean of length {mean.shape[0]}"
            )
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
    scale = nth + 0.5
    # An overflow is caught below as a non-finite covariance.
    with np.errstate(over="ignore", invalid="ignore"):
        lo = np.exp(-2.0 * r)
        hi = np.exp(2.0 * r)
        # R diag(lo, hi) R^T per node, scattered into the (q_j, p_j) rows/cols.
        cov[np.arange(n), np.arange(n)] = scale * (lo * cos**2 + hi * sin**2)
        cov[n + np.arange(n), n + np.arange(n)] = scale * (lo * sin**2 + hi * cos**2)
        off = scale * (lo - hi) * cos * sin
    cov[np.arange(n), n + np.arange(n)] = off
    cov[n + np.arange(n), np.arange(n)] = off
    if not np.isfinite(cov).all():
        raise UnphysicalSpec("initial covariance is not finite (squeeze_r or thermal_n too large)")
    return GaussianState(np.concatenate([mq, mp]), cov)


def _block_diag2(f: np.ndarray) -> np.ndarray:
    """blockdiag(F, F), which maps mode quadratures to node quadratures."""
    n = f.shape[0]
    u = np.zeros((2 * n, 2 * n))
    u[:n, :n] = f
    u[n:, n:] = f
    return u


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
        return GaussianState(self.means[index], self.covs[index])

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


def _rotation(decomp: ModeDecomposition, times: np.ndarray) -> np.ndarray:
    """Each mode's damped rotation E(t) per time, shape (n, 2, T, 2).

    [m, 0, t] holds E's q row for mode m, e^{-G t / 2} (cos W t, sin W t / W),
    and [m, 1, t] its p row, e^{-G t / 2} (-W sin W t, cos W t): the
    coefficients of the mode's (q, p) pair in its quadratures at time t.
    """
    w = decomp.freqs[:, None]
    decay = np.exp(-0.5 * decomp.damping[:, None] * times)
    phase = w * times
    coef = np.empty((decomp.n, 2, times.shape[0], 2))
    cos = np.multiply(np.cos(phase), decay, out=coef[:, 0, :, 0])
    coef[:, 1, :, 1] = cos
    sin = np.multiply(np.sin(phase, out=phase), decay, out=decay)
    np.divide(sin, w, out=coef[:, 0, :, 1])
    np.multiply(-w, sin, out=coef[:, 1, :, 0])
    return coef


def _square_root(decomp: ModeDecomposition, chol: np.ndarray, coef: np.ndarray,
                 rows: np.ndarray) -> np.ndarray:
    """Rows of the node factor z = U E(t) L for a chunk of times, shape (r, T, 2n).

    rows are sorted node quadrature indices (q_1..q_n, p_1..p_n), coef is
    the chunk's :func:`_rotation` and chol = [L_q; L_p] the Cholesky factor
    of the mode-basis initial covariance.  X = E(t) L is one (T, 2) by
    (2, 2n) product per mode and half; z_q = F_q X_q and z_p = F_p X_p are
    one matrix product each over the chunk's (n, T 2n) layout.  z z^T is
    the covariance less its driven part (:func:`_driven`).
    """
    n = decomp.n
    nq = np.searchsorted(rows, n)
    f = decomp.modes[rows % n]
    # each mode's rows [L_q; L_p], shape (n, 1, 2, 2n), under its coefficients
    per_mode = chol.reshape(2, n, 1, 2 * n).transpose(1, 2, 0, 3)
    x = np.matmul(coef, per_mode).reshape(n, 2, -1)
    z = np.empty((rows.shape[0], x.shape[-1]))
    np.matmul(f[:nq], x[:, 0], out=z[:nq])
    np.matmul(f[nq:], x[:, 1], out=z[nq:])
    return z.reshape(rows.shape[0], coef.shape[2], 2 * n)


def _node_means(decomp: ModeDecomposition, coef: np.ndarray, mean0: np.ndarray) -> np.ndarray:
    """Node means F E(t) m0 at the times of coef (:func:`_rotation`), shape (T, 2n).

    E(t) m0 is formed per mode and half, then F takes each half onto the
    nodes in one matrix product over all times.
    """
    n = decomp.n
    mode_means = (coef @ mean0.reshape(2, n).T[:, None, :, None])[..., 0]
    means = np.empty((coef.shape[2], 2 * n))
    np.matmul(mode_means[:, 0].T, decomp.modes.T, out=means[:, :n])
    np.matmul(mode_means[:, 1].T, decomp.modes.T, out=means[:, n:])
    means += 0.0  # -0.0 + 0.0 is +0.0, so a zero mean prints as 0
    return means


def _driven(decomp: ModeDecomposition, times: np.ndarray):
    """Driven mode-basis covariance diag(D phi / W^2, D phi) per time
    (:func:`_relaxation`), as its q and p halves, each shape (T, n).  With
    no q-p terms, it adds to a q-q or p-p node entry the per-mode product
    of the two rows of F dotted with its half, and nothing to a q-p entry.
    """
    dphi = decomp.diffusion * _relaxation(decomp, times)
    return dphi / decomp.freqs**2, dphi


def _time_chunks(count: int, width: int):
    """Consecutive slices over count times, each holding at most
    _CHUNK_ELEMENTS entries when a time holds width of them, and at least
    two times (the last may hold one more time than that): for a lone time
    :func:`_square_root` would take numpy's matrix-vector product, whose
    rounding differs from a row of the matrix product."""
    step = max(2, _CHUNK_ELEMENTS // width)
    bounds = [*range(0, count - 1, step), count]
    return (slice(start, stop) for start, stop in zip(bounds, bounds[1:]))


class _CovarianceView:
    """The (T, 2n, 2n) covariances of an evolved trajectory, computed on access.

    The first index picks times (an int, a slice, or an int or bool
    array).  When the row and column indices after it are both integers or
    integer arrays, only the quadrature rows they read are evaluated, so
    ``covs[::s, r[:, None], r[None, :]]`` computes len(r) rows of the node
    factor per time instead of 2n; any other key evaluates every row.
    Reading r rows costs one E(t) L per chunk of times ((2n)^2 entries per
    time), then r n 2n multiply-adds per time for the rows of the node
    factor of :func:`_square_root` and r^2 2n for their dot products, plus
    the driven part of :func:`_driven` within the q rows and within the p
    rows.  Entries go, a time chunk at a time, into a fresh array, and
    nothing is cached.

    They are bit for bit those of ``np.asarray(view)`` wherever numpy's
    matrix product rounds an entry whatever the product's shape, so a lone
    q or p row, or a lone time, which would take a matrix-vector product,
    is read with every row or evaluated twice.  With OpenBLAS's Haswell
    kernels the shape does not matter for n < 16 or 2n a multiple of 8;
    otherwise (n = 17, say) an entry read among other rows or times can
    differ in its last bit.
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
            nq = np.searchsorted(rows, self.shape[-1] // 2)
            # A lone q or p row would take numpy's matrix-vector product,
            # whose rounding differs from a row of the matrix product.
            if 1 not in (nq, rows.shape[0] - nq):
                return rows, (np.searchsorted(rows, row), np.searchsorted(rows, col))
        return every, rest

    def __getitem__(self, key) -> np.ndarray:
        first, rest = (key[0], key[1:]) if isinstance(key, tuple) else (key, ())
        picked = np.arange(self.shape[0])[first]
        rows, rest = self._rows_read(rest)
        nq = np.searchsorted(rows, self._decomp.n)
        rel = self._rel[picked.ravel()]
        if rel.shape[0] == 1:  # a lone time is evaluated twice (see _time_chunks)
            rel = np.repeat(rel, 2)
        coef = _rotation(self._decomp, rel)
        out = np.empty((rel.shape[0], rows.shape[0], rows.shape[0]))
        for chunk in _time_chunks(rel.shape[0], self.shape[-1] ** 2):
            z = _square_root(self._decomp, self._chol, coef[:, :, chunk], rows)
            np.einsum("atk,btk->tab", z, z, out=out[chunk])
        n = self._decomp.n
        for (lo, hi), weight in zip(((0, nq), (nq, rows.shape[0])), _driven(self._decomp, rel)):
            f = self._decomp.modes[rows[lo:hi] % n]
            pairs = (f[:, None, :] * f[None, :, :]).reshape(-1, n)
            block = out[:, lo:hi, lo:hi]
            block += np.einsum("tm,pm->tp", weight, pairs).reshape(block.shape)
        # An index array for the times broadcasts with the trailing ones, as
        # it would on an array.
        lead = np.arange(picked.size).reshape(picked.shape)
        out = out[: picked.size]
        return out[(slice(None) if isinstance(first, slice) else lead,) + rest]

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
    rotated into the normal-mode basis and U E(t) the node-from-mode
    propagator, the means are U E m0 and the covariances U E S0 E^T U^T plus
    the relaxation towards the stationary covariance, F diag(D phi / W^2) F^T
    in the q block and F diag(D phi) F^T in the p block.  Only the initial
    state and the mode channel are checked, once (PhysicalityViolation);
    complete positivity then keeps every stored covariance physical.

    The covariance is never formed: with S0 = L L^T, each node's block
    (var_q, var_p, cov_qp) is three dot products of its q and p rows of the
    node factor U E(t) L (:func:`_square_root`), plus its entries of the
    relaxation (:func:`_driven`), in time chunks of at most _CHUNK_ELEMENTS
    entries of E(t) L.  The means come from :func:`_node_means` and the
    energy from each mode's own 2x2 moments.  A non-finite moment raises
    IntegratorStepFailure.  The trajectory's ``covs`` recomputes, the same
    way, the entries it is indexed with.
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
    u = _block_diag2(decomp.modes).T
    mean0 = u @ state.mean
    cov0 = u @ state.cov @ u.T
    cov0 = 0.5 * (cov0 + cov0.T)
    _check_physical(cov0, decomp)
    chol = np.linalg.cholesky(cov0)
    rel = times - times[0]
    energy = _mode_energy(decomp, mean0, cov0, rel)
    coef = _rotation(decomp, rel)
    means = _node_means(decomp, coef, mean0)
    rows = np.arange(2 * n)
    squares = decomp.modes**2
    blocks = np.empty((times.shape[0], n, 3))
    for chunk in _time_chunks(times.shape[0], (2 * n) ** 2):
        z = _square_root(decomp, chol, coef[:, :, chunk], rows)
        for col, (a, b) in enumerate(((z[:n], z[:n]), (z[n:], z[n:]), (z[:n], z[n:]))):
            np.einsum("jtk,jtk->tj", a, b, out=blocks[chunk, :, col])
        for col, weight in enumerate(_driven(decomp, rel[chunk])):
            blocks[chunk, :, col] += np.einsum("tm,jm->tj", weight, squares)
    if not (np.all(np.isfinite(means)) and np.all(np.isfinite(blocks))):
        raise IntegratorStepFailure("non-finite moments produced during integration")

    covs = _CovarianceView(decomp, chol, rel)
    return Trajectory(times=times.copy(), means=means, covs=covs, energy=energy, blocks=blocks)


def asymptotic_state(state: GaussianState, decomp: ModeDecomposition, t: float) -> GaussianState:
    """Long-time limit of :func:`evolve` from a node-basis state, t after it.

    Every damped mode has relaxed to its stationary covariance
    diag(D / (2 G W^2), D / (2 G)) and forgotten its mean; the frozen modes
    (``spectral._frozen_mask``, or no damping at all) keep rotating without
    loss.  With U = blockdiag(F, F), m0 = U^T mean and S0 = U^T cov U, the
    mean is U E m0 and the covariance U (E S0 E^T + stationary) U^T, with E
    each frozen mode's rotation [[cos Wt, sin Wt / W], [-W sin Wt, cos Wt]]
    and zero on the damped modes: cross terms between frozen modes persist,
    those between a frozen and a damped mode drop out.  A test oracle for
    the frozen-mode plateau; it shares no propagation code with evolve.
    """
    _require_rates(decomp)
    w = decomp.freqs
    frozen = _frozen_mask(decomp) | (decomp.damping == 0.0)
    cos = np.where(frozen, np.cos(w * t), 0.0)
    sin = np.where(frozen, np.sin(w * t), 0.0)
    rot = np.block([[np.diag(cos), np.diag(sin / w)], [np.diag(-w * sin), np.diag(cos)]])
    var_p = np.where(frozen, 0.0, decomp.diffusion / (2.0 * np.where(frozen, 1.0, decomp.damping)))
    u = _block_diag2(decomp.modes)
    cov = rot @ (u.T @ state.cov @ u) @ rot.T + np.diag(np.concatenate([var_p / w**2, var_p]))
    return GaussianState(u @ rot @ u.T @ state.mean, u @ cov @ u.T)


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
    u = _block_diag2(f)
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
    import scipy.linalg  # the oracle alone needs expm

    if method != "expm":
        raise ValueError(f"unknown method {method!r}; only 'expm' is available")
    _require_rates(decomp)
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be strictly increasing")

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
