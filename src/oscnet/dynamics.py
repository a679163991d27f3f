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
uniform.  The initial covariance is split as sigma (x) I, with sigma the
most common node 2x2 block, plus a signed deviation of rank r <= 2n.  In
the mode basis sigma propagates mode by mode, and its change
E(t) sigma E(t)^T - sigma merges with the relaxation towards the
stationary covariance, diag(D phi / W^2, D phi), into three per-mode
weight series.  A node entry is those weights summed against two rows of
F, plus sigma itself on a node's own entries (so a product state reads
back its own bits at t = 0), plus r products of the rows of the
propagated deviation vectors U E(t) u_k; one kernel
forms every entry, rounded the same whatever it is read with.  A
trajectory keeps the means, each node's 2x2 block and the energy, all
O(T n); its (2n, 2n) covariances are recomputed, the same way, for the
times and rows a caller indexes, so memory does not grow as T n^2.  Each mode's map is a
thermal attenuator, completely positive when D >= G W (Heinosaari,
Holevo & Wolf, QIC 10, 619 (2010)), so a physical initial state stays
physical at every stored time.

:func:`evolve_node_reference` propagates the same physics straight in
the node basis as one dense 2n-dimensional system, advancing each stored
interval with a block matrix exponential.  It shares no code with the
closed-form path, which makes it the cross-check for :func:`evolve`.
The tests hold the other oracles, among them the long-time limit in
closed form that checks the plateau the frozen modes keep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import measures
from .errors import (
    DimensionMismatch,
    NonFiniteMoments,
    PhysicalityViolation,
    UnphysicalCovariance,
    UnphysicalSpec,
)
from .network import NetworkSpec, hamiltonian_matrix
from .spectral import ModeDecomposition

#: Most products, (r + 1) per entry for a deviation of rank r, one time
#: chunk of covariance entries holds: its temporaries then stay within a
#: core's L2 cache, and no (T, 2n, 2n) stack is allocated at any T.
_CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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


def _driven(decomp: ModeDecomposition, times: np.ndarray) -> np.ndarray:
    """D phi per time and mode, shape (T, n), with phi = (1 - e^{-G t}) / 2G
    (t / 2 where G = 0).

    A mode's driven covariance is diag(D phi / W^2, D phi): the stationary
    covariance is invariant under the rotational part of E(t), so the
    relaxation towards it is sigma_inf (1 - e^{-G t}), and with
    D = G W coth(W/2T) that prefactor stays finite as G -> 0.
    """
    g = decomp.damping[None, :]
    g_safe = np.where(g > 0.0, g, 1.0)
    phi = np.where(g > 0.0, -np.expm1(-g * times[:, None]) / (2.0 * g_safe), 0.5 * times[:, None])
    return decomp.diffusion * phi


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


def _weights(decomp: ModeDecomposition, sigma, rot: np.ndarray, dphi: np.ndarray) -> np.ndarray:
    """Per-mode (qq, qp, pp) entries of E(t) sigma E(t)^T - sigma plus the
    driven covariance diag(D phi / W^2, D phi), shape (3, T, n).

    rot is :func:`_rotation` as (2, 2, T, n), and dphi :func:`_driven`.
    blockdiag(F, F) maps sigma (x) I onto itself, so the common node block
    sigma (:func:`_deviation`) sits on every mode in the mode basis; it is
    taken out here and added back on the node entries, so that at t = 0
    (E = I, phi = 0) every weight is exactly zero.
    """
    (var_q, var_p, cov_qp), ((q0, q1), (p0, p1)) = sigma, rot
    return np.stack([
        var_q * q0 * q0 + 2.0 * cov_qp * q0 * q1 + var_p * q1 * q1 - var_q
        + dphi / decomp.freqs**2,
        var_q * q0 * p0 + cov_qp * (q0 * p1 + q1 * p0) + var_p * q1 * p1 - cov_qp,
        var_q * p0 * p0 + 2.0 * cov_qp * p0 * p1 + var_p * p1 * p1 - var_p + dphi,
    ])


def _deviation(cov: np.ndarray):
    """Split a node-basis covariance as sigma (x) I + v diag(lam) v^T.

    sigma = (var_q, var_p, cov_qp) is the most common node block, and
    (lam, v), v of shape (2n, r), the eigenpairs on the rows where cov
    differs from sigma (x) I: r <= 2k when k nodes differ from sigma.
    """
    n = cov.shape[0] // 2
    cov = 0.5 * (cov + cov.T)
    blocks, counts = np.unique(_node_blocks(cov[None])[0], axis=0, return_counts=True)
    var_q, var_p, cov_qp = sigma = blocks[np.argmax(counts)]
    deviation = cov - np.kron([[var_q, cov_qp], [cov_qp, var_p]], np.eye(n))
    rows = np.flatnonzero(np.any(deviation != 0.0, axis=1))
    lam, vecs = np.linalg.eigh(deviation[np.ix_(rows, rows)])
    v = np.zeros((2 * n, rows.shape[0]))
    v[rows] = vecs
    return sigma, lam, v


class _CovarianceView:
    """The (T, 2n, 2n) covariances of an evolved trajectory, computed on access.

    The first index picks times (an int, a slice, or an int or bool
    array).  When the row and column indices after it are both integers or
    integer arrays, only the entries they name are evaluated, each
    distinct unordered entry {a, b} once, and gathered into the shape the
    indices broadcast to: ``covs[::s, r[:, None], r[None, :]]`` computes
    len(r)(len(r) + 1)/2 entries per time instead of (2n)^2, and a pair's
    4 x 4 block 10; picking out the P entries a key names costs O(P).
    Any other key evaluates every entry of the chosen times.  Every entry comes from :meth:`_entries`, whose products all
    commute, so (a, b) and (b, a) hold the same bits and a read holds bit
    for bit the same entries as ``np.asarray(view)``.  They go into a
    fresh array, and nothing is cached.
    """

    def __init__(self, decomp: ModeDecomposition, sigma, lam: np.ndarray, dev: np.ndarray,
                 rel: np.ndarray):
        self._decomp = decomp
        self._sigma = sigma
        self._lam = lam
        self._dev = dev
        self._rel = rel
        self.shape = (rel.shape[0], 2 * decomp.n, 2 * decomp.n)

    def __len__(self) -> int:
        return self.shape[0]

    def _entries(self, coef: np.ndarray, dphi: np.ndarray, a: np.ndarray,
                 b: np.ndarray) -> np.ndarray:
        """Covariance entries (a_p, b_p) per time, shape (T, P), from
        :func:`_rotation` and :func:`_driven` at those times.

        With u_k the initial deviation's vectors in the mode basis (dev)
        and z_k = U E(t) u_k, the entry between node quadratures i and j is

            sum_m F_im F_jm w_m(t) + [i, j one node] sigma_ij
                + sum_k lam_k z_k,i(t) z_k,j(t),

        with w the qq, qp or pp series of :func:`_weights` and sigma_ij the
        matching entry of the common node block.  A q row of z_k
        is sum_m F_im (E_m,qq u_k,qm + E_m,qp u_k,pm), a p row the same
        with E's p row.  Each sum is one c-einsum reduction along a
        contiguous last axis, in an order fixed by n and r, so no entry's
        rounding depends on the other entries or times computed with it.
        """
        decomp, lam = self._decomp, self._lam
        n, f = decomp.n, decomp.modes
        kinds = [(a >= n).astype(int) + (b >= n) == k for k in range(3)]  # qq, qp, pp
        pairs = [f[a[kind] % n] * f[b[kind] % n] for kind in kinds]
        # (sigma (x) I)_ab: sigma on a node's own entries, and +0.0 elsewhere,
        # whose addition changes no entry (bar -0.0 to 0.0)
        offsets = [np.where(a[kind] % n == b[kind] % n, s, 0.0)
                   for kind, s in zip(kinds, self._sigma[[0, 2, 1]])]
        rows, inverse = np.unique(np.concatenate([a, b]), return_inverse=True)
        # z's coefficients on a row of E(t), per row read and k, (rows r, 2n);
        # C order, as every operand, puts each reduction on a contiguous axis
        fr = f[rows % n][:, None, :]
        factor = np.ascontiguousarray(np.concatenate(
            [fr * self._dev[:n].T, fr * self._dev[n:].T], axis=2).reshape(-1, 2 * n))
        split = np.searchsorted(rows, n) * lam.shape[0]
        out = np.empty((dphi.shape[0], a.shape[0]))
        step = max(1, _CHUNK_ELEMENTS // max(1, a.shape[0] * (lam.shape[0] + 1)))
        for chunk in (slice(t, t + step) for t in range(0, out.shape[0], step)):
            rot = np.ascontiguousarray(coef[:, :, chunk].transpose(1, 3, 2, 0))
            weights = _weights(decomp, self._sigma, rot, dphi[chunk])
            for kind, w, pair, offset in zip(kinds, weights, pairs, offsets):
                entries = np.einsum("tm,pm->tp", w, pair)
                entries += offset
                out[chunk, kind] = entries
            e_q, e_p = rot.transpose(0, 2, 1, 3).reshape(2, -1, 2 * n)
            z = np.concatenate([np.einsum("tm,pm->tp", e_q, factor[:split]),
                                np.einsum("tm,pm->tp", e_p, factor[split:])], axis=1)
            z = np.take(z.reshape(e_q.shape[0], rows.shape[0], lam.shape[0]), inverse, axis=1)
            out[chunk] += np.einsum("tpk,tpk,k->tp", z[:, : a.shape[0]], z[:, a.shape[0]:], lam)
        return out

    def __getitem__(self, key) -> np.ndarray:
        first, rest = (key[0], key[1:]) if isinstance(key, tuple) else (key, ())
        picked = np.arange(self.shape[0])[first]
        # An index array for the times broadcasts with the trailing ones, as
        # it would on an array.
        lead = (slice(None) if isinstance(first, slice)
                else np.arange(picked.size).reshape(picked.shape))
        width = self.shape[-1]
        pair = len(rest) == 2 and all(np.asarray(k).dtype.kind in "iu" for k in rest)
        if pair:
            # a and b of each entry named, read off stride-0 (width, width)
            # views: the key costs what it names and fails as on an array.
            # (a, b) and (b, a) share the flat index of the entry with
            # a <= b, so each unordered entry is evaluated once
            cols = np.broadcast_to(np.arange(width), (width, width))
            a, b = cols.T[rest], cols[rest]
            named = np.minimum(a, b) * width + np.maximum(a, b)
            entries, inverse = np.unique(named, return_inverse=True)
        else:
            entries = np.arange(width * width)
        rel = self._rel[picked.ravel()]
        out = self._entries(_rotation(self._decomp, rel), _driven(self._decomp, rel),
                            *np.divmod(entries, width))
        if pair:
            return out[lead, inverse.reshape(named.shape)]
        return out.reshape(-1, width, width)[(lead,) + rest]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = self[:]
        return out if dtype is None else out.astype(dtype, copy=False)


def _mode_energy(decomp: ModeDecomposition, mean0: np.ndarray, cov0: np.ndarray,
                 rel: np.ndarray, dphi: np.ndarray) -> np.ndarray:
    """<H> at relative times rel from each mode's own moments, O(n) per time;
    dphi is :func:`_driven` at rel.

    In the mode basis H = sum_m (P_m^2 + W_m^2 Q_m^2) / 2.  E(t) rotates
    (W Q, P) and scales it by e^{-G t / 2}, so a mode's W^2 <Q^2> + <P^2>,
    means included, is its initial value times e^{-G t}, plus 2 D phi from
    the driven covariance diag(D phi / W^2, D phi).
    """
    n = decomp.n
    w2 = decomp.freqs**2
    initial = w2 * (np.diagonal(cov0)[:n] + mean0[:n] ** 2) + np.diagonal(cov0)[n:] + mean0[n:] ** 2
    decay = np.exp(-rel[:, None] * decomp.damping[None, :])
    return 0.5 * (decay * initial + 2.0 * dphi).sum(axis=1)


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
    ``method`` accepts only ``"exact"``: with m0 the initial mean in the
    mode basis and U E(t) the node-from-mode propagator, the means are
    U E m0.  The covariance is never formed: each node's block
    (var_q, var_p, cov_qp) comes from the entry kernel
    :meth:`_CovarianceView._entries`, at O(T n (n + r)) for an initial
    deviation of rank r (:func:`_deviation`), and the trajectory's
    ``covs`` recomputes the entries it is indexed with the same way.  The
    energy comes from each mode's own 2x2 moments.  Only the initial state
    and the mode channel are checked, once (PhysicalityViolation);
    complete positivity then keeps every stored covariance physical.  A
    non-finite moment raises NonFiniteMoments.
    """
    if method != "exact":
        raise ValueError(f"unknown method {method!r}; only 'exact' is available")
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
    sigma, lam, v = _deviation(state.cov)
    rel = times - times[0]
    dphi = _driven(decomp, rel)
    energy = _mode_energy(decomp, mean0, cov0, rel, dphi)
    coef = _rotation(decomp, rel)
    means = _node_means(decomp, coef, mean0)
    covs = _CovarianceView(decomp, sigma, lam, u @ v, rel)
    # node j's (q_j, q_j), (p_j, p_j) and (q_j, p_j) entries, node by node
    rows, cols = (np.arange(n)[:, None, None] + [[0, 0], [n, n], [0, n]]).reshape(-1, 2).T
    blocks = covs._entries(coef, dphi, rows, cols).reshape(times.shape[0], n, 3)
    if not (np.all(np.isfinite(means)) and np.all(np.isfinite(blocks))):
        raise NonFiniteMoments("evolve produced non-finite moments")

    return Trajectory(times=times.copy(), means=means, covs=covs, energy=energy, blocks=blocks)


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
        raise NonFiniteMoments("the node-basis reference produced non-finite moments")

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
