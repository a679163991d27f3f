"""Synchronization and quantum-correlation measures on Gaussian data.

Classical side: Pearson correlation over sliding half-open windows
[t, t + window) of a uniformly sampled trajectory, and the collective
synchronization factor S(t), the product of |C| over node pairs applied
to the second moments <q_j^2>.

Quantum side: two-mode measures evaluated on 4x4 pair covariances in
quadrature order (x_i, x_j, p_i, p_j): von Neumann mutual information,
logarithmic negativity from the partial-transpose symplectic invariants,
and Gaussian discord, whose conditional entropy minimized over all
single-mode Gaussian measurements comes from the closed form of Adesso &
Datta (PRL 105, 030501, 2010).  Every two-mode measure is batched over
leading axes, so one call serves a whole trajectory.

Vacuum variance is 1/2 throughout, so a symplectic eigenvalue below 1/2
signals an unphysical covariance.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.special import xlogy

from .errors import DimensionMismatch, UnphysicalCovariance
from .network import NetworkSpec, hamiltonian_matrix

#: Minimum number of samples a correlation window must span.
MIN_WINDOW_SAMPLES = 10

#: Most centred samples one block of windows holds in the windowed Pearson.
_PEARSON_BLOCK_ELEMENTS = 1 << 18

#: Slack on the vacuum bound when validating covariances.
PHYSICALITY_TOL = 1e-8

#: Negative values of discord within this tolerance are clamped to zero.
DISCORD_CLAMP_TOL = 1e-9

#: 4 det b - 1 at or below this marks a pure measured mode in the discord
#: (see :func:`_conditional_det_infimum`).
_PURE_MODE_TOL = 1e-8

MUTUAL_INFORMATION = "mutual_information"
DISCORD = "discord"
LOG_NEGATIVITY = "log_negativity"


# ---------------------------------------------------------------------------
# Symplectic spectra and entropies
# ---------------------------------------------------------------------------

def symplectic_form(n: int) -> np.ndarray:
    """The 2n x 2n form J = [[0, I], [-I, 0]] in (x..., p...) ordering."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def symplectic_spectrum(cov: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues, ascending; supports batched (..., 2n, 2n) input.

    The spectrum is read off the singular values of L^T J L with
    cov = L L^T: that matrix is antisymmetric, so its singular values are
    the moduli of its eigenvalues (each appearing twice) and the SVD cannot
    fail to converge; the +/- pairs are averaged to suppress roundoff
    splitting.  A batch holding a covariance that is not positive definite
    has no Cholesky factor and raises UnphysicalCovariance.
    """
    cov = np.asarray(cov, dtype=float)
    n2 = cov.shape[-1]
    if n2 % 2 != 0 or cov.shape[-2] != n2:
        raise DimensionMismatch("covariance must be square with even dimension")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise UnphysicalCovariance("covariance is not positive definite") from exc
    skew = np.swapaxes(chol, -1, -2) @ symplectic_form(n2 // 2) @ chol
    sv = np.linalg.svd(skew, compute_uv=False)
    return (0.5 * (sv[..., 0::2] + sv[..., 1::2]))[..., ::-1]


def _entropy_term(nu: np.ndarray) -> np.ndarray:
    nu = np.maximum(nu, 0.5)
    return xlogy(nu + 0.5, nu + 0.5) - xlogy(nu - 0.5, nu - 0.5)


def von_neumann_entropy(cov: np.ndarray) -> float | np.ndarray:
    """Entropy (nats) of a Gaussian state from its symplectic spectrum."""
    nus = symplectic_spectrum(cov)
    if np.any(nus < 0.5 - PHYSICALITY_TOL):
        raise UnphysicalCovariance(
            f"symplectic eigenvalue {nus.min():.6g} below the vacuum floor 1/2"
        )
    out = _entropy_term(nus).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def purity(cov: np.ndarray) -> float | np.ndarray:
    """Tr rho^2 = 1 / (2^n sqrt(det cov)); 1 for pure states."""
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[-1] // 2
    det = np.linalg.det(cov)
    if np.any(det <= 0.0):
        raise UnphysicalCovariance("covariance has non-positive determinant")
    out = 1.0 / (2.0**n * np.sqrt(det))
    return float(out) if out.ndim == 0 else out


def energy(state, net: NetworkSpec) -> float:
    """Mean energy <H> including first moments; state must be node-basis."""
    if state.basis != "node":
        raise ValueError("energy expects a node-basis state")
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


# ---------------------------------------------------------------------------
# Windowed correlation and the collective factor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowedSeries:
    """A sliding-window statistic: value[k] covers [times[k], times[k] + window)."""

    times: np.ndarray
    values: np.ndarray
    window: float
    samples: int
    degenerate: np.ndarray

    def __len__(self) -> int:
        return self.times.shape[0]


def _window_samples(times: np.ndarray, window: float) -> tuple[int, float]:
    times = np.asarray(times, dtype=float)
    dts = np.diff(times)
    dt = dts[0]
    if not np.allclose(dts, dt, rtol=1e-9, atol=0.0):
        raise ValueError("windowed statistics need a uniform time grid")
    samples = int(round(window / dt))
    if samples < MIN_WINDOW_SAMPLES:
        raise ValueError(
            f"window {window:.6g} spans {samples} samples; need at least {MIN_WINDOW_SAMPLES}"
        )
    if samples > times.shape[0]:
        raise ValueError("window is longer than the sampled series")
    return samples, samples * dt


def _pearson_blocks(series, window, pairs):
    """Correlation over sliding half-open windows of `window` samples,
    yielded as consecutive (b, P) blocks of windows.

    series: (T, K) float array; pairs: (P, 2) int array of column indices.
    The blocks cover the T - window + 1 windows in order; windows with
    zero variance give NaN.  Each window is centred on its own mean before
    its sums are taken (a window-local two-pass), so no sum carries digits
    lost to an earlier transient into a later window.  The sums of a
    window are one (K, K) Gram product of its centred samples, one matrix
    product per window, from which every pair is gathered.  A block holds
    at most _PEARSON_BLOCK_ELEMENTS centred samples, which bounds memory.
    The input is first copied to one fixed layout, so the result does not
    depend on how the caller's array is laid out in memory.
    """
    cols = np.ascontiguousarray(np.asarray(series, dtype=float).T)
    n_win = cols.shape[1] - window + 1
    windows = np.lib.stride_tricks.sliding_window_view(cols, window, axis=1)
    block = max(1, _PEARSON_BLOCK_ELEMENTS // (cols.shape[0] * window))
    k = cols.shape[0]
    i, j = pairs[:, 0], pairs[:, 1]
    for start in range(0, n_win, block):
        win = windows[:, start : start + block]
        dev = np.swapaxes(win - win.mean(axis=2, keepdims=True), 0, 1)
        # One Gram matrix per window over every series; the pairs are
        # gathered from it.  A zero variance leaves NaN in its scale.
        gram = (dev @ np.swapaxes(dev, 1, 2)).reshape(-1, k * k)
        norm = np.sqrt(gram[:, :: k + 1])
        scale = np.divide(1.0, norm, out=np.full(norm.shape, np.nan), where=norm > 0.0)
        rows = gram[:, i * k + j] * scale[:, i] * scale[:, j]
        yield np.clip(rows, -1.0, 1.0, out=rows)


def _windowed_pearson(series, window, pairs):
    """The blocks of :func:`_pearson_blocks` as one (T - window + 1, P) array."""
    return np.concatenate(list(_pearson_blocks(series, window, pairs)))


def windowed_correlation(times, f, g, window: float) -> WindowedSeries:
    """Pearson C(t) of two series over sliding windows of the given length.

    Windows with zero variance in either series yield NaN and are marked
    in the ``degenerate`` mask.
    """
    times = np.asarray(times, dtype=float)
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != times.shape or g.shape != times.shape:
        raise DimensionMismatch("series must match the time grid")
    samples, actual = _window_samples(times, window)
    series = np.stack([f, g], axis=1)
    pairs = np.array([[0, 1]], dtype=np.int64)
    values = _windowed_pearson(series, samples, pairs)[:, 0]
    degenerate = np.isnan(values)
    return WindowedSeries(
        times=times[: values.shape[0]].copy(),
        values=values,
        window=actual,
        samples=samples,
        degenerate=degenerate,
    )


def collective_sync(traj, window: float, subset=None) -> WindowedSeries:
    """S(t): product over node pairs of |C| applied to the <q_j^2> series.

    ``subset`` restricts to the given node indices (default: all nodes).
    Any degenerate pair window makes S(t) NaN there, with the mask set.
    """
    signal = traj.second_moment_q
    nodes = np.arange(traj.n) if subset is None else np.asarray(subset, dtype=np.int64)
    if nodes.shape[0] < 2:
        raise ValueError("collective synchronization needs at least two nodes")
    if np.unique(nodes).shape[0] != nodes.shape[0]:
        raise ValueError("subset contains repeated nodes")
    samples, actual = _window_samples(traj.times, window)
    pairs = np.array(list(combinations(range(nodes.shape[0]), 2)), dtype=np.int64)
    # Reduced block by block: the (windows, pairs) correlations are never
    # held whole, since they grow as n^2 T.
    values, degenerate = [], []
    for corr in _pearson_blocks(signal[:, nodes], samples, pairs):
        values.append(np.abs(corr).prod(axis=1))
        degenerate.append(np.isnan(corr).any(axis=1))
    values = np.concatenate(values)
    degenerate = np.concatenate(degenerate)
    return WindowedSeries(
        times=traj.times[: values.shape[0]].copy(),
        values=values,
        window=actual,
        samples=samples,
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# Two-mode measures on 4x4 pair covariances
# ---------------------------------------------------------------------------

def pair_covariance(cov: np.ndarray, i: int, j: int, n: int) -> np.ndarray:
    """Extract the (x_i, x_j, p_i, p_j) covariance from a (2n, 2n) matrix.

    Works on batched (..., 2n, 2n) input.
    """
    if i == j:
        raise ValueError("pair needs two distinct nodes")
    idx = np.array([i, j, n + i, n + j])
    return np.asarray(cov)[..., idx[:, None], idx[None, :]]


def _det2(m: np.ndarray) -> np.ndarray:
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _pair_blocks(cov4):
    cov4 = np.asarray(cov4, dtype=float)
    if cov4.shape[-2:] != (4, 4):
        raise DimensionMismatch("expected a two-mode covariance of shape (..., 4, 4)")
    a_idx = np.array([0, 2])
    b_idx = np.array([1, 3])
    a = cov4[..., a_idx[:, None], a_idx[None, :]]
    b = cov4[..., b_idx[:, None], b_idx[None, :]]
    c = cov4[..., a_idx[:, None], b_idx[None, :]]
    return a, b, c


def _pair_nus(cov4):
    """Symplectic pair (nu_minus, nu_plus) of a two-mode covariance.

    Computed from the spectrum of J sigma rather than the textbook
    two-mode invariants: the invariant route cancels catastrophically
    for near-pure pairs (the discriminant is a difference of fourth
    powers of the squeezing scale) and its sqrt(eps)-level noise is
    enough to trip the physicality gate.
    """
    cov4 = np.asarray(cov4, dtype=float)
    if cov4.shape[-2:] != (4, 4):
        raise DimensionMismatch("expected a two-mode covariance of shape (..., 4, 4)")
    nus = symplectic_spectrum(cov4)
    return nus[..., 0], nus[..., 1]


def _check_pair_physical(cov4):
    """(nu_minus, nu_plus) of a positive-definite two-mode covariance that
    passes the vacuum floor; UnphysicalCovariance otherwise."""
    nu_minus, nu_plus = _pair_nus(cov4)
    if np.any(nu_minus < 0.5 - PHYSICALITY_TOL):
        raise UnphysicalCovariance(
            f"two-mode symplectic eigenvalue {np.min(nu_minus):.6g} below 1/2"
        )
    return nu_minus, nu_plus


def _local_entropy(block):
    """Entropy of one mode from its 2x2 covariance block, batched."""
    return _entropy_term(np.sqrt(np.maximum(_det2(block), 0.25)))


def _mutual_information(cov4, nu_minus, nu_plus):
    a, b, _ = _pair_blocks(cov4)
    out = (
        _local_entropy(a)
        + _local_entropy(b)
        - _entropy_term(nu_minus)
        - _entropy_term(nu_plus)
    )
    return np.maximum(out, 0.0)


def mutual_information(cov4) -> float | np.ndarray:
    """I = S(A) + S(B) - S(AB) in nats; batched over leading axes."""
    nus = _check_pair_physical(cov4)
    out = _mutual_information(cov4, *nus)
    return float(out) if out.ndim == 0 else out


def _log_negativity(cov4, nu_minus, nu_plus):
    # The pair's own spectrum is unused: E_N reads the partial transpose's.
    flipped = np.array(cov4, dtype=float, copy=True)
    flipped[..., 3, :] *= -1.0
    flipped[..., :, 3] *= -1.0
    nu_t = symplectic_spectrum(flipped)[..., 0]
    return np.maximum(-np.log(2.0 * nu_t), 0.0)


def log_negativity(cov4) -> float | np.ndarray:
    """E_N = max(0, -ln 2 nu~_minus) with nu~ from the partial transpose.

    Transposing the second mode negates its momentum row and column; the
    smallest symplectic eigenvalue of the flipped covariance then sets
    the entanglement (same stability argument as :func:`_pair_nus`).
    """
    nus = _check_pair_physical(cov4)
    out = _log_negativity(cov4, *nus)
    return float(out) if out.ndim == 0 else out


def _conditional_det_infimum(a, b, c, nu_minus, nu_plus):
    """Infimum of det(a - c (b + sigma_M)^-1 c^T) over Gaussian measurements sigma_M of B.

    Closed form of Adesso & Datta, PRL 105, 030501 (2010), batched over
    the (..., 2, 2) blocks and the symplectic pair of the whole state.
    The paper's invariants assume vacuum variance 1: A = 4 det a,
    B = 4 det b, C = 4 det c, D = 16 det sigma, and its E_min is 4 times
    the determinant returned here:

        E_min = [(|C| + sqrt(C^2 + (B - 1)(D - A))) / (B - 1)]^2
                if (D - AB)^2 <= (1 + B) C^2 (A + D),

    and otherwise the homodyne limit of an infinitely squeezed sigma_M.

    Rewrites that keep the digits the paper's expressions lose:
    - the homodyne branch is det a (1 - lambda_max), lambda_max the largest
      Rayleigh quotient of c^T a^-1 c against b, taken from the symmetric
      matrix L^-1 c^T a^-1 c L^-T (b = L L^T) so that the degenerate
      eigenvalues of symmetric states lose no digits;
    - D - AB = C^2 - AB tr(b^-1 c^T a^-1 c), which does not cancel D
      against AB for weak correlations;
    - the general branch's radicand C^2 + (B - 1)(D - A) equals
      (C + B - 1)^2 + (B - 1)(4 nu_-^2 - 1)(4 nu_+^2 - 1), a sum of
      non-negative terms that stays accurate near a pure state, where the
      paper's form cancels terms of order A B;
    - pure states sit on the branch boundary, where both branches agree
      and the general one never lies above the homodyne limit, so the
      smaller is kept;
    - a pure measured mode (B = 1) forces c = 0, so the infimum is det a,
      which the homodyne branch gives, while the general one is 0 / 0.
      Within _PURE_MODE_TOL of B = 1 the homodyne value, which is then
      within O(B - 1) of the infimum, is kept as well: the general
      branch's radicand loses digits as eps / (B - 1) there.
    """
    det_a = _det2(a)
    chol_inv = np.linalg.inv(np.linalg.cholesky(b))
    k = chol_inv @ np.swapaxes(c, -1, -2) @ np.linalg.solve(a, c) @ np.swapaxes(chol_inv, -1, -2)
    homodyne = det_a * (1.0 - np.linalg.eigvalsh(k)[..., -1])

    big_a, big_b, big_c = 4.0 * det_a, 4.0 * _det2(b), 4.0 * _det2(c)
    big_d = (4.0 * nu_minus * nu_plus) ** 2
    d_minus_ab = big_c**2 - big_a * big_b * (k[..., 0, 0] + k[..., 1, 1])
    pure_b = big_b - 1.0 <= _PURE_MODE_TOL
    bm1 = np.where(pure_b, 1.0, big_b - 1.0)
    # (4 nu_-^2 - 1)(4 nu_+^2 - 1), factored so that nu -> 1/2 keeps its digits
    excess = (2.0 * nu_minus - 1.0) * (2.0 * nu_minus + 1.0)
    excess = excess * (2.0 * nu_plus - 1.0) * (2.0 * nu_plus + 1.0)
    root = np.sqrt(np.maximum((big_c + bm1) ** 2 + bm1 * excess, 0.0))
    general = ((np.abs(big_c) + root) / bm1) ** 2 / 4.0
    use_general = ~pure_b & (d_minus_ab**2 <= (1.0 + big_b) * big_c**2 * (big_a + big_d))
    out = np.where(use_general, np.minimum(general, homodyne), homodyne)
    return np.maximum(out, 0.25)


def _gaussian_discord(cov4, nu_minus, nu_plus, measured="B"):
    a, b, c = _pair_blocks(cov4)
    if measured == "A":
        a, b, c = b, a, np.swapaxes(c, -1, -2)
    elif measured != "B":
        raise ValueError("measured side must be 'A' or 'B'")
    # D = I(A:B) - [S(A) - S(A|B measured)] = S(B) - S(AB) + S(A|B measured)
    disc = (
        _local_entropy(b)
        - _entropy_term(nu_minus)
        - _entropy_term(nu_plus)
        + _entropy_term(np.sqrt(_conditional_det_infimum(a, b, c, nu_minus, nu_plus)))
    )
    if np.any(disc < -DISCORD_CLAMP_TOL):
        raise UnphysicalCovariance(
            f"discord came out {np.min(disc):.3g} < 0 beyond tolerance"
        )
    return np.maximum(disc, 0.0)


def gaussian_discord(cov4, measured: str = "B") -> float | np.ndarray:
    """Gaussian quantum discord of a two-mode covariance; batched over leading axes.

    ``measured`` names the mode the Gaussian measurement acts on ("B",
    the second mode, by default).  The minimal conditional entropy comes
    from the Adesso-Datta closed form.  Small negative results (roundoff)
    clamp to zero.
    """
    nus = _check_pair_physical(cov4)
    out = _gaussian_discord(cov4, *nus, measured=measured)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Trajectory-level aggregation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairSeries:
    """One measure evaluated per stored time and node pair."""

    times: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    values: np.ndarray
    excluded: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class AveragedSeries:
    """Pair-averaged measure, moving-average filtered over the window."""

    times: np.ndarray
    values: np.ndarray
    window: float
    samples: int
    excluded: tuple[tuple[int, int], ...]


#: Each takes (cov4, nu_minus, nu_plus) of a pair already checked physical.
_PAIR_MEASURES = {
    MUTUAL_INFORMATION: _mutual_information,
    DISCORD: _gaussian_discord,
    LOG_NEGATIVITY: _log_negativity,
}


def _all_pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(combinations(range(n), 2))


def pair_measure_series(traj, measure: str, pairs=None, stride: int = 1) -> PairSeries:
    """Evaluate one two-mode measure on every (time, pair) of a trajectory.

    Pairs whose covariance is not positive definite or fails the
    physicality floor anywhere in the series are dropped and reported in
    ``excluded`` (NaN-filled columns).
    The symplectic pair computed for that check is handed to the measure,
    so each (time, pair) costs one spectrum (two for log-negativity).
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if measure not in _PAIR_MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    pair_list = _all_pairs(traj.n) if pairs is None else [tuple(p) for p in pairs]
    if any(i == j for i, j in pair_list):
        raise ValueError("pair needs two distinct nodes")
    n = traj.n
    quads = np.array([[i, j, n + i, n + j] for i, j in pair_list], dtype=np.int64).reshape(-1, 4)
    # One read of the union of the pairs' quadrature rows: an evolved
    # trajectory computes only those entries, an array is sliced.
    rows = np.unique(quads)
    covs = traj.covs[::stride, rows[:, None], rows[None, :]]
    local = np.searchsorted(rows, quads)
    times = traj.times[::stride]
    values = np.full((times.shape[0], len(pair_list)), np.nan)
    excluded = []
    for k, (i, j) in enumerate(pair_list):
        cov4 = covs[:, local[k, :, None], local[k, None, :]]
        try:
            nu_minus, nu_plus = _check_pair_physical(cov4)
        except UnphysicalCovariance:
            excluded.append((i, j))
            continue
        values[:, k] = _PAIR_MEASURES[measure](cov4, nu_minus, nu_plus)
    return PairSeries(
        times=times.copy(),
        pairs=tuple(pair_list),
        values=values,
        excluded=tuple(excluded),
    )


def _smoothed_pair_mean(values, keep, samples: int) -> np.ndarray:
    """Mean over the kept pair columns, then a cumsum moving average over
    ``samples`` consecutive rows; all NaN when no pair is kept."""
    if not keep:
        return np.full(max(values.shape[0] - samples + 1, 0), np.nan)
    csum = np.concatenate([[0.0], np.cumsum(values[:, keep].mean(axis=1))])
    return (csum[samples:] - csum[:-samples]) / samples


def pairwise_average(
    traj,
    measure: str,
    window: float,
    pairs=None,
    stride: int = 1,
) -> AveragedSeries:
    """Mean of a two-mode measure over node pairs, then moving-averaged.

    The moving average uses the same half-open window convention as the
    correlation measures, applied on the (possibly strided) grid.
    """
    series = pair_measure_series(traj, measure, pairs, stride)
    keep = [k for k, p in enumerate(series.pairs) if p not in set(series.excluded)]
    if not keep:
        raise UnphysicalCovariance("every pair was excluded as unphysical")
    dts = np.diff(series.times)
    dt = dts[0]
    if not np.allclose(dts, dt, rtol=1e-9, atol=0.0):
        raise ValueError("moving average needs a uniform time grid")
    samples = max(1, int(round(window / dt)))
    if samples > series.values.shape[0]:
        raise ValueError("window is longer than the sampled series")
    smoothed = _smoothed_pair_mean(series.values, keep, samples)
    return AveragedSeries(
        times=series.times[: smoothed.shape[0]].copy(),
        values=smoothed,
        window=samples * dt,
        samples=samples,
        excluded=series.excluded,
    )
