"""Synchronization and quantum-correlation measures on Gaussian data.

Classical side: Pearson correlation over sliding half-open windows
[t, t + window) of a uniformly sampled trajectory, for many column pairs
in one pass, and the collective synchronization factor S(t), the product
of |C| over node pairs applied to the second moments <q_j^2>.

Quantum side: two-mode measures evaluated on 4x4 pair covariances in
quadrature order (x_i, x_j, p_i, p_j): von Neumann mutual information,
logarithmic negativity from the partial transpose's smallest symplectic
eigenvalue, and Gaussian discord, whose conditional entropy minimized
over all single-mode Gaussian measurements comes from the closed form of
Adesso & Datta (PRL 105, 030501, 2010).  Each is one elementwise pass of
closed forms over a (..., 4, 4) stack: a 4x4 Cholesky factor, the so(4)
split of L^T J L for the symplectic pair and, from the same factor, for
the partial transpose, and 2x2 algebra written out for the discord.  So
one call serves every time and every pair of a trajectory, and a
covariance that is not positive definite marks only its own entry.
:func:`symplectic_spectrum` (an SVD) remains the n-mode route: ``evolve``
checks its initial state with it, and the tests use it as the two-mode
oracle.

Vacuum variance is 1/2 throughout, so a symplectic eigenvalue below 1/2
signals an unphysical covariance.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DimensionMismatch, UnphysicalCovariance

#: Minimum number of samples a correlation window must span.
MIN_WINDOW_SAMPLES = 10

#: Most elements one block holds: centred samples in the windowed Pearson,
#: pair covariance entries in the pair measures.
_PEARSON_BLOCK_ELEMENTS = 1 << 18

#: A window whose standard deviation is at most this many ulp of its mean's
#: magnitude (std <= _FLAT_WINDOW_ULPS * eps * |mean|) is flat.  Its samples
#: then differ only in roundoff: each is rounded to an ulp of the mean, and
#: the window mean and its centring add a few more, so their correlation
#: with any other series is an arbitrary number.  The correlation is NaN.
_FLAT_WINDOW_ULPS = 64

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
    """(nu + 1/2) log(nu + 1/2) - (nu - 1/2) log(nu - 1/2), with 0 log 0 = 0."""
    nu = np.maximum(nu, 0.5)
    hi, lo = nu + 0.5, nu - 0.5
    return hi * np.log(hi) - lo * np.log(np.where(lo > 0.0, lo, 1.0))


# ---------------------------------------------------------------------------
# Windowed correlation and the collective factor
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class WindowedSeries:
    """A sliding-window statistic: value[k] covers [times[k], times[k] + window).

    A flat window (``_FLAT_WINDOW_ULPS``) in a series it reads is NaN in ``values``.
    """

    times: np.ndarray
    values: np.ndarray
    window: float
    samples: int

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


def _pearson_blocks(series, window, pairs, step=1):
    """Correlation over sliding half-open windows of `window` samples,
    yielded as consecutive (b, P) blocks of windows.

    series: (T, K) float array; pairs: (P, 2) int array of column indices.
    The blocks cover, in order, the windows that start at every step-th of
    the T - window + 1 possible starts; flat windows (_FLAT_WINDOW_ULPS)
    give NaN.  Each window is centred on its own mean before its sums are
    taken (a window-local two-pass), so no sum carries digits lost to an
    earlier transient into a later window.  The sums of a
    window are one (K, K) Gram product of its centred samples, one matrix
    product per window, from which every pair is gathered.  A block holds
    at most _PEARSON_BLOCK_ELEMENTS centred samples, which bounds memory.
    The input is first copied to one fixed layout, so the result does not
    depend on how the caller's array is laid out in memory.
    """
    cols = np.ascontiguousarray(np.asarray(series, dtype=float).T)
    windows = np.lib.stride_tricks.sliding_window_view(cols, window, axis=1)[:, ::step]
    n_win = windows.shape[1]
    block = max(1, _PEARSON_BLOCK_ELEMENTS // (cols.shape[0] * window))
    k = cols.shape[0]
    i, j = pairs[:, 0], pairs[:, 1]
    # the norm of a window's centred samples is sqrt(window) times its std
    flat_scale = _FLAT_WINDOW_ULPS * np.finfo(float).eps * np.sqrt(window)
    for start in range(0, n_win, block):
        win = windows[:, start : start + block]
        mean = win.mean(axis=2, keepdims=True)
        dev = np.swapaxes(win - mean, 0, 1)
        # One Gram matrix per window over every series; the pairs are
        # gathered from it.  A flat window leaves NaN in its scale.
        gram = (dev @ np.swapaxes(dev, 1, 2)).reshape(-1, k * k)
        norm = np.sqrt(gram[:, :: k + 1])
        live = norm > flat_scale * np.abs(mean[..., 0].T)
        scale = np.divide(1.0, norm, out=np.full(norm.shape, np.nan), where=live)
        rows = gram[:, i * k + j] * scale[:, i] * scale[:, j]
        yield np.clip(rows, -1.0, 1.0, out=rows)


def _windowed_pearson(series, window, pairs, step=1):
    """The blocks of :func:`_pearson_blocks` as one (windows, P) array,
    filled in place, so memory holds the result and one block."""
    out = np.empty(((np.shape(series)[0] - window) // step + 1, len(pairs)))
    start = 0
    for block in _pearson_blocks(series, window, pairs, step):
        out[start : start + block.shape[0]] = block
        start += block.shape[0]
    return out


def windowed_correlation(times, series, window: float, pairs, stride: int = 1) -> WindowedSeries:
    """Pearson C(t) of column pairs of ``series`` over sliding windows.

    series: (T, K) samples of K series on the time grid; pairs: (P, 2)
    column indices.  ``values`` is (windows, P), one column per pair, from
    one pass over the union of the named columns.  Windows start at every
    ``stride``-th sample, the grid the pair measures use with the same
    stride.  Windows flat in either series (``_FLAT_WINDOW_ULPS``) yield NaN.
    """
    times = np.asarray(times, dtype=float)
    series = np.asarray(series, dtype=float)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if series.ndim != 2 or series.shape[0] != times.shape[0]:
        raise DimensionMismatch("series must be (times, columns) on the time grid")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    samples, actual = _window_samples(times, window)
    cols = np.unique(pairs)
    values = _windowed_pearson(series[:, cols], samples, np.searchsorted(cols, pairs), stride)
    return WindowedSeries(
        times=times[::stride][: values.shape[0]].copy(),
        values=values,
        window=actual,
        samples=samples,
    )


def collective_sync(traj, window: float, subset=None, stride: int = 1) -> WindowedSeries:
    """S(t): product over node pairs of |C| applied to the <q_j^2> series.

    ``subset`` restricts to the given node indices (default: all nodes).
    Windows start at every ``stride``-th sample, as in
    :func:`windowed_correlation`; each window is computed on its own, so
    a strided series equals every ``stride``-th value of the full one.
    A flat window (``_FLAT_WINDOW_ULPS``) of any node read makes S(t) NaN there.
    """
    signal = traj.second_moment_q
    nodes = np.arange(traj.n) if subset is None else np.asarray(subset, dtype=np.int64)
    if nodes.shape[0] < 2:
        raise ValueError("collective synchronization needs at least two nodes")
    if np.unique(nodes).shape[0] != nodes.shape[0]:
        raise ValueError("subset contains repeated nodes")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    samples, actual = _window_samples(traj.times, window)
    pairs = np.array(list(combinations(range(nodes.shape[0]), 2)), dtype=np.int64)
    # Reduced block by block: the (windows, pairs) correlations are never
    # held whole, since they grow as n^2 T.
    values = np.concatenate([
        np.abs(corr).prod(axis=1)
        for corr in _pearson_blocks(signal[:, nodes], samples, pairs, stride)
    ])
    return WindowedSeries(
        times=traj.times[::stride][: values.shape[0]].copy(),
        values=values,
        window=actual,
        samples=samples,
    )


# ---------------------------------------------------------------------------
# Two-mode measures on 4x4 pair covariances
# ---------------------------------------------------------------------------
#
# The kernels below work entry by entry: s[i, j] is sigma_ij of every
# covariance in a stack, as one contiguous array over the stack's leading
# axes, so a (T, P, 4, 4) stack of P pairs at T times is one elementwise
# pass, and each (time, pair) gets the same arithmetic whatever else shares
# the stack.

def _entries(cov4) -> np.ndarray:
    """A (..., 4, 4) stack as s with s[i, j] = sigma_ij, each contiguous."""
    cov4 = np.asarray(cov4, dtype=float)
    if cov4.shape[-2:] != (4, 4):
        raise DimensionMismatch("expected a two-mode covariance of shape (..., 4, 4)")
    return np.moveaxis(cov4, (-2, -1), (0, 1)).copy()


def _cholesky(s):
    """Lower Cholesky factor of sigma = L L^T, entry by entry.

    Returns (positive_definite, l) with l[i][k] = L_ik for k <= i.  A pivot
    at or below zero marks its entry not positive definite; it and every
    later pivot of that entry are replaced by one, so the rest of the
    factor stays finite, and it is the exact factor of some positive
    definite matrix.
    """
    ok = np.ones(s.shape[2:], dtype=bool)
    l = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for k in range(i + 1):
            acc = s[i, k]
            for m in range(k):
                acc = acc - l[i][m] * l[k][m]
            if i == k:
                ok &= acc > 0.0
                l[i][i] = np.sqrt(np.where(ok, acc, 1.0))
            else:
                l[i][k] = acc / l[k][k]
    return ok, l


def _symplectic_pair(l, sign: float = 1.0):
    """(nu_minus, nu_plus) from the Cholesky rows l, of the partial transpose for sign -1.

    The symplectic eigenvalues of sigma = L L^T are the singular values of
    the antisymmetric K = L^T J L, each twice.  With l_a the rows of L in
    (x_i, x_j, p_i, p_j) order, K = K_A + K_B where K_A = l_0 ^ l_2 and
    K_B = l_1 ^ l_3 (u ^ v = u v^T - v u^T).  Transposing mode B negates
    its block of J, which gives K_A - K_B, up to a sign on row and column
    3 that leaves the singular values alone.  A lower-triangular L leaves
    K_A two entries and K_B five, and k_23 = 0.

    A 4x4 antisymmetric matrix splits into a self-dual and an
    anti-self-dual part (the so(4) = so(3) + so(3) split), with norms

        |K+|^2 = (k01 + k23)^2 + (k02 - k13)^2 + (k03 + k12)^2,
        |K-|^2 = (k01 - k23)^2 + (k02 + k13)^2 + (k03 - k12)^2,

    that are nu_+ + nu_- and |nu_+ - nu_-| in some order, so
    nu_+ = (|K+| + |K-|) / 2, a sum of squares that loses no digits.
    nu_- comes from the Pfaffian, nu_- nu_+ = |Pf K| = det L, the product of
    L's diagonal: the difference (|K+| - |K-|) / 2 would cancel when
    nu_- << nu_+, as for the partial transpose of a squeezed pair.  The
    textbook invariants are avoided too: their discriminant is a difference
    of fourth powers of the squeezing scale.
    """
    k01 = l[0][0] * l[2][1] + sign * (l[1][0] * l[3][1] - l[3][0] * l[1][1])
    k02 = l[0][0] * l[2][2]
    b02, b03 = l[1][0] * l[3][2], l[1][0] * l[3][3]
    b12, b13 = l[1][1] * l[3][2], l[1][1] * l[3][3]
    self_dual = np.sqrt(k01**2 + (k02 + sign * (b02 - b13)) ** 2 + (b03 + b12) ** 2)
    anti_dual = np.sqrt(k01**2 + (k02 + sign * (b02 + b13)) ** 2 + (b03 - b12) ** 2)
    nu_plus = 0.5 * (self_dual + anti_dual)
    return l[0][0] * l[1][1] * l[2][2] * l[3][3] / nu_plus, nu_plus


def _pair_blocks(s):
    """The 2x2 blocks of sigma = [[a, c], [c^T, b]] in mode order, entry by entry.

    a and b, the blocks of the unmeasured mode A and the measured mode B,
    are symmetric and given as (xx, xp, pp); c, rows from A and columns
    from B, as ((c00, c01), (c10, c11)).
    """
    a = (s[0, 0], s[0, 2], s[2, 2])
    b = (s[1, 1], s[1, 3], s[3, 3])
    c = ((s[0, 1], s[0, 3]), (s[2, 1], s[2, 3]))
    return a, b, c


def _det_sym(m):
    return m[0] * m[2] - m[1] ** 2


def _local_entropy(det):
    """Entropy of one mode from the determinant of its 2x2 block."""
    return _entropy_term(np.sqrt(np.maximum(det, 0.25)))


def _mutual_information(s, l, nu_minus, nu_plus):
    a, b, _ = _pair_blocks(s)
    return (
        _local_entropy(_det_sym(a))
        + _local_entropy(_det_sym(b))
        - _entropy_term(nu_minus)
        - _entropy_term(nu_plus)
    )


def _log_negativity(s, l, nu_minus, nu_plus):
    # The pair's own spectrum is unused: E_N reads the partial transpose's.
    return -np.log(2.0 * _symplectic_pair(l, -1.0)[0])


def _conditional_det_infimum(a, b, c, nu_minus, nu_plus):
    """Infimum of det(a - c (b + sigma_M)^-1 c^T) over Gaussian measurements sigma_M of B.

    Closed form of Adesso & Datta, PRL 105, 030501 (2010), entry by entry
    over the blocks of :func:`_pair_blocks` and the symplectic pair of the
    whole state.  Returns (infimum, general), general marking the entries
    where the branch test below picks the general branch.  The paper's
    invariants assume vacuum variance 1: A = 4 det a, B = 4 det b,
    C = 4 det c, D = 16 det sigma, and its E_min is 4 times the determinant
    returned here:

        E_min = [(|C| + sqrt(C^2 + (B - 1)(D - A))) / (B - 1)]^2
                if (D - AB)^2 <= (1 + B) C^2 (A + D),

    and otherwise the homodyne limit of an infinitely squeezed sigma_M.

    Rewrites that keep the digits the paper's expressions lose:
    - the homodyne branch is det a (1 - lambda_max), lambda_max the largest
      Rayleigh quotient of c^T a^-1 c against b, taken from the symmetric
      matrix k = W a^-1 W^T with W = L^-1 c^T (b = L L^T) so that the
      degenerate eigenvalues of symmetric states lose no digits;
    - every 2x2 step is written out: a^-1 is adj(a) / det a, W comes from
      two forward substitutions with b's Cholesky factor, and the largest
      eigenvalue of the symmetric k is
      (k00 + k11) / 2 + hypot((k00 - k11) / 2, k01);
    - D - AB = C^2 - AB tr(b^-1 c^T a^-1 c), with the trace that of k, which
      does not cancel D against AB for weak correlations;
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
    a00, a01, a11 = a
    (c00, c01), (c10, c11) = c
    det_a = _det_sym(a)
    det_b = _det_sym(b)
    # Rows of W = L^-1 c^T, by forward substitution with b = L L^T.
    l00 = np.sqrt(b[0])
    l10 = b[1] / l00
    l11 = np.sqrt(b[2] - l10**2)
    w00, w01 = c00 / l00, c10 / l00
    w10, w11 = (c01 - l10 * w00) / l11, (c11 - l10 * w01) / l11

    def quadratic(u0, u1, v0, v1):
        # u^T a^-1 v with a^-1 = adj(a) / det a
        return (a11 * u0 * v0 - a01 * (u0 * v1 + u1 * v0) + a00 * u1 * v1) / det_a

    k00 = quadratic(w00, w01, w00, w01)
    k01 = quadratic(w00, w01, w10, w11)
    k11 = quadratic(w10, w11, w10, w11)
    lam_max = 0.5 * (k00 + k11) + np.hypot(0.5 * (k00 - k11), k01)
    homodyne = det_a * (1.0 - lam_max)

    big_a, big_b, big_c = 4.0 * det_a, 4.0 * det_b, 4.0 * (c00 * c11 - c01 * c10)
    big_d = (4.0 * nu_minus * nu_plus) ** 2
    d_minus_ab = big_c**2 - big_a * big_b * (k00 + k11)
    pure_b = big_b - 1.0 <= _PURE_MODE_TOL
    bm1 = np.where(pure_b, 1.0, big_b - 1.0)
    # (4 nu_-^2 - 1)(4 nu_+^2 - 1), factored so that nu -> 1/2 keeps its digits
    excess = (2.0 * nu_minus - 1.0) * (2.0 * nu_minus + 1.0)
    excess = excess * (2.0 * nu_plus - 1.0) * (2.0 * nu_plus + 1.0)
    root = np.sqrt(np.maximum((big_c + bm1) ** 2 + bm1 * excess, 0.0))
    general = ((np.abs(big_c) + root) / bm1) ** 2 / 4.0
    use_general = ~pure_b & (d_minus_ab**2 <= (1.0 + big_b) * big_c**2 * (big_a + big_d))
    out = np.where(use_general, np.minimum(general, homodyne), homodyne)
    return np.maximum(out, 0.25), use_general


def _gaussian_discord(s, l, nu_minus, nu_plus):
    # D = I(A:B) - [S(A) - S(A|B measured)] = S(B) - S(AB) + S(A|B measured),
    # with B the second mode
    a, b, c = _pair_blocks(s)
    infimum, _ = _conditional_det_infimum(a, b, c, nu_minus, nu_plus)
    return (
        _local_entropy(_det_sym(b))
        - _entropy_term(nu_minus)
        - _entropy_term(nu_plus)
        + _entropy_term(np.sqrt(infimum))
    )


#: Each takes (s, l, nu_minus, nu_plus): the entries of a stack, the rows of
#: their Cholesky factor and their symplectic pair, and returns the measure
#: before it is clamped at zero.
_PAIR_MEASURES = {
    MUTUAL_INFORMATION: _mutual_information,
    DISCORD: _gaussian_discord,
    LOG_NEGATIVITY: _log_negativity,
}


def _pair_kernel(cov4, measure: str):
    """One elementwise pass of a two-mode measure over a (..., 4, 4) stack.

    Returns (values, nu_minus) over the leading axes.  nu_minus is NaN
    where the covariance is not positive definite; the values are the
    measure before :func:`_clamped`, and only meaningful where nu_minus
    clears the vacuum floor.
    """
    s = _entries(cov4)
    definite, l = _cholesky(s)
    if not definite.all():
        # The 2x2 factorizations of the discord need positive definite
        # blocks; these entries are discarded, so the vacuum stands in.
        vacuum = 0.5 * np.eye(4).reshape((4, 4) + (1,) * definite.ndim)
        s = np.where(definite, s, vacuum)
    nu_minus, nu_plus = _symplectic_pair(l)
    values = _PAIR_MEASURES[measure](s, l, nu_minus, nu_plus)
    return values, np.where(definite, nu_minus, np.nan)


def _clamped(measure: str, values):
    """A measure clamped at zero; a discord below -DISCORD_CLAMP_TOL raises."""
    if measure == DISCORD and np.any(values < -DISCORD_CLAMP_TOL):
        raise UnphysicalCovariance(
            f"discord came out {np.nanmin(values):.3g} < 0 beyond tolerance"
        )
    return np.maximum(values, 0.0)


def _two_mode(cov4, measure: str) -> float | np.ndarray:
    """A two-mode measure of every covariance in a stack, all of them physical."""
    values, nu_minus = _pair_kernel(cov4, measure)
    if np.isnan(nu_minus).any():
        raise UnphysicalCovariance("covariance is not positive definite")
    if np.any(nu_minus < 0.5 - PHYSICALITY_TOL):
        raise UnphysicalCovariance(
            f"two-mode symplectic eigenvalue {np.min(nu_minus):.6g} below 1/2"
        )
    out = _clamped(measure, values)
    return float(out) if out.ndim == 0 else out


def mutual_information(cov4) -> float | np.ndarray:
    """I = S(A) + S(B) - S(AB) in nats; batched over leading axes."""
    return _two_mode(cov4, MUTUAL_INFORMATION)


def log_negativity(cov4) -> float | np.ndarray:
    """E_N = max(0, -ln 2 nu~_minus) with nu~ from the partial transpose.

    Transposing the second mode negates its momentum row and column; the
    smallest symplectic eigenvalue of the flipped covariance then sets
    the entanglement (see :func:`_symplectic_pair`).
    """
    return _two_mode(cov4, LOG_NEGATIVITY)


def gaussian_discord(cov4) -> float | np.ndarray:
    """Gaussian quantum discord of a two-mode covariance; batched over leading axes.

    The Gaussian measurement acts on the second mode, B.  The minimal
    conditional entropy comes from the Adesso-Datta closed form.  Small
    negative results (roundoff) clamp to zero.
    """
    return _two_mode(cov4, DISCORD)


# ---------------------------------------------------------------------------
# Trajectory-level aggregation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PairSeries:
    """One measure evaluated per stored time and node pair."""

    times: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    values: np.ndarray
    excluded: tuple[tuple[int, int], ...]


def _all_pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(combinations(range(n), 2))


def pair_measure_series(traj, measure: str, pairs=None, stride: int = 1) -> PairSeries:
    """Evaluate one two-mode measure on every (time, pair) of a trajectory.

    Pairs whose covariance is not positive definite or fails the
    physicality floor anywhere in the series are dropped and reported in
    ``excluded`` (NaN-filled columns).
    The (t, pairs, 4, 4) stack is read and evaluated in time chunks of at
    most _PEARSON_BLOCK_ELEMENTS entries, each one elementwise pass of
    :func:`_pair_kernel`, so a pair's values do not depend on the other
    pairs of the call.
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
    times = traj.times[::stride]
    values = np.empty((times.shape[0], len(pair_list)))
    physical = np.ones(len(pair_list), dtype=bool)
    block = max(1, _PEARSON_BLOCK_ELEMENTS // (16 * max(1, len(pair_list))))
    for start in range(0, times.shape[0], block):
        stop = min(start + block, times.shape[0])
        # One read per chunk: an evolved trajectory computes each distinct
        # entry of the pairs' 4 x 4 blocks once, at most 10 per pair and
        # time; an array is indexed.
        cov4 = traj.covs[start * stride : (stop - 1) * stride + 1 : stride,
                         quads[:, :, None], quads[:, None, :]]
        values[start:stop], nu_minus = _pair_kernel(cov4, measure)
        physical &= np.all(nu_minus >= 0.5 - PHYSICALITY_TOL, axis=0)
    values[:, ~physical] = np.nan
    return PairSeries(
        times=times.copy(),
        pairs=tuple(pair_list),
        values=_clamped(measure, values),
        excluded=tuple(p for p, ok in zip(pair_list, physical) if not ok),
    )


def _smoothed_pair_mean(values, keep, samples: int) -> np.ndarray:
    """Mean over the kept pair columns, then a cumsum moving average over
    ``samples`` consecutive rows; all NaN when no pair is kept."""
    if not keep:
        return np.full(max(values.shape[0] - samples + 1, 0), np.nan)
    csum = np.concatenate([[0.0], np.cumsum(values[:, keep].mean(axis=1))])
    return (csum[samples:] - csum[:-samples]) / samples
