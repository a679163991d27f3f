"""Independent Gaussian-discord oracle and its self-check.

The oracle is the closed form of Adesso & Datta, PRL 105, 030501 (2010),
for the Gaussian discord of a two-mode state when mode B is measured.
It is written here from the paper, in the package's convention of vacuum
variance 1/2, and calls nothing of the package's discord code: only
numpy.  Two-mode covariances use the package's quadrature order
(x_A, x_B, p_A, p_B).

The paper works with vacuum variance 1.  Its invariants scale as
A = 4 det a, B = 4 det b, C = 4 det c, D = 16 det sigma, and its
minimal conditional determinant E_min is 4 times ours.

The homodyne branch is evaluated as det a * (1 - lambda_max(b^-1 c^T a^-1 c))
rather than by the paper's formula: the formula cancels badly near a pure
conditional state.  The other branch guards its square root and the result
is clamped at the vacuum floor 1/4.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

A_IDX = np.array([0, 2])
B_IDX = np.array([1, 3])

#: Absolute discord difference beyond which a shipped value is a miss.
MISS_TOL = 1e-4

#: Discord at fig5_entangle pair (15, 16), t = 240, as the closed form gives it.
FIG5_PIN_VALUE = 0.2545
FIG5_PIN_TOL = 5e-5


def blocks(cov4):
    """(a, b, c) 2x2 blocks of batched (..., 4, 4) two-mode covariances."""
    cov4 = np.asarray(cov4, dtype=float)
    a = cov4[..., A_IDX[:, None], A_IDX[None, :]]
    b = cov4[..., B_IDX[:, None], B_IDX[None, :]]
    c = cov4[..., A_IDX[:, None], B_IDX[None, :]]
    return a, b, c


def _det2(m):
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _inv2(m):
    inv = np.empty_like(m)
    inv[..., 0, 0] = m[..., 1, 1]
    inv[..., 1, 1] = m[..., 0, 0]
    inv[..., 0, 1] = -m[..., 0, 1]
    inv[..., 1, 0] = -m[..., 1, 0]
    return inv / _det2(m)[..., None, None]


def entropy_term(nu):
    """h(nu) = (nu + 1/2) ln(nu + 1/2) - (nu - 1/2) ln(nu - 1/2), h(1/2) = 0."""
    nu = np.maximum(np.asarray(nu, dtype=float), 0.5)
    lo = nu - 0.5
    safe = np.where(lo > 0.0, lo, 1.0)
    return (nu + 0.5) * np.log(nu + 0.5) - np.where(lo > 0.0, lo * np.log(safe), 0.0)


def symplectic_pair(cov4):
    """(nu_minus, nu_plus) from the moduli of the eigenvalues of J sigma."""
    j = np.zeros((4, 4))
    j[:2, 2:] = np.eye(2)
    j[2:, :2] = -np.eye(2)
    mods = np.sort(np.abs(np.linalg.eigvals(j @ np.asarray(cov4, dtype=float))), axis=-1)
    return 0.5 * (mods[..., 0] + mods[..., 1]), 0.5 * (mods[..., 2] + mods[..., 3])


def homodyne_det(a, b, c):
    """Smallest conditional det of A over homodyne measurements of B.

    det(a - (c v)(c v)^T / (v^T b v)) = det a (1 - q(v)), q the Rayleigh
    quotient of c^T a^-1 c against b; its maximum is the largest root of
    the 2x2 generalized eigenproblem.
    """
    m = np.linalg.solve(b, np.swapaxes(c, -1, -2) @ np.linalg.solve(a, c))
    tr = m[..., 0, 0] + m[..., 1, 1]
    det = _det2(m)
    lam_max = 0.5 * (tr + np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0)))
    return _det2(a) * (1.0 - lam_max)


def min_conditional_det(a, b, c):
    """Infimum over Gaussian measurements of B of det(conditional A), batched."""
    big_a, big_b, big_c = 4.0 * _det2(a), 4.0 * _det2(b), 4.0 * _det2(c)
    big_d = 16.0 * _det2(a) * _det2(b - np.swapaxes(c, -1, -2) @ _inv2(a) @ c)
    general = (big_d - big_a * big_b) ** 2 <= (1.0 + big_b) * big_c**2 * (big_a + big_d)
    bm1 = np.where(np.abs(big_b - 1.0) > 0.0, big_b - 1.0, 1.0)
    inner = np.maximum(big_c**2 + (big_b - 1.0) * (big_d - big_a), 0.0)
    e_general = (
        2.0 * big_c**2 + (big_b - 1.0) * (big_d - big_a) + 2.0 * np.abs(big_c) * np.sqrt(inner)
    ) / bm1**2
    out = np.where(general, e_general / 4.0, homodyne_det(a, b, c))
    return np.maximum(out, 0.25)


def discord(cov4):
    """Gaussian discord with B measured: S(B) - S(AB) + S(A | B measured)."""
    cov4 = np.asarray(cov4, dtype=float)
    a, b, c = blocks(cov4)
    nu_minus, nu_plus = symplectic_pair(cov4)
    e_min = min_conditional_det(a, b, c)
    out = (
        entropy_term(np.sqrt(np.maximum(_det2(b), 0.25)))
        - entropy_term(nu_minus)
        - entropy_term(nu_plus)
        + entropy_term(np.sqrt(e_min))
    )
    return np.maximum(out, 0.0)


# ---------------------------------------------------------------------------
# Self-check: dense (s, theta) grid plus the homodyne limit
# ---------------------------------------------------------------------------

def _conditional_det_grid(a, b, c, s, theta):
    """det(a - c (b + sigma_M(s, theta))^-1 c^T) for one state over a grid."""
    cos, sin = np.cos(theta), np.sin(theta)
    hi, lo = 0.5 * np.exp(2.0 * s), 0.5 * np.exp(-2.0 * s)
    m = np.empty(np.broadcast(s, theta).shape + (2, 2))
    m[..., 0, 0] = hi * cos**2 + lo * sin**2 + b[0, 0]
    m[..., 1, 1] = hi * sin**2 + lo * cos**2 + b[1, 1]
    m[..., 0, 1] = (hi - lo) * cos * sin + b[0, 1]
    m[..., 1, 0] = (hi - lo) * cos * sin + b[1, 0]
    return _det2(a - c @ _inv2(m) @ c.T)


def _homodyne_det_at(a, b, c, theta):
    """det(a - (c v)(c v)^T / (v^T b v)) with v = (-sin theta, cos theta)."""
    v = np.stack([-np.sin(theta), np.cos(theta)], axis=-1)
    cv = v @ c.T
    outer = cv[..., :, None] * cv[..., None, :] / np.einsum("...i,ij,...j->...", v, b, v)[
        ..., None, None
    ]
    return _det2(a - outer)


def grid_min_det(a, b, c, s_span=8.0, s_points=641, theta_points=240):
    """Smallest conditional det found by search, with no closed form.

    A dense (s, theta) grid over general-dyne measurements and a dense
    theta scan of the homodyne limit (s -> infinity); the best point of
    each is polished with Nelder-Mead.  The general search keeps |s| <= s_span:
    beyond that the conditional determinant loses its digits to cancellation
    and the homodyne scan covers the limit.
    """
    s_grid = np.linspace(-s_span, s_span, s_points)
    theta = np.arange(theta_points) * (np.pi / theta_points)
    dets = _conditional_det_grid(a, b, c, s_grid[:, None], theta[None, :])
    k = np.unravel_index(np.argmin(dets), dets.shape)
    general = scipy.optimize.minimize(
        lambda x: float(_conditional_det_grid(a, b, c, np.clip(x[0], -s_span, s_span), x[1])),
        np.array([s_grid[k[0]], theta[k[1]]]),
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-16, "maxiter": 4000},
    )
    theta = np.linspace(0.0, np.pi, 7201)
    k = int(np.argmin(_homodyne_det_at(a, b, c, theta)))
    homodyne = scipy.optimize.minimize(
        lambda x: float(_homodyne_det_at(a, b, c, x[0])),
        np.array([theta[k]]),
        method="Nelder-Mead",
        options={"xatol": 1e-13, "fatol": 1e-16, "maxiter": 2000},
    )
    return min(float(dets.min()), float(general.fun), float(homodyne.fun))


def _two_mode_state(rng):
    """A random two-mode covariance in (x_A, x_B, p_A, p_B) order."""
    nus = 0.5 + rng.uniform(0.0, 1.5, size=2)
    cov = np.diag([nus[0], nus[1], nus[0], nus[1]])

    def apply(s):
        return s @ cov @ s.T

    r = rng.uniform(-1.2, 1.2)
    tms = np.eye(4)
    ch, sh = np.cosh(r), np.sinh(r)
    tms[:2, :2] = [[ch, sh], [sh, ch]]
    tms[2:, 2:] = [[ch, -sh], [-sh, ch]]
    cov = apply(tms)
    for mode in (0, 1):
        sq = np.eye(4)
        r_loc = rng.uniform(-1.0, 1.0)
        sq[mode, mode] = np.exp(-r_loc)
        sq[mode + 2, mode + 2] = np.exp(r_loc)
        phi = rng.uniform(0.0, np.pi)
        rot = np.eye(4)
        rot[mode, mode] = rot[mode + 2, mode + 2] = np.cos(phi)
        rot[mode, mode + 2] = np.sin(phi)
        rot[mode + 2, mode] = -np.sin(phi)
        cov = apply(rot @ sq)
    return 0.5 * (cov + cov.T)


def _tmsv(r, noise=0.0):
    ch, sh = 0.5 * np.cosh(2.0 * r), 0.5 * np.sinh(2.0 * r)
    cov = np.array([[ch, sh, 0, 0], [sh, ch, 0, 0], [0, 0, ch, -sh], [0, 0, -sh, ch]])
    return cov + noise * np.eye(4)


def check_states():
    """The fixed handful of states the oracle is cross-checked on."""
    rng = np.random.default_rng(20100720)
    x_only = np.array([[1.0, 0.6, 0, 0], [0.6, 1.0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 1.0]])
    states = [
        ("tmsv r=0.8 + 0.15 I", _tmsv(0.8, 0.15)),
        ("tmsv r=1.2", _tmsv(1.2)),
        ("x-correlated thermal", x_only),
    ]
    states += [(f"random state {k}", _two_mode_state(rng)) for k in range(6)]
    return states


def cross_check(cov4, rel_tol=1e-8):
    """(ok, detail): closed-form minimum against the grid and homodyne scan."""
    a, b, c = blocks(cov4)
    closed = float(min_conditional_det(a, b, c))
    grid = max(grid_min_det(a, b, c), 0.25)
    err = abs(closed - grid) / grid
    homodyne = bool(abs(closed - max(float(homodyne_det(a, b, c)), 0.25)) <= 1e-12 * grid)
    branch = "homodyne" if homodyne else "general"
    return err <= rel_tol, f"closed {closed:.10g} grid {grid:.10g} rel {err:.1e} ({branch})"
