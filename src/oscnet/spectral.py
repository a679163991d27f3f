"""Normal-mode analysis of oscillator networks under three bath models.

The network Hamiltonian matrix is diagonalized by an orthogonal transform
``F`` (columns are normal modes) with squared mode frequencies on the
diagonal.  Each mode couples to the environment with an effective weight
that depends on how dissipation enters:

- ``separate``: one identical independent bath per node; every mode
  couples with weight 1 and damps uniformly.
- ``common``: a single bath coupled to the sum of all node coordinates;
  mode m couples with the column sum ``sum_n F[n, m]``.
- ``local``: a bath coupled to one node d only; mode m couples with
  ``F[d, m]``.

The rates are those of an Ohmic bath in the infinite-cutoff (Markov)
limit: damping ``gamma * k**2`` and diffusion
``gamma * k**2 * W * coth(W / 2T)`` per mode of frequency W (uniformly
``gamma`` for separate baths).  No cutoff frequency enters them.  Modes
with zero effective coupling are "frozen": they evolve unitarily and never
thermalize.

:func:`analyze` is the one function that diagonalizes a network and the
one constructor of :class:`ModeDecomposition`: it returns the modes,
frequencies, couplings and rates together, for the pipelines and the
tuning scans alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EigensolverFailure,
    LocalBathNodeOutOfRange,
    NonPositiveDefinite,
    UnphysicalSpec,
)
from .network import NetworkSpec, hamiltonian_matrix

__all__ = [
    "SEPARATE",
    "COMMON",
    "LOCAL",
    "BathConfig",
    "ModeDecomposition",
    "FrozenModeReport",
    "frozen_mode_report",
    "analyze",
]

SEPARATE = "separate"
COMMON = "common"
LOCAL = "local"
_KINDS = (SEPARATE, COMMON, LOCAL)

# Relative scale (vs the largest squared mode frequency) below which two
# eigenvalues are treated as one degenerate group.
_DEGENERACY_RTOL = 1e-10

# Relative scale (vs the largest |F| entry) below which a mode's effective
# coupling counts as zero, i.e. the mode is frozen.
_FROZEN_KAPPA_RTOL = 1e-8

# Relative scale (vs the largest |F| entry) above which a node takes part
# in a mode.
_OVERLAP_RTOL = 1e-6


@dataclass(frozen=True)
class BathConfig:
    """Dissipation model: bath kind, coupling strength, temperature, node.

    ``gamma`` is the system-bath coupling strength, ``temperature`` the bath
    temperature (Boltzmann constant 1), and ``node`` the dissipating node,
    which the local kind requires and the other kinds do not read.  The
    bath is Ohmic with an infinite cutoff, so no cutoff frequency is set.
    """

    kind: str
    gamma: float
    temperature: float
    node: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"bath kind must be one of {_KINDS}, got {self.kind!r}")
        if self.gamma < 0.0:
            raise UnphysicalSpec("gamma must be >= 0")
        if self.temperature <= 0.0:
            raise UnphysicalSpec("temperature must be > 0")
        if self.kind == LOCAL and self.node is None:
            raise ValueError("local bath requires a node index")
        if self.kind != LOCAL and self.node is not None:
            raise ValueError(f"node is read by kind = local only, not by kind = {self.kind}")


@dataclass(frozen=True, eq=False)
class ModeDecomposition:
    """Normal modes of a network under one bath, as :func:`analyze` builds them.

    ``modes`` is the orthogonal transform (columns are normal modes),
    ``freqs`` the mode frequencies sorted ascending, ``eff_coupling`` the
    per-mode bath weights kappa, and ``damping`` and ``diffusion`` the
    per-mode rates Gamma and D.
    """

    modes: np.ndarray
    freqs: np.ndarray
    eff_coupling: np.ndarray
    damping: np.ndarray
    diffusion: np.ndarray

    def __post_init__(self):
        for arr in (self.modes, self.freqs, self.eff_coupling, self.damping, self.diffusion):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.freqs.shape[0]


def _fix_column_signs(modes: np.ndarray) -> np.ndarray:
    """Orient each column so its largest-magnitude entry is positive."""
    out = modes.copy()
    for m in range(out.shape[1]):
        k = int(np.argmax(np.abs(out[:, m])))
        if out[k, m] < 0.0:
            out[:, m] = -out[:, m]
    return out


def _degenerate_groups(freqs: np.ndarray) -> list[np.ndarray]:
    """Contiguous index groups of (numerically) equal squared frequencies."""
    eigvals = freqs**2
    tol = _DEGENERACY_RTOL * max(1.0, float(eigvals[-1]))
    groups = []
    start = 0
    for i in range(1, len(eigvals) + 1):
        if i == len(eigvals) or eigvals[i] - eigvals[i - 1] > tol:
            groups.append(np.arange(start, i))
            start = i
    return groups


def _concentrate_group(block: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Rotate a degenerate eigenvector block so the bath weight vector
    concentrates on the first column; the remaining columns then have zero
    effective coupling.  Returns the rotated block."""
    norm = np.linalg.norm(weights)
    if norm == 0.0:
        return block
    g = block.shape[1]
    basis = np.eye(g)
    basis[:, 0] = weights / norm
    q, _ = np.linalg.qr(basis)
    if q[:, 0] @ weights < 0.0:
        q = -q
    return block @ q


def analyze(net: NetworkSpec, bath: BathConfig) -> ModeDecomposition:
    """Normal modes of a network with their bath couplings and Ohmic rates.

    The Hamiltonian matrix's symmetric eigendecomposition, modes sorted by
    ascending frequency, each column's sign fixed so its largest-magnitude
    entry is positive.  Within a degenerate eigenspace the coupling weights
    are basis dependent, so the eigenspace is rotated to expose the
    minimal-coupling combination (all weight concentrated on one mode, the
    rest exactly zero), and the column signs are fixed again.  A separate
    bath couples every mode with weight 1 and rotates nothing.

    For separate baths the damping is uniformly ``gamma``; for common/local
    baths it is weighted by the squared effective coupling.  The rates are
    the infinite-cutoff Ohmic ones (module docstring).

    Raises
    ------
    EigensolverFailure, LocalBathNodeOutOfRange, UnphysicalSpec
    NonPositiveDefinite
        If a squared mode frequency is not positive.  ``NetworkSpec``
        checks this too, so only a network stable to within roundoff of
        its own check can fail here.
    """
    h = hamiltonian_matrix(net)
    try:
        eigvals, eigvecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(str(exc)) from exc
    if not eigvals[0] > 0.0:  # NaN fails too
        raise NonPositiveDefinite(
            f"squared mode frequency {eigvals[0]:.6g} is not positive"
        )
    order = np.argsort(eigvals, kind="stable")
    freqs = np.sqrt(eigvals[order])
    modes = _fix_column_signs(eigvecs[:, order])
    n = freqs.shape[0]
    if bath.kind == SEPARATE:
        kappa = np.ones(n)
        damping = np.full(n, bath.gamma)
    else:
        if bath.kind == LOCAL:
            d = int(bath.node)
            if not 0 <= d < n:
                raise LocalBathNodeOutOfRange(f"node {d} outside 0..{n - 1}")
        for group in _degenerate_groups(freqs):
            if len(group) < 2:
                continue
            block = modes[:, group]
            if bath.kind == COMMON:
                weights = block.sum(axis=0)
            else:
                weights = block[d, :].copy()
            modes[:, group] = _concentrate_group(block, weights)
        modes = _fix_column_signs(modes)
        kappa = modes.sum(axis=0) if bath.kind == COMMON else modes[d, :].copy()
        with np.errstate(over="ignore"):
            damping = bath.gamma * kappa**2
    if not np.all(np.isfinite(damping)):
        raise UnphysicalSpec("a mode's damping rate Gamma = gamma kappa^2 overflows")
    with np.errstate(over="ignore", divide="ignore"):
        diffusion = damping * freqs / np.tanh(freqs / (2.0 * bath.temperature))
    if not np.all(np.isfinite(diffusion)):
        raise UnphysicalSpec("a mode's diffusion rate D = Gamma Omega coth(Omega/2T) overflows")
    return ModeDecomposition(modes, freqs, kappa, damping, diffusion)


def _slowest_order(decomp: ModeDecomposition) -> np.ndarray:
    """Mode indices by ascending |kappa|, ties in index order.

    The first is the least-coupled, slowest-damped mode sigma.  Gamma =
    gamma kappa^2 grows with |kappa|, so this is also the order of the
    damping rates wherever those differ.
    """
    return np.argsort(np.abs(decomp.eff_coupling), kind="stable")


def _frozen_mask(decomp: ModeDecomposition) -> np.ndarray:
    """True for the frozen modes: |kappa| < _FROZEN_KAPPA_RTOL * max |F|."""
    scale = _FROZEN_KAPPA_RTOL * float(np.max(np.abs(decomp.modes)))
    return np.abs(decomp.eff_coupling) < scale


@dataclass(frozen=True, eq=False)
class FrozenModeReport:
    """Which modes are dissipation-free and which nodes take part in them.

    ``participation[k, m]`` is True when node k overlaps mode m above the
    threshold.
    """

    frozen: tuple[int, ...]
    participation: np.ndarray

    def participants(self, mode: int) -> tuple[int, ...]:
        return tuple(int(k) for k in np.nonzero(self.participation[:, mode])[0])


def frozen_mode_report(decomp: ModeDecomposition) -> FrozenModeReport:
    """The frozen modes of an analyzed network and the nodes in each.

    A mode is frozen by ``_frozen_mask``; node k participates in mode m
    when ``|F[k, m]|`` exceeds _OVERLAP_RTOL times the largest magnitude
    entry of the transform.
    """
    amp = np.abs(decomp.modes)
    participation = amp > _OVERLAP_RTOL * float(np.max(amp))
    frozen = tuple(int(m) for m in np.flatnonzero(_frozen_mask(decomp)))
    return FrozenModeReport(frozen=frozen, participation=participation)
