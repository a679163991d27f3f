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

For an Ohmic bath with cutoff above all mode frequencies the damping and
diffusion rates are ``gamma * k**2`` and ``gamma * k**2 * W * coth(W / 2T)``
per mode of frequency W (uniformly ``gamma`` for separate baths).  Modes
with zero effective coupling are "frozen": they evolve unitarily and never
thermalize.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CutoffTooLow,
    EigensolverFailure,
    LocalBathNodeOutOfRange,
    NonPositiveEigenvalue,
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
    "diagonalize",
    "effective_couplings",
    "mode_rates",
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
    """Dissipation model: bath kind, coupling strength, temperature, cutoff.

    ``gamma`` is the system-bath coupling strength, ``temperature`` the bath
    temperature (Boltzmann constant 1), ``cutoff`` the Ohmic cutoff
    frequency, and ``node`` the dissipating node for the local kind.
    """

    kind: str
    gamma: float
    temperature: float
    cutoff: float
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


@dataclass(frozen=True)
class ModeDecomposition:
    """Normal modes of a network, optionally annotated with bath data.

    ``modes`` is the orthogonal transform (columns are normal modes) and
    ``freqs`` the mode frequencies, sorted ascending.  After
    :func:`effective_couplings` the per-mode bath weights ``eff_coupling``
    are set, and after :func:`mode_rates` the damping and diffusion rates.
    """

    modes: np.ndarray
    freqs: np.ndarray
    eff_coupling: np.ndarray | None = None
    damping: np.ndarray | None = None
    diffusion: np.ndarray | None = None

    def __post_init__(self):
        self.modes.setflags(write=False)
        self.freqs.setflags(write=False)
        for arr in (self.eff_coupling, self.damping, self.diffusion):
            if arr is not None:
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


def diagonalize(net: NetworkSpec) -> ModeDecomposition:
    """Symmetric eigendecomposition of the network Hamiltonian matrix.

    Modes are sorted by ascending frequency; each column's sign is fixed so
    its largest-magnitude entry is positive.

    Raises
    ------
    EigensolverFailure, NonPositiveEigenvalue
    """
    h = hamiltonian_matrix(net)
    try:
        eigvals, eigvecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(str(exc)) from exc
    if eigvals[0] <= 0.0:
        raise NonPositiveEigenvalue(
            f"squared mode frequency {eigvals[0]:.6g} is not positive"
        )
    order = np.argsort(eigvals, kind="stable")
    eigvals = eigvals[order]
    eigvecs = _fix_column_signs(eigvecs[:, order])
    return ModeDecomposition(modes=eigvecs, freqs=np.sqrt(eigvals))


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


def effective_couplings(decomp: ModeDecomposition, bath: BathConfig) -> ModeDecomposition:
    """Per-mode bath coupling weights.

    Within a degenerate eigenspace the coupling weights are basis
    dependent, so the eigenspace is rotated to expose the minimal-coupling
    combination (all weight concentrated on one mode, the rest exactly
    zero).  Column signs are re-fixed after any rotation.

    Raises
    ------
    LocalBathNodeOutOfRange
    """
    modes = decomp.modes.copy()
    n = decomp.n
    if bath.kind == SEPARATE:
        kappa = np.ones(n)
    else:
        if bath.kind == LOCAL:
            d = int(bath.node)
            if not 0 <= d < n:
                raise LocalBathNodeOutOfRange(f"node {d} outside 0..{n - 1}")
        for group in _degenerate_groups(decomp.freqs):
            if len(group) < 2:
                continue
            block = modes[:, group]
            if bath.kind == COMMON:
                weights = block.sum(axis=0)
            else:
                weights = block[d, :].copy()
            modes[:, group] = _concentrate_group(block, weights)
        modes = _fix_column_signs(modes)
        if bath.kind == COMMON:
            kappa = modes.sum(axis=0)
        else:
            kappa = modes[d, :].copy()
    return replace(decomp, modes=modes, eff_coupling=kappa)


def _slowest_order(decomp: ModeDecomposition) -> np.ndarray:
    """Mode indices by ascending |kappa|, ties in index order.

    The first is the least-coupled, slowest-damped mode sigma.  Gamma =
    gamma kappa^2 grows with |kappa|, so this is also the order of the
    damping rates wherever those differ.
    """
    return np.argsort(np.abs(decomp.eff_coupling), kind="stable")


def mode_rates(decomp: ModeDecomposition, bath: BathConfig) -> ModeDecomposition:
    """Damping and diffusion rates per mode for an Ohmic bath.

    Requires the bath cutoff to exceed every mode frequency.  For separate
    baths the damping is uniformly ``gamma``; for common/local baths it is
    weighted by the squared effective coupling.

    Raises
    ------
    CutoffTooLow, UnphysicalSpec
    """
    if decomp.eff_coupling is None:
        decomp = effective_couplings(decomp, bath)
    freqs = decomp.freqs
    if bath.cutoff <= freqs[-1]:
        raise CutoffTooLow(
            f"cutoff {bath.cutoff:.6g} must exceed max mode frequency {freqs[-1]:.6g}"
        )
    if bath.kind == SEPARATE:
        damping = np.full(decomp.n, bath.gamma)
    else:
        with np.errstate(over="ignore"):
            damping = bath.gamma * decomp.eff_coupling**2
    if not np.all(np.isfinite(damping)):
        raise UnphysicalSpec("a mode's damping rate Gamma = gamma kappa^2 overflows")
    with np.errstate(over="ignore", divide="ignore"):
        diffusion = damping * freqs / np.tanh(freqs / (2.0 * bath.temperature))
    if not np.all(np.isfinite(diffusion)):
        raise UnphysicalSpec("a mode's diffusion rate D = Gamma Omega coth(Omega/2T) overflows")
    return replace(decomp, damping=damping, diffusion=diffusion)


def analyze(net: NetworkSpec, bath: BathConfig) -> ModeDecomposition:
    """Full pipeline: diagonalize, effective couplings, mode rates."""
    return mode_rates(effective_couplings(diagonalize(net), bath), bath)


def _frozen_mask(decomp: ModeDecomposition) -> np.ndarray:
    """True for the frozen modes: |effective coupling| < _FROZEN_KAPPA_RTOL * max |F|."""
    return np.abs(decomp.eff_coupling) < _FROZEN_KAPPA_RTOL * float(np.max(np.abs(decomp.modes)))


@dataclass(frozen=True)
class FrozenModeReport:
    """Which modes are dissipation-free and which nodes take part in them.

    ``participation[k, m]`` is True when node k overlaps mode m above the
    threshold.
    """

    frozen: tuple[int, ...]
    participation: np.ndarray

    def participants(self, mode: int) -> tuple[int, ...]:
        return tuple(int(k) for k in np.nonzero(self.participation[:, mode])[0])


def frozen_mode_report(decomp: ModeDecomposition, bath: BathConfig) -> FrozenModeReport:
    """Detect frozen modes and node participation.

    A mode is frozen by ``_frozen_mask``; node k participates in mode m
    when ``|F[k, m]|`` exceeds _OVERLAP_RTOL times the largest magnitude
    entry of the transform.
    """
    if decomp.eff_coupling is None:
        decomp = effective_couplings(decomp, bath)
    participation = np.abs(decomp.modes) > _OVERLAP_RTOL * float(np.max(np.abs(decomp.modes)))
    frozen = tuple(int(m) for m in np.flatnonzero(_frozen_mask(decomp)))
    return FrozenModeReport(frozen=frozen, participation=participation)
