"""Oscillator network construction and validation.

A network is a set of harmonic oscillators with natural frequencies
``omega`` (units of the reference frequency, which is set to 1) and a
symmetric coupling matrix ``coupling`` (units of reference frequency
squared, zero diagonal).  The network is summarized by the Hamiltonian
matrix ``H[m, n] = omega_m**2 * delta_mn + coupling[m, n] * (1 - delta_mn)``,
which must be positive definite for the network to support stable
oscillations.

A network file is an inline scenario network: one ``[network]`` section
with ``omega`` and ``edges`` in the same syntax, read by the same
converters, and nothing else.  :func:`save_network` writes one value a
line, with shortest round-trip floats, so a save/load cycle is lossless::

    [network]
    omega =
        <omega_0>
    edges =
        <i> <j> <coupling>
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DirectLinkForbidden,
    ExhaustedRetries,
    NonPositiveDefinite,
    NonPositiveFrequency,
    NonSymmetricCoupling,
)

__all__ = [
    "NetworkSpec",
    "build_network",
    "random_network",
    "attach_pair",
    "hamiltonian_matrix",
    "save_network",
    "load_network",
]

#: Bound on node frequencies: below it, omega^2, the Hamiltonian's diagonal
#: entry, is a finite double.
_MAX_OMEGA = np.sqrt(np.finfo(float).max)
#: Draws :func:`random_network` makes before it gives up.
_MAX_RETRIES = 100


@dataclass(frozen=True)
class NetworkSpec:
    """Validated, immutable description of an oscillator network.

    Attributes
    ----------
    omega : ndarray, shape (n,)
        Node natural frequencies, all strictly positive.
    coupling : ndarray, shape (n, n)
        Symmetric coupling matrix with zero diagonal.
    """

    omega: np.ndarray
    coupling: np.ndarray

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        coupling = np.asarray(self.coupling, dtype=float)
        omega.setflags(write=False)
        coupling.setflags(write=False)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "coupling", coupling)

    @property
    def n(self) -> int:
        return self.omega.shape[0]

    def with_omega(self, node: int, value: float) -> "NetworkSpec":
        """Copy of the spec with one node frequency replaced (revalidated)."""
        omega = self.omega.copy()
        omega[node] = value
        return build_network(omega, self.coupling)

    def with_coupling(self, i: int, j: int, value: float) -> "NetworkSpec":
        """Copy of the spec with one coupling replaced symmetrically."""
        if i == j:
            raise NonSymmetricCoupling("cannot set a diagonal coupling")
        coupling = self.coupling.copy()
        coupling[i, j] = value
        coupling[j, i] = value
        return build_network(self.omega, coupling)


def hamiltonian_matrix(net: NetworkSpec) -> np.ndarray:
    """Assemble the Hamiltonian matrix from frequencies and couplings.

    Pure function: the same spec always yields an identical matrix.
    """
    h = net.coupling.copy()
    np.fill_diagonal(h, net.omega**2)
    return h


def _check_positive_definite(h: np.ndarray) -> None:
    eigvals = np.linalg.eigvalsh(h)
    if not eigvals[0] > 0.0:  # NaN fails too
        raise NonPositiveDefinite(
            f"network has unstable modes (min eigenvalue {eigvals[0]:.6g})"
        )


def build_network(omega, coupling) -> NetworkSpec:
    """Validate frequencies and couplings and return a NetworkSpec.

    Parameters
    ----------
    omega : array_like, shape (n,)
        Strictly positive node frequencies.
    coupling : array_like, shape (n, n)
        Finite, exactly symmetric coupling matrix with zero diagonal.

    Raises
    ------
    NonPositiveFrequency, NonSymmetricCoupling, DimensionMismatch,
    NonPositiveDefinite
    """
    omega = np.asarray(omega, dtype=float)
    coupling = np.asarray(coupling, dtype=float)
    if omega.ndim != 1:
        raise DimensionMismatch("omega must be a 1-d array")
    n = omega.shape[0]
    if n == 0:
        raise DimensionMismatch("a network needs at least one node")
    if coupling.shape != (n, n):
        raise DimensionMismatch(
            f"coupling shape {coupling.shape} does not match {n} nodes"
        )
    if not np.all((omega > 0.0) & (omega < _MAX_OMEGA)):
        raise NonPositiveFrequency(
            f"all node frequencies must be > 0 and below {_MAX_OMEGA:.3g}, where omega^2 overflows"
        )
    if not np.all(np.isfinite(coupling)):
        raise NonSymmetricCoupling("coupling matrix entries must be finite")
    if not np.array_equal(coupling, coupling.T):
        raise NonSymmetricCoupling("coupling matrix must be exactly symmetric")
    if np.any(np.diag(coupling) != 0.0):
        raise NonSymmetricCoupling("coupling matrix must have zero diagonal")
    spec = NetworkSpec(omega=omega.copy(), coupling=coupling.copy())
    _check_positive_definite(hamiltonian_matrix(spec))
    return spec


def random_network(
    n: int,
    p: float,
    freq_low: float,
    freq_high: float,
    coupling_mean: float,
    coupling_sd: float,
    seed: int,
) -> NetworkSpec:
    """Sample a stable Erdos-Renyi network, deterministically per seed.

    Edges appear independently with probability ``p``; present-edge weights
    are normal(coupling_mean, coupling_sd); node frequencies are uniform on
    [freq_low, freq_high].  Unstable samples (Hamiltonian matrix not
    positive definite) are rejected and resampled, up to ``_MAX_RETRIES``
    attempts.

    Raises
    ------
    ExhaustedRetries
        If no stable network is found within the retry cap.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("connection probability must be in [0, 1]")
    if freq_low > freq_high:
        raise ValueError("freq_low must not exceed freq_high")
    if freq_low <= 0.0:
        raise NonPositiveFrequency("frequency range must be positive")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_RETRIES):
        omega = rng.uniform(freq_low, freq_high, size=n)
        coupling = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    w = rng.normal(coupling_mean, coupling_sd)
                    coupling[i, j] = w
                    coupling[j, i] = w
        try:
            return build_network(omega, coupling)
        except NonPositiveDefinite:
            continue
    raise ExhaustedRetries(
        f"no stable {n}-node network found in {_MAX_RETRIES} attempts"
    )


def attach_pair(
    net: NetworkSpec,
    omega_a: float,
    omega_b: float,
    links_a,
    links_b,
) -> NetworkSpec:
    """Append two new nodes to a network, linked to existing nodes only.

    The new nodes get indices ``n`` and ``n + 1``.  ``links_a`` and
    ``links_b`` map existing nodes to coupling weights (a dict, or a
    sequence of ``(node, weight)`` pairs); a direct link between the two
    new nodes is forbidden.

    Raises
    ------
    DirectLinkForbidden, NonPositiveDefinite
    """
    n = net.n
    a, b = n, n + 1
    omega = np.concatenate([net.omega, [omega_a, omega_b]])
    coupling = np.zeros((n + 2, n + 2))
    coupling[:n, :n] = net.coupling
    for links, new in ((links_a, a), (links_b, b)):
        items = links.items() if hasattr(links, "items") else links
        for node, weight in items:
            node = int(node)
            if node in (a, b):
                raise DirectLinkForbidden(
                    "attached pair nodes may link only to the original network"
                )
            if not 0 <= node < n:
                raise DimensionMismatch(f"link target {node} outside network")
            coupling[new, node] = weight
            coupling[node, new] = weight
    return build_network(omega, coupling)


def _float(text: str) -> float:
    """A finite float; nan and inf raise ValueError like any other non-number."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _floats(text: str) -> np.ndarray:
    return np.array([_float(tok) for tok in text.split()])


def _parse_edges(text: str) -> tuple[tuple[int, int, float], ...]:
    edges = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) != 3:
            raise ValueError(f"edge entry {line!r} is not 'i j lambda'")
        edges.append((int(toks[0]), int(toks[1]), _float(toks[2])))
    return tuple(edges)


def _coupling_from_edges(n: int, edges) -> np.ndarray:
    """The symmetric (n, n) coupling matrix of (i, j, weight) edges."""
    coupling = np.zeros((n, n))
    seen = set()
    for i, j, w in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) is out of range for {n} nodes")
        if (min(i, j), max(i, j)) in seen:
            raise ValueError(f"edge ({i}, {j}) is given twice")
        seen.add((min(i, j), max(i, j)))
        coupling[i, j] = w
        coupling[j, i] = w
    return coupling


def _read_ini(path) -> configparser.ConfigParser:
    """Scenario configs and network files: no interpolation, ``#`` comments."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)
    return parser


# --- file I/O ----------------------------------------------------------------

def save_network(net: NetworkSpec, path) -> None:
    """Write a network file (lossless round trip, see module docstring)."""
    rows, cols = np.nonzero(np.triu(net.coupling))  # each edge once, i < j, row by row
    lines = ["[network]", "omega =", *(f"    {float(w)!r}" for w in net.omega), "edges =",
             *(f"    {i} {j} {float(net.coupling[i, j])!r}" for i, j in zip(rows, cols))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_network(path) -> NetworkSpec:
    """Read a network file: one [network] section setting omega and edges."""
    try:
        parser = _read_ini(path)
        if (parser.sections() != ["network"] or parser.defaults()
                or sorted(parser.options("network")) != ["edges", "omega"]):
            raise ValueError("a network file holds [network] omega and edges only")
        omega = _floats(parser.get("network", "omega"))
        edges = _parse_edges(parser.get("network", "edges"))
        return build_network(omega, _coupling_from_edges(omega.shape[0], edges))
    except (configparser.Error, ValueError) as exc:
        raise ValueError(f"network file {str(path)!r}: {exc}") from exc
