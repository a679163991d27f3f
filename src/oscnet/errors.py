"""Exception hierarchy for oscnet.

Every error raised by the library derives from :class:`OscnetError` so
callers can catch library failures with a single except clause.  The CLI
maps configuration problems to exit code 2 and numeric failures to 3.
"""


class OscnetError(Exception):
    """Base class for all oscnet errors."""


# --- network construction ---------------------------------------------------

class NonSymmetricCoupling(OscnetError):
    """Coupling matrix is not finite, not exactly symmetric, or has nonzero diagonal."""


class NonPositiveFrequency(OscnetError):
    """A node frequency is zero or negative, or its square overflows."""


class NonPositiveDefinite(OscnetError):
    """The network Hamiltonian matrix has a non-positive eigenvalue."""


class ExhaustedRetries(OscnetError):
    """Random sampling failed to produce a stable network within the retry cap."""


class DirectLinkForbidden(OscnetError):
    """Attached pair nodes must not be linked to each other directly."""


# --- spectral analysis ------------------------------------------------------

class EigensolverFailure(OscnetError):
    """The symmetric eigensolver did not converge."""


class LocalBathNodeOutOfRange(OscnetError):
    """Local-bath node index does not exist in the network."""


# --- dynamics ---------------------------------------------------------------

class UnphysicalSpec(OscnetError):
    """Initial-state specification violates physical constraints."""


class UnphysicalCovariance(OscnetError):
    """Covariance matrix is not positive definite or has a symplectic
    eigenvalue below the vacuum floor."""


class DimensionMismatch(OscnetError):
    """Array shapes are inconsistent with the network size."""


class NonFiniteMoments(OscnetError):
    """Propagation produced a non-finite mean, covariance entry or energy."""


class PhysicalityViolation(OscnetError):
    """The initial state or the mode channel of an evolution is unphysical."""


# --- tuning -----------------------------------------------------------------

class NoZeroInBracket(OscnetError):
    """No frozen root in the bracket: no tuning there freezes a mode."""


class NoDominantMode(OscnetError):
    """No strictly least-damped mode exists (tied damping rates)."""


# --- CLI / configuration ----------------------------------------------------

class ConfigError(OscnetError):
    """Scenario configuration is missing, malformed, or inconsistent."""
