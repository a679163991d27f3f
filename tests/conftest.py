import contextlib
import warnings

import numpy as np
import pytest
import scipy.linalg

import oscnet as on

# When a @given test fails, hypothesis's pytest plugin imports this module
# to suggest a patch; its dependencies (libcst, mypy_extensions) raise a
# DeprecationWarning on import, which filterwarnings = error turns into an
# INTERNALERROR that ends the run.  Importing it once here, with that
# warning ignored, lets every later test still run and report.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


def random_symplectic(rng, n):
    """expm(J K) with symmetric K is symplectic for the form J."""
    k = rng.normal(scale=0.4, size=(2 * n, 2 * n))
    k = 0.5 * (k + k.T)
    return scipy.linalg.expm(on.measures.symplectic_form(n) @ k)


def random_physical_cov(rng, n, nu_max=3.0):
    """Covariance with known symplectic spectrum, via Williamson backwards."""
    nus = np.sort(rng.uniform(0.5, nu_max, size=n))
    s = random_symplectic(rng, n)
    return s @ np.diag(np.concatenate([nus, nus])) @ s.T, nus


def tmsv_cov(r):
    """Two-mode squeezed vacuum in (x1, x2, p1, p2) ordering."""
    c = 0.5 * np.cosh(2.0 * r)
    s = 0.5 * np.sinh(2.0 * r)
    return np.array([
        [c, s, 0.0, 0.0],
        [s, c, 0.0, 0.0],
        [0.0, 0.0, c, -s],
        [0.0, 0.0, -s, c],
    ])


@pytest.fixture
def chain3():
    """Three-oscillator chain used throughout: distinct frequencies."""
    omega = np.array([1.2, 1.0, 1.8])
    coupling = np.zeros((3, 3))
    coupling[0, 1] = coupling[1, 0] = 0.4
    coupling[1, 2] = coupling[2, 1] = 0.4
    return on.NetworkSpec(omega, coupling)


@pytest.fixture
def er10():
    """A fixed 10-node random network (seeded, always the same)."""
    return on.random_network(10, 0.6, 0.9, 1.2, -0.1, 0.05, seed=42)


@pytest.fixture
def common_bath():
    return on.BathConfig(kind="common", gamma=0.01, temperature=10.0)


@pytest.fixture
def separate_bath():
    return on.BathConfig(kind="separate", gamma=0.07, temperature=10.0)
