import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oscnet as on
from oscnet import network
from oscnet.errors import (
    DimensionMismatch,
    DirectLinkForbidden,
    ExhaustedRetries,
    NonPositiveDefinite,
    NonPositiveEigenvalue,
    NonPositiveFrequency,
    NonSymmetricCoupling,
)


def test_build_network_basic(chain3):
    assert chain3.n == 3
    ham = on.hamiltonian_matrix(chain3)
    assert np.allclose(np.diag(ham), chain3.omega**2)
    assert ham[0, 1] == 0.4
    assert ham[0, 2] == 0.0
    assert np.array_equal(ham, ham.T)


def test_network_arrays_are_frozen(chain3):
    with pytest.raises(ValueError):
        chain3.omega[0] = 2.0
    with pytest.raises(ValueError):
        chain3.coupling[0, 1] = 0.0


def test_build_rejects_nonsymmetric():
    coupling = np.array([[0.0, 0.1], [0.2, 0.0]])
    with pytest.raises(NonSymmetricCoupling):
        on.build_network(np.array([1.0, 1.0]), coupling)


def test_build_rejects_nonzero_diagonal():
    coupling = np.array([[0.1, 0.0], [0.0, 0.0]])
    with pytest.raises(NonSymmetricCoupling):
        on.build_network(np.array([1.0, 1.0]), coupling)


@pytest.mark.parametrize("weight", [np.inf, -np.inf, np.nan], ids=["inf", "minus_inf", "nan"])
def test_build_rejects_non_finite_coupling(weight):
    coupling = np.array([[0.0, weight], [weight, 0.0]])
    with pytest.raises(NonSymmetricCoupling, match="finite"):
        on.build_network(np.array([1.0, 1.0]), coupling)


def test_nan_eigenvalue_is_not_positive():
    # an infinite coupling makes every eigenvalue NaN; both definiteness
    # tests reject it, including on a spec that build_network never saw,
    # and analyze raises before it computes any coupling
    coupling = np.array([[0.0, np.inf], [np.inf, 0.0]])
    with pytest.raises(NonPositiveDefinite):
        network._check_positive_definite(coupling + np.eye(2))
    with pytest.raises(NonPositiveEigenvalue):
        on.analyze(on.NetworkSpec(omega=np.ones(2), coupling=coupling),
                   on.BathConfig(kind="common", gamma=0.01, temperature=10.0))


def test_build_rejects_bad_frequencies():
    with pytest.raises(NonPositiveFrequency):
        on.build_network(np.array([1.0, -1.0]), np.zeros((2, 2)))
    with pytest.raises(NonPositiveFrequency):
        on.build_network(np.array([1.0, 0.0]), np.zeros((2, 2)))


def test_build_rejects_indefinite_hamiltonian():
    # Coupling strong enough to push an eigenvalue of H below zero.
    coupling = np.array([[0.0, -2.0], [-2.0, 0.0]])
    with pytest.raises(NonPositiveDefinite):
        on.build_network(np.array([1.0, 1.0]), coupling)


def test_with_omega_and_with_coupling(chain3):
    changed = chain3.with_omega(1, 1.5)
    assert changed.omega[1] == 1.5
    assert chain3.omega[1] == 1.0
    changed = chain3.with_coupling(0, 2, -0.1)
    assert changed.coupling[0, 2] == -0.1
    assert changed.coupling[2, 0] == -0.1
    assert chain3.coupling[0, 2] == 0.0


def test_random_network_deterministic():
    a = on.random_network(8, 0.5, 0.9, 1.2, -0.1, 0.05, seed=7)
    b = on.random_network(8, 0.5, 0.9, 1.2, -0.1, 0.05, seed=7)
    assert np.array_equal(a.omega, b.omega)
    assert np.array_equal(a.coupling, b.coupling)
    c = on.random_network(8, 0.5, 0.9, 1.2, -0.1, 0.05, seed=8)
    assert not np.array_equal(a.coupling, c.coupling)


def test_random_network_respects_ranges(er10):
    assert er10.n == 10
    assert np.all(er10.omega >= 0.9) and np.all(er10.omega <= 1.2)
    evals = np.linalg.eigvalsh(on.hamiltonian_matrix(er10))
    assert np.all(evals > 0.0)


def test_random_network_exhausts_retries():
    # Enormous couplings make every draw indefinite.
    with pytest.raises(ExhaustedRetries):
        on.random_network(6, 1.0, 0.9, 1.2, -50.0, 0.0, seed=1)


def test_attach_pair_appends_nodes(chain3):
    net = on.attach_pair(chain3, 1.0, 1.0,
                         links_a={0: -0.15}, links_b={0: -0.15, 2: -0.1})
    assert net.n == 5
    assert net.omega[3] == 1.0 and net.omega[4] == 1.0
    assert net.coupling[3, 0] == -0.15
    assert net.coupling[4, 2] == -0.1
    assert net.coupling[3, 4] == 0.0
    # original block untouched
    assert np.array_equal(net.coupling[:3, :3], chain3.coupling)


def test_attach_pair_forbids_direct_link(chain3):
    with pytest.raises(DirectLinkForbidden):
        on.attach_pair(chain3, 1.0, 1.0, links_a={3: 0.1}, links_b={})
    with pytest.raises(DimensionMismatch):
        on.attach_pair(chain3, 1.0, 1.0, links_a={7: 0.1}, links_b={})


def test_save_load_round_trip(tmp_path, er10):
    path = tmp_path / "net.txt"
    on.save_network(er10, path)
    loaded = on.load_network(path)
    assert np.array_equal(loaded.omega, er10.omega)
    assert np.array_equal(loaded.coupling, er10.coupling)


def test_save_load_preserves_awkward_floats(tmp_path):
    # Values with no short decimal form must survive the text round trip.
    omega = np.array([1.0 / 3.0, np.pi / 3.0])
    coupling = np.zeros((2, 2))
    coupling[0, 1] = coupling[1, 0] = -1.0 / 7.0
    net = on.build_network(omega, coupling)
    path = tmp_path / "net.txt"
    on.save_network(net, path)
    loaded = on.load_network(path)
    assert np.array_equal(loaded.omega, net.omega)
    assert np.array_equal(loaded.coupling, net.coupling)


def test_load_network_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("[network]\nomega = 1.0\nedges = 0 0 0.5\n")
    with pytest.raises(on.OscnetError):
        on.load_network(path)


def test_saved_file_is_an_inline_network(tmp_path, chain3):
    # one [network] section, omega one value a line, edges "i j lambda"
    path = tmp_path / "net.txt"
    on.save_network(chain3, path)
    assert path.read_text() == (
        "[network]\nomega =\n    1.2\n    1.0\n    1.8\n"
        "edges =\n    0 1 0.4\n    1 2 0.4\n"
    )


@pytest.mark.parametrize("text, match", [
    ("[network]\nomega = 1.0 1.1\nedges =\n    0 1 0.4\n    1 0 0.1\n", "given twice"),
    ("[network]\nomega = 1.0 1.1\nedges =\n    0 1 0.4\n    0 1 0.4\n", "given twice"),
    ("[network]\nomega = 1.0 1.1\nedges = 0 1 0.4\nseed = 3\n", "omega and edges only"),
    ("[network]\nomega = 1.0 1.1\n", "omega and edges only"),
    ("[network]\nomega = 1.0 1.1\nedges =\n[bath]\nkind = common\n", "omega and edges only"),
    ("[nodes]\n0 = 1.0\n1 = 1.1\n[edges]\n0 1 = 0.4\n", "omega and edges only"),
    ("[DEFAULT]\nedges =\n[network]\nomega = 1.0 1.1\n", "omega and edges only"),
    ("[network]\nomega = 1.0\nomega = 1.1\nedges =\n", "'omega' in section 'network' already"),
    ("omega = 1.0 1.1\n", "no section headers"),
    ("[network]\nomega = 1.0 nan\nedges =\n", "finite"),
], ids=["edge_reversed", "edge_repeated", "unknown_key", "missing_key", "unknown_section",
        "old_format", "default_section", "repeated_key", "no_section", "nan_omega"])
def test_load_network_rejects(tmp_path, text, match):
    # a network file holds exactly the inline [network] keys, each edge once
    path = tmp_path / "net.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=match):
        on.load_network(path)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=2, max_value=9),
    p=st.floats(min_value=0.0, max_value=1.0),
)
def test_random_network_always_valid(seed, n, p):
    try:
        net = on.random_network(n, p, 0.9, 1.2, -0.1, 0.05, seed=seed)
    except ExhaustedRetries:
        return
    assert np.array_equal(net.coupling, net.coupling.T)
    assert np.all(np.diag(net.coupling) == 0.0)
    assert np.all(np.linalg.eigvalsh(on.hamiltonian_matrix(net)) > 0.0)
