from itertools import combinations

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


FREQUENCY_MESSAGE = ("all node frequencies must be > 0 and below 1.34e+154, "
                     "where omega^2 overflows")


@pytest.mark.parametrize("omega, coupling, error, message", [
    ([1.0, -1.0], np.zeros((2, 2)), NonPositiveFrequency, FREQUENCY_MESSAGE),
    ([1.0, 0.0], np.zeros((2, 2)), NonPositiveFrequency, FREQUENCY_MESSAGE),
    ([1.0, network._MAX_OMEGA], np.zeros((2, 2)), NonPositiveFrequency, FREQUENCY_MESSAGE),
    ([1.0, 1.0], [[0.0, np.inf], [np.inf, 0.0]], NonSymmetricCoupling,
     "coupling matrix entries must be finite"),
    ([1.0, 1.0], [[0.0, np.nan], [np.nan, 0.0]], NonSymmetricCoupling,
     "coupling matrix entries must be finite"),
    ([1.0, 1.0], [[0.0, 0.1], [0.3, 0.0]], NonSymmetricCoupling,
     "coupling matrix must be exactly symmetric"),
    ([1.0, 1.0], [[0.1, 0.0], [0.0, 0.0]], NonSymmetricCoupling,
     "coupling matrix must have zero diagonal"),
    ([[1.0, 1.0]], np.zeros((2, 2)), DimensionMismatch, "omega must be a 1-d array"),
    ([], np.zeros((0, 0)), DimensionMismatch, "a network needs at least one node"),
    ([1.0, 1.0], np.zeros((3, 3)), DimensionMismatch,
     "coupling shape (3, 3) does not match 2 nodes"),
    ([1.0, 1.0], [[0.0, -2.0], [-2.0, 0.0]], NonPositiveDefinite,
     "network has unstable modes (min eigenvalue -1)"),
], ids=["negative_omega", "zero_omega", "overflowing_omega", "inf_coupling",
        "nan_coupling", "asymmetric", "nonzero_diagonal", "omega_2d", "no_nodes",
        "shape_mismatch", "indefinite"])
def test_network_spec_rejects(omega, coupling, error, message):
    # the constructor itself refuses every invalid or unstable network
    with pytest.raises(error) as info:
        on.NetworkSpec(omega, coupling)
    assert str(info.value) == message


def test_network_spec_copies_its_inputs():
    # the spec freezes its own copies, never the caller's arrays
    omega = np.array([1.0, 1.1])
    coupling = np.array([[0.0, 0.1], [0.1, 0.0]])
    net = on.NetworkSpec(omega, coupling)
    assert omega.flags.writeable and coupling.flags.writeable
    omega[0] = 2.0
    coupling[0, 1] = coupling[1, 0] = 0.3
    assert net.omega[0] == 1.0 and net.coupling[0, 1] == 0.1


def test_build_rejects_nonsymmetric():
    # read from one triangle, this coupling would give modes 0.837 and 1.140
    coupling = np.array([[0.0, 0.1], [0.3, 0.0]])
    with pytest.raises(NonSymmetricCoupling, match="exactly symmetric"):
        on.NetworkSpec(np.array([1.0, 1.0]), coupling)


def test_build_rejects_nonzero_diagonal(chain3):
    with pytest.raises(NonSymmetricCoupling, match="diagonal"):
        chain3.with_coupling(1, 1, 0.1)


@pytest.mark.parametrize("weight", [np.inf, -np.inf, np.nan], ids=["inf", "minus_inf", "nan"])
def test_build_rejects_non_finite_coupling(chain3, weight):
    with pytest.raises(NonSymmetricCoupling, match="finite"):
        chain3.with_coupling(0, 2, weight)


def test_nan_eigenvalue_is_not_positive():
    # an infinite coupling would make every eigenvalue NaN; the constructor
    # refuses it by name first, so analyze never sees such a network
    coupling = np.array([[0.0, np.inf], [np.inf, 0.0]])
    with pytest.raises(NonSymmetricCoupling, match="finite"):
        on.NetworkSpec(np.ones(2), coupling)


def test_build_rejects_bad_frequencies(chain3):
    with pytest.raises(NonPositiveFrequency):
        chain3.with_omega(1, -1.0)
    with pytest.raises(NonPositiveFrequency):
        on.attach_pair(chain3, 1.0, 0.0, links_a={}, links_b={})


def test_build_rejects_indefinite_hamiltonian(chain3):
    # Coupling strong enough to push an eigenvalue of H below zero.
    with pytest.raises(NonPositiveDefinite):
        chain3.with_coupling(0, 1, -2.0)


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
    net = on.NetworkSpec(omega, coupling)
    path = tmp_path / "net.txt"
    on.save_network(net, path)
    loaded = on.load_network(path)
    assert np.array_equal(loaded.omega, net.omega)
    assert np.array_equal(loaded.coupling, net.coupling)


@settings(max_examples=50, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=5))
def test_save_load_round_trip_is_bitwise(tmp_path_factory, data, n):
    # any accepted spec, awkward floats and -0.0 couplings included, comes
    # back bit for bit; omega^2 >= 9 tops every row's |coupling| sum <= 4,
    # and omega^2 <= 1e8 keeps eigvalsh's roundoff far below that margin,
    # so every draw is stable and accepted
    omega = data.draw(st.lists(st.floats(min_value=3.0, max_value=1e4),
                               min_size=n, max_size=n))
    weights = st.floats(min_value=-1.0, max_value=1.0) | st.sampled_from([0.0, -0.0])
    coupling = np.zeros((n, n))
    for i, j in combinations(range(n), 2):
        coupling[i, j] = coupling[j, i] = data.draw(weights)
    net = on.NetworkSpec(omega, coupling)
    path = tmp_path_factory.mktemp("net") / "net.txt"
    on.save_network(net, path)
    loaded = on.load_network(path)
    assert loaded.omega.tobytes() == net.omega.tobytes()
    assert loaded.coupling.tobytes() == net.coupling.tobytes()


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
