"""Byte-for-byte checks of every CSV writer against per-cell rendering.

The oracle formats one cell at a time with f"{float(x):.12g}" (indices and
flags with str), which is what the writers must keep producing while they
format whole rows at once.
"""

import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oscnet as on
from oscnet import csvio

SPECIAL = np.array([
    -0.0, np.inf, -np.inf, np.nan, 1e-300, 0.1 + 0.2, 1e11, 99999999999.0,
    123456789012.0, 1.0 / 3.0, -2.5e-7, 7.0,
])


def cell(x):
    return f"{float(x):.12g}"


def oracle_lines(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def oracle_trajectory(path, traj):
    header = ["t"]
    for j in range(traj.n):
        header += [f"mean_q_{j}", f"mean_p_{j}", f"var_q_{j}", f"var_p_{j}", f"cov_qp_{j}"]
    header.append("total_energy")
    rows = []
    for k in range(traj.times.shape[0]):
        row = [cell(traj.times[k])]
        for j in range(traj.n):
            row += [cell(a[k, j]) for a in
                    (traj.mean_q, traj.mean_p, traj.var_q, traj.var_p, traj.cov_qp)]
        rows.append(row + [cell(traj.energy[k])])
    oracle_lines(path, header, rows)


def oracle_pair_measures(path, times, pairs, corr, info, discord, logneg):
    rows = [
        [cell(times[k]), str(i), str(j), cell(corr[k, p]), cell(info[k, p]),
         cell(discord[k, p]), cell(logneg[k, p])]
        for k in range(len(times)) for p, (i, j) in enumerate(pairs)
    ]
    oracle_lines(path, ["t", "pair_i", "pair_j", "C", "I", "discord", "logneg"], rows)


def oracle_aggregate(path, *cols):
    rows = [[cell(c[k]) for c in cols] for k in range(len(cols[0]))]
    oracle_lines(path, ["t", "S", "avg_discord", "avg_I", "avg_logneg"], rows)


def oracle_modes(path, decomp):
    rows = [
        [str(m), cell(decomp.freqs[m]), cell(decomp.eff_coupling[m]),
         cell(decomp.damping[m]), cell(decomp.diffusion[m])]
        for m in range(decomp.n)
    ]
    oracle_lines(path, ["mode", "Omega", "kappa", "Gamma", "D"], rows)


def oracle_transform(path, decomp):
    rows = [[cell(v) for v in decomp.modes[j]] for j in range(decomp.n)]
    oracle_lines(path, [f"mode_{m}" for m in range(decomp.n)], rows)


def oracle_scan(path, scan):
    name = "_".join(str(p) for p in scan.param)
    rows = [
        [cell(scan.values[k]), cell(scan.kappa_sigma[k]), str(int(scan.sigma_index[k])),
         "1" if scan.stable[k] else "0", "1" if scan.swapped[k] else "0"]
        for k in range(scan.values.shape[0])
    ]
    oracle_lines(path, [name, "kappa_sigma", "sigma_index", "stable", "swapped"], rows)


def oracle_sweep_map(path, param_name, rows_in):
    rows = [[cell(v) for v in row] for row in rows_in]
    oracle_lines(path, [param_name, "t", "S", "avg_discord"], rows)


def same_bytes(tmp_path, write, oracle, *args):
    got, want = os.path.join(tmp_path, "got.csv"), os.path.join(tmp_path, "want.csv")
    write(got, *args)
    oracle(want, *args)
    with open(got, "rb") as a, open(want, "rb") as b:
        got_bytes, want_bytes = a.read(), b.read()
    assert got_bytes == want_bytes
    return got_bytes.decode()


def special(shape, shift=0):
    """Cycle the special values over an array of the given shape."""
    size = int(np.prod(shape))
    return np.roll(np.resize(SPECIAL, size), shift).reshape(shape)


def test_special_values_render_as_single_cells():
    assert [csvio.fmt(x) for x in SPECIAL] == [cell(x) for x in SPECIAL]
    assert [csvio.fmt(x) for x in SPECIAL[:4]] == ["-0", "inf", "-inf", "nan"]
    assert csvio.fmt(1e11) == "100000000000"
    assert csvio.fmt(0.1 + 0.2) == "0.3"


class TestTrajectory:
    def test_special_values(self, tmp_path):
        steps, n = 7, 2
        traj = SimpleNamespace(
            n=n, times=special((steps,)),
            mean_q=special((steps, n), 1), mean_p=special((steps, n), 2),
            var_q=special((steps, n), 3), var_p=special((steps, n), 4),
            cov_qp=special((steps, n), 5), energy=special((steps,), 6),
        )
        traj.means = np.hstack([traj.mean_q, traj.mean_p])
        traj.blocks = np.stack([traj.var_q, traj.var_p, traj.cov_qp], axis=-1)
        text = same_bytes(tmp_path, csvio.write_trajectory, oracle_trajectory, traj)
        assert len(text.splitlines()) == steps + 1

    def test_evolved_trajectory(self, tmp_path, chain3, common_bath):
        dec = on.analyze(chain3, common_bath)
        st = on.initial_state(chain3, mean_q=[1.0, 0.0, -1.0], squeeze_r=0.2)
        traj = on.evolve(st, dec, np.linspace(0.0, 30.0, 61))
        same_bytes(tmp_path, csvio.write_trajectory, oracle_trajectory, traj)


class TestPairMeasures:
    def test_special_values_and_large_indices(self, tmp_path):
        pairs = [(0, 1), (2, 99999999999), (7, 100000000000)]
        times = special((5,))
        vals = [special((5, 3), s) for s in (1, 2, 3, 4)]
        same_bytes(tmp_path, csvio.write_pair_measures, oracle_pair_measures,
                   times, pairs, *vals)

    def test_no_pairs_is_header_only(self, tmp_path):
        empty = np.empty((4, 0))
        text = same_bytes(tmp_path, csvio.write_pair_measures, oracle_pair_measures,
                          np.arange(4.0), [], empty, empty, empty, empty)
        assert text == "t,pair_i,pair_j,C,I,discord,logneg\n"


def test_aggregate(tmp_path):
    cols = [special((9,), s) for s in range(5)]
    same_bytes(tmp_path, csvio.write_aggregate, oracle_aggregate, *cols)


class TestModes:
    def test_with_rates(self, tmp_path, er10, common_bath):
        same_bytes(tmp_path, csvio.write_modes, oracle_modes,
                   on.analyze(er10, common_bath))

    def test_special_values(self, tmp_path):
        dec = SimpleNamespace(n=12, freqs=special((12,)), eff_coupling=special((12,), 1),
                              damping=special((12,), 2), diffusion=special((12,), 3))
        same_bytes(tmp_path, csvio.write_modes, oracle_modes, dec)


def test_transform(tmp_path, er10, common_bath):
    same_bytes(tmp_path, csvio.write_transform, oracle_transform,
               on.analyze(er10, common_bath))
    dec = SimpleNamespace(n=4, modes=special((4, 4), 2))
    same_bytes(tmp_path, csvio.write_transform, oracle_transform, dec)


class TestScan:
    def test_unstable_points_and_swaps(self, tmp_path, common_bath):
        net = on.NetworkSpec(
            np.array([1.0, 1.0]), np.array([[0.0, -0.9], [-0.9, 0.0]])
        )
        scan = on.parameter_scan(net, ("omega", 0), np.linspace(0.05, 1.5, 12),
                                 common_bath)
        assert np.any(scan.sigma_index == -1) and np.any(scan.stable)
        text = same_bytes(tmp_path, csvio.write_scan, oracle_scan, scan)
        assert ",-1,0,0\n" in text

    def test_flags(self, tmp_path):
        scan = SimpleNamespace(
            param=("coupling", 3, 1), values=special((6,)),
            kappa_sigma=special((6,), 3), sigma_index=np.array([-1, 0, 1, 2, 11, 3]),
            stable=np.array([False, True, True, True, True, False]),
            swapped=np.array([False, False, True, False, True, False]),
        )
        text = same_bytes(tmp_path, csvio.write_scan, oracle_scan, scan)
        assert text.splitlines()[0] == "coupling_3_1,kappa_sigma,sigma_index,stable,swapped"


class TestSweepMap:
    def test_rows(self, tmp_path):
        table = np.column_stack([special((10,), s) for s in range(4)])
        same_bytes(tmp_path, csvio.write_sweep_map, oracle_sweep_map, "omega_6", table)

    @pytest.mark.parametrize("table", [np.empty((0, 4)), []])
    def test_empty_is_header_only(self, tmp_path, table):
        text = same_bytes(tmp_path, csvio.write_sweep_map, oracle_sweep_map,
                          "omega_6", table)
        assert text == "omega_6,t,S,avg_discord\n"


def test_every_public_writer_is_covered():
    writers = {name for name in dir(csvio) if name.startswith("write_")}
    assert writers == {
        "write_trajectory", "write_pair_measures", "write_aggregate", "write_modes",
        "write_transform", "write_scan", "write_sweep_map", "write_text",
    }


def test_text_and_tables_create_their_directory(tmp_path):
    text_path = os.path.join(tmp_path, "a", "b", "summary.txt")
    csvio.write_text(text_path, "nodes: 3\nmode  Omega\n")
    with open(text_path, "rb") as fh:
        assert fh.read() == b"nodes: 3\nmode  Omega\n"
    csv_path = os.path.join(tmp_path, "c", "map.csv")
    csvio.write_sweep_map(csv_path, "omega_1", np.array([[1.5, 0.0, 0.25, -0.0]]))
    with open(csv_path, "rb") as fh:
        assert fh.read() == b"omega_1,t,S,avg_discord\n1.5,0,0.25,-0\n"


def test_constant_columns_compare_bits():
    table = np.column_stack([
        np.zeros(4), np.full(4, -0.0), [0.0, -0.0, 0.0, 0.0], np.full(4, np.nan),
        np.full(4, -np.inf), np.full(4, 2.5e-7), [1.0, 1.0, 1.0, 1.0 + 2**-52],
    ])
    assert csvio._constant_columns(table).tolist() == [True, True, False, True, True, True, False]
    assert csvio._constant_columns(table[:1]).all()
    assert not csvio._constant_columns(table[:0]).any()


@pytest.mark.parametrize("constant", [
    np.zeros(6), np.full(6, -0.0), np.array([0.0, -0.0, 0.0, 0.0, -0.0, 0.0]),
    np.full(6, np.nan), np.full(6, np.inf), np.full(6, -np.inf), np.full(6, 2.5e-7),
], ids=["zero", "negative_zero", "mixed_zero", "nan", "inf", "minus_inf", "value"])
def test_constant_columns_match_per_row_format(tmp_path, constant):
    # a column with the same bits in every row is formatted once; the bytes
    # must be those of the per-row "%" join, next to varying columns and
    # when every column is constant
    for cols in ([special((6,), 2), constant, special((6,), 5), constant, np.arange(6.0)],
                 [constant] * 5):
        text = same_bytes(tmp_path, csvio.write_aggregate, oracle_aggregate, *cols)
        line = ",".join(["%.12g"] * 5) + "\n"
        rows = np.column_stack(cols).tolist()
        assert text.split("\n", 1)[1] == "".join(line % tuple(row) for row in rows)


_EDGES = np.array([1e-5, 1e-4, 1e11, 1e12])
#: Cells where a product of floats could round the 12th digit the wrong
#: way, or misjudge the exponent: exact 12th-digit ties, one ulp either
#: side of the notation and exponent edges, the extremes of float64, and
#: doubles nearest 13-digit decimal ties whose scaled value m lands within
#: 1.3e-4 of 1/2 on the side opposite the exact value's.
HARD = np.array([
    100000000000.5, 100000000001.5, 999999999999.5,
    *np.nextafter(_EDGES, 0.0), *_EDGES, *np.nextafter(_EDGES, np.inf),
    5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    5.053969309935e-201, 4.984439889545e+222, 9.059290052425e-219, 9.054825118245e-58,
])
HARD = np.concatenate([HARD, -HARD])

#: x = (d + f)·10^e with d a 12-digit integer and f near 1/2: the digit
#: kernel must hand such cells to "%" or round them as "%" does.
NEAR_TIES = st.builds(
    lambda d, f, e: (d + f) * 10.0 ** e,
    st.integers(10**11, 10**12 - 1),
    st.sampled_from([0.5, 0.4999, 0.5001, 0.499, 0.501, 0.49, 0.51]),
    st.integers(-310, 290),
)


def per_row(table):
    """The body the writer must produce: the per-row "%.12g" join."""
    line = ",".join(["%.12g"] * table.shape[1]) + "\n"
    return "".join(line % tuple(row) for row in table.tolist())


def table_body(tmp_path, table):
    path = os.path.join(tmp_path, "table.csv")
    csvio._write_table(path, [f"c{k}" for k in range(table.shape[1])], [table])
    with open(path, "rb") as fh:
        header, body = fh.read().decode().split("\n", 1)
    assert header == ",".join(f"c{k}" for k in range(table.shape[1]))
    return body


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(arrays(np.float64, st.tuples(st.integers(0, 24), st.integers(1, 8)),
              elements=st.one_of(st.floats(), st.sampled_from(HARD), NEAR_TIES)))
def test_random_tables_match_per_row_format(tmp_path, table):
    # st.floats() covers the full range with nan, +-inf, +-0 and subnormals
    assert table_body(tmp_path, table) == per_row(table)


def test_hard_cells_match_per_row_format(tmp_path):
    table = np.column_stack([HARD, HARD[::-1], np.roll(HARD, 5)])
    body = table_body(tmp_path, table)
    assert body == per_row(table)
    # ties go to the even 12th digit, and the last one carries into 1e+12
    assert [line.split(",")[0] for line in body.splitlines()[:3]] == [
        "100000000000", "100000000002", "1e+12",
    ]


#: Rows in one block of a table with three varying columns.
BLOCK = csvio._BLOCK_CELLS // 3


@pytest.mark.parametrize("rows", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1],
                         ids=["0", "1", "block-1", "block", "block+1"])
@pytest.mark.parametrize("pattern", ["vvv", "ccvvv", "vvvcc", "cvcvcvc", "ccc"],
                         ids=["no_constant", "leading", "trailing", "everywhere", "all"])
def test_blocks_and_constant_columns_match_per_row_format(tmp_path, rows, pattern):
    # "v" is a varying column, "c" a constant one; constant cells are
    # folded into the separators, and the rows stream in blocks
    rng = np.random.default_rng(len(pattern) * 1000 + rows)
    values = rng.standard_normal((rows, 3)) * 10.0 ** rng.integers(-12, 13, (rows, 3))
    values = np.where(rng.random((rows, 3)) < 0.1, rng.choice(np.append(HARD, SPECIAL), (rows, 3)),
                      values)
    constants = iter([2.5e-7, -0.0, np.nan, 123456789012.0])
    columns, v = [], iter(values.T)
    for kind in pattern:
        columns.append(next(v) if kind == "v" else np.full(rows, next(constants)))
    table = np.column_stack(columns)
    assert table_body(tmp_path, table) == per_row(table)


def test_digit_tables_are_built_on_first_use():
    # importing the package and loading a config build none of the
    # kernel's tables, so set-up time pays nothing for them
    package = os.path.dirname(os.path.dirname(os.path.abspath(on.__file__)))
    preset = os.path.join(package, "oscnet", "presets", "fig5_entangle.ini")
    code = ("import oscnet.cli\nfrom oscnet import csvio\n"
            f"from oscnet.scenarios import load_config\nload_config({preset!r})\n"
            "assert csvio._digit_tables.cache_info().currsize == 0")
    path = os.pathsep.join([package, os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0, out.stderr
