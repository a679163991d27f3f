import concurrent.futures
import csv
import os
import re
import tempfile
import textwrap
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oscnet as on
from oscnet import measures, scenarios
from oscnet.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, _build_parser, main
from oscnet.errors import ConfigError, NonPositiveDefinite

CHAIN_INI = """\
[network]
source = inline
omega = 1.2 1.0 1.8
edges =
    0 1 0.4
    1 2 0.4

[bath]
kind = common
gamma = 0.01
temperature = 10.0

[initial]
mean_q = -1.0 0.0 1.0

[time]
t_end = 20.0
method = exact

[analysis]
window = 2.0
"""
CHAIN_INI_NO_ANALYSIS = CHAIN_INI.replace("\n[analysis]\nwindow = 2.0\n", "")
assert "[analysis]" not in CHAIN_INI_NO_ANALYSIS


def write_ini(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_table(path):
    header, rows = read_csv(path)
    return np.array(rows, dtype=float).reshape(-1, len(header))


def flat_windows(prep, decomp):
    """Per window of the measure grid and per node: the node's <q^2> is flat
    there (std at most 64 ulp of its mean), so C and S read NaN.  The rows
    end with the last window that fits before the end of the run."""
    signal = on.evolve(prep.state0, decomp, prep.times).second_moment_q
    samples = int(round(prep.window / (prep.times[1] - prep.times[0])))
    windows = np.lib.stride_tricks.sliding_window_view(signal, samples, axis=0)
    windows = windows[:: prep.cfg.analysis.stride]
    return windows.std(axis=2) <= 64 * np.finfo(float).eps * np.abs(windows.mean(axis=2))


def nan_rows(flat, rows, nodes):
    """Where a windowed column over ``nodes`` is NaN on ``rows`` rows: its
    flat windows, then the tail rows where no window fits."""
    out = np.ones(rows, dtype=bool)
    fit = flat[:rows, nodes].any(axis=1)
    out[: fit.shape[0]] = fit
    return out


class TestLoadConfig:
    def test_inline_source(self, tmp_path):
        cfg = on.load_config(write_ini(tmp_path, CHAIN_INI))
        assert cfg.network.source == "inline"
        assert np.array_equal(cfg.network.omega, [1.2, 1.0, 1.8])
        assert cfg.network.edges == ((0, 1, 0.4), (1, 2, 0.4))
        assert cfg.bath.kind == "common"
        assert cfg.time.t_end == 20.0
        assert cfg.analysis.window == 2.0

    def test_random_source(self, tmp_path):
        text = textwrap.dedent("""\
            [network]
            source = random
            nodes = 6
            connect_prob = 0.6
            freq_low = 0.9
            freq_high = 1.2
            coupling_mean = -0.1
            coupling_sd = 0.05
            seed = 7

            [bath]
            kind = common
            gamma = 0.01
            temperature = 10.0

            [time]
            t_end = 5.0
        """)
        cfg = on.load_config(write_ini(tmp_path, text))
        assert cfg.network.nodes == 6
        assert cfg.network.seed == 7

    @pytest.mark.parametrize("mangle", [
        lambda t: t.replace("[bath]", "[bathtub]"),
        lambda t: t.replace("kind = common", "kind = common\nflavor = salty"),
        lambda t: t.replace("kind = common", "kind = tepid"),
        lambda t: t.replace("t_end = 20.0", "t_end = -3"),
        lambda t: t.replace("[time]\nt_end = 20.0\nmethod = exact\n", ""),
        lambda t: t.replace("omega = 1.2 1.0 1.8", "omega = 1.2 fish 1.8"),
        lambda t: t.replace("window = 2.0", "window = -1"),
        lambda t: t.replace("method = exact", "method = rk4"),
        lambda t: t.replace("method = exact", "decimation = 4\nmethod = exact"),
        # the [analysis] section itself is the switch
        lambda t: t.replace("window = 2.0", "window = 2.0\nenabled = false"),
    ])
    def test_rejects_bad_configs(self, tmp_path, mangle):
        with pytest.raises(ConfigError):
            on.load_config(write_ini(tmp_path, mangle(CHAIN_INI)))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            on.load_config(str(tmp_path / "absent.ini"))

    def test_unused_source_key_is_still_parsed(self, tmp_path):
        # every key of a section is converted before the source is checked,
        # so a malformed value is reported as such; a well-formed key of
        # another source is rejected too (TestCli::test_unread_key_exit_code)
        text = CHAIN_INI.replace("source = inline", "source = inline\nseed = seven")
        with pytest.raises(ConfigError, match="seed = 'seven' is invalid"):
            on.load_config(write_ini(tmp_path, text))

    def test_readme_lists_every_schema_key(self):
        # the README's "Scenario configs" block names each key under its
        # section, and no key that a config cannot hold
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as fh:
            text = fh.read()
        block = text.split("## Scenario configs", 1)[1].split("```ini\n", 1)[1]
        block = block.split("```", 1)[0]
        sections = dict(re.findall(r"^\[(\w+)\][^\n]*\n(.*?)(?=^\[|\Z)", block, re.M | re.S))
        assert sections.keys() == scenarios._SCHEMA.keys()
        for name, body in sections.items():
            words = set(re.findall(r"\w+", body))
            assert set(scenarios._SCHEMA[name]) <= words, name
            assert set(re.findall(r"(\w+) =", body)) <= set(scenarios._SCHEMA[name]), name


    def test_readme_network_file_is_its_inline_example(self, tmp_path):
        # the README's network file example loads to the network of its
        # inline [network] example, so the documented format is the parsed one
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as fh:
            text = fh.read()
        configs = text.split("## Scenario configs", 1)[1]
        inline = re.search(r"^omega = .*\nedges = .*\n(?:[ \t]+\S.*\n)*",
                           configs.split("```", 2)[1], re.M).group(0)
        network_file = configs.split("A network file", 1)[1].split("```ini\n", 1)[1]
        (tmp_path / "net.txt").write_text(network_file.split("```", 1)[0])
        from_file = on.load_network(tmp_path / "net.txt")
        rest = CHAIN_INI[CHAIN_INI.index("[bath]"):]
        cfg = on.load_config(write_ini(tmp_path, f"[network]\nsource = inline\n{inline}\n{rest}"))
        from_inline = scenarios._build_network(cfg)
        assert np.array_equal(from_file.omega, from_inline.omega)
        assert np.array_equal(from_file.coupling, from_inline.coupling)
        assert from_file.n == 3 and np.count_nonzero(from_file.coupling) == 4


class TestPrepareValidation:
    def base_cfg(self, tmp_path, text=CHAIN_INI):
        return on.load_config(write_ini(tmp_path, text))

    def test_fig5_preset_grid(self):
        # step 2.0 gives the same stored grid the preset has always had
        path = str(resources.files("oscnet") / "presets" / "fig5_entangle.ini")
        prep = scenarios.prepare(on.load_config(path))
        assert np.array_equal(prep.times, np.linspace(0.0, 10000.0, 5001))

    def test_local_node_range(self, tmp_path):
        text = CHAIN_INI.replace(
            "kind = common", "kind = local\nnode = 5"
        )
        cfg = self.base_cfg(tmp_path, text)
        with pytest.raises(ConfigError):
            on.run_simulate(cfg, out_dir=str(tmp_path / "o"))

    def test_initial_length(self, tmp_path):
        text = CHAIN_INI.replace("mean_q = -1.0 0.0 1.0", "mean_q = 1.0 2.0")
        cfg = self.base_cfg(tmp_path, text)
        with pytest.raises(ConfigError):
            on.run_simulate(cfg, out_dir=str(tmp_path / "o"))

    def test_window_too_small(self, tmp_path):
        text = CHAIN_INI.replace("window = 2.0", "window = 0.1")
        cfg = self.base_cfg(tmp_path, text)
        with pytest.raises(ConfigError):
            on.run_simulate(cfg, out_dir=str(tmp_path / "o"))

    def test_pairs_out_of_range(self, tmp_path):
        text = CHAIN_INI.replace("window = 2.0", "window = 2.0\npairs = 0 7")
        cfg = self.base_cfg(tmp_path, text)
        with pytest.raises(ConfigError):
            on.run_simulate(cfg, out_dir=str(tmp_path / "o"))

    def test_tuning_under_separate_bath(self, tmp_path):
        text = CHAIN_INI.replace("kind = common", "kind = separate") + (
            "\n[tuning]\nparameter = omega 1\nbracket = 0.9 1.2\n"
        )
        cfg = self.base_cfg(tmp_path, text)
        with pytest.raises(ConfigError):
            on.run_tune(cfg, out_dir=str(tmp_path / "o"))


class TestRunSimulate:
    def test_artifacts_and_content(self, tmp_path):
        cfg = on.load_config(write_ini(tmp_path, CHAIN_INI))
        out = on.run_simulate(cfg, out_dir=str(tmp_path / "run"))
        for name in ("trajectory.csv", "measures.csv", "aggregate.csv",
                     "summary.txt"):
            assert os.path.exists(os.path.join(out, name))

        header, rows = read_csv(os.path.join(out, "trajectory.csv"))
        assert header[0] == "t"
        assert header[-1] == "total_energy"
        assert "mean_q_0" in header and "cov_qp_2" in header
        data = np.array(rows, dtype=float)
        assert np.all(np.isfinite(data))

        # first row is the initial state
        assert data[0, 0] == 0.0
        iq = header.index("mean_q_0")
        assert data[0, iq] == -1.0

        # trajectory matches a direct evolve on the default stored grid
        net = on.build_network(
            np.array([1.2, 1.0, 1.8]),
            np.array([[0.0, 0.4, 0.0], [0.4, 0.0, 0.4], [0.0, 0.4, 0.0]]),
        )
        dec = on.analyze(net, cfg.bath)
        step = 0.02 * 2.0 * np.pi / dec.freqs.max()
        n_int = int(np.floor(20.0 / step + 1e-9))
        times = np.linspace(0.0, n_int * step, n_int + 1)
        assert np.allclose(data[:, 0], times, atol=1e-9)
        st0 = on.initial_state(net, mean_q=[-1.0, 0.0, 1.0])
        traj = on.evolve(st0, dec, times)
        assert np.allclose(data[:, iq], traj.mean_q[:, 0], atol=1e-9)
        assert np.allclose(data[:, -1], traj.energy, rtol=1e-9)

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = on.load_config(write_ini(tmp_path, CHAIN_INI))
        out1 = on.run_simulate(cfg, out_dir=str(tmp_path / "a"))
        out2 = on.run_simulate(cfg, out_dir=str(tmp_path / "b"))
        for name in ("trajectory.csv", "measures.csv", "aggregate.csv"):
            with open(os.path.join(out1, name), "rb") as fh:
                blob1 = fh.read()
            with open(os.path.join(out2, name), "rb") as fh:
                blob2 = fh.read()
            assert blob1 == blob2, name

    def test_aggregate_columns(self, tmp_path):
        cfg = on.load_config(write_ini(tmp_path, CHAIN_INI))
        out = on.run_simulate(cfg, out_dir=str(tmp_path / "run"))
        header, rows = read_csv(os.path.join(out, "aggregate.csv"))
        assert header == ["t", "S", "avg_discord", "avg_I", "avg_logneg"]
        data = np.array(rows, dtype=float)
        s = data[:, 1]
        assert np.all((s[np.isfinite(s)] >= 0.0) & (s[np.isfinite(s)] <= 1.0))
        assert np.all(data[:, 2][np.isfinite(data[:, 2])] >= 0.0)

    def test_one_correlation_call_for_all_pairs(self, tmp_path, monkeypatch):
        calls = []
        real = measures.windowed_correlation

        def counting(*args, **kwargs):
            calls.append(real(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(measures, "windowed_correlation", counting)
        cfg = on.load_config(write_ini(tmp_path, CHAIN_INI))
        out = on.run_simulate(cfg, out_dir=str(tmp_path / "run"))
        assert len(calls) == 1
        pearson = calls[0]
        assert pearson.values.shape[1] == 3  # every pair of the chain
        header, rows = read_csv(os.path.join(out, "measures.csv"))
        data = np.array(rows, dtype=float)
        assert header[:4] == ["t", "pair_i", "pair_j", "C"]
        # C is written on the measure grid, where its windows start
        for k, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
            rows_k = data[(data[:, 1] == i) & (data[:, 2] == j)][: len(pearson)]
            assert np.allclose(rows_k[:, 0], pearson.times, rtol=1e-11, atol=1e-12)
            assert np.allclose(rows_k[:, 3], pearson.values[:, k], rtol=1e-11, atol=1e-12)
        with open(os.path.join(out, "summary.txt")) as fh:
            assert f"analysis window: {on.csvio.fmt(pearson.window)}" in fh.read()

    def test_slowest_mode_sets_summary_and_window(self, tmp_path):
        # sigma is the least-coupled mode, its runner-up the next; the
        # automatic window spans ten periods of sigma
        text = CHAIN_INI.replace("window = 2.0\n", "").replace("t_end = 20.0", "t_end = 80.0")
        cfg = on.load_config(write_ini(tmp_path, text))
        assert cfg.analysis.window is None
        prep = scenarios.prepare(cfg)
        kappa = np.abs(prep.decomp.eff_coupling)
        sigma = int(np.argmin(kappa))
        eta = int(np.argmin(np.where(np.arange(3) == sigma, np.inf, kappa)))
        assert prep.window == 10.0 * 2.0 * np.pi / prep.decomp.freqs[sigma]
        out = on.run_spectrum(cfg, out_dir=str(tmp_path / "spec"))
        with open(os.path.join(out, "summary.txt")) as fh:
            text = fh.read()
        ratio = on.csvio.fmt(kappa[sigma] / kappa[eta])
        assert f"slowest mode: {sigma} (damping ratio {ratio})" in text

    def test_without_analysis_writes_trajectory_only(self, tmp_path):
        cfg = on.load_config(write_ini(tmp_path, CHAIN_INI_NO_ANALYSIS))
        assert cfg.analysis is None
        out = on.run_simulate(cfg, out_dir=str(tmp_path / "run"))
        assert sorted(os.listdir(out)) == ["summary.txt", "trajectory.csv"]
        with open(os.path.join(out, "summary.txt")) as fh:
            assert "analysis window" not in fh.read()

    def test_random_network_seed_selects_the_network(self, tmp_path):
        # [network] seed is the one source of a random network's draw
        def trajectory(seed, tag):
            text = CHAIN_INI.replace(
                "source = inline\nomega = 1.2 1.0 1.8\nedges =\n    0 1 0.4\n    1 2 0.4",
                "source = random\nnodes = 5\nconnect_prob = 0.7\nfreq_low = 0.9\n"
                f"freq_high = 1.2\ncoupling_mean = -0.1\ncoupling_sd = 0.05\nseed = {seed}",
            ).replace("mean_q = -1.0 0.0 1.0", "mean_q = 1.0")
            cfg = on.load_config(write_ini(tmp_path, text, f"seed{seed}.ini"))
            out = on.run_simulate(cfg, out_dir=str(tmp_path / tag))
            with open(os.path.join(out, "trajectory.csv"), "rb") as fh:
                return fh.read()

        assert trajectory(11, "a") == trajectory(11, "b")
        assert trajectory(11, "c") != trajectory(12, "d")


class TestRunSweep:
    SWEEP_TAIL = "\n[sweep]\nparameter = omega 0\nlist = 0.3 1.0 1.2\n"

    def test_map_and_skipped(self, tmp_path):
        cfg = on.load_config(write_ini(tmp_path, CHAIN_INI + self.SWEEP_TAIL))
        out = on.run_sweep(cfg, out_dir=str(tmp_path / "sweep"))
        header, rows = read_csv(os.path.join(out, "map.csv"))
        assert header == ["omega_0", "t", "S", "avg_discord"]
        values = sorted(set(float(r[0]) for r in rows))
        # omega 0.3 makes the quadratic form indefinite and is skipped
        assert values == [1.0, 1.2]
        with open(os.path.join(out, "summary.txt")) as fh:
            assert "skipped unstable values: 0.3" in fh.read()

    def test_worker_count_does_not_change_output(self, tmp_path):
        cfg = on.load_config(write_ini(tmp_path, CHAIN_INI + self.SWEEP_TAIL))
        out1 = on.run_sweep(cfg, out_dir=str(tmp_path / "w1"), workers=1)
        out2 = on.run_sweep(cfg, out_dir=str(tmp_path / "w2"), workers=2)
        with open(os.path.join(out1, "map.csv"), "rb") as fh:
            b1 = fh.read()
        with open(os.path.join(out2, "map.csv"), "rb") as fh:
            b2 = fh.read()
        assert b1 == b2

    @pytest.mark.parametrize("values, workers, pools", [
        ("0.3 1.0 1.2", 64, [2]), ("0.3 1.0 1.2", 2, [2]), ("1.0", 8, []), ("0.3 1.0 1.2", 1, []),
    ], ids=["capped", "fewer_workers", "one_point", "serial"])
    def test_pool_size_is_capped_at_the_points(self, tmp_path, monkeypatch, values, workers,
                                              pools):
        # a process pool forks all its workers on the first submit, so it
        # gets at most one per sweep point (0.3 is skipped as unstable), and
        # one point or one worker runs with no pool; the stand-in records
        # each pool it is asked for and runs the points serially
        opened = []

        class SerialPool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        tail = self.SWEEP_TAIL.replace("0.3 1.0 1.2", values)
        cfg = on.load_config(write_ini(tmp_path, CHAIN_INI + tail))
        out = on.run_sweep(cfg, out_dir=str(tmp_path / "sweep"), workers=workers)
        assert opened == pools
        assert os.path.exists(os.path.join(out, "map.csv"))

    def test_requires_sweep_section(self, tmp_path):
        cfg = on.load_config(write_ini(tmp_path, CHAIN_INI))
        with pytest.raises(ConfigError):
            on.run_sweep(cfg, out_dir=str(tmp_path / "sweep"))

    def test_points_request_discord_only(self, tmp_path, monkeypatch):
        # map.csv holds S(t) and the pair-averaged discord: a point must not
        # compute the simulate-only C, I or E_N series
        requested = []
        pair_series = measures.pair_measure_series

        def counting(traj, measure, *args, **kwargs):
            requested.append(measure)
            return pair_series(traj, measure, *args, **kwargs)

        def no_correlation(*args, **kwargs):
            raise AssertionError("a sweep point computed a pair correlation C")

        monkeypatch.setattr(measures, "pair_measure_series", counting)
        monkeypatch.setattr(measures, "windowed_correlation", no_correlation)
        cfg = on.load_config(write_ini(tmp_path, CHAIN_INI + self.SWEEP_TAIL))
        on.run_sweep(cfg, out_dir=str(tmp_path / "sweep"))
        assert requested == [measures.DISCORD, measures.DISCORD]


class TestRunTuneAndSpectrum:
    TUNE_INI = """\
[network]
source = inline
omega = 1.3 1.5 1.0 1.05
edges =
    0 1 -0.05
    0 2 -0.15
    0 3 -0.15
    1 2 -0.12
    1 3 -0.12

[bath]
kind = common
gamma = 0.01
temperature = 10.0

[time]
t_end = 5.0

[tuning]
parameter = omega 3
bracket = 0.9 1.15
"""

    def test_tune_artifacts(self, tmp_path):
        cfg = on.load_config(write_ini(tmp_path, self.TUNE_INI))
        out = on.run_tune(cfg, out_dir=str(tmp_path / "tune"))
        header, rows = read_csv(os.path.join(out, "scan.csv"))
        assert header[0] == "omega_3"
        assert len(rows) == 33
        tuned = on.load_network(os.path.join(out, "tuned_network.txt"))
        assert tuned.omega[3] == pytest.approx(1.0, abs=1e-9)
        with open(os.path.join(out, "summary.txt")) as fh:
            text = fh.read()
        assert "tuned omega 3 =" in text
        assert "participating nodes: 2 3" in text
        assert "frozen roots in bracket: 1\n" in text
        assert "frozen at any value: none" in text

    def test_spectrum_artifacts(self, tmp_path):
        cfg = on.load_config(write_ini(tmp_path, CHAIN_INI))
        out = on.run_spectrum(cfg, out_dir=str(tmp_path / "spec"))
        header, rows = read_csv(os.path.join(out, "modes.csv"))
        assert header == ["mode", "Omega", "kappa", "Gamma", "D"]
        assert len(rows) == 3
        theader, trows = read_csv(os.path.join(out, "transform.csv"))
        assert len(theader) == 3 and len(trows) == 3
        f = np.array(trows, dtype=float)
        assert np.allclose(f.T @ f, np.eye(3), atol=1e-10)


class TestCli:
    def test_simulate_ok(self, tmp_path, capsys):
        path = write_ini(tmp_path, CHAIN_INI)
        code = main(["simulate", "--config", path,
                     "--out", str(tmp_path / "cli_out")])
        assert code == EXIT_OK
        assert os.path.exists(tmp_path / "cli_out" / "trajectory.csv")
        assert str(tmp_path / "cli_out") in capsys.readouterr().out

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = write_ini(tmp_path, CHAIN_INI.replace("[bath]", "[soup]"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_rk4_method_exit_code(self, tmp_path, capsys):
        path = write_ini(tmp_path, CHAIN_INI.replace("method = exact", "method = rk4"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert "'exact'" in capsys.readouterr().err

    def test_coupling_tuning_exit_code(self, tmp_path, capsys):
        text = TestRunTuneAndSpectrum.TUNE_INI.replace(
            "parameter = omega 3", "parameter = coupling 3 1"
        )
        out = tmp_path / "t"
        path = write_ini(tmp_path, text)
        assert main(["tune", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert "omega <node>" in capsys.readouterr().err

    @pytest.mark.parametrize("key, old", [
        ("tol = 1e-10", "bracket = 0.9 1.15"),
        ("max_retries = 100", "source = inline"),
        ("cutoff = 50.0", "temperature = 10.0"),
    ], ids=["tol", "max_retries", "cutoff"])
    def test_removed_key_exit_code(self, tmp_path, capsys, key, old):
        # tuning accepts the pencil roots that frozen_mode_report calls
        # frozen, random_network draws a fixed number of times, and the
        # Ohmic rates are those of an infinite cutoff
        text = TestRunTuneAndSpectrum.TUNE_INI
        assert text.count(old) == 1
        path = write_ini(tmp_path, text.replace(old, f"{old}\n{key}"))
        out = tmp_path / "t"
        assert main(["tune", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert f"unknown key {key.split()[0]!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new", [
        ("t_end = 160.0", "t_end = nan"),
        ("window = 8.0", "window = inf"),
        ("mean_q = -1.0 0.0 1.0", "mean_q = nan 0 1"),
        ("gamma = 0.07", "gamma = nan"),
        ("temperature = 10.0", "temperature = inf"),
        ("0 1 0.4", "0 1 -inf"),
        ("window = 8.0", "window = 8.0\nsync_subset = a b"),
        ("mean_q = -1.0 0.0 1.0", "mean_q = -1.0 0.0 1.0\nthermal_n = -1"),
        ("mean_q = -1.0 0.0 1.0", "mean_q = -1.0 0.0 1.0\nsqueeze_r = 400"),
        ("mean_q = -1.0 0.0 1.0", "mean_q = -1.0 0.0 1.0\nsqueeze_r = 10"),
        ("mean_q = -1.0 0.0 1.0", "mean_q = -1.0 0.0 1.0\nthermal_n = 1e300"),
        ("mean_q = -1.0 0.0 1.0", "mean_q = 1e300 0.0 1.0"),
        ("temperature = 10.0", "temperature = 1e300"),
        ("temperature = 10.0", "temperature = 1e33"),
    ], ids=["t_end", "window", "mean_q", "gamma", "temperature", "edge",
            "sync_subset", "thermal_n", "squeeze_r", "squeeze_r_precision", "huge_thermal_n",
            "huge_mean_q", "huge_temperature", "discord_temperature"])
    def test_non_finite_number_exit_code(self, tmp_path, capsys, old, new):
        preset = (resources.files("oscnet") / "presets" / "fig2_cb.ini").read_text()
        assert preset.count(old) == 1
        path = write_ini(tmp_path, preset.replace(old, new))
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "spectrum"])
    @pytest.mark.parametrize("old, new", [
        ("window = 8.0", "window = 8.0\nstride = 1" + "0" * 400),
        ("gamma = 0.07", "gamma = 1.7e308"),
    ], ids=["stride_past_float", "damping_overflows"])
    def test_overflowing_number_exit_code(self, tmp_path, capsys, command, old, new):
        # a stride too large for a float, and a common-bath damping
        # gamma kappa^2 past the float range; pytest turns the overflow
        # RuntimeWarning into an error, so nothing may raise one
        preset = (resources.files("oscnet") / "presets" / "fig2_cb.ini").read_text()
        preset = preset.replace("t_end = 160.0", "t_end = 20.0")
        assert preset.count(old) == 1
        path = write_ini(tmp_path, preset.replace(old, new))
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert "config error" in capsys.readouterr().err

    # every grid is built through one helper, and a size above the intp
    # maximum, which numpy refuses before it allocates, is a config error
    GRID_TAIL = ("\n[sweep]\nparameter = omega 2\nlist = 1.8\n"
                 "\n[tuning]\nparameter = omega 2\nbracket = 1.0 2.5\n")

    @pytest.mark.parametrize("command, old, new", [
        *(pytest.param(command, "t_end = 160.0", "t_end = 1e300", id=f"t_end-{command}")
          for command in ("simulate", "sweep", "tune", "spectrum")),
        *(pytest.param(command, "step = 0.05", "step = 1e-300", id=f"step-{command}")
          for command in ("simulate", "sweep", "tune", "spectrum")),
        pytest.param("simulate", "t_end = 160.0\nstep = 0.05", "t_end = 1e300\nstep = 1e-300",
                     id="infinite_t_end_over_step"),
        pytest.param("tune", "bracket = 1.0 2.5", f"bracket = 1.0 2.5\ngrid = {10**30}",
                     id="tuning_grid"),
    ])
    def test_grid_beyond_numpy_exit_code(self, tmp_path, capsys, command, old, new):
        preset = (resources.files("oscnet") / "presets" / "fig2_cb.ini").read_text()
        text = preset + self.GRID_TAIL
        assert text.count(old) == 1
        path = write_ini(tmp_path, text.replace(old, new))
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert "grid points" in capsys.readouterr().err

    @pytest.mark.parametrize("scale, code", [(0.99, EXIT_OK), (1.01, EXIT_CONFIG)],
                             ids=["inside", "outside"])
    def test_hottest_bath_at_the_moment_bound(self, tmp_path, scale, code):
        # At T >> W a damped mode's stationary variances are T / W^2 and T,
        # so this temperature puts the largest at scale * _MAX_SECOND_MOMENT.
        # Inside, the run must be clean: pytest turns every overflow
        # RuntimeWarning (the discord kernel's first) into an error.
        preset = (resources.files("oscnet") / "presets" / "fig2_cb.ini").read_text()
        freqs = scenarios.prepare(scenarios.load_config(write_ini(tmp_path, preset))).decomp.freqs
        temperature = float(scale * scenarios._MAX_SECOND_MOMENT / max(1.0, freqs.min() ** -2))
        path = write_ini(tmp_path, preset.replace("temperature = 10.0",
                                                  f"temperature = {temperature!r}"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == code
        assert out.exists() == (code == EXIT_OK)

    def test_largest_squeeze_runs_clean(self, tmp_path):
        # r = ln(2^52)/4 is the largest squeeze_r prepare accepts; the run
        # must be clean, and pytest turns every RuntimeWarning into an error
        preset = (resources.files("oscnet") / "presets" / "fig2_cb.ini").read_text()
        r = float(scenarios._MAX_SQUEEZE)
        path = write_ini(tmp_path, preset.replace(
            "mean_q = -1.0 0.0 1.0", f"mean_q = -1.0 0.0 1.0\nsqueeze_r = {r!r}"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_OK
        assert out.exists()

    def test_relaxed_windows_are_the_only_nan_s(self, tmp_path):
        # gamma = 5 overdamps the fig2_cb chain, and it has relaxed long
        # before t_end: from there each <q_j^2> moves by at most a few ulp
        # (at first a few tens, later none), and S(t) is NaN in exactly the
        # windows flat in some node (std <= 64 ulp of its mean), plus the
        # tail rows where no window fits
        preset = (resources.files("oscnet") / "presets" / "fig2_cb.ini").read_text()
        path = write_ini(tmp_path, preset.replace("gamma = 0.07", "gamma = 5"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_OK
        sync = read_table(out / "aggregate.csv")[:, 1]
        prep = scenarios.prepare(scenarios.load_config(path))
        flat = flat_windows(prep, prep.decomp)
        assert np.array_equal(np.isnan(sync), nan_rows(flat, sync.shape[0], slice(None)))
        assert flat[: sync.shape[0]].any(axis=1).sum() > 120

    RANDOM_NETWORK = ("source = random\nnodes = {nodes}\nconnect_prob = {prob}\n"
                      "freq_low = 0.9\nfreq_high = 1.2\ncoupling_mean = -0.1\n"
                      "coupling_sd = 0.05\nseed = 7\n")

    @pytest.mark.parametrize("network, network_file, detail", [
        (RANDOM_NETWORK.format(nodes=3, prob=1.5), None, ""),
        (RANDOM_NETWORK.format(nodes=0, prob=0.5), None, ""),
        # np.zeros((n, n)) asks for 728 TiB, which numpy refuses before it
        # allocates anything
        (RANDOM_NETWORK.format(nodes=10**7, prob=0.5), None, "Unable to allocate"),
        ("source = file\npath = net.txt\n", "[network]\nomega = 1.0 abc 1.2\nedges =\n", ""),
        ("source = file\npath = net.txt\n",
         "[network]\nomega = 1.0 1.1 1.2\nedges = 0 3 0.1\n", "out of range"),
        ("source = inline\nomega = 1.0\nedges =\n", None, ""),
        ("source = file\npath = net.txt\n",
         "[network]\nomega = 1.0 1.1 1.2\nedges = 0 1 inf\n", "not a finite number"),
        # 1 0 is the edge 0 1: the second weight would silently replace the first
        ("source = inline\nomega = 1.2 1.0 1.8\nedges =\n    0 1 0.4\n    1 0 0.1\n", None,
         "edge (1, 0) is given twice"),
        ("source = file\npath = net.txt\n",
         "[network]\nomega = 1.2 1.0 1.8\nedges =\n    0 1 0.4\n    1 0 0.1\n",
         "edge (1, 0) is given twice"),
        ("source = file\npath = net.txt\n",
         "[network]\nomega = 1.2 1.0 1.8\nedges = 0 1 0.4\nsource = inline\n",
         "omega and edges only"),
        ("source = file\npath = net.txt\n",
         "[network]\nomega = 1.2 1.0 1.8\nedges = 0 1 0.4\n[bath]\nkind = common\n",
         "omega and edges only"),
    ], ids=["connect_prob", "zero_nodes", "huge_random", "file_node_value", "file_edge_range",
            "one_node", "file_edge_inf", "inline_repeated_edge", "file_repeated_edge",
            "file_unknown_key", "file_unknown_section"])
    def test_network_source_exit_code(self, tmp_path, capsys, network, network_file, detail):
        preset = (resources.files("oscnet") / "presets" / "fig2_cb.ini").read_text()
        inline = "source = inline\nomega = 1.2 1.0 1.8\nedges =\n    0 1 0.4\n    1 2 0.4\n"
        assert preset.count(inline) == 1
        if network_file is not None:
            (tmp_path / "net.txt").write_text(network_file)
        path = write_ini(tmp_path, preset.replace(inline, network))
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert "config error" in err
        assert detail in err

    @pytest.mark.parametrize("old, new, detail", [
        ("kind = common", "kind = common\nnode = 99", "node is read by kind = local only"),
        ("kind = common", "kind = separate\nnode = 1", "node is read by kind = local only"),
        ("source = inline", "source = inline\nseed = 5", "seed is not read by source = inline"),
        ("source = inline", "source = inline\npath = nowhere.txt",
         "path is not read by source = inline"),
    ], ids=["common_bath_node", "separate_bath_node", "inline_seed", "inline_path"])
    def test_unread_key_exit_code(self, tmp_path, capsys, old, new, detail):
        # a key that its section's selector (the bath kind, the network
        # source) does not read would change nothing, so it is rejected
        preset = (resources.files("oscnet") / "presets" / "fig2_cb.ini").read_text()
        assert preset.count(old) == 1
        path = write_ini(tmp_path, preset.replace(old, new))
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert detail in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_undecodable_config_exit_code(self, tmp_path, capsys):
        # configs and network files are read as UTF-8
        path = tmp_path / "latin1.ini"
        path.write_bytes(CHAIN_INI.replace("[bath]", "# caf\xe9\n[bath]").encode("latin-1"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert "malformed config" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "sweep", "tune", "spectrum"])
    def test_unwritable_out_exit_code(self, tmp_path, capsys, command):
        # an output directory below a regular file cannot be made: the
        # writers' OSError is a config error that names the path
        text = (TestRunTuneAndSpectrum.TUNE_INI if command == "tune"
                else CHAIN_INI + TestRunSweep.SWEEP_TAIL)
        path = write_ini(tmp_path, text)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = str(blocker / "sub")
        assert main([command, "--config", path, "--out", out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert out in err and "Traceback" not in err
        assert blocker.read_text() == ""

    def test_cli_options(self):
        # the config holds the scenario and the required --out the
        # destination; sweep alone adds --workers
        sub = next(a for a in _build_parser()._actions if a.dest == "command")
        assert sorted(sub.choices) == ["simulate", "spectrum", "sweep", "tune"]
        for name, cmd in sub.choices.items():
            options = {a.option_strings[-1]: a.required for a in cmd._actions
                       if a.option_strings and a.dest != "help"}
            expected = {"--config": True, "--out": True}
            if name == "sweep":
                expected["--workers"] = False
            assert options == expected, name

    @pytest.mark.parametrize("command, old, new, detail", [
        # (1, 0) is the pair (0, 1): listing it twice would double its rows
        # in measures.csv and its weight in every pair average
        ("simulate", "window = 2.0", "window = 2.0\npairs = 0 1; 1 0; 0 2", "listed twice"),
        ("sweep", "list = 0.3 1.0 1.2", "list =", "list is empty"),
        # omega_0 = 0.3 or 0.2 makes the chain unstable: no point would run
        ("sweep", "list = 0.3 1.0 1.2", "list = 0.3 0.2", "list value is unstable: 0.3 0.2"),
    ], ids=["repeated_pair", "empty_sweep", "all_unstable_sweep"])
    def test_listed_values_exit_code(self, tmp_path, capsys, command, old, new, detail):
        path = write_ini(tmp_path, (CHAIN_INI + TestRunSweep.SWEEP_TAIL).replace(old, new))
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert detail in capsys.readouterr().err

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        # bracket grid-checked to contain no kappa zero: tune must fail
        # with a numeric (not config) error
        text = TestRunTuneAndSpectrum.TUNE_INI.replace(
            "bracket = 0.9 1.15", "bracket = 1.6 2.0"
        )
        path = write_ini(tmp_path, text)
        assert main(["tune", "--config", path,
                     "--out", str(tmp_path / "t")]) == EXIT_NUMERIC

    def test_sweep_value_rejected_before_any_point(self, tmp_path, capsys, monkeypatch):
        # omega -1.0 is not a frequency, a set-up rejection; omega 1.8 is fine
        preset = (resources.files("oscnet") / "presets" / "fig2_cb.ini").read_text()
        path = write_ini(tmp_path, preset + "\n[sweep]\nparameter = omega 2\nlist = 1.8 -1.0\n")

        def no_evolve(*args, **kwargs):
            raise AssertionError("a sweep point ran before every value was checked")

        monkeypatch.setattr(scenarios, "evolve", no_evolve)
        code = main(["sweep", "--config", path, "--out", str(tmp_path / "s")])
        assert code == EXIT_CONFIG
        assert not os.path.exists(tmp_path / "s" / "map.csv")

    def test_sweep_without_analysis_exit_code(self, tmp_path, capsys):
        path = write_ini(tmp_path, CHAIN_INI_NO_ANALYSIS + TestRunSweep.SWEEP_TAIL)
        out = tmp_path / "s"
        assert main(["sweep", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert "[analysis]" in capsys.readouterr().err

    def test_failed_tune_writes_nothing(self, tmp_path, capsys):
        # no frozen root of omega 6 in (1.6, 1.7) on the fig3 network
        net_path = resources.files("oscnet") / "presets" / "fig3_network.txt"
        path = write_ini(tmp_path, textwrap.dedent(f"""\
            [network]
            source = file
            path = {net_path}

            [bath]
            kind = common
            gamma = 0.01
            temperature = 10.0

            [time]
            t_end = 5.0

            [tuning]
            parameter = omega 6
            bracket = 1.6 1.7
            """))
        out = tmp_path / "t"
        assert main(["tune", "--config", path, "--out", str(out)]) == EXIT_NUMERIC
        assert not out.exists()
        assert "NoZeroInBracket" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "tune", "spectrum"])
    def test_workers_only_on_sweep(self, tmp_path, capsys, command):
        path = write_ini(tmp_path, CHAIN_INI)
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", path, "--out", str(out), "--workers", "2"])
        assert exc.value.code == EXIT_CONFIG
        assert not out.exists()

    def test_sweep_workers_flag(self, tmp_path, capsys):
        path = write_ini(tmp_path, CHAIN_INI + TestRunSweep.SWEEP_TAIL)
        code = main(["sweep", "--config", path,
                     "--out", str(tmp_path / "cli_sweep"), "--workers", "2"])
        assert code == EXIT_OK
        assert os.path.exists(tmp_path / "cli_sweep" / "map.csv")


# a fig2_cb-like chain, cut to t_end = 20, with [sweep] and [tuning]
FUZZ_CONFIG = {
    "network": {"source": "inline", "omega": "1.2 1.0 1.8", "edges": "\n 0 1 0.4\n 1 2 0.4"},
    "bath": {"kind": "common", "gamma": "0.07", "temperature": "10.0"},
    "initial": {"mean_q": "-1.0 0.0 1.0"},
    "time": {"t_end": "20.0", "step": "0.05", "method": "exact"},
    "analysis": {"window": "8.0"},
    "sweep": {"parameter": "omega 2", "list": "1.6 1.8 2.0"},
    "tuning": {"parameter": "omega 2", "bracket": "1.0 2.5"},
}
# Edge values for any key.  From FUZZ_CONFIG, each keeps every grid (the
# time grid and the tuning grid) at a few hundred points, or
# sends its size above the intp maximum, where numpy refuses it before it
# allocates anything.  A size in between would be allocated, gigabytes of
# it, so no value here may produce one.
EDGE_VALUES = ("0", "-1", "1e-300", "1e300", "fish", "", str(10**30), "all", "auto")
# keys of a random network are left out: the chain is an inline network
FUZZ_KEYS = tuple(
    (section, key) for section, keys in scenarios._SCHEMA.items() for key in keys
    if key not in scenarios._SOURCE_KEYS["random"]
)


def check_documented_nan(path, command, out):
    """An exit-0 simulate or sweep writes NaN only in the cells the README
    documents: the tail rows where no window fits, a window flat in a node
    it reads (C and S), and the I, discord and logneg columns of a pair
    that summary.txt lists as excluded (their pair mean only when every
    pair is)."""
    cfg = scenarios.load_config(path)
    prep = scenarios.prepare(cfg)
    if command == "simulate":
        assert not np.isnan(read_table(os.path.join(out, "trajectory.csv"))).any()
    if cfg.analysis is None:
        return
    subset = slice(None) if cfg.analysis.sync_subset is None else list(cfg.analysis.sync_subset)
    if command == "sweep":
        decomps = []
        for value in cfg.sweep.list:
            try:
                net = scenarios._with_param(prep.net, cfg.sweep.parameter, float(value))
                decomps.append(on.analyze(net, cfg.bath))
            except NonPositiveDefinite:
                continue
        table = read_table(os.path.join(out, "map.csv"))
        table = table.reshape(len(decomps), -1, table.shape[1])
        for decomp, block in zip(decomps, table):
            flat = flat_windows(prep, decomp)
            assert np.array_equal(np.isnan(block[:, 2]), nan_rows(flat, len(block), subset))
            assert not np.isnan(block[:, 3]).any()
        return
    flat = flat_windows(prep, prep.decomp)
    with open(os.path.join(out, "summary.txt")) as fh:
        listed = re.search(r"^excluded pairs: (.*)$", fh.read(), re.MULTILINE)
    excluded = set() if listed is None else {
        tuple(int(v) for v in pair.split()) for pair in listed.group(1).split("; ")
    }
    table = read_table(os.path.join(out, "measures.csv"))
    table = table.reshape(-1, np.count_nonzero(table[:, 0] == table[0, 0]), table.shape[1])
    for p in range(table.shape[1]):
        i, j = (int(v) for v in table[0, p, 1:3])
        assert np.array_equal(np.isnan(table[:, p, 3]), nan_rows(flat, len(table), [i, j]))
        assert (i, j) in excluded or not np.isnan(table[:, p, 4:]).any()
    agg = read_table(os.path.join(out, "aggregate.csv"))
    assert np.array_equal(np.isnan(agg[:, 1]), nan_rows(flat, len(agg), subset))
    assert len(excluded) == table.shape[1] or not np.isnan(agg[:, 2:]).any()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@example(edits={})
@example(edits={("sweep", "list"): "1e300"})  # omega^2 overflows
@example(edits={("time", "t_end"): "1e-300", ("time", "step"): "1e-300",
                ("analysis", "window"): "1e300"})  # window / step overflows
@example(edits={("bath", "gamma"): "1e300", ("bath", "temperature"): "1e300"})  # D overflows
@given(edits=st.dictionaries(st.sampled_from(FUZZ_KEYS), st.sampled_from(EDGE_VALUES),
                             min_size=1, max_size=3))
def test_exit_code_contract_over_the_schema(edits):
    # nothing escapes main, the code is 0, 2 or 3, and a config error
    # writes no output directory; the unedited chain runs on every command,
    # and an exit-0 simulate or sweep writes NaN only where documented
    config = {section: dict(keys) for section, keys in FUZZ_CONFIG.items()}
    for (section, key), value in edits.items():
        config.setdefault(section, {})[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.ini")
        with open(path, "w") as fh:
            for section, keys in config.items():
                fh.write(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()))
        for command in ("simulate", "sweep", "tune", "spectrum"):
            out = os.path.join(tmp, command)
            code = main([command, "--config", path, "--out", out])
            assert code in ((EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC) if edits else (EXIT_OK,))
            if code == EXIT_CONFIG:
                assert not os.path.exists(out)
            if code == EXIT_OK and command in ("simulate", "sweep"):
                check_documented_nan(path, command, out)
