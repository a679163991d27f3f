import csv
import os
import textwrap
from importlib import resources

import numpy as np
import pytest

import oscnet as on
from oscnet import measures, scenarios
from oscnet.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from oscnet.errors import ConfigError

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
cutoff = 50.0

[initial]
mean_q = -1.0 0.0 1.0

[time]
t_end = 20.0
method = exact

[analysis]
window = 2.0

[output]
directory = out
"""


def write_ini(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestLoadConfig:
    def test_inline_round_trip(self, tmp_path):
        cfg = on.load_config(write_ini(tmp_path, CHAIN_INI))
        assert cfg.network.source == "inline"
        assert np.array_equal(cfg.network.omega, [1.2, 1.0, 1.8])
        assert cfg.network.edges == ((0, 1, 0.4), (1, 2, 0.4))
        assert cfg.bath.kind == "common"
        assert cfg.time.t_end == 20.0
        assert cfg.analysis.window == 2.0

        saved = str(tmp_path / "resaved.ini")
        on.save_config(cfg, saved)
        again = on.load_config(saved)
        assert np.array_equal(again.network.omega, cfg.network.omega)
        assert again.network.edges == cfg.network.edges
        assert again.bath == cfg.bath
        assert again.time == cfg.time
        assert again.analysis.window == cfg.analysis.window
        assert again.initial.mean_q.tolist() == cfg.initial.mean_q.tolist()

    def test_round_trip_awkward_floats(self, tmp_path):
        text = CHAIN_INI.replace("gamma = 0.01", f"gamma = {1.0 / 3.0!r}")
        cfg = on.load_config(write_ini(tmp_path, text))
        saved = str(tmp_path / "resaved.ini")
        on.save_config(cfg, saved)
        assert on.load_config(saved).bath.gamma == 1.0 / 3.0

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
            cutoff = 50.0

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
    ])
    def test_rejects_bad_configs(self, tmp_path, mangle):
        with pytest.raises(ConfigError):
            on.load_config(write_ini(tmp_path, mangle(CHAIN_INI)))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            on.load_config(str(tmp_path / "absent.ini"))

    def test_seed_override_only_for_random(self, tmp_path):
        cfg = on.load_config(write_ini(tmp_path, CHAIN_INI))
        with pytest.raises(ConfigError):
            on.run_simulate(cfg, out_dir=str(tmp_path / "o"), seed=3)


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

    def test_random_network_seed_override(self, tmp_path):
        text = CHAIN_INI.replace(
            "source = inline\nomega = 1.2 1.0 1.8\nedges =\n    0 1 0.4\n    1 2 0.4",
            "source = random\nnodes = 5\nconnect_prob = 0.7\nfreq_low = 0.9\n"
            "freq_high = 1.2\ncoupling_mean = -0.1\ncoupling_sd = 0.05\nseed = 3",
        ).replace("mean_q = -1.0 0.0 1.0", "mean_q = 1.0")
        cfg = on.load_config(write_ini(tmp_path, text))
        out1 = on.run_simulate(cfg, out_dir=str(tmp_path / "s1"), seed=11)
        out2 = on.run_simulate(cfg, out_dir=str(tmp_path / "s2"), seed=11)
        out3 = on.run_simulate(cfg, out_dir=str(tmp_path / "s3"), seed=12)
        with open(os.path.join(out1, "trajectory.csv"), "rb") as fh:
            b1 = fh.read()
        with open(os.path.join(out2, "trajectory.csv"), "rb") as fh:
            b2 = fh.read()
        with open(os.path.join(out3, "trajectory.csv"), "rb") as fh:
            b3 = fh.read()
        assert b1 == b2
        assert b1 != b3


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
cutoff = 50.0

[time]
t_end = 5.0

[analysis]
enabled = false

[tuning]
parameter = omega 3
bracket = 0.9 1.15

[output]
directory = out
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
        assert main(["simulate", "--config", path]) == EXIT_CONFIG

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

    @pytest.mark.parametrize("old, new", [
        ("t_end = 160.0", "t_end = nan"),
        ("window = 8.0", "window = inf"),
        ("mean_q = -1.0 0.0 1.0", "mean_q = nan 0 1"),
        ("gamma = 0.07", "gamma = nan"),
        ("temperature = 10.0", "temperature = inf"),
        ("cutoff = 50.0", "cutoff = nan"),
        ("0 1 0.4", "0 1 -inf"),
    ], ids=["t_end", "window", "mean_q", "gamma", "temperature", "cutoff", "edge"])
    def test_non_finite_number_exit_code(self, tmp_path, capsys, old, new):
        preset = (resources.files("oscnet") / "presets" / "fig2_cb.ini").read_text()
        assert preset.count(old) == 1
        path = write_ini(tmp_path, preset.replace(old, new))
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path, capsys):
        assert main(["simulate", "--config",
                     str(tmp_path / "nope.ini")]) == EXIT_CONFIG

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
        # omega 60 puts a mode above the bath cutoff of 50; omega 1.8 is fine
        preset = (resources.files("oscnet") / "presets" / "fig2_cb.ini").read_text()
        path = write_ini(tmp_path, preset + "\n[sweep]\nparameter = omega 2\nlist = 1.8 60\n")

        def no_evolve(*args, **kwargs):
            raise AssertionError("a sweep point ran before every value was checked")

        monkeypatch.setattr(scenarios, "evolve", no_evolve)
        code = main(["sweep", "--config", path, "--out", str(tmp_path / "s")])
        assert code == EXIT_CONFIG
        assert not os.path.exists(tmp_path / "s" / "map.csv")

    def test_sweep_without_analysis_exit_code(self, tmp_path, capsys):
        text = CHAIN_INI.replace("window = 2.0", "enabled = false")
        path = write_ini(tmp_path, text + TestRunSweep.SWEEP_TAIL)
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
            cutoff = 50.0

            [time]
            t_end = 5.0

            [analysis]
            enabled = false

            [tuning]
            parameter = omega 6
            bracket = 1.6 1.7
            """))
        out = tmp_path / "t"
        assert main(["tune", "--config", path, "--out", str(out)]) == EXIT_NUMERIC
        assert not out.exists()
        assert "NoZeroInBracket" in capsys.readouterr().err

    def test_sweep_workers_flag(self, tmp_path, capsys):
        path = write_ini(tmp_path, CHAIN_INI + TestRunSweep.SWEEP_TAIL)
        code = main(["sweep", "--config", path,
                     "--out", str(tmp_path / "cli_sweep"), "--workers", "2"])
        assert code == EXIT_OK
        assert os.path.exists(tmp_path / "cli_sweep" / "map.csv")
