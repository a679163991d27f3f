"""Guards on the shape of the package itself."""

import copy
import dataclasses
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import oscnet
from oscnet import network, spectral
from oscnet.measures import DISCORD
from oscnet.scenarios import load_config, prepare

PACKAGE_DIR = pathlib.Path(oscnet.__file__).parent
PRESETS = PACKAGE_DIR / "presets"


def _package_modules():
    """Every module of the package, by its import name."""
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        name = "oscnet" if path.stem == "__init__" else f"oscnet.{path.stem}"
        yield name, importlib.import_module(name)


def _run_fresh(code, cwd=None):
    """Run ``code`` in a fresh interpreter that imports this package."""
    path = os.pathsep.join([str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), cwd=cwd)


def test_single_code_path():
    # importing oscnet pulls in no optional accelerator, and no module reads
    # the environment, so every run goes through the same numpy code
    out = _run_fresh("import sys, oscnet; assert 'numba' not in sys.modules, 'numba imported'")
    assert out.returncode == 0, out.stderr
    readers = [p.name for p in sorted(PACKAGE_DIR.glob("*.py"))
               if "os.environ" in p.read_text() or "getenv" in p.read_text()]
    assert readers == []


@pytest.mark.parametrize("module", [oscnet, spectral, network],
                         ids=["oscnet", "spectral", "network"])
def test_exports_resolve_once(module):
    # a deleted name cannot stay behind in an export list
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


#: The staged spectral constructors that ``spectral.analyze`` replaced.
STAGED_SPECTRAL = ("diagonalize", "effective_couplings", "mode_rates")


def test_analyze_is_the_only_constructor():
    # no module brings back a stage that builds a partial decomposition,
    # and every field of one is required
    for name, module in _package_modules():
        assert not set(STAGED_SPECTRAL) & set(vars(module)), name
    defaults = [f.name for f in dataclasses.fields(spectral.ModeDecomposition)
                if f.default is not dataclasses.MISSING
                or f.default_factory is not dataclasses.MISSING]
    assert defaults == []


#: The validating factory and the second instability error that
#: ``NetworkSpec`` and ``NonPositiveDefinite`` replaced.
FOLDED_NETWORK = ("build_network", "_check_positive_definite", "NonPositiveEigenvalue")


def test_network_spec_is_the_only_constructor():
    # no module brings back a way to build a network around the
    # constructor's checks, or a second error class for an unstable one
    for name, module in _package_modules():
        assert not set(FOLDED_NETWORK) & set(vars(module)), name


#: Every dataclass the package defines, by name.
DATACLASSES = {
    obj.__name__: obj
    for name, module in _package_modules()
    for obj in vars(module).values()
    if isinstance(obj, type) and dataclasses.is_dataclass(obj) and obj.__module__ == name
}


@pytest.fixture(scope="module")
def dataclass_cases():
    """One instance of each dataclass, by class name, from the fig2_cb and
    fig3 pipelines."""
    cfg = load_config(str(PRESETS / "fig2_cb.ini"))
    prep = prepare(cfg)
    traj = oscnet.evolve(prep.state0, prep.decomp, prep.times[:200])
    fig3 = prepare(load_config(str(PRESETS / "fig3_sweep.ini")))
    param = ("omega", 6)
    made = [
        cfg, cfg.bath, prep, prep.net, prep.decomp, prep.state0, traj,
        spectral.frozen_mode_report(prep.decomp),
        oscnet.collective_sync(traj, prep.window),
        oscnet.pair_measure_series(traj, DISCORD, [(0, 1)], stride=10),
        oscnet.parameter_scan(fig3.net, param, [1.2, 1.25], fig3.cfg.bath),
        oscnet.find_sync_parameter(fig3.net, param, (0.8, 1.4), fig3.cfg.bath),
        oscnet.estimate_sync_times(fig3.decomp),
    ]
    return {type(x).__name__: x for x in made}


@pytest.mark.parametrize("name", sorted(DATACLASSES))
def test_dataclass_compares_and_hashes(name, dataclass_cases):
    # a generated __eq__ compares array fields with ==, whose truth value
    # raises, and a generated __hash__ hashes them, so the result types
    # compare and hash by identity (eq=False); a dataclass added without a
    # case here fails, so one with array fields cannot miss that
    assert name in dataclass_cases, f"no case for the dataclass {name}"
    x = dataclass_cases[name]
    assert type(x) is DATACLASSES[name]
    assert x == x
    assert isinstance(x == copy.deepcopy(x), bool)
    assert isinstance(hash(x), int)


def test_bath_config_compares_by_value():
    # four scalar fields: its generated __eq__ and __hash__ work
    made = [spectral.BathConfig(kind="local", gamma=0.01, temperature=10.0, node=2)
            for _ in range(2)]
    assert made[0] == made[1] and hash(made[0]) == hash(made[1])
    assert made[0] != spectral.BathConfig(kind="local", gamma=0.01, temperature=10.0, node=1)


GUARD_INI = """\
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
t_end = 10.0

[analysis]
window = 2.0

[sweep]
parameter = omega 0
list = 1.0 1.2

[tuning]
parameter = omega 0
bracket = 0.8 1.4
"""

#: Modules only ``tune``, the expm reference and a multi-worker sweep need.
LAZY_MODULES = ("scipy", "multiprocessing", "concurrent.futures.process")


def test_cli_paths_import_numpy_only(tmp_path):
    # set-up and the serial pipelines run on numpy and the standard
    # library; scipy and the process pool load only where they are used
    (tmp_path / "guard.ini").write_text(GUARD_INI)
    code = f"""
import sys
import oscnet.cli
from oscnet.scenarios import load_config, run_simulate, run_sweep

def loaded():
    return [m for m in {LAZY_MODULES!r} if m in sys.modules]

assert loaded() == [], ("import", loaded())
cfg = load_config("guard.ini")
assert loaded() == [], ("load_config", loaded())
run_simulate(cfg, out_dir="sim")
assert loaded() == [], ("simulate", loaded())
run_sweep(cfg, out_dir="sweep", workers=1)
assert loaded() == [], ("sweep", loaded())
"""
    out = _run_fresh(code, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "sim" / "measures.csv").exists()
    assert (tmp_path / "sweep" / "map.csv").exists()


#: Test oracles that moved to ``tests/oracles.py``: none may be defined in the package.
MOVED_ORACLES = ("asymptotic_state", "von_neumann_entropy", "energy", "pair_covariance")


def test_pipelines_call_no_oracle(tmp_path, monkeypatch):
    # the node-basis expm reference is the one oracle the package still
    # ships; every binding of it raises, and the four pipelines must still
    # run through
    from oscnet.scenarios import load_config, run_simulate, run_spectrum, run_sweep, run_tune

    def forbidden(*args, **kwargs):
        raise AssertionError("a pipeline called a test oracle")

    original = oscnet.evolve_node_reference
    patched = 0
    for name, module in list(sys.modules.items()):
        if name == "oscnet" or name.startswith("oscnet."):
            assert not set(MOVED_ORACLES) & set(vars(module)), name
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, forbidden)
                    patched += 1
    assert patched >= 2  # the package and dynamics
    with pytest.raises(AssertionError):
        oscnet.dynamics.evolve_node_reference(None, None, None, None)

    (tmp_path / "guard.ini").write_text(GUARD_INI)
    cfg = load_config(str(tmp_path / "guard.ini"))
    run_simulate(cfg, out_dir=str(tmp_path / "sim"))
    run_sweep(cfg, out_dir=str(tmp_path / "sweep"), workers=1)
    run_tune(cfg, out_dir=str(tmp_path / "tune"))
    run_spectrum(cfg, out_dir=str(tmp_path / "spectrum"))
    for out in ("sim", "sweep", "tune", "spectrum"):
        assert (tmp_path / out / "summary.txt").exists()
