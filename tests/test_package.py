"""Guards on the shape of the package itself."""

import os
import pathlib
import subprocess
import sys

import pytest

import oscnet
from oscnet import network, spectral

PACKAGE_DIR = pathlib.Path(oscnet.__file__).parent


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
cutoff = 50.0

[initial]
mean_q = -1.0 0.0 1.0

[time]
t_end = 10.0

[analysis]
window = 2.0

[sweep]
parameter = omega 0
list = 1.0 1.2

[output]
directory = out
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
