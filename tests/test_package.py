"""Guards on the shape of the package itself."""

import os
import pathlib
import subprocess
import sys

import oscnet

PACKAGE_DIR = pathlib.Path(oscnet.__file__).parent


def test_single_code_path():
    # importing oscnet pulls in no optional accelerator, and no module reads
    # the environment, so every run goes through the same numpy code
    code = "import sys, oscnet; assert 'numba' not in sys.modules, 'numba imported'"
    path = os.pathsep.join([str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0, out.stderr
    readers = [p.name for p in sorted(PACKAGE_DIR.glob("*.py"))
               if "os.environ" in p.read_text() or "getenv" in p.read_text()]
    assert readers == []
