"""The preset generator reproduces the shipped presets."""

import importlib.util
import pathlib
import re
from importlib import resources

import numpy as np

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "make_presets.py"
PRESETS = resources.files("oscnet") / "presets"
NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)")
# the fig3 tuning comes from the scipy pencil eigensolver and moves by a
# few ulp (see test_fig3_tune_writes_shipped_frequency); all else is exact
FIG3_TUNED = ("fig3_network.txt", "fig3_sweep.ini")


def _load_script():
    spec = importlib.util.spec_from_file_location("make_presets", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_same_up_to_ulps(got: str, shipped: str, ulps: int = 8) -> None:
    got_parts, shipped_parts = NUMBER.split(got), NUMBER.split(shipped)
    assert got_parts[0::2] == shipped_parts[0::2]
    for a, b in zip(got_parts[1::2], shipped_parts[1::2]):
        assert abs(float(a) - float(b)) <= ulps * np.spacing(abs(float(b))), (a, b)


def test_generator_rewrites_only_computed_content(tmp_path, monkeypatch):
    shipped = sorted(p.name for p in PRESETS.iterdir() if p.name.endswith((".ini", ".txt")))
    for name in shipped:
        (tmp_path / name).write_bytes((PRESETS / name).read_bytes())
    script = _load_script()
    monkeypatch.setattr(script, "PRESET_DIR", str(tmp_path))
    script.main()
    assert sorted(p.name for p in tmp_path.iterdir()) == shipped
    for name in shipped:
        got, want = (tmp_path / name).read_bytes(), (PRESETS / name).read_bytes()
        if name in FIG3_TUNED:
            _assert_same_up_to_ulps(got.decode(), want.decode())
        else:
            assert got == want, name
