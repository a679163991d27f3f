"""Command-line entry point.

Usage:
    oscnet simulate --config fig2_cb --out results/fig2_cb
    oscnet sweep    --config fig3_sweep --out results/fig3 --workers 4
    oscnet tune     --config my_scan.ini --out results/tune
    oscnet spectrum --config fig2_sb --out results/spectrum

--config takes either a path to an INI file or the name of a packaged
preset; --out is the output directory.  Exit codes: 0 success, 2
configuration problem (an output directory that cannot be written
included), 3 numeric or physics failure during the run.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources

from .errors import ConfigError, OscnetError
from .scenarios import load_config, run_simulate, run_spectrum, run_sweep, run_tune

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def preset_names() -> list[str]:
    files = resources.files("oscnet") / "presets"
    try:
        return sorted(
            entry.name[: -len(".ini")]
            for entry in files.iterdir()
            if entry.name.endswith(".ini")
        )
    except (FileNotFoundError, NotADirectoryError):
        return []


def _resolve_config(spec: str) -> str:
    import os

    if os.path.exists(spec):
        return spec
    name = spec if spec.endswith(".ini") else spec + ".ini"
    candidate = resources.files("oscnet") / "presets" / name
    try:
        if candidate.is_file():
            return str(candidate)
    except OSError:
        pass
    raise ConfigError(
        f"config {spec!r} is neither a file nor a preset; "
        f"presets: {', '.join(preset_names())}"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscnet",
        description="Damped oscillator networks: simulate, sweep, tune, spectrum.",
        epilog="Packaged presets: " + ", ".join(preset_names()),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "run one scenario and write trajectory + measures"),
        ("sweep", "repeat a scenario over a parameter grid"),
        ("tune", "scan and tune a frequency to freeze the slow mode"),
        ("spectrum", "write the mode table and transform matrix"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True,
                         help="scenario INI file or preset name")
        cmd.add_argument("--out", required=True, help="output directory")
        if name == "sweep":
            cmd.add_argument("--workers", type=int, default=1,
                             help="worker processes (default 1)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(_resolve_config(args.config))
        if args.command == "simulate":
            out = run_simulate(cfg, args.out)
        elif args.command == "sweep":
            if args.workers < 1:
                raise ConfigError("--workers must be at least 1")
            out = run_sweep(cfg, args.out, workers=args.workers)
        elif args.command == "tune":
            out = run_tune(cfg, args.out)
        else:
            out = run_spectrum(cfg, args.out)
    except ConfigError as exc:
        print(f"oscnet: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # set-up reports a failed read as ConfigError, so this is a write
        print(f"oscnet: cannot write to --out {args.out!r}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OscnetError as exc:
        print(f"oscnet: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
