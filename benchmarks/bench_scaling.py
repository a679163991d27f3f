"""Scaling harness: `evolve` and `simulate` time and peak memory against n.

Runs random common-bath networks of n = 10, 20, 40 and 80 nodes over
T = 5001 stored times. Each size runs in a fresh child process, with BLAS
pinned to one thread, which records:

- ``evolve_s``: the in-process ``oscnet.evolve`` time, best of 3;
- ``simulate_s``: one ``run_simulate`` call (2 pairs, analysis on, CSVs
  written to a temporary directory);
- ``peak_rss_mb``: the child's peak resident set.

Run it from the root of a source checkout; the package is imported from
``src/`` next to this file, and nothing needs installing::

    python3 benchmarks/bench_scaling.py --label after

The results go into ``BENCH_scaling.json`` at the repository root (or
``--out``), one entry per label; an existing file keeps its other labels.
To record a second source tree, copy this file into that checkout and run
it there with ``--out`` pointing at the same JSON file.

Peak memory grows as T n: ``evolve`` works through time chunks and keeps
only the means, the node blocks and the energy, and the pair measures read
only their pairs' quadrature rows of every ``stride``-th time.  n = 80
peaks at about 125 MB; while ``evolve`` held the whole (T, 2n, 2n)
covariance stack it peaked at 3.0 GB.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZES = (10, 20, 40, 80)
STORED_TIMES = 5001
STEP = 0.5
EVOLVE_REPEATS = 3
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Sparse, weak random couplings keep every size stable (the Hamiltonian
# matrix stays positive definite) with one fixed seed.
CONFIG = """\
[network]
source = random
nodes = {n}
connect_prob = 0.3
freq_low = 0.9
freq_high = 1.2
coupling_mean = 0.0
coupling_sd = 0.05
seed = 7

[bath]
kind = common
gamma = 0.01
temperature = 10.0
cutoff = 50.0

[initial]
mean_q = 0.5
squeeze_r = 0.5

[time]
t_end = {t_end}
step = {step}

[analysis]
window = 40.0
pairs = 0 1; 2 3
"""


def child(n: int) -> dict:
    """Measure one size in this process; return the record for it."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from oscnet import evolve, initial_state
    from oscnet.scenarios import load_config, prepare, run_simulate

    with tempfile.TemporaryDirectory() as tmp:
        ini = os.path.join(tmp, "scaling.ini")
        with open(ini, "w") as fh:
            fh.write(CONFIG.format(n=n, t_end=(STORED_TIMES - 1) * STEP, step=STEP))
        cfg = load_config(ini)
        prep = prepare(cfg)
        if prep.times.shape[0] != STORED_TIMES:
            raise RuntimeError(f"grid has {prep.times.shape[0]} times, not {STORED_TIMES}")
        state = initial_state(prep.net, mean_q=0.5, squeeze_r=0.5)
        best = float("inf")
        for _ in range(EVOLVE_REPEATS):
            t0 = perf_counter()
            traj = evolve(state, prep.decomp, prep.times)
            best = min(best, perf_counter() - t0)
            del traj
        t0 = perf_counter()
        run_simulate(cfg, out_dir=os.path.join(tmp, "out"))
        simulate_s = perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "n": n,
        "stored_times": STORED_TIMES,
        "evolve_s": round(best, 4),
        "simulate_s": round(simulate_s, 4),
        "peak_rss_mb": round(peak_kb / 1024.0, 1),
    }


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "blas_threads": 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True,
                        help="name of this run's entry in the JSON file")
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_scaling.json"),
                        help="JSON file to update (default: BENCH_scaling.json at the root)")
    parser.add_argument("--child", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child is not None:
        print(json.dumps(child(args.child)))
        return 0

    env = {**os.environ, **BLAS_PIN}
    rows = []
    for n in SIZES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--label", args.label,
             "--child", str(n)],
            env=env, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"n={n}: child failed with exit {proc.returncode}", file=sys.stderr)
            return 1
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps(row), flush=True)
        rows.append(row)

    data = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            data = json.load(fh)
    data["harness"] = "benchmarks/bench_scaling.py"
    data["case"] = ("random common-bath network (seed 7, connect_prob 0.3), "
                    f"T = {STORED_TIMES} stored times, step {STEP}, 2 pairs")
    data.setdefault("runs", {})[args.label] = {"environment": environment(), "sizes": rows}
    with open(args.out, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
