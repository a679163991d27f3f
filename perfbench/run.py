"""oscnet benchmark: one workload per call, measured in fresh child processes.

Run from the root of a source checkout (the package is imported from
``src/``, nothing needs installing):

    python3 perfbench/run.py --workload fig5_entangle --seed 1 --seconds 50 --trace 0

Every run, whatever ``--trace`` says:

- times set-up (``import oscnet`` + ``load_config``) in several fresh
  processes and in the main child;
- in the main child, checks the discord oracle, makes one traced pipeline
  run, then untraced runs for ``--seconds``, then checks the outputs:
  dynamics against the node-basis expm reference, every run's CSVs against
  the first run's, and each discord value the pipeline computed against
  the closed-form oracle;
- reads the main child's peak resident set from ``os.wait4``.

It prints every metric by name with its unit, then, as the last line, one
JSON object: ``correct``, ``attempted`` and ``failed`` count the pipeline
runs and checks, and ``metrics`` holds the end-to-end metrics
(``--trace 0``) or the per-layer metrics of the traced run (``--trace 1``).

BLAS threads are pinned to 1 in every child, so that BLAS threads do not
contend with each other between runs; the pin is printed with the
environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: Fresh processes that time set-up, besides the main child.
SETUP_PROBES = 8
#: Untraced pipeline calls made even when they outlast --seconds.
MIN_CALLS = 3
WORKLOADS = ("fig3_sweep", "fig5_entangle")
#: Whole run, set-up probes included, must end before this many seconds.
DEADLINE_S = 170.0
#: Acceptance-04 tolerance on |cov - reference|.
DYNAMICS_TOL = 1e-8
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SIMULATE_CSVS = ["trajectory.csv", "measures.csv", "aggregate.csv"]

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "discord_match_ratio": "ratio",
}

PER_LAYER = (
    "dynamics.evolve.self_s",
    "dynamics.evolve.state_mb",
    "dynamics.gate.s",
    "measures.discord.s",
    "measures.discord.evals",
    "measures.discord.evals_per_s",
    "measures.mutual_information.s",
    "measures.mutual_information.evals",
    "measures.mutual_information.evals_per_s",
    "measures.log_negativity.s",
    "measures.log_negativity.evals",
    "measures.log_negativity.evals_per_s",
    "measures.pair_time_evals",
    "measures.spectra_per_eval",
    "measures.collective_sync.s",
    "measures.windowed_correlation.s",
    "csvio.s",
    "csvio.write_text.s",
    "csvio.bytes",
    "csvio.mb_per_s",
    "scenarios.prepare.s",
    "spectral.analyze.s",
    "spectral.analyze.calls",
    "tuning.estimate_sync_times.s",
    "scenarios.self_s",
    "bench.sample.s",
    "trace.run_s",
    "trace.overhead_s",
)


#: fig3 pairs measured: the 15 pairs among nodes 4-9, which hold the swept
#: node 6.  All 45 pairs make a call of 7-12 s on a shared 2-vCPU host, and
#: a 50 s run of four to six such calls had a median call time that
#: followed the host's speed (quartile spread 0.26 of the median over 10
#: seeds); a third of the pairs gives three times the calls per run.
FIG3_PAIRS = "; ".join(f"{i} {j}" for i in range(4, 10) for j in range(i + 1, 10))


def fig3_config(root):
    """fig3_sweep preset cut to the centre sweep value, 1.2306..., where a
    mode freezes (the preset's other eight points cost the same each), and
    to the pairs in FIG3_PAIRS."""
    presets = os.path.join(root, "src", "oscnet", "presets")
    with open(os.path.join(presets, "fig3_sweep.ini")) as fh:
        text = fh.read()
    values = re.search(r"^list = (.*)$", text, flags=re.M).group(1).split()
    centre = values[len(values) // 2]
    if not centre.startswith("1.2306"):
        raise SystemExit(f"perfbench: fig3_sweep centre value is {centre}, expected 1.2306...")
    text = re.sub(r"^list = .*$", f"list = {centre}", text, flags=re.M)
    if re.search(r"^pairs\b", text, flags=re.M):
        raise SystemExit("perfbench: fig3_sweep preset names its own pairs")
    text = re.sub(r"^\[analysis\]$", f"[analysis]\npairs = {FIG3_PAIRS}", text, flags=re.M)
    network = os.path.join(presets, "fig3_network.txt")
    return re.sub(r"^path = .*$", f"path = {network}", text, flags=re.M)


def workload(name, root, work):
    """(argv for oscnet.cli.main without --out, config path, expected CSVs)."""
    if name == "fig5_entangle":
        config = os.path.join(root, "src", "oscnet", "presets", "fig5_entangle.ini")
        return ["simulate", "--config", config], config, SIMULATE_CSVS
    config = os.path.join(work, f"{name}.ini")
    with open(config, "w") as fh:
        fh.write(fig3_config(root))
    return ["sweep", "--config", config, "--workers", "1"], config, ["map.csv"]


def source_digest(root, config):
    """Hash of the package source, presets and workload config, to key
    stored CSV digests."""
    h = hashlib.sha256()
    with open(config, "rb") as fh:
        h.update(fh.read())
    base = os.path.join(root, "src", "oscnet")
    for dirpath, dirnames, filenames in sorted(os.walk(base)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, base).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def child_env(root):
    env = dict(os.environ, **BLAS_PIN)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def wait_with_rusage(proc, deadline):
    """Reap proc with os.wait4, killing it at the deadline; (exit code, rusage)."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = -9
            return None, usage
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def measure(args, root, work, deadline):
    argv, config, expected = workload(args.workload, root, work)
    store = os.path.join(root, ".perfbench_out")
    spec = {
        "argv": argv,
        "config": config,
        "expected_csvs": expected,
        "pin_config": os.path.join(root, "src", "oscnet", "presets", "fig5_entangle.ini"),
        "seconds": args.seconds,
        "min_calls": MIN_CALLS,
        "dynamics_tol": DYNAMICS_TOL,
        "work": work,
        "result_file": os.path.join(work, "result.json"),
        "spans_file": os.path.join(store, "spans", f"{args.workload}-seed{args.seed}.json"),
        "digest_file": os.path.join(
            store, "digests", f"{source_digest(root, config)}-{args.workload}.json"
        ),
    }
    spec_file = os.path.join(work, "spec.json")
    with open(spec_file, "w") as fh:
        json.dump(spec, fh)
    env = child_env(root)

    setup = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), "--setup-only", spec_file],
            env=env, cwd=root, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if probe.returncode != 0:
            sys.stderr.write(probe.stderr)
            raise SystemExit("perfbench: set-up probe failed")
        setup.append(json.loads(probe.stdout.splitlines()[-1])["setup_s"])

    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), spec_file],
        env=env, cwd=root, stdout=subprocess.DEVNULL,
    )
    try:
        code, usage = wait_with_rusage(proc, deadline)
    finally:
        if proc.returncode is None:
            proc.kill()
            os.wait4(proc.pid, 0)
    if code != 0 or not os.path.isfile(spec["result_file"]):
        raise SystemExit(f"perfbench: workload child ended with {code}")
    with open(spec["result_file"]) as fh:
        result = json.load(fh)
    result["setup_samples"] = setup + [result["setup_s"]]
    result["peak_rss_mb"] = usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB on Linux
    return result


def report(args, result):
    if not result["run_times"] or not result["layers"]:
        raise SystemExit("perfbench: no pipeline call succeeded; see the checks above")
    checks = result["checks"]
    failed = [c for c in checks if not c[1]]
    disc = result["discord"]
    runs = result["run_times"]
    sampled = max(disc["sampled"], 1)
    end_to_end = {
        # The mean, not the median, counts every second the run measured: in
        # 10-seed sets on a shared 2-vCPU host, the quartile spread of the
        # runs' mean call time was 0.06-0.17 of its median, that of their
        # median call time 0.10-0.23.
        "run_s": statistics.fmean(runs),
        "setup_s": statistics.median(result["setup_samples"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "discord_match_ratio": 1.0 - disc["misses"] / sampled,
    }
    layers = {k: tuple(v) for k, v in result["layers"].items()}
    layers["trace.overhead_s"] = (
        result["traced_run_s"] - end_to_end["run_s"], "s", "measured"
    )

    env = result["env"]
    print(f"perfbench: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s measuring, trace {args.trace}")
    print(f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']} ({env['cpus_usable']} usable), "
          f"BLAS threads pinned {env['blas_threads']}, "
          f"numba importable: {'yes' if env['numba_importable'] else 'no'}")
    print("end-to-end:")
    print(f"  run_s = {end_to_end['run_s']:.6g} s  (mean of {len(runs)} untraced calls; "
          f"median {statistics.median(runs):.4g}, max {max(runs):.4g}; calls: "
          f"{', '.join(f'{t:.4g}' for t in runs)})")
    print(f"  setup_s = {end_to_end['setup_s']:.6g} s  "
          f"(median of {len(result['setup_samples'])} fresh processes)")
    print(f"  peak_rss_mb = {end_to_end['peak_rss_mb']:.6g} MB  (main child, os.wait4)")
    print(f"  discord_match_ratio = {end_to_end['discord_match_ratio']:.6g} ratio  "
          f"({disc['sampled'] - disc['misses']} of {disc['sampled']} sampled values within "
          f"1e-4 of the closed form; max error {disc['max_err']:.3g})")
    print(f"  discord_miss_ratio = {disc['misses'] / sampled:.6g} ratio  "
          f"[fig5 (15, 16) t=240: shipped {disc['pin']['shipped']:.4f}, "
          f"closed form {disc['pin']['closed_form']:.4f}]")
    print(f"  fail_ratio = {len(failed) / len(checks):.6g} ratio  "
          f"({len(failed)} of {len(checks)} operations failed)")
    print("per-layer (traced run 0; [computed] values are counts from call arguments):")
    for name, (value, unit, kind) in layers.items():
        print(f"  {name} = {value:.6g} {unit}  [{kind}]")
    print(f"  accounting: the self times of all spans, scenarios.self_s included, sum to "
          f"{layers['trace.accounted_s'][0]:.6g} s of the traced run's "
          f"{layers['trace.run_s'][0]:.6g} s")
    for name, ok, detail in checks:
        if not ok or "oracle" in name or "dynamics" in name:
            print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")

    if args.trace:
        metrics = {k: {"value": layers[k][0], "unit": layers[k][1]} for k in PER_LAYER}
    else:
        metrics = {k: {"value": end_to_end[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": metrics,
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    # Both workloads run fixed presets, so the seed only names the run's files.
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "oscnet", "__init__.py")):
        print("perfbench: run from a checkout root; src/oscnet is missing", file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench_out", f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        result = measure(args, root, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
