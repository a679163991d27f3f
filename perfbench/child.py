"""One benchmark run inside a fresh interpreter; started by run.py.

``child.py --setup-only SPEC`` times ``import oscnet`` plus ``load_config``
and exits.  ``child.py SPEC`` does the whole run of one workload:

1. set-up: import the package and load the workload's config (timed);
2. self-check of the discord oracle (grid cross-check, fig5 pin);
3. one traced pipeline run: spans around every layer call, discord values
   sampled for the oracle, evolve outputs copied for the dynamics check;
4. untraced pipeline runs while the measuring time lasts, each
   compared byte for byte with the traced run's CSVs;
5. the dynamics and discord checks on what step 3 sampled.

SPEC is a JSON file written by run.py; the result goes to ``result_file``.
numpy, the package and the oracle are imported inside functions, so that
nothing but the standard library is loaded before set-up is timed.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import sys
import traceback
from time import perf_counter


def _load_spec(path):
    with open(path) as fh:
        return json.load(fh)


def setup_only(spec):
    t0 = perf_counter()
    from oscnet.scenarios import load_config

    load_config(spec["config"])
    return perf_counter() - t0


class Checks:
    """Operations attempted and failed; each entry is (name, ok, detail)."""

    def __init__(self):
        self.entries = []

    def add(self, name, ok, detail=""):
        self.entries.append((name, bool(ok), detail))
        if not ok:
            print(f"perfbench: check failed: {name}: {detail}", file=sys.stderr)


def csv_digests(out_dir):
    """sha256 of every CSV in an output directory, by file name."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class Sampler:
    """Hooks that count work and copy data out of the traced run."""

    #: Spacing of the times kept per evolve call for the dynamics check.  The
    #: reference takes one block-expm step per interval, and a step of 500
    #: time units loses digits in the expm itself (8e-5 on fig5); at 50 it
    #: agrees with the exact propagator to about 5e-11.
    DYNAMICS_SPACING = 50.0

    def __init__(self):
        self.nets = {}
        self.evolves = []
        self.discord_cov4 = []
        self.discord_values = []

    def analyze(self, span, args, kwargs, result):
        # The decomposition is kept alive with its network so that its id,
        # which evolve's hook looks up, cannot be reused.
        self.nets[id(result)] = (result, args[0])

    def evolve(self, span, args, kwargs, result):
        import numpy as np

        state, decomp = args[0], args[1]
        times = result.times
        n2 = 2 * decomp.n
        span.attrs["state_bytes"] = times.shape[0] * n2 * n2 * 8
        step = max(1, int(self.DYNAMICS_SPACING / (times[1] - times[0])))
        idx = np.arange(0, times.shape[0], step)
        net = self.nets.get(id(decomp), (None, None))[1]
        self.evolves.append((state, net, decomp, times[idx].copy(), result.covs[idx].copy()))

    @staticmethod
    def spectrum(span, args, kwargs, result):
        import numpy as np

        span.attrs["matrices"] = int(np.prod(np.shape(result)[:-1], dtype=int))

    def pair_series(self, span, args, kwargs, result):
        import numpy as np
        from oscnet.measures import DISCORD

        kept = [k for k, p in enumerate(result.pairs) if p not in set(result.excluded)]
        span.attrs["evals"] = result.times.shape[0] * len(kept)
        if _measure_of(args, kwargs) != DISCORD:
            return
        traj = args[0]
        stride = args[3] if len(args) > 3 else kwargs.get("stride", 1)
        measured = args[4] if len(args) > 4 else kwargs.get("discord_measured", "B")
        covs = traj.covs[::stride]
        n = traj.n
        for k in kept:
            i, j = result.pairs[k]
            a, b = (j, i) if measured == "A" else (i, j)
            idx = np.array([a, b, n + a, n + b])
            self.discord_cov4.append(covs[:, idx[:, None], idx[None, :]].copy())
            self.discord_values.append(result.values[:, k].copy())

    @staticmethod
    def csv(span, args, kwargs, result):
        span.attrs["bytes"] = os.path.getsize(args[0])


def _measure_of(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["measure"]


def instrument(tracer, sampler):
    """Wrap the attributes the pipeline looks up at call time."""
    from oscnet import csvio, measures, scenarios

    tracer.patch(scenarios, "prepare", "scenarios.prepare")
    tracer.patch(scenarios, "analyze", "spectral.analyze", hook=sampler.analyze)
    tracer.patch(scenarios, "evolve", "dynamics.evolve", hook=sampler.evolve)
    tracer.patch(scenarios, "estimate_sync_times", "tuning.estimate_sync_times")
    tracer.patch(measures, "symplectic_spectrum", "measures.symplectic_spectrum",
                 hook=sampler.spectrum)
    tracer.patch(measures, "collective_sync", "measures.collective_sync")
    tracer.patch(measures, "windowed_correlation", "measures.windowed_correlation")
    tracer.patch(measures, "pair_measure_series", "measures.pair_measure_series",
                 hook=sampler.pair_series,
                 span_name=lambda args, kwargs: "measures." + _measure_of(args, kwargs))
    for attr in sorted(dir(csvio)):
        if attr.startswith("write_"):
            tracer.patch(csvio, attr, f"csvio.{attr}", hook=sampler.csv)


def oracle_self_check(checks, pin_config):
    """Cross-check the closed form on fixed states and pin the fig5 value."""
    import numpy as np

    import oracle
    from oscnet import evolve, initial_state
    from oscnet.measures import DISCORD, pair_measure_series
    from oscnet.scenarios import load_config, prepare

    for name, cov in oracle.check_states():
        ok, detail = oracle.cross_check(cov)
        checks.add(f"oracle vs grid: {name}", ok, detail)

    cfg = load_config(pin_config)
    prep = prepare(cfg)
    ib = cfg.initial
    state = initial_state(prep.net, mean_q=ib.mean_q, mean_p=ib.mean_p,
                          squeeze_r=ib.squeeze_r, squeeze_angle=ib.squeeze_angle,
                          thermal_n=ib.thermal_n)
    traj = evolve(state, prep.decomp, np.array([0.0, 240.0]), method=cfg.time.method)
    n = traj.n
    idx = np.array([15, 16, n + 15, n + 16])
    cov4 = traj.covs[1][idx[:, None], idx[None, :]]
    ok, detail = oracle.cross_check(cov4)
    checks.add("oracle vs grid: fig5 (15, 16) t=240", ok, detail)
    value = float(oracle.discord(cov4))
    checks.add("oracle pin: fig5 (15, 16) t=240",
               abs(value - oracle.FIG5_PIN_VALUE) <= oracle.FIG5_PIN_TOL,
               f"closed form {value:.6f}, expected {oracle.FIG5_PIN_VALUE}")
    shipped = float(pair_measure_series(traj, DISCORD, [(15, 16)]).values[1, 0])
    return {"closed_form": value, "shipped": shipped}


def pipeline_run(checks, cli, argv, out_dir, expected, label):
    """One CLI pipeline call; returns its wall time, or None if it failed."""
    t0 = perf_counter()
    try:
        code = cli.main([*argv, "--out", out_dir])
    except Exception:  # a crash is a failed operation; the run goes on
        traceback.print_exc()
        checks.add(label, False, "raised")
        return None
    elapsed = perf_counter() - t0
    missing = [f for f in expected if not os.path.isfile(os.path.join(out_dir, f))]
    checks.add(label, code == 0 and not missing, f"exit {code}, missing {missing}")
    return elapsed if code == 0 else None


def dynamics_check(checks, sampler, tol):
    import numpy as np
    from oscnet import evolve_node_reference

    for k, (state, net, decomp, times, covs) in enumerate(sampler.evolves):
        if net is None:
            checks.add(f"dynamics vs expm reference [{k}]", False, "network not seen")
            continue
        ref = evolve_node_reference(state, net, decomp, times, method="expm")
        dev = float(np.abs(ref.covs - covs).max())
        checks.add(f"dynamics vs expm reference [{k}]", dev <= tol,
                   f"max |cov - ref| {dev:.2e} over {times.shape[0]} times, tol {tol:.0e}")


def discord_check(sampler):
    import numpy as np

    import oracle

    if not sampler.discord_cov4:
        return {"sampled": 0, "misses": 0, "max_err": 0.0}
    cov4 = np.concatenate(sampler.discord_cov4)
    shipped = np.concatenate(sampler.discord_values)
    err = np.abs(shipped - oracle.discord(cov4))
    err = np.where(np.isfinite(err), err, np.inf)
    return {
        "sampled": int(err.shape[0]),
        "misses": int(np.count_nonzero(err > oracle.MISS_TOL)),
        "max_err": float(err.max()),
    }


def determinism_vs_first(checks, store, reference):
    """Compare with the digests of the first run of this workload and package
    source, or record them if this is that first run."""
    if os.path.isfile(store):
        with open(store) as fh:
            first = json.load(fh)
        checks.add("determinism vs first invocation", first == reference,
                   "CSV bytes differ from the first run of this source")
        return
    os.makedirs(os.path.dirname(store), exist_ok=True)
    with open(store + ".tmp", "w") as fh:
        json.dump(reference, fh)
    os.replace(store + ".tmp", store)


def environment():
    import numpy
    import scipy

    pins = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in pins},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def main(spec):
    t0 = perf_counter()
    from oscnet import cli
    from oscnet.scenarios import load_config

    load_config(spec["config"])
    setup_s = perf_counter() - t0

    from spans import Tracer, layer_metrics

    checks = Checks()
    work, argv, expected = spec["work"], spec["argv"], spec["expected_csvs"]
    pin = oracle_self_check(checks, spec["pin_config"])

    tracer = Tracer()
    sampler = Sampler()
    instrument(tracer, sampler)
    ref_dir = os.path.join(work, "run0")
    try:
        traced_s = tracer.call("run", pipeline_run, checks, cli, argv, ref_dir, expected,
                               "pipeline run 0 (traced)")
    finally:
        tracer.restore()
    tracer.dump(spec["spans_file"])
    reference = csv_digests(ref_dir) if traced_s is not None else None

    # Calls go on while the next one, taking as long as the median so far,
    # would end within the measuring time.
    run_times = []
    start = perf_counter()
    k = 0
    while k < spec["min_calls"] or (
        perf_counter() - start + statistics.median(run_times) <= spec["seconds"]
    ):
        k += 1
        out = os.path.join(work, f"run{k}")
        elapsed = pipeline_run(checks, cli, argv, out, expected, f"pipeline run {k}")
        if elapsed is None:
            break
        run_times.append(elapsed)
        if reference is not None:
            checks.add(f"determinism run {k} vs run 0", csv_digests(out) == reference,
                       "CSV bytes differ")
        shutil.rmtree(out)

    if reference is not None:
        determinism_vs_first(checks, spec["digest_file"], reference)
    dynamics_check(checks, sampler, spec["dynamics_tol"])
    disc = discord_check(sampler)
    checks.add("discord values sampled", disc["sampled"] > 0, "no discord value reached the oracle")

    result = {
        "setup_s": setup_s,
        "run_times": run_times,
        "traced_run_s": traced_s,
        "layers": layer_metrics(tracer.spans) if traced_s is not None else {},
        "discord": {**disc, "pin": pin},
        "checks": checks.entries,
        "env": environment(),
    }
    with open(spec["result_file"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if sys.argv[1] == "--setup-only":
        print(json.dumps({"setup_s": setup_only(_load_spec(sys.argv[2]))}))
    else:
        main(_load_spec(sys.argv[1]))
