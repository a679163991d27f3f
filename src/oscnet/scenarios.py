"""Scenario configs (INI) and the pipelines behind the CLI subcommands.

A scenario file holds blocks [network], [bath], [initial], [time] and,
when relevant, [analysis] (without it, simulate writes only the
trajectory), [tuning] and [sweep].  Parsing is strict: unknown sections
or keys, malformed values, and anything that would violate a module
precondition are rejected with ConfigError before any real computation
starts.  The output directory is not part of a scenario: every pipeline
takes it as an argument.

Pipelines:

- run_simulate: trajectory + windowed measures + aggregate series
- run_sweep:    repeat a simulation over a parameter grid (optionally
  across worker processes) into one map CSV of S(t) and the
  pair-averaged discord only
- run_tune:     kappa scan over a bracket plus the tuned frequency
- run_spectrum: mode table and transform matrix, no time evolution

Every pipeline writes deterministic artifacts: rerunning the same config
reproduces files byte for byte.
"""

from __future__ import annotations

import configparser
import os
import sys
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from . import csvio, measures
from .dynamics import GaussianState, evolve, initial_state
from .errors import (
    ConfigError,
    NoDominantMode,
    NonPositiveDefinite,
    OscnetError,
    UnphysicalSpec,
)
from .network import (
    NetworkSpec,
    _coupling_from_edges,
    _float,
    _floats,
    _parse_edges,
    _read_ini,
    build_network,
    load_network,
    random_network,
    save_network,
)
from .spectral import (
    LOCAL,
    SEPARATE,
    BathConfig,
    _slowest_order,
    analyze,
)
from .tuning import (
    _with_param,
    estimate_sync_times,
    find_sync_parameter,
    parameter_scan,
)

#: Default [time] step, the spacing of the time grid, as a fraction of the
#: fastest mode period.
_STEP_FRACTION = 0.02
#: Largest second moment <x^2> = var + mean^2 a scenario accepts, initial
#: or stationary.  The discord kernel sets it: the branch test of
#: measures._conditional_det_infimum, (D - AB)^2 <= (1 + B) C^2 (A + D),
#: multiplies pair invariants to tenth order in the second moments, with
#: prefactors up to 4 * 16 * 16 = 1024, so moments near
#: (1.8e308 / 1024)^(1/10) = 3.3e30 overflow it (S(t), which squares <q^2>,
#: would only overflow near 1e154).  Five decades below that leave margin
#: for the growth a mode rotation gives a node's moments.
_MAX_SECOND_MOMENT = 1e-5 * (np.finfo(float).max / 1024.0) ** 0.1
#: Largest |squeeze_r| a scenario accepts.  A squeezed node's 2x2 block has
#: variances e^(-2r)/2 and e^(2r)/2, so its condition number is e^(4r);
#: double precision holds the block only while that stays below
#: 1/eps = 2^52, that is r <= ln(2^52)/4 = 9.01.
_MAX_SQUEEZE = np.log(2.0**52) / 4.0


@dataclass
class ScenarioConfig:
    """[bath] as a BathConfig; every other section as a namespace whose
    attributes are its _SCHEMA keys."""

    network: SimpleNamespace
    bath: BathConfig
    initial: SimpleNamespace
    time: SimpleNamespace
    analysis: SimpleNamespace | None  # None without [analysis]: trajectory only
    tuning: SimpleNamespace | None = None
    sweep: SimpleNamespace | None = None
    base_dir: str = "."


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _grid(lo, hi, count, what: str) -> np.ndarray:
    """np.linspace(lo, hi, count), with a count numpy refuses as ConfigError.

    Above the intp maximum numpy refuses before it allocates, with ValueError
    (IndexError near 2^63); int() refuses inf, and malloc what it cannot hold.
    """
    try:
        return np.linspace(lo, hi, int(count))
    except (OverflowError, ValueError, IndexError, MemoryError) as exc:
        raise ConfigError(f"{what} asks for {count:.3g} grid points") from exc


def _parse_param(text: str) -> tuple:
    toks = text.split()
    if len(toks) == 2 and toks[0] == "omega":
        return ("omega", int(toks[1]))
    if len(toks) == 3 and toks[0] == "coupling":
        return ("coupling", int(toks[1]), int(toks[2]))
    raise ValueError(
        f"parameter must be 'omega <node>' or 'coupling <i> <j>', got {text!r}"
    )


def _parse_pairs(text: str) -> tuple[tuple[int, int], ...] | None:
    if text.strip().lower() == "all":
        return None
    pairs = []
    for chunk in text.split(";"):
        toks = chunk.split()
        if len(toks) != 2:
            raise ValueError(f"pair list entry {chunk!r} is not 'i j'")
        i, j = int(toks[0]), int(toks[1])
        if i == j:
            raise ValueError(f"pair ({i}, {j}) repeats a node")
        pair = (min(i, j), max(i, j))
        if pair in pairs:
            raise ValueError(f"pair {pair} is listed twice")
        pairs.append(pair)
    return tuple(pairs)


def _parse_subset(text: str) -> tuple[int, ...] | None:
    if text.lower() == "all":
        return None
    return tuple(int(t) for t in text.split())


def _parse_window(text: str) -> float | None:
    return None if text == "auto" else _float(text)  # None: 10 slow periods


#: Marks a key that its section must set.
_REQUIRED = object()
#: Every config key: section -> key -> (converter, default).  A default is
#: the key's INI text, converted like a written value, so each load gets
#: fresh arrays; None leaves an optional key unset.
_SCHEMA = {
    "network": {
        "source": (str, _REQUIRED), "omega": (_floats, None), "edges": (_parse_edges, None),
        "path": (str, None), "nodes": (int, None), "connect_prob": (_float, None),
        "freq_low": (_float, None), "freq_high": (_float, None),
        "coupling_mean": (_float, None), "coupling_sd": (_float, None),
        "seed": (int, None),
    },
    "bath": {
        "kind": (str, _REQUIRED), "gamma": (_float, _REQUIRED),
        "temperature": (_float, _REQUIRED), "node": (int, None),
    },
    "initial": dict.fromkeys(
        ("mean_q", "mean_p", "squeeze_r", "squeeze_angle", "thermal_n"), (_floats, "0")
    ),
    "time": {"t_end": (_float, _REQUIRED), "step": (_float, None), "method": (str, "exact")},
    "analysis": {
        "window": (_parse_window, "auto"), "pairs": (_parse_pairs, "all"),
        "sync_subset": (_parse_subset, "all"), "stride": (int, "10"),
    },
    "tuning": {  # grid: the resolution of scan.csv; the tuning itself is closed-form
        "parameter": (_parse_param, _REQUIRED), "bracket": (_floats, _REQUIRED),
        "grid": (int, "33"),
    },
    "sweep": {"parameter": (_parse_param, _REQUIRED), "list": (_floats, _REQUIRED)},
}
#: The [network] keys each source requires; it reads no other key.
_SOURCE_KEYS = {
    "inline": ("omega", "edges"),
    "file": ("path",),
    "random": ("nodes", "connect_prob", "freq_low", "freq_high",
               "coupling_mean", "coupling_sd", "seed"),
}


def _section(parser, name: str) -> SimpleNamespace:
    """Every key of one _SCHEMA section, converted; absent keys take defaults."""
    values = {}
    for key, (conv, default) in _SCHEMA[name].items():
        if parser.has_option(name, key):
            raw = parser.get(name, key).strip()
        elif default is _REQUIRED:
            raise ConfigError(f"[{name}] is missing required key {key!r}")
        elif default is None:
            values[key] = None
            continue
        else:
            raw = default
        try:
            values[key] = conv(raw)
        except ValueError as exc:
            raise ConfigError(f"[{name}] {key} = {raw!r} is invalid: {exc}") from exc
    return SimpleNamespace(**values)


def load_config(path: str) -> ScenarioConfig:
    """Parse and structurally validate a scenario INI file."""
    try:
        parser = _read_ini(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
    for required in ("network", "bath", "time"):
        if not parser.has_section(required):
            raise ConfigError(f"config is missing the [{required}] section")

    network = _section(parser, "network")
    if network.source not in _SOURCE_KEYS:
        raise ConfigError(f"network source must be one of {tuple(_SOURCE_KEYS)}")
    for key in _SOURCE_KEYS[network.source]:
        if getattr(network, key) is None:
            raise ConfigError(f"[network] is missing required key {key!r}")
    for key in parser.options("network"):
        if key != "source" and key not in _SOURCE_KEYS[network.source]:
            raise ConfigError(f"[network] {key} is not read by source = {network.source}")

    bath = _section(parser, "bath")
    try:  # BathConfig checks the kind, and that only a local bath names a node
        bath = BathConfig(**vars(bath))
    except (ValueError, OscnetError) as exc:
        raise ConfigError(f"[bath] {exc}") from exc

    time = _section(parser, "time")
    if time.method != "exact":
        raise ConfigError(
            f"time method {time.method!r} is not available; the only method is 'exact' "
            "(the closed-form propagator)"
        )
    if time.t_end <= 0.0:
        raise ConfigError("t_end must be positive")
    if time.step is not None and time.step <= 0.0:
        raise ConfigError("step must be positive")

    analysis = None
    if parser.has_section("analysis"):
        analysis = _section(parser, "analysis")
        if analysis.window is not None and analysis.window <= 0.0:
            raise ConfigError("analysis window must be positive")
        if analysis.stride < 1:
            raise ConfigError("analysis stride must be >= 1")

    tuning = None
    if parser.has_section("tuning"):
        tuning = _section(parser, "tuning")
        if tuning.bracket.shape != (2,) or not tuning.bracket[0] < tuning.bracket[1]:
            raise ConfigError("tuning bracket must be two increasing numbers")
        if tuning.parameter[0] != "omega":
            raise ConfigError(
                "tuning parameter must be 'omega <node>': a coupling is a rank-two, "
                "indefinite update with no closed-form frozen points"
            )
        if tuning.grid < 3:
            raise ConfigError("tuning grid must have at least 3 points")

    sweep = None
    if parser.has_section("sweep"):
        sweep = _section(parser, "sweep")
        if sweep.list.size == 0:
            raise ConfigError("[sweep] list is empty")

    return ScenarioConfig(
        network=network,
        bath=bath,
        initial=_section(parser, "initial"),
        time=time,
        analysis=analysis,
        tuning=tuning,
        sweep=sweep,
        base_dir=os.path.dirname(os.path.abspath(path)),
    )


# ---------------------------------------------------------------------------
# Preparation
# ---------------------------------------------------------------------------

@dataclass
class PreparedScenario:
    cfg: ScenarioConfig
    net: NetworkSpec
    decomp: object
    state0: GaussianState
    times: np.ndarray
    window: float | None


def _build_network(cfg: ScenarioConfig) -> NetworkSpec:
    nb = cfg.network
    try:
        if nb.source == "inline":
            return build_network(nb.omega, _coupling_from_edges(nb.omega.shape[0], nb.edges))
        if nb.source == "file":
            path = nb.path
            if not os.path.isabs(path):
                path = os.path.join(cfg.base_dir, path)
            return load_network(path)
        return random_network(
            nb.nodes, nb.connect_prob, nb.freq_low, nb.freq_high,
            nb.coupling_mean, nb.coupling_sd, nb.seed,
        )
    except ConfigError:
        raise
    except OSError as exc:
        raise ConfigError(f"cannot read network file: {exc}") from exc
    except (ValueError, OscnetError, MemoryError) as exc:  # a matrix numpy cannot hold
        raise ConfigError(f"network construction failed: {exc}") from exc


def prepare(cfg: ScenarioConfig) -> PreparedScenario:
    """Materialize the network and check every precondition up front."""
    net = _build_network(cfg)
    n = net.n
    if n < 2:
        raise ConfigError(f"a scenario needs at least two nodes; the network has {n}")
    if cfg.bath.kind == LOCAL and not 0 <= cfg.bath.node < n:
        raise ConfigError(f"[bath] node {cfg.bath.node} out of range for {n} nodes")
    try:
        decomp = analyze(net, cfg.bath)
    except OscnetError as exc:
        raise ConfigError(f"spectral analysis rejected the scenario: {exc}") from exc

    for key, values in vars(cfg.initial).items():
        if values.shape[0] not in (1, n):  # one entry is broadcast by initial_state
            raise ConfigError(
                f"[initial] {key} has {values.shape[0]} entries; need 1 or {n}"
            )
    squeeze_r = cfg.initial.squeeze_r
    if not np.all(np.abs(squeeze_r) <= _MAX_SQUEEZE):
        raise ConfigError(
            f"[initial] squeeze_r reaches {np.abs(squeeze_r).max():.3g}; a node block's "
            f"condition number e^(4r) needs r <= {_MAX_SQUEEZE:.4g} in double precision"
        )
    try:
        state0 = initial_state(net, **vars(cfg.initial))
    except UnphysicalSpec as exc:
        raise ConfigError(f"[initial] {exc}") from exc
    with np.errstate(over="ignore"):
        second = np.diagonal(state0.cov) + state0.mean**2
    if not np.all(second <= _MAX_SECOND_MOMENT):
        raise ConfigError(
            f"[initial] a second moment reaches {second.max():.3g}; "
            f"the discord kernel needs at most {_MAX_SECOND_MOMENT:.1e}"
        )
    # a damped mode relaxes to D/(2 G W^2) = coth(W/2T)/(2W) in q and
    # D/(2 G) = W coth(W/2T)/2 in p, whatever its rate
    freqs = decomp.freqs[decomp.damping > 0.0]
    with np.errstate(over="ignore", divide="ignore"):
        coth = 1.0 / np.tanh(freqs / (2.0 * cfg.bath.temperature))
        stationary = np.concatenate([coth / (2.0 * freqs), freqs * coth / 2.0])
    if not np.all(stationary <= _MAX_SECOND_MOMENT):
        raise ConfigError(
            f"[bath] a damped mode's stationary variance reaches {stationary.max():.3g}; "
            f"the discord kernel needs at most {_MAX_SECOND_MOMENT:.1e}"
        )

    spacing = cfg.time.step
    if spacing is None:
        spacing = _STEP_FRACTION * 2.0 * np.pi / float(decomp.freqs.max())
    n_int = np.floor(cfg.time.t_end / spacing + 1e-9)  # inf past the float range
    if n_int < 1:
        raise ConfigError("t_end is shorter than one stored step")
    times = _grid(0.0, n_int * spacing, n_int + 1, "[time] t_end / step")

    window = None
    if cfg.analysis is not None:
        window = cfg.analysis.window
        if window is None:
            window = 10.0 * 2.0 * np.pi / float(decomp.freqs[_slowest_order(decomp)[0]])
        # a stride past the float range leaves no sample, as a long one does
        samples = np.rint(window / (spacing * min(cfg.analysis.stride, sys.float_info.max)))
        full_samples = np.rint(window / spacing)  # inf where the window dwarfs the step
        if full_samples < measures.MIN_WINDOW_SAMPLES:
            raise ConfigError(
                f"window {window:.6g} spans {full_samples:.0f} stored samples; "
                f"need at least {measures.MIN_WINDOW_SAMPLES}"
            )
        if full_samples > n_int:
            raise ConfigError("analysis window is longer than the simulated span")
        if samples < 1:
            raise ConfigError("analysis stride leaves no samples inside the window")
        if cfg.analysis.pairs is not None:
            for i, j in cfg.analysis.pairs:
                if not (0 <= i < n and 0 <= j < n):
                    raise ConfigError(f"analysis pair ({i}, {j}) is out of range")
        if cfg.analysis.sync_subset is not None:
            subset = cfg.analysis.sync_subset
            if len(subset) < 2:
                raise ConfigError("sync_subset needs at least two nodes")
            if len(set(subset)) != len(subset):
                raise ConfigError("sync_subset repeats a node")
            for v in subset:
                if not 0 <= v < n:
                    raise ConfigError(f"sync_subset node {v} is out of range")

    if cfg.tuning is not None:
        node = cfg.tuning.parameter[1]
        if not 0 <= node < n:
            raise ConfigError(f"tuning parameter node {node} is out of range")
        if cfg.bath.kind == SEPARATE:
            raise ConfigError("tuning has no effect under separate baths")
    if cfg.sweep is not None:
        nodes = cfg.sweep.parameter[1:]
        for v in nodes:
            if not 0 <= v < n:
                raise ConfigError(f"sweep parameter node {v} is out of range")

    return PreparedScenario(
        cfg=cfg, net=net, decomp=decomp, state0=state0, times=times, window=window,
    )


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------

def _run_traj(prep: PreparedScenario):
    return evolve(prep.state0, prep.decomp, prep.times, method=prep.cfg.time.method)


def _aggregates(prep: PreparedScenario, traj, series):
    """Measure-grid times, S(t) on that grid, and each series' pair mean.

    Every series holds one measure on the same strided grid and pairs, and
    excludes the same pairs (one physicality check on the same pair
    covariances), so the first series fixes the grid and the kept pairs.
    Each mean is moving-averaged over the analysis window.
    """
    stride = prep.cfg.analysis.stride
    window = prep.window
    m_times = series[0].times
    keep = [k for k, p in enumerate(series[0].pairs) if p not in series[0].excluded]
    m_dt = m_times[1] - m_times[0] if m_times.shape[0] > 1 else window
    m_samples = max(1, int(round(window / m_dt)))
    means = [measures._smoothed_pair_mean(s.values, keep, m_samples) for s in series]
    agg_len = means[0].shape[0]
    sync = measures.collective_sync(
        traj, window, subset=prep.cfg.analysis.sync_subset, stride=stride
    )
    sync_on_grid = np.full(agg_len, np.nan)
    sync_sampled = sync.values[:agg_len]
    sync_on_grid[: sync_sampled.shape[0]] = sync_sampled
    return m_times[:agg_len], sync_on_grid, means


def _summary_text(prep: PreparedScenario, extra_lines=()) -> str:
    decomp = prep.decomp
    cfg = prep.cfg
    lines = [
        f"nodes: {prep.net.n}",
        f"bath: {cfg.bath.kind}, gamma={csvio.fmt(cfg.bath.gamma)}, "
        f"T={csvio.fmt(cfg.bath.temperature)}"
        + (f", node={cfg.bath.node}" if cfg.bath.node is not None else ""),
        "",
        "mode  Omega  kappa  Gamma  D",
    ]
    for m in range(decomp.n):
        lines.append(
            f"{m}  {csvio.fmt(decomp.freqs[m])}  {csvio.fmt(decomp.eff_coupling[m])}  "
            f"{csvio.fmt(decomp.damping[m])}  {csvio.fmt(decomp.diffusion[m])}"
        )
    order = _slowest_order(decomp)
    slow, runner_up = np.abs(decomp.eff_coupling[order[:2]])
    ratio = slow / runner_up if runner_up > 0.0 else 0.0  # two frozen modes: 0
    lines.append("")
    lines.append(f"slowest mode: {order[0]} (damping ratio {csvio.fmt(ratio)})")
    if cfg.bath.kind != SEPARATE:
        try:
            est = estimate_sync_times(decomp)
            lines.append(f"estimated t_sync: {csvio.fmt(est.t_sync)}")
            for j in range(prep.net.n):
                t_j = est.node_times[j]
                lines.append(f"  node {j}: {'unreachable' if np.isinf(t_j) else csvio.fmt(t_j)}")
        except NoDominantMode:
            lines.append("estimated t_sync: undefined (no dominant slow mode)")
    lines.extend(extra_lines)
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

def run_simulate(cfg: ScenarioConfig, out_dir: str) -> str:
    """Trajectory, per-pair measures, and aggregate series for one scenario."""
    prep = prepare(cfg)
    traj = _run_traj(prep)
    csvio.write_trajectory(os.path.join(out_dir, "trajectory.csv"), traj)
    extra = []
    if cfg.analysis is not None:
        stride = cfg.analysis.stride
        info, disc, logneg = (
            measures.pair_measure_series(traj, measure, cfg.analysis.pairs, stride)
            for measure in (measures.MUTUAL_INFORMATION, measures.DISCORD,
                            measures.LOG_NEGATIVITY)
        )
        pearson = measures.windowed_correlation(
            traj.times, traj.second_moment_q, prep.window, disc.pairs, stride
        )
        corr = np.full(disc.values.shape, np.nan)
        corr[: pearson.values.shape[0]] = pearson.values
        csvio.write_pair_measures(
            os.path.join(out_dir, "measures.csv"), disc.times, disc.pairs, corr,
            info.values, disc.values, logneg.values,
        )
        times, sync, (avg_info, avg_disc, avg_logneg) = _aggregates(
            prep, traj, (info, disc, logneg)
        )
        csvio.write_aggregate(os.path.join(out_dir, "aggregate.csv"),
                              times, sync, avg_disc, avg_info, avg_logneg)
        # each pair's window, like S(t)'s, is the window rounded to the grid
        extra.append(f"analysis window: {csvio.fmt(pearson.window)}")
        if disc.excluded:
            listed = "; ".join(f"{i} {j}" for i, j in sorted(disc.excluded))
            extra.append(f"excluded pairs: {listed}")
    csvio.write_text(os.path.join(out_dir, "summary.txt"), _summary_text(prep, extra))
    return out_dir


def _sweep_point(job):
    value, prep = job
    traj = _run_traj(prep)
    analysis = prep.cfg.analysis
    disc = measures.pair_measure_series(traj, measures.DISCORD, analysis.pairs, analysis.stride)
    times, sync, (avg_disc,) = _aggregates(prep, traj, (disc,))
    return np.column_stack([np.full(times.shape[0], value), times, sync, avg_disc])


def run_sweep(cfg: ScenarioConfig, out_dir: str, workers: int = 1) -> str:
    """One simulation per sweep value, merged into a single map CSV.

    Every swept network is analyzed before any point runs: an unstable
    value is skipped and reported, any other rejection, or a list of
    unstable values only, is a ConfigError.
    Results keep grid order, so the file content does not depend on
    worker scheduling.
    """
    if cfg.sweep is None:
        raise ConfigError("run_sweep needs a [sweep] section")
    if cfg.analysis is None:
        raise ConfigError("run_sweep needs an [analysis] section: map.csv is analysis output")
    prep = prepare(cfg)  # validates everything once
    jobs = []
    skipped = []
    for v in cfg.sweep.list:
        value = float(v)
        try:
            net = _with_param(prep.net, cfg.sweep.parameter, value)
            decomp = analyze(net, cfg.bath)
        except NonPositiveDefinite:
            skipped.append(value)
            continue
        except OscnetError as exc:
            raise ConfigError(
                f"sweep value {csvio.fmt(value)} is rejected: {exc}"
            ) from exc
        jobs.append((value, replace(prep, net=net, decomp=decomp)))
    if not jobs:  # no point to run, so no map
        raise ConfigError(
            "every [sweep] list value is unstable: " + " ".join(map(csvio.fmt, skipped)))
    # a pool forks all its workers at once, so it gets no more than there
    # are points, and none at all for one point
    workers = min(workers, len(jobs))
    if workers > 1:
        # imported here: a serial sweep never pays for multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, jobs))
    else:
        results = [_sweep_point(job) for job in jobs]

    param_name = "_".join(str(p) for p in cfg.sweep.parameter)
    csvio.write_sweep_map(
        os.path.join(out_dir, "map.csv"), param_name,
        np.concatenate([np.empty((0, 4)), *results]),
    )
    extra = [f"sweep: {param_name} over {len(cfg.sweep.list)} values"]
    if skipped:
        extra.append("skipped unstable values: " + " ".join(csvio.fmt(v) for v in skipped))
    csvio.write_text(os.path.join(out_dir, "summary.txt"), _summary_text(prep, extra))
    return out_dir


def run_tune(cfg: ScenarioConfig, out_dir: str) -> str:
    """Bracket scan, closed-form tuned frequency and its frozen roots, with artifacts."""
    if cfg.tuning is None:
        raise ConfigError("run_tune needs a [tuning] section")
    prep = prepare(cfg)
    tb = cfg.tuning
    grid = _grid(tb.bracket[0], tb.bracket[1], tb.grid, "[tuning] grid")
    result = find_sync_parameter(prep.net, tb.parameter, tb.bracket, cfg.bath)
    scan = parameter_scan(prep.net, tb.parameter, grid, cfg.bath)
    csvio.write_scan(os.path.join(out_dir, "scan.csv"), scan)
    tuned_net = _with_param(prep.net, tb.parameter, result.value)
    save_network(tuned_net, os.path.join(out_dir, "tuned_network.txt"))
    extra = [
        "",
        f"tuned {' '.join(str(p) for p in result.param)} = {csvio.fmt(result.value)}",
        f"residual |kappa| = {csvio.fmt(result.residual)}",
        f"frozen mode: {result.mode_index} at Omega = {csvio.fmt(result.mode_freq)}",
        "participating nodes: "
        + " ".join(str(v) for v in result.report.participants(result.mode_index)),
        "frozen roots in bracket: " + " ".join(csvio.fmt(v) for v in result.roots),
        "frozen at any value: "
        + (" ".join(f"Omega = {csvio.fmt(w)}" for w in result.always_frozen) or "none"),
    ]
    csvio.write_text(os.path.join(out_dir, "summary.txt"), _summary_text(prep, extra))
    return out_dir


def run_spectrum(cfg: ScenarioConfig, out_dir: str) -> str:
    """Mode table and transform matrix, no time evolution."""
    prep = prepare(cfg)
    csvio.write_modes(os.path.join(out_dir, "modes.csv"), prep.decomp)
    csvio.write_transform(os.path.join(out_dir, "transform.csv"), prep.decomp)
    csvio.write_text(os.path.join(out_dir, "summary.txt"), _summary_text(prep))
    return out_dir
