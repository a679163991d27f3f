"""Scenario configs (INI) and the pipelines behind the CLI subcommands.

A scenario file holds blocks [network], [bath], [initial], [time],
[analysis] and, when relevant, [tuning], [sweep], [output].  Parsing is
strict: unknown sections or keys, malformed values, and anything that
would violate a module precondition are rejected with ConfigError
before any real computation starts.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import csvio, measures
from .dynamics import evolve, initial_state
from .errors import ConfigError, NoDominantMode, NonPositiveDefinite, OscnetError
from .network import (
    NetworkSpec,
    build_network,
    load_network,
    random_network,
    save_network,
)
from .spectral import (
    COMMON,
    LOCAL,
    SEPARATE,
    BathConfig,
    analyze,
)
from .tuning import (
    _with_param,
    estimate_sync_times,
    find_sync_parameter,
    parameter_scan,
)

_NETWORK_SOURCES = ("inline", "file", "random")
#: Default [time] step, the spacing of the time grid, as a fraction of the
#: fastest mode period.
_STEP_FRACTION = 0.02


@dataclass
class NetworkBlock:
    source: str
    omega: np.ndarray | None = None
    edges: tuple[tuple[int, int, float], ...] | None = None
    path: str | None = None
    nodes: int | None = None
    connect_prob: float | None = None
    freq_low: float | None = None
    freq_high: float | None = None
    coupling_mean: float | None = None
    coupling_sd: float | None = None
    seed: int | None = None
    max_retries: int = 100


@dataclass
class InitialBlock:
    mean_q: np.ndarray = field(default_factory=lambda: np.array([0.0]))
    mean_p: np.ndarray = field(default_factory=lambda: np.array([0.0]))
    squeeze_r: np.ndarray = field(default_factory=lambda: np.array([0.0]))
    squeeze_angle: np.ndarray = field(default_factory=lambda: np.array([0.0]))
    thermal_n: np.ndarray = field(default_factory=lambda: np.array([0.0]))


@dataclass
class TimeBlock:
    t_end: float
    step: float | None = None
    method: str = "exact"


@dataclass
class AnalysisBlock:
    enabled: bool = True
    window: float | None = None  # None means 10 periods of the slow mode
    pairs: tuple[tuple[int, int], ...] | None = None
    sync_subset: tuple[int, ...] | None = None
    stride: int = 10


@dataclass
class TuningBlock:
    param: tuple
    bracket: tuple[float, float]
    tol: float = 1e-10
    grid_points: int = 33  # resolution of scan.csv; the tuning itself is closed-form


@dataclass
class SweepBlock:
    param: tuple
    values: np.ndarray


@dataclass
class ScenarioConfig:
    network: NetworkBlock
    bath: BathConfig
    initial: InitialBlock
    time: TimeBlock
    analysis: AnalysisBlock
    tuning: TuningBlock | None = None
    sweep: SweepBlock | None = None
    out_dir: str = "out"
    base_dir: str = "."


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _float(text: str) -> float:
    """A finite float; nan and inf raise ValueError like any other non-number."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _floats(text: str) -> np.ndarray:
    try:
        return np.array([_float(tok) for tok in text.split()])
    except ValueError as exc:
        raise ConfigError(f"expected finite numbers, got {text!r}") from exc


def _get(parser, section, key, conv, default=None, required=False):
    if not parser.has_option(section, key):
        if required:
            raise ConfigError(f"[{section}] is missing required key {key!r}")
        return default
    raw = parser.get(section, key).strip()
    try:
        return conv(raw)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r} is invalid") from exc


def _parse_param(text: str) -> tuple:
    toks = text.split()
    if len(toks) == 2 and toks[0] == "omega":
        return ("omega", int(toks[1]))
    if len(toks) == 3 and toks[0] == "coupling":
        return ("coupling", int(toks[1]), int(toks[2]))
    raise ConfigError(
        f"parameter must be 'omega <node>' or 'coupling <i> <j>', got {text!r}"
    )


def _parse_pairs(text: str) -> tuple[tuple[int, int], ...] | None:
    if text.strip().lower() == "all":
        return None
    pairs = []
    for chunk in text.split(";"):
        toks = chunk.split()
        if len(toks) != 2:
            raise ConfigError(f"pair list entry {chunk!r} is not 'i j'")
        i, j = int(toks[0]), int(toks[1])
        if i == j:
            raise ConfigError(f"pair ({i}, {j}) repeats a node")
        pairs.append((min(i, j), max(i, j)))
    if not pairs:
        raise ConfigError("pair list is empty")
    return tuple(pairs)


def _parse_edges(text: str) -> tuple[tuple[int, int, float], ...]:
    edges = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) != 3:
            raise ConfigError(f"edge entry {line!r} is not 'i j lambda'")
        edges.append((int(toks[0]), int(toks[1]), _float(toks[2])))
    return tuple(edges)


_KNOWN_KEYS = {
    "network": {
        "source", "omega", "edges", "path", "nodes", "connect_prob",
        "freq_low", "freq_high", "coupling_mean", "coupling_sd", "seed",
        "max_retries",
    },
    "bath": {"kind", "gamma", "temperature", "cutoff", "node"},
    "initial": {"mean_q", "mean_p", "squeeze_r", "squeeze_angle", "thermal_n"},
    "time": {"t_end", "step", "method"},
    "analysis": {"enabled", "window", "pairs", "sync_subset", "stride"},
    "tuning": {"parameter", "bracket", "tol", "grid"},
    "sweep": {"parameter", "values", "list"},
    "output": {"directory"},
}


def load_config(path: str) -> ScenarioConfig:
    """Parse and structurally validate a scenario INI file."""
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#",)
    )
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from exc

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
    for required in ("network", "bath", "time"):
        if not parser.has_section(required):
            raise ConfigError(f"config is missing the [{required}] section")

    source = _get(parser, "network", "source", str, required=True)
    if source not in _NETWORK_SOURCES:
        raise ConfigError(f"network source must be one of {_NETWORK_SOURCES}")
    network = NetworkBlock(source=source)
    if source == "inline":
        network.omega = _get(parser, "network", "omega", _floats, required=True)
        network.edges = _get(parser, "network", "edges", _parse_edges, required=True)
    elif source == "file":
        network.path = _get(parser, "network", "path", str, required=True)
    else:
        network.nodes = _get(parser, "network", "nodes", int, required=True)
        network.connect_prob = _get(parser, "network", "connect_prob", _float, required=True)
        network.freq_low = _get(parser, "network", "freq_low", _float, required=True)
        network.freq_high = _get(parser, "network", "freq_high", _float, required=True)
        network.coupling_mean = _get(parser, "network", "coupling_mean", _float, required=True)
        network.coupling_sd = _get(parser, "network", "coupling_sd", _float, required=True)
        network.seed = _get(parser, "network", "seed", int, required=True)
        network.max_retries = _get(parser, "network", "max_retries", int, default=100)

    kind = _get(parser, "bath", "kind", str, required=True)
    if kind not in (SEPARATE, COMMON, LOCAL):
        raise ConfigError(f"bath kind must be one of {(SEPARATE, COMMON, LOCAL)}")
    node = _get(parser, "bath", "node", int)
    if kind == LOCAL and node is None:
        raise ConfigError("a local bath needs [bath] node")
    try:
        bath = BathConfig(
            kind=kind,
            gamma=_get(parser, "bath", "gamma", _float, required=True),
            temperature=_get(parser, "bath", "temperature", _float, required=True),
            cutoff=_get(parser, "bath", "cutoff", _float, required=True),
            node=node if kind == LOCAL else None,
        )
    except OscnetError as exc:
        raise ConfigError(f"[bath] {exc}") from exc

    initial = InitialBlock()
    if parser.has_section("initial"):
        for key in ("mean_q", "mean_p", "squeeze_r", "squeeze_angle", "thermal_n"):
            value = _get(parser, "initial", key, _floats)
            if value is not None:
                setattr(initial, key, value)

    method = _get(parser, "time", "method", str, default="exact")
    if method != "exact":
        raise ConfigError(
            f"time method {method!r} is not available; the only method is 'exact' "
            "(the closed-form propagator)"
        )
    time = TimeBlock(
        t_end=_get(parser, "time", "t_end", _float, required=True),
        step=_get(parser, "time", "step", _float),
        method=method,
    )
    if time.t_end <= 0.0:
        raise ConfigError("t_end must be positive")
    if time.step is not None and time.step <= 0.0:
        raise ConfigError("step must be positive")

    analysis = AnalysisBlock()
    if parser.has_section("analysis"):
        enabled = _get(parser, "analysis", "enabled", str, default="true").lower()
        if enabled not in ("true", "false", "1", "0", "yes", "no"):
            raise ConfigError(f"analysis enabled = {enabled!r} is not a boolean")
        analysis.enabled = enabled in ("true", "1", "yes")
        window = _get(parser, "analysis", "window", str, default="auto")
        if window != "auto":
            analysis.window = _get(parser, "analysis", "window", _float)
            if analysis.window <= 0.0:
                raise ConfigError("analysis window must be positive")
        analysis.pairs = _get(parser, "analysis", "pairs", _parse_pairs, default=None)
        subset = _get(parser, "analysis", "sync_subset", str, default="all")
        if subset.lower() != "all":
            analysis.sync_subset = tuple(int(t) for t in subset.split())
        analysis.stride = _get(parser, "analysis", "stride", int, default=10)
        if analysis.stride < 1:
            raise ConfigError("analysis stride must be >= 1")

    tuning = None
    if parser.has_section("tuning"):
        bracket = _get(parser, "tuning", "bracket", _floats, required=True)
        if bracket.shape != (2,) or not bracket[0] < bracket[1]:
            raise ConfigError("tuning bracket must be two increasing numbers")
        tuning = TuningBlock(
            param=_get(parser, "tuning", "parameter", _parse_param, required=True),
            bracket=(float(bracket[0]), float(bracket[1])),
            tol=_get(parser, "tuning", "tol", _float, default=1e-10),
            grid_points=_get(parser, "tuning", "grid", int, default=33),
        )
        if tuning.param[0] != "omega":
            raise ConfigError(
                "tuning parameter must be 'omega <node>': a coupling is a rank-two, "
                "indefinite update with no closed-form frozen points"
            )
        if tuning.tol <= 0.0:
            raise ConfigError("tuning tol must be positive")
        if tuning.grid_points < 3:
            raise ConfigError("tuning grid must have at least 3 points")

    sweep = None
    if parser.has_section("sweep"):
        param = _get(parser, "sweep", "parameter", _parse_param, required=True)
        explicit = _get(parser, "sweep", "list", _floats)
        spec3 = _get(parser, "sweep", "values", _floats)
        if explicit is not None:
            values = explicit
        elif spec3 is not None:
            if spec3.shape != (3,) or int(spec3[2]) < 2 or not spec3[0] < spec3[1]:
                raise ConfigError("sweep values must be 'lo hi count' with lo < hi")
            values = np.linspace(spec3[0], spec3[1], int(spec3[2]))
        else:
            raise ConfigError("[sweep] needs either 'values = lo hi count' or 'list = ...'")
        sweep = SweepBlock(param=param, values=values)

    out_dir = "out"
    if parser.has_section("output"):
        out_dir = _get(parser, "output", "directory", str, default="out")

    return ScenarioConfig(
        network=network,
        bath=bath,
        initial=initial,
        time=time,
        analysis=analysis,
        tuning=tuning,
        sweep=sweep,
        out_dir=out_dir,
        base_dir=os.path.dirname(os.path.abspath(path)),
    )


def save_config(cfg: ScenarioConfig, path: str) -> None:
    """Write a config back to INI; load_config(save_config(c)) == c."""
    lines = []
    nb = cfg.network
    lines.append("[network]")
    lines.append(f"source = {nb.source}")
    if nb.source == "inline":
        lines.append("omega = " + " ".join(repr(float(v)) for v in nb.omega))
        lines.append("edges =")
        for i, j, lam in nb.edges:
            lines.append(f"    {i} {j} {lam!r}")
    elif nb.source == "file":
        lines.append(f"path = {nb.path}")
    else:
        lines.append(f"nodes = {nb.nodes}")
        lines.append(f"connect_prob = {nb.connect_prob!r}")
        lines.append(f"freq_low = {nb.freq_low!r}")
        lines.append(f"freq_high = {nb.freq_high!r}")
        lines.append(f"coupling_mean = {nb.coupling_mean!r}")
        lines.append(f"coupling_sd = {nb.coupling_sd!r}")
        lines.append(f"seed = {nb.seed}")
        lines.append(f"max_retries = {nb.max_retries}")
    lines.append("")
    lines.append("[bath]")
    lines.append(f"kind = {cfg.bath.kind}")
    lines.append(f"gamma = {cfg.bath.gamma!r}")
    lines.append(f"temperature = {cfg.bath.temperature!r}")
    lines.append(f"cutoff = {cfg.bath.cutoff!r}")
    if cfg.bath.node is not None:
        lines.append(f"node = {cfg.bath.node}")
    lines.append("")
    lines.append("[initial]")
    for key in ("mean_q", "mean_p", "squeeze_r", "squeeze_angle", "thermal_n"):
        values = getattr(cfg.initial, key)
        lines.append(f"{key} = " + " ".join(repr(float(v)) for v in values))
    lines.append("")
    lines.append("[time]")
    lines.append(f"t_end = {cfg.time.t_end!r}")
    if cfg.time.step is not None:
        lines.append(f"step = {cfg.time.step!r}")
    lines.append(f"method = {cfg.time.method}")
    lines.append("")
    lines.append("[analysis]")
    lines.append(f"enabled = {'true' if cfg.analysis.enabled else 'false'}")
    lines.append(
        "window = auto" if cfg.analysis.window is None
        else f"window = {cfg.analysis.window!r}"
    )
    if cfg.analysis.pairs is None:
        lines.append("pairs = all")
    else:
        lines.append("pairs = " + "; ".join(f"{i} {j}" for i, j in cfg.analysis.pairs))
    if cfg.analysis.sync_subset is None:
        lines.append("sync_subset = all")
    else:
        lines.append("sync_subset = " + " ".join(str(v) for v in cfg.analysis.sync_subset))
    lines.append(f"stride = {cfg.analysis.stride}")
    if cfg.tuning is not None:
        lines.append("")
        lines.append("[tuning]")
        lines.append("parameter = " + " ".join(str(p) for p in cfg.tuning.param))
        lines.append(f"bracket = {cfg.tuning.bracket[0]!r} {cfg.tuning.bracket[1]!r}")
        lines.append(f"tol = {cfg.tuning.tol!r}")
        lines.append(f"grid = {cfg.tuning.grid_points}")
    if cfg.sweep is not None:
        lines.append("")
        lines.append("[sweep]")
        lines.append("parameter = " + " ".join(str(p) for p in cfg.sweep.param))
        lines.append("list = " + " ".join(repr(float(v)) for v in cfg.sweep.values))
    lines.append("")
    lines.append("[output]")
    lines.append(f"directory = {cfg.out_dir}")
    lines.append("")
    csvio.write_text(path, "\n".join(lines))


# ---------------------------------------------------------------------------
# Preparation
# ---------------------------------------------------------------------------

@dataclass
class PreparedScenario:
    cfg: ScenarioConfig
    net: NetworkSpec
    decomp: object
    times: np.ndarray
    window: float | None
    pairs: tuple[tuple[int, int], ...] | None
    out_dir: str


def _build_network(cfg: ScenarioConfig, seed_override: int | None) -> NetworkSpec:
    nb = cfg.network
    if seed_override is not None and nb.source != "random":
        raise ConfigError("--seed only applies to scenarios with a random network")
    try:
        if nb.source == "inline":
            n = nb.omega.shape[0]
            coupling = np.zeros((n, n))
            for i, j, lam in nb.edges:
                if not (0 <= i < n and 0 <= j < n):
                    raise ConfigError(f"edge ({i}, {j}) is out of range for {n} nodes")
                coupling[i, j] = lam
                coupling[j, i] = lam
            return build_network(nb.omega, coupling)
        if nb.source == "file":
            path = nb.path
            if not os.path.isabs(path):
                path = os.path.join(cfg.base_dir, path)
            return load_network(path)
        seed = nb.seed if seed_override is None else seed_override
        return random_network(
            nb.nodes, nb.connect_prob, nb.freq_low, nb.freq_high,
            nb.coupling_mean, nb.coupling_sd, seed, nb.max_retries,
        )
    except ConfigError:
        raise
    except OSError as exc:
        raise ConfigError(f"cannot read network file: {exc}") from exc
    except OscnetError as exc:
        raise ConfigError(f"network construction failed: {exc}") from exc


def prepare(cfg: ScenarioConfig, seed_override: int | None = None,
            net: NetworkSpec | None = None) -> PreparedScenario:
    """Materialize the network and check every precondition up front."""
    if net is None:
        net = _build_network(cfg, seed_override)
    n = net.n
    if cfg.bath.kind == LOCAL and not 0 <= cfg.bath.node < n:
        raise ConfigError(f"[bath] node {cfg.bath.node} out of range for {n} nodes")
    try:
        decomp = analyze(net, cfg.bath)
    except OscnetError as exc:
        raise ConfigError(f"spectral analysis rejected the scenario: {exc}") from exc

    for key in ("mean_q", "mean_p", "squeeze_r", "squeeze_angle", "thermal_n"):
        values = getattr(cfg.initial, key)
        if values.shape[0] not in (1, n):
            raise ConfigError(
                f"[initial] {key} has {values.shape[0]} entries; need 1 or {n}"
            )

    spacing = cfg.time.step
    if spacing is None:
        spacing = _STEP_FRACTION * 2.0 * np.pi / float(decomp.freqs.max())
    n_int = int(np.floor(cfg.time.t_end / spacing + 1e-9))
    if n_int < 1:
        raise ConfigError("t_end is shorter than one stored step")
    times = np.linspace(0.0, n_int * spacing, n_int + 1)

    window = None
    pairs = cfg.analysis.pairs
    if cfg.analysis.enabled:
        window = cfg.analysis.window
        if window is None:
            slow = decomp.slowest if decomp.slowest is not None else 0
            window = 10.0 * 2.0 * np.pi / float(decomp.freqs[slow])
        samples = int(round(window / (spacing * cfg.analysis.stride)))
        full_samples = int(round(window / spacing))
        if full_samples < measures.MIN_WINDOW_SAMPLES:
            raise ConfigError(
                f"window {window:.6g} spans {full_samples} stored samples; "
                f"need at least {measures.MIN_WINDOW_SAMPLES}"
            )
        if full_samples > n_int:
            raise ConfigError("analysis window is longer than the simulated span")
        if samples < 1:
            raise ConfigError("analysis stride leaves no samples inside the window")
        if pairs is not None:
            for i, j in pairs:
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
        node = cfg.tuning.param[1]
        if not 0 <= node < n:
            raise ConfigError(f"tuning parameter node {node} is out of range")
        if cfg.bath.kind == SEPARATE:
            raise ConfigError("tuning has no effect under separate baths")
    if cfg.sweep is not None:
        nodes = cfg.sweep.param[1:]
        for v in nodes:
            if not 0 <= v < n:
                raise ConfigError(f"sweep parameter node {v} is out of range")

    return PreparedScenario(
        cfg=cfg, net=net, decomp=decomp, times=times,
        window=window, pairs=pairs, out_dir=cfg.out_dir,
    )


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------

def _initial_state(cfg: ScenarioConfig, net: NetworkSpec):
    ib = cfg.initial

    def flat(arr):
        return arr[0] if arr.shape[0] == 1 else arr

    return initial_state(
        net,
        mean_q=flat(ib.mean_q),
        mean_p=flat(ib.mean_p),
        squeeze_r=flat(ib.squeeze_r),
        squeeze_angle=flat(ib.squeeze_angle),
        thermal_n=flat(ib.thermal_n),
    )


def _run_traj(prep: PreparedScenario):
    state0 = _initial_state(prep.cfg, prep.net)
    return evolve(state0, prep.decomp, prep.times, method=prep.cfg.time.method)


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
    sync = measures.collective_sync(traj, window, subset=prep.cfg.analysis.sync_subset)
    sync_on_grid = np.full(agg_len, np.nan)
    sync_sampled = sync.values[::stride][:agg_len]
    sync_on_grid[: sync_sampled.shape[0]] = sync_sampled
    return m_times[:agg_len], sync_on_grid, means


def _summary_text(prep: PreparedScenario, extra_lines=()) -> str:
    decomp = prep.decomp
    cfg = prep.cfg
    lines = [
        f"nodes: {prep.net.n}",
        f"bath: {cfg.bath.kind}, gamma={csvio.fmt(cfg.bath.gamma)}, "
        f"T={csvio.fmt(cfg.bath.temperature)}, cutoff={csvio.fmt(cfg.bath.cutoff)}"
        + (f", node={cfg.bath.node}" if cfg.bath.node is not None else ""),
        "",
        "mode  Omega  kappa  Gamma  D",
    ]
    for m in range(decomp.n):
        lines.append(
            f"{m}  {csvio.fmt(decomp.freqs[m])}  {csvio.fmt(decomp.eff_coupling[m])}  "
            f"{csvio.fmt(decomp.damping[m])}  {csvio.fmt(decomp.diffusion[m])}"
        )
    lines.append("")
    lines.append(
        f"slowest mode: {decomp.slowest} (damping ratio "
        f"{csvio.fmt(decomp.damping_ratio)})"
    )
    if cfg.bath.kind != SEPARATE:
        try:
            est = estimate_sync_times(decomp)
            lines.append(f"estimated t_sync: {csvio.fmt(est.t_sync)}")
            for j in range(prep.net.n):
                tag = "unreachable" if est.unreachable[j] else csvio.fmt(est.node_times[j])
                lines.append(f"  node {j}: {tag}")
        except NoDominantMode:
            lines.append("estimated t_sync: undefined (no dominant slow mode)")
    lines.extend(extra_lines)
    lines.append("")
    return "\n".join(lines)


def _resolve_out(prep_out: str, base_dir: str, out_dir: str | None) -> str:
    target = out_dir if out_dir is not None else prep_out
    if not os.path.isabs(target):
        target = os.path.join(base_dir if out_dir is None else os.getcwd(), target)
    return target


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------

def run_simulate(cfg: ScenarioConfig, out_dir: str | None = None,
                 seed: int | None = None) -> str:
    """Trajectory, per-pair measures, and aggregate series for one scenario."""
    prep = prepare(cfg, seed_override=seed)
    out = _resolve_out(prep.out_dir, cfg.base_dir, out_dir)
    traj = _run_traj(prep)
    csvio.write_trajectory(os.path.join(out, "trajectory.csv"), traj)
    extra = []
    if cfg.analysis.enabled:
        stride = cfg.analysis.stride
        info, disc, logneg = (
            measures.pair_measure_series(traj, measure, prep.pairs, stride)
            for measure in (measures.MUTUAL_INFORMATION, measures.DISCORD,
                            measures.LOG_NEGATIVITY)
        )
        signal = traj.second_moment_q
        corr = np.full(disc.values.shape, np.nan)
        for k, (i, j) in enumerate(disc.pairs):
            pearson = measures.windowed_correlation(
                traj.times, signal[:, i], signal[:, j], prep.window
            )
            sampled = pearson.values[::stride]
            corr[: sampled.shape[0], k] = sampled
        csvio.write_pair_measures(
            os.path.join(out, "measures.csv"), disc.times, disc.pairs, corr,
            info.values, disc.values, logneg.values,
        )
        times, sync, (avg_info, avg_disc, avg_logneg) = _aggregates(
            prep, traj, (info, disc, logneg)
        )
        csvio.write_aggregate(os.path.join(out, "aggregate.csv"),
                              times, sync, avg_disc, avg_info, avg_logneg)
        # each pair's window, like S(t)'s, is the window rounded to the grid
        extra.append(f"analysis window: {csvio.fmt(pearson.window)}")
        if disc.excluded:
            listed = "; ".join(f"{i} {j}" for i, j in sorted(disc.excluded))
            extra.append(f"excluded pairs: {listed}")
    csvio.write_text(os.path.join(out, "summary.txt"), _summary_text(prep, extra))
    return out


def _sweep_point(job):
    value, prep = job
    traj = _run_traj(prep)
    disc = measures.pair_measure_series(
        traj, measures.DISCORD, prep.pairs, prep.cfg.analysis.stride
    )
    times, sync, (avg_disc,) = _aggregates(prep, traj, (disc,))
    return np.column_stack([np.full(times.shape[0], value), times, sync, avg_disc])


def run_sweep(cfg: ScenarioConfig, out_dir: str | None = None,
              seed: int | None = None, workers: int = 1) -> str:
    """One simulation per sweep value, merged into a single map CSV.

    Every swept network is analyzed before any point runs: an unstable
    value is skipped and reported, any other rejection is a ConfigError.
    Results keep grid order, so the file content does not depend on
    worker scheduling.
    """
    if cfg.sweep is None:
        raise ConfigError("run_sweep needs a [sweep] section")
    if not cfg.analysis.enabled:
        raise ConfigError("run_sweep needs [analysis] enabled: map.csv is analysis output")
    prep = prepare(cfg, seed_override=seed)  # validates everything once
    out = _resolve_out(prep.out_dir, cfg.base_dir, out_dir)
    jobs = []
    skipped = []
    for v in cfg.sweep.values:
        value = float(v)
        try:
            net = _with_param(prep.net, cfg.sweep.param, value)
            decomp = analyze(net, cfg.bath)
        except NonPositiveDefinite:
            skipped.append(value)
            continue
        except OscnetError as exc:
            raise ConfigError(
                f"sweep value {csvio.fmt(value)} is rejected: {exc}"
            ) from exc
        jobs.append((value, replace(prep, net=net, decomp=decomp)))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, jobs))
    else:
        results = [_sweep_point(job) for job in jobs]

    param_name = "_".join(str(p) for p in cfg.sweep.param)
    csvio.write_sweep_map(
        os.path.join(out, "map.csv"), param_name,
        np.concatenate([np.empty((0, 4)), *results]),
    )
    extra = [f"sweep: {param_name} over {len(cfg.sweep.values)} values"]
    if skipped:
        extra.append("skipped unstable values: " + " ".join(csvio.fmt(v) for v in skipped))
    csvio.write_text(os.path.join(out, "summary.txt"), _summary_text(prep, extra))
    return out


def run_tune(cfg: ScenarioConfig, out_dir: str | None = None,
             seed: int | None = None) -> str:
    """Bracket scan, closed-form tuned frequency and its frozen roots, with artifacts."""
    if cfg.tuning is None:
        raise ConfigError("run_tune needs a [tuning] section")
    prep = prepare(cfg, seed_override=seed)
    out = _resolve_out(prep.out_dir, cfg.base_dir, out_dir)
    tb = cfg.tuning
    grid = np.linspace(tb.bracket[0], tb.bracket[1], max(tb.grid_points, 3))
    result = find_sync_parameter(prep.net, tb.param, tb.bracket, cfg.bath, tb.tol)
    scan = parameter_scan(prep.net, tb.param, grid, cfg.bath)
    csvio.write_scan(os.path.join(out, "scan.csv"), scan)
    tuned_net = _with_param(prep.net, tb.param, result.value)
    save_network(tuned_net, os.path.join(out, "tuned_network.txt"))
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
    csvio.write_text(os.path.join(out, "summary.txt"), _summary_text(prep, extra))
    return out


def run_spectrum(cfg: ScenarioConfig, out_dir: str | None = None,
                 seed: int | None = None) -> str:
    """Mode table and transform matrix, no time evolution."""
    prep = prepare(cfg, seed_override=seed)
    out = _resolve_out(prep.out_dir, cfg.base_dir, out_dir)
    csvio.write_modes(os.path.join(out, "modes.csv"), prep.decomp)
    csvio.write_transform(os.path.join(out, "transform.csv"), prep.decomp)
    csvio.write_text(os.path.join(out, "summary.txt"), _summary_text(prep))
    return out
