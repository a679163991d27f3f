"""Spans around calls into the package's layers, recorded from outside.

A :class:`Tracer` replaces module attributes that callers look up at call
time (``scenarios.evolve``, ``measures.symplectic_spectrum``,
``csvio.write_trajectory``, ...) with wrappers that record one span per
call: name, start, end, parent.  Spans stay in memory; :meth:`Tracer.dump`
writes them out once the run is over.  The package itself is not edited,
and :meth:`Tracer.restore` puts every original attribute back.

A wrapper may carry a hook that inspects the call after its span has
closed (to count work, or to copy data for a correctness check).  The
hook's own time is recorded as a ``bench.sample`` span under the same
parent, so it never inflates a layer's time and the self times of all
spans still add up to the run.
"""

from __future__ import annotations

import json
import os
from time import perf_counter

RUN = "run"
SAMPLE = "bench.sample"
EVOLVE = "dynamics.evolve"
SPECTRUM = "measures.symplectic_spectrum"
MEASURES = ("discord", "mutual_information", "log_negativity")


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records nested spans of one pipeline run (a single thread)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self):
        self._stack.pop()

    def call(self, name, fn, *args, hook=None, span_name=None, **kwargs):
        span = self._open(span_name(args, kwargs) if span_name else name)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._close()
        if hook is not None:
            sample = self._open(SAMPLE)
            sample.start = perf_counter()
            try:
                hook(span, args, kwargs, result)
            finally:
                sample.end = perf_counter()
                self._close()
        return result

    def patch(self, module, attr, name, hook=None, span_name=None):
        """Replace ``module.attr`` by a wrapper that records a span per call."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            return self.call(name, original, *args, hook=hook, span_name=span_name, **kwargs)

        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [
            {"id": k, "name": s.name, "parent": s.parent,
             "start": s.start - t0, "end": s.end - t0, **s.attrs}
            for k, s in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"trace_id": 0, "spans": rows}, fh, indent=1)


def self_times(spans):
    """Per-span duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def _has_ancestor(spans, k, names):
    k = spans[k].parent
    while k >= 0:
        if spans[k].name in names:
            return True
        k = spans[k].parent
    return False


def layer_metrics(spans):
    """Per-layer metrics of one traced run, keyed by metric name.

    Values are (value, unit, kind) where kind is "measured" for times and
    "computed" for counts and sizes derived from the call arguments.
    """
    selfs = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        calls[s.name] = calls.get(s.name, 0) + 1

    def dur(name):
        return total.get(name, 0.0)

    def self_of(name):
        return sum(v for s, v in zip(spans, selfs) if s.name == name)

    m = {}
    m["dynamics.evolve.self_s"] = (self_of(EVOLVE), "s", "measured")
    m["dynamics.evolve.state_mb"] = (
        max((s.attrs.get("state_bytes", 0) for s in spans if s.name == EVOLVE), default=0) / 1e6,
        "MB", "computed",
    )
    m["dynamics.gate.s"] = (
        sum(s.duration for s in spans
            if s.name == SPECTRUM and s.parent >= 0 and spans[s.parent].name == EVOLVE),
        "s", "measured",
    )
    evals_total = 0
    for measure in MEASURES:
        name = f"measures.{measure}"
        evals = sum(s.attrs.get("evals", 0) for s in spans if s.name == name)
        evals_total += evals
        m[f"{name}.s"] = (dur(name), "s", "measured")
        m[f"{name}.evals"] = (evals, "count", "computed")
        m[f"{name}.evals_per_s"] = (evals / dur(name) if dur(name) > 0 else 0.0, "1/s", "measured")
    measure_spans = {f"measures.{x}" for x in MEASURES}
    spectra = sum(
        s.attrs.get("matrices", 0) for k, s in enumerate(spans)
        if s.name == SPECTRUM and _has_ancestor(spans, k, measure_spans)
    )
    m["measures.pair_time_evals"] = (
        sum(s.attrs.get("evals", 0) for s in spans if s.name == "measures.discord"),
        "count", "computed",
    )
    m["measures.spectra_per_eval"] = (
        spectra / evals_total if evals_total else 0.0, "count", "computed"
    )
    for name in ("measures.collective_sync", "measures.windowed_correlation"):
        m[f"{name}.s"] = (dur(name), "s", "measured")

    writers = sorted({s.name for s in spans if s.name.startswith("csvio.")})
    csv_s = sum(dur(w) for w in writers)
    csv_bytes = sum(s.attrs.get("bytes", 0) for s in spans if s.name.startswith("csvio."))
    for w in ("csvio.write_trajectory", "csvio.write_pair_measures", "csvio.write_aggregate",
              "csvio.write_sweep_map", "csvio.write_text", *writers):
        m[f"{w}.s"] = (dur(w), "s", "measured")
    m["csvio.s"] = (csv_s, "s", "measured")
    m["csvio.bytes"] = (csv_bytes, "B", "computed")
    m["csvio.mb_per_s"] = (csv_bytes / 1e6 / csv_s if csv_s > 0 else 0.0, "MB/s", "measured")

    m["scenarios.prepare.s"] = (dur("scenarios.prepare"), "s", "measured")
    m["spectral.analyze.s"] = (dur("spectral.analyze"), "s", "measured")
    m["spectral.analyze.calls"] = (calls.get("spectral.analyze", 0), "count", "computed")
    m["tuning.estimate_sync_times.s"] = (dur("tuning.estimate_sync_times"), "s", "measured")
    m["scenarios.self_s"] = (self_of(RUN), "s", "measured")
    m["bench.sample.s"] = (dur(SAMPLE), "s", "measured")
    m["trace.run_s"] = (dur(RUN), "s", "measured")
    m["trace.accounted_s"] = (sum(selfs), "s", "measured")
    return m
