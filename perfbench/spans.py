"""Span recording around the library's layer boundaries, from outside.

``Tracer.install()`` replaces module attributes (the names each importing
module calls through) with timing wrappers; ``restore()`` puts the
originals back.  Spans keep name, start, end, parent and operation id in
memory and are written out at the end; per-name counts, total time and
self time (span time minus the time of its child spans) are kept as the
spans close, so a capped span list loses no totals.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

from metricpairs import oracle

SPAN_CAP = 100_000


def _oracle_before(tracer, args, kwargs):
    return oracle.cache_size(), tracer.counters["key.found"]


def _oracle_after(tracer, state, result, seconds):
    # both operands canonicalised means the cache was consulted; a lookup
    # that stored nothing was a hit
    size, keys = state
    tracer.cache_peak = max(tracer.cache_peak, oracle.cache_size())
    if tracer.counters["key.found"] - keys >= 2:
        tracer.counters["cache.lookups"] += 1
        if oracle.cache_size() == size:
            tracer.counters["cache.hits"] += 1


def _key_after(tracer, state, result, seconds):
    if result is not None:
        tracer.counters["key.found"] += 1


def _min_distortion_after(tracer, state, result, seconds):
    side = "exhaustive" if result.optimal else "local"
    tracer.counters[f"min_distortion.{side}"] += 1
    tracer.seconds[f"min_distortion.{side}"] += seconds


def _samples_after(tracer, state, result, seconds):
    tracer.counters["realization.samples"] += len(result)


_ORACLE = (_oracle_before, _oracle_after)
# (module, attribute path, span name, (before, after) hooks or None)
TARGETS = (
    ("metricpairs", "exact_pair_gh", "oracle", _ORACLE),
    ("metricpairs", "exact_pair_gh_max", "oracle", _ORACLE),
    ("metricpairs", "exact_tuple_gh", "oracle", _ORACLE),
    ("metricpairs", "gh_bounds", "bounds", None),
    ("metricpairs", "geodesicity_audit", "geodesics.audit", None),
    ("metricpairs.oracle", "solve_lp", "lp", None),
    ("metricpairs.oracle", "canonical_pair_key", "oracle.key", (None, _key_after)),
    ("metricpairs.oracle", "GHResult.certificate_report", "oracle.cert", None),
    ("metricpairs.geodesics", "exact_pair_gh", "oracle", _ORACLE),
    ("metricpairs.geodesics", "interpolate", "geodesics.interpolate", None),
    ("metricpairs.bounds", "min_distortion", "correspondences.min_distortion", (None, _min_distortion_after)),
    ("metricpairs.bounds", "classical_glue", "bounds.glue", None),
    ("metricpairs.correspondences", "distortion", "correspondences.distortion", None),
    ("metricpairs.spaces", "validate_metric", "spaces.validate", None),
    ("metricpairs.complexes", "graph_metric", "complexes.graph", None),
    ("metricpairs.complexes", "greedy_net", "complexes.net", None),
    ("metricpairs.realization", "carrier_samples", "realization.samples", (None, _samples_after)),
    ("metricpairs.cli", "exact_pair_gh", "oracle", _ORACLE),
    ("metricpairs.cli", "exact_pair_gh_max", "oracle", _ORACLE),
    ("metricpairs.cli", "exact_tuple_gh", "oracle", _ORACLE),
    ("metricpairs.cli", "gh_bounds", "bounds", None),
    ("metricpairs.cli", "geodesicity_audit", "geodesics.audit", None),
    ("metricpairs.cli", "interpolate", "geodesics.interpolate", None),
    ("metricpairs.cli", "validate_metric", "spaces.validate", None),
    ("metricpairs.cli", "approximation_pipeline", "complexes.pipeline", None),
    ("metricpairs.cli", "realization_hausdorff", "realization", None),
    ("metricpairs.cli", "load_document", "serialization.load", None),
    ("metricpairs.cli", "dump_json", "serialization.dump", None),
)


def resolve(module: str, path: str):
    """(owner object, attribute name) for a dotted attribute path."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list = []  # (id, parent id, op id, name, start, end)
        self.stack: list = []  # open frames: [id, child seconds, name]
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.under: defaultdict = defaultdict(float)  # (parent name, name) -> seconds
        self.counters: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.cache_peak = 0
        self.op = None
        self.next_id = 0
        self.originals: list = []

    def _close(self, frame, start: float, end: float) -> None:
        sid, child, name = frame
        seconds = end - start
        self.calls[name] += 1
        self.total[name] += seconds
        self.self_time[name] += seconds - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[1] += seconds
            self.under[(parent[2], name)] += seconds
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, parent[0] if parent else None, self.op, name, start, end))

    def call(self, name: str, fn, *args, hooks=None, **kwargs):
        """Run fn inside a span named ``name``."""
        before, after = hooks or (None, None)
        state = before(self, args, kwargs) if before else None
        frame = [self.next_id, 0.0, name]
        self.next_id += 1
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self._close(frame, start, end)
        if after:
            after(self, state, result, end - start)
        return result

    def _wrapper(self, name: str, fn, hooks):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, hooks=hooks, **kwargs)

        return traced

    def install(self) -> None:
        for module, path, name, hooks in TARGETS:
            owner, attr = resolve(module, path)
            original = getattr(owner, attr)
            self.originals.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(name, original, hooks))

    def restore(self) -> None:
        while self.originals:
            owner, attr, original = self.originals.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, op, name, start, end]) + "\n")


def snapshot() -> list:
    """Identity of every traced attribute, to check that restore() worked."""
    return [getattr(*resolve(module, path)) for module, path, _, _ in TARGETS]


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer figures of one traced phase; times and calls per op."""
    per = 1.0 / max(ops, 1)
    ms = lambda name: tracer.total[name] * 1e3 * per  # noqa: E731
    calls = lambda name: tracer.calls[name] * per  # noqa: E731
    c, s = tracer.counters, tracer.seconds
    lookups = c["cache.lookups"]
    mind = c["min_distortion.exhaustive"] + c["min_distortion.local"]
    oracle_ms = ms("oracle")
    return {
        "lp.calls": (calls("lp"), "calls/op"),
        "lp.ms": (ms("lp"), "ms/op"),
        "lp.share": (ms("lp") / oracle_ms if oracle_ms else 0.0, "frac"),
        "oracle.calls": (calls("oracle"), "calls/op"),
        "oracle.ms": (oracle_ms, "ms/op"),
        "oracle.self_ms": (tracer.self_time["oracle"] * 1e3 * per, "ms/op"),
        "oracle.key_calls": (calls("oracle.key"), "calls/op"),
        "oracle.key_ms": (ms("oracle.key"), "ms/op"),
        "oracle.cache_lookups": (lookups * per, "calls/op"),
        "oracle.cache_hit_frac": (c["cache.hits"] / lookups if lookups else 0.0, "frac"),
        "oracle.cache_entries": (tracer.cache_peak, "count"),
        "oracle.cert_ms": (ms("oracle.cert"), "ms/op"),
        "correspondences.min_distortion_calls": (calls("correspondences.min_distortion"), "calls/op"),
        "correspondences.exhaustive_ms": (s["min_distortion.exhaustive"] * 1e3 * per, "ms/op"),
        "correspondences.local_ms": (s["min_distortion.local"] * 1e3 * per, "ms/op"),
        "correspondences.distortion_calls": (calls("correspondences.distortion"), "calls/op"),
        "correspondences.exhaustive_frac": (
            c["min_distortion.exhaustive"] / mind if mind else 0.0, "frac"),
        "bounds.calls": (calls("bounds"), "calls/op"),
        "bounds.ms": (ms("bounds"), "ms/op"),
        "bounds.glue_ms": (ms("bounds.glue"), "ms/op"),
        "geodesics.audit_calls": (calls("geodesics.audit"), "calls/op"),
        "geodesics.audit_ms": (ms("geodesics.audit"), "ms/op"),
        "geodesics.interpolate_ms": (ms("geodesics.interpolate"), "ms/op"),
        "geodesics.oracle_ms": (tracer.under[("geodesics.audit", "oracle")] * 1e3 * per, "ms/op"),
        "spaces.validate_calls": (calls("spaces.validate"), "calls/op"),
        "spaces.validate_ms": (ms("spaces.validate"), "ms/op"),
        "complexes.pipeline_ms": (ms("complexes.pipeline"), "ms/op"),
        "complexes.graph_ms": (ms("complexes.graph"), "ms/op"),
        "complexes.net_ms": (ms("complexes.net"), "ms/op"),
        "realization.ms": (ms("realization"), "ms/op"),
        "realization.samples": (c["realization.samples"] * per, "count/op"),
        "serialization.load_ms": (ms("serialization.load"), "ms/op"),
        "serialization.dump_ms": (ms("serialization.dump"), "ms/op"),
    }
