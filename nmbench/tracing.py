"""Outside-in tracing: wrap the public functions each layer exposes.

Nothing under ``src/repro`` knows it is being traced.  :func:`install`
replaces each function at the place its callers look it up (a module
global, a class attribute, or a registry dict entry) with a wrapper that
reports to a sink, and :func:`uninstall` puts the originals back.

Two sinks exist:

* :class:`Tracer` keeps every span (name, start, end, parent, thread) in
  memory, derives self time, and writes Chrome trace-event JSON at the
  end of a run.  Used in the benchmark process.
* :class:`SharedTotals` keeps only per-layer call counts and seconds in
  an anonymous shared mapping, so forked pool workers of a traced
  daemon add to the same table without writing any file.
"""

from __future__ import annotations

import functools
import json
import mmap
import os
import threading
import time
from importlib import import_module

from common import check

#: (layer, module, attribute path) for every wrapped lookup site.  A path
#: ``Class.method`` patches a class attribute; ``NAME[key]`` patches one
#: entry of a module-level dict.
SITES = (
    ("build", "repro.dse.space", "datacenter_design_point"),
    ("build", "repro.batch.substrate", "datacenter_design_point"),
    ("build", "repro.batch.substrate", "FAMILY_BUILDERS[datacenter]"),
    ("batch.estimate_points", "repro.batch.estimator",
     "BatchEstimator.estimate_points"),
    ("batch.classify", "repro.batch.estimator", "classify_point"),
    ("batch.substrate", "repro.batch.estimator", "substrate_for"),
    ("batch.kernels", "repro.batch.kernels", "estimate_grid"),
    ("batch.perf", "repro.batch.perf", "simulate_workloads"),
    ("sram", "repro.arch.memory", "optimize_sram"),
    ("cache.key_hash", "repro.arch.component", "stable_hash"),
    ("cache.key_hash", "repro.integrity.diagnostics", "stable_hash"),
    ("cache.key_hash", "repro.batch.estimator", "stable_hash"),
    ("integrity.validate", "repro.dse.engine", "validate_result"),
    ("journal.append", "repro.dse.journal", "Journal.append"),
    ("perf.simulate", "repro.perf.simulator", "Simulator.run"),
    ("pareto.front", "repro.dse.pareto", "pareto_front"),
    ("engine.sweep", "repro.dse.engine", "run_sweep"),
    ("engine.sweep", "repro.serve.app", "run_sweep"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in SITES))


def _owner_and_key(module_name: str, path: str):
    owner = import_module(module_name)
    if "[" in path:
        name, key = path[:-1].split("[")
        return getattr(owner, name), key
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    if not hasattr(owner, attr):
        raise AttributeError(f"{module_name}.{path} no longer exists")
    return owner, attr


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def _wrap(sink, layer: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        token = sink.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            sink.exit(token)

    return traced


def install(sink) -> list:
    """Wrap every site in :data:`SITES`; returns the undo list.

    Raises ``AttributeError`` when a site is gone, so a renamed function
    fails the traced run instead of silently reading zero.
    """
    undo = []
    try:
        for layer, module_name, path in SITES:
            owner, key = _owner_and_key(module_name, path)
            original = _get(owner, key)
            _set(owner, key, _wrap(sink, layer, original))
            undo.append((owner, key, original))
    except Exception:
        uninstall(undo)
        raise
    return undo


def uninstall(undo: list) -> None:
    for owner, key, original in reversed(undo):
        _set(owner, key, original)
    undo.clear()


class Tracer:
    """In-memory spans; one list for the whole process."""

    def __init__(self) -> None:
        #: [layer, start, end, parent index or -1, thread id]
        self.spans: list = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        span = [layer, time.perf_counter(), None, parent,
                threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def summary(self, start: float, end: float) -> dict:
        """Per-layer calls, inclusive and self seconds, and coverage.

        Only spans that begin inside ``[start, end]`` count.  Self time
        is a span's duration minus its direct children's durations;
        coverage is the share of the window inside top-level spans.
        """
        layers = {
            layer: {"calls": 0, "s": 0.0, "self_s": 0.0} for layer in LAYERS
        }
        child_s: dict = {}
        chosen = []
        for index, (layer, s0, s1, parent, _) in enumerate(self.spans):
            if s1 is None or not start <= s0 <= end:
                continue
            chosen.append(index)
            if parent >= 0:
                child_s[parent] = child_s.get(parent, 0.0) + (s1 - s0)
        top = []
        for index in chosen:
            layer, s0, s1, parent, _ = self.spans[index]
            entry = layers.setdefault(
                layer, {"calls": 0, "s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["s"] += s1 - s0
            entry["self_s"] += (s1 - s0) - child_s.get(index, 0.0)
            if parent < 0:
                top.append((s0, s1))
        covered = 0.0
        reach = start
        for s0, s1 in sorted(top):
            s0, s1 = max(s0, reach), min(s1, end)
            if s1 > s0:
                covered += s1 - s0
                reach = s1
        window = end - start
        return {
            "layers": layers,
            "coverage_pct": 100.0 * covered / window if window > 0 else 0.0,
        }

    def write_chrome(self, path: str, metadata: dict) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto opens it)."""
        origin = min((s[1] for s in self.spans), default=0.0)
        threads: dict = {}
        events = []
        for index, (layer, s0, s1, parent, tid) in enumerate(self.spans):
            if s1 is None:
                continue
            events.append({
                "name": layer,
                "ph": "X",
                "ts": (s0 - origin) * 1e6,
                "dur": (s1 - s0) * 1e6,
                "pid": 1,
                "tid": threads.setdefault(tid, len(threads)),
                "args": {"span": index, "parent": parent},
            })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "metadata": metadata}, handle)


class SharedTotals:
    """Per-layer (calls, seconds) shared across fork.

    Each process adds into its own row, chosen by pid, of an anonymous
    ``MAP_SHARED`` mapping created before the pool forks; readers sum the
    rows.  The per-process lock guards threads of one process and is
    replaced in every forked child, where a copy held mid-fork would
    never be released.
    """

    ROWS = 4096

    def __init__(self) -> None:
        self.layers = LAYERS
        self._index = {layer: i for i, layer in enumerate(self.layers)}
        self._width = 2 * len(self.layers)
        self._map = mmap.mmap(-1, self.ROWS * self._width * 8)
        self._cells = memoryview(self._map).cast("d")
        self._lock = threading.Lock()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self._lock = threading.Lock()

    def enter(self, layer: str):
        return layer, time.perf_counter()

    def exit(self, token) -> None:
        layer, start = token
        elapsed = time.perf_counter() - start
        base = (os.getpid() % self.ROWS) * self._width
        base += 2 * self._index[layer]
        with self._lock:
            self._cells[base] += 1.0
            self._cells[base + 1] += elapsed

    def totals(self) -> dict:
        out = {layer: {"calls": 0, "s": 0.0} for layer in self.layers}
        for row in range(self.ROWS):
            base = row * self._width
            for i, layer in enumerate(self.layers):
                out[layer]["calls"] += int(self._cells[base + 2 * i])
                out[layer]["s"] += self._cells[base + 2 * i + 1]
        return out


SERVE_KEYS = (
    ("serve.point_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.overhead_ms_p99", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.worker_respawns", "count"),
    ("serve.retries", "count"),
    ("serve.non_200", "count"),
)


def layer_metrics(layers: dict, points: int, cache: dict,
                  overhead_pct: float, coverage_pct: float,
                  fallback_points: int = 0, serve: dict | None = None):
    """The full per-layer metric set; idle layers read 0.

    ``layers`` maps layer -> {"calls", "s"[, "self_s"]}; ``cache`` holds
    ``EstimateCache.stats`` deltas; ``serve`` the daemon-side figures.
    """
    def calls(layer):
        return layers[layer]["calls"]

    def secs(layer):
        return layers[layer]["s"]

    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    metrics = {
        "build.calls": (calls("build"), "count"),
        "build.s": (secs("build"), "s"),
        "build.calls_per_point": (
            calls("build") / points if points else 0.0, "calls/point"),
        "batch.classify_s": (secs("batch.classify"), "s"),
        "batch.kernels_s": (secs("batch.kernels"), "s"),
        "batch.perf_s": (secs("batch.perf"), "s"),
        "batch.substrate_s": (secs("batch.substrate"), "s"),
        "batch.estimator_self_s": (
            layers["batch.estimate_points"].get("self_s", 0.0), "s"),
        "sram.calls": (calls("sram"), "count"),
        "sram.s": (secs("sram"), "s"),
        "cache.key_hash_calls": (calls("cache.key_hash"), "count"),
        "cache.key_hash_s": (secs("cache.key_hash"), "s"),
        "cache.hits": (cache.get("hits", 0), "count"),
        "cache.misses": (cache.get("misses", 0), "count"),
        "cache.evictions": (cache.get("evictions", 0), "count"),
        "cache.hit_ratio": (
            cache.get("hits", 0) / lookups if lookups else 0.0, "ratio"),
        "integrity.validate_s": (secs("integrity.validate"), "s"),
        "journal.appends": (calls("journal.append"), "count"),
        "journal.append_s": (secs("journal.append"), "s"),
        "perf.simulate_s": (secs("perf.simulate"), "s"),
        "pareto.front_s": (secs("pareto.front"), "s"),
        "engine.sweep_s": (secs("engine.sweep"), "s"),
        "engine.fallback_points": (fallback_points, "count"),
    }
    for name, unit in SERVE_KEYS:
        metrics[name] = ((serve or {}).get(name, 0), unit)
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    metrics["trace.coverage_pct"] = (coverage_pct, "%")
    return metrics


def require_calls(layers: dict, required) -> None:
    """Every layer named for this workload must have been called."""
    silent = [layer for layer in required if layers[layer]["calls"] == 0]
    check(not silent, f"wrapped layers saw no calls: {silent}")


def untraced_then_traced(op):
    """Run ``op`` plainly, then again under a :class:`Tracer`.

    Returns ``(plain, plain_s, traced, traced_s, summary, cache, tracer)``
    where ``cache`` is the estimate-cache stats delta of the traced pass.
    """
    from repro.cache import get_estimate_cache

    start = time.perf_counter()
    plain = op()
    plain_s = time.perf_counter() - start
    tracer = Tracer()
    undo = install(tracer)
    try:
        stats = get_estimate_cache().stats.snapshot()
        start = time.perf_counter()
        traced = op()
        end = time.perf_counter()
        cache = get_estimate_cache().stats.delta_since(stats)
    finally:
        uninstall(undo)
    summary = tracer.summary(start, end)
    return plain, plain_s, traced, end - start, summary, cache, tracer


def overhead_pct(plain_s: float, traced_s: float) -> float:
    return 100.0 * (traced_s - plain_s) / plain_s
