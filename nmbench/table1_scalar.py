"""``table1-scalar``: the scalar reference path, cold.

Recipe: the full 210-point Table I grid (``full_grid()``) in an order
shuffled by ``--seed``, at 28 nm / 0.7 GHz (``datacenter_context()``),
peak metrics only, ``backend="scalar"``, inline.  One op empties the
estimate cache, sweeps the grid, then models TPU-v1, TPU-v2 and Eyeriss
through their presets.  Ops run back to back (closed loop, one caller).

This path serves every vector fallback, ``/estimate`` and validation,
and the SRAM organization search dominates it while the ``batch`` layer
is idle.
"""

from __future__ import annotations

import random
import time

import tracing
from common import (
    OUT, check, fidelity, op_percentiles, p50, peak_rss_mib, timed_ops,
)
from repro.cache import get_estimate_cache
from repro.config.presets import datacenter_context
from repro.dse import engine
from repro.dse.space import full_grid

#: Layers that must see calls in a traced op of this workload.
TRACED_LAYERS = ("build", "sram", "cache.key_hash", "integrity.validate",
                 "engine.sweep")


def setup(seed: int) -> dict:
    points = full_grid()
    random.Random(seed).shuffle(points)
    return {"seed": seed, "points": points, "ctx": datacenter_context()}


def teardown(state: dict) -> None:
    pass


def _op(state: dict):
    get_estimate_cache().clear()
    start = time.perf_counter()
    report = engine.run_sweep(state["points"], ctx=state["ctx"],
                              backend="scalar")
    sweep_s = time.perf_counter() - start
    return report, sweep_s, fidelity()


def _rows(report) -> list:
    return [
        [r.point.x, r.point.n, r.point.tx, r.point.ty, r.status,
         r.result.area_mm2 if r.result else None,
         r.result.tdp_w if r.result else None,
         r.result.peak_tops if r.result else None]
        for r in report.records
    ]


def _summary(report) -> dict:
    return {
        "rows": _rows(report),
        "latencies": [r.wall_time_s * 1e3 for r in report.records],
        "failed": sum(r.status != "ok" for r in report.records),
    }


def run(state: dict, seconds: float, trace: bool) -> dict:
    n = len(state["points"])
    if trace:
        (plain, _, _), plain_s, (traced, _, _), traced_s, summary, cache, \
            tracer = tracing.untraced_then_traced(lambda: _op(state))
        check(_rows(plain) == _rows(traced),
              "traced sweep differs from the untraced sweep")
        tracing.require_calls(summary["layers"], TRACED_LAYERS)
        tracer.write_chrome(
            str(OUT / f"trace-table1-scalar-{state['seed']}.json"),
            {"workload": "table1-scalar", "seed": state["seed"]})
        summaries = [_summary(plain), _summary(traced)]
        metrics = tracing.layer_metrics(
            summary["layers"], n, cache,
            tracing.overhead_pct(plain_s, traced_s),
            summary["coverage_pct"])
    else:
        done, last = timed_ops(lambda: _op(state), seconds,
                               lambda result: {**_summary(result[0]),
                                               "sweep_s": result[1]})
        rss = peak_rss_mib()
        reference = done[0][0]["rows"]
        for summary, _ in done[1:]:
            check(summary["rows"] == reference,
                  "repeated cold sweeps of one grid differ")
        get_estimate_cache().clear()
        vector = _rows(engine.run_sweep(state["points"], ctx=state["ctx"],
                                        backend="vector"))
        agree = sum(a == b for a, b in zip(reference, vector))
        check(agree == n, f"{n - agree} of {n} scalar rows differ from the "
              "vector backend")
        latency_p50, latency_p90 = op_percentiles(
            [summary["latencies"] for summary, _ in done])
        sweep_s = [summary["sweep_s"] for summary, _ in done]
        summaries = [summary for summary, _ in done]
        metrics = {
            "points_per_s": (n / p50(sweep_s), "1/s"),
            "estimate_p90_ms": (latency_p90, "ms"),
            "peak_rss_mib": (rss, "MiB"),
            "scalar_agree_pct": (100.0 * agree / n, "%"),
            "fidelity_max_err_pct": (last[2], "%"),
        }
    failed = sum(summary["failed"] for summary in summaries)
    check(failed == 0, f"{failed} Table I points did not evaluate ok")
    attempted = (n + 3) * len(summaries)
    notes = {"ops": len(summaries)}
    if not trace:
        metrics["success_pct"] = (
            100.0 * (attempted - failed) / attempted, "%")
        notes["estimate_p50_ms"] = f"{latency_p50:.3f}"
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "notes": notes}
