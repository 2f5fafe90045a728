"""``expanded-frontier``: time to an exact Pareto frontier, vector path.

Recipe: 4,000 distinct points of ``SpaceAxes.expanded()`` (1,040,384
points), one fixed draw whose last point is the ROADMAP sentinel
``DesignPoint(92, 2, 27, 9)``; ``--seed`` shuffles the order of the
others and picks the scalar oracle sample.  Every point runs at
28 nm / 0.7 GHz (Table I) and at 20 nm / 3.0 GHz (an interpolated node)
through ``run_sweep(backend="auto")`` with the ``resnet`` workload at
batch ``"latency-bound"`` and one JSONL journal per context, as
``docs/robust_sweeps.md`` shows.  Each context ends in
``pareto_front`` over (area, TDP, achieved TOPS), fed the ``ok`` rows in
point order.  One op empties the estimate cache first; ops run back to
back (closed loop, one caller).

The 8,000 rows overflow the 4,096-entry estimate cache, so it evicts
on every op; point build, classification, the array kernels, the
batched perf layer and the journal fsync carry the time, and the scalar
SRAM search is almost idle.
"""

from __future__ import annotations

import os
import random

import tracing
from common import (
    OUT, check, digest, fidelity, op_percentiles, p50, peak_rss_mib,
    timed_ops,
)
from repro.arch.component import ModelContext
from repro.cache import get_estimate_cache
from repro.config.presets import datacenter_context
from repro.dse import engine, pareto
from repro.dse.journal import load_journal
from repro.dse.space import DesignPoint, SpaceAxes
from repro.tech.node import node
from repro.workloads import resnet50

POINTS = 4000
SENTINEL = DesignPoint(92, 2, 27, 9)
#: Points per context re-run on the scalar backend for the mismatch
#: ledger (the sentinel comes on top, in the 20 nm context).
ORACLE_PER_CONTEXT = 100
TRACED_LAYERS = (
    "build", "batch.estimate_points", "batch.classify", "batch.substrate",
    "batch.kernels", "batch.perf", "cache.key_hash", "integrity.validate",
    "journal.append", "pareto.front", "engine.sweep",
)
OBJECTIVES = (
    lambda r: -r.metrics["area_mm2"],
    lambda r: -r.metrics["tdp_w"],
    lambda r: sum(o["achieved_tops"] for o in r.metrics["outcomes"]),
)


def setup(seed: int) -> dict:
    axes = SpaceAxes.expanded()
    _, n_count, g_count = axes.axis_sizes()
    # One fixed point set, in a seeded order: the front's size, and with
    # it the quadratic cost of ``pareto_front``, is the same for every
    # seed, so the seed does not move the time to the front.
    points = []
    for index in random.Random(0).sample(range(axes.size), POINTS):
        point = axes.point_at(index // (n_count * g_count),
                              (index // g_count) % n_count,
                              index % g_count)
        if point != SENTINEL:
            points.append(point)
    points = points[:POINTS - 1]
    random.Random(seed).shuffle(points)
    points.append(SENTINEL)
    return {
        "seed": seed,
        "points": points,
        "contexts": (datacenter_context(),
                     ModelContext(tech=node(20.0), freq_ghz=3.0)),
        "workloads": (("resnet", resnet50()),),
        "journals": [str(OUT / f"frontier-{seed}-{k}.jsonl")
                     for k in range(2)],
    }


def teardown(state: dict) -> None:
    for path in state["journals"]:
        if os.path.exists(path):
            os.remove(path)


def _op(state: dict) -> list:
    get_estimate_cache().clear()
    out = []
    for ctx, journal in zip(state["contexts"], state["journals"]):
        if os.path.exists(journal):
            os.remove(journal)
        report = engine.run_sweep(
            state["points"], state["workloads"], ["latency-bound"], ctx,
            backend="auto", journal_path=journal)
        # Rows go to the front in point order: the cost of its scan
        # depends on the order, and the seeded sweep order would move it.
        ok = sorted((r for r in report.records if r.status == "ok"),
                    key=_key)
        front = pareto.pareto_front(ok, OBJECTIVES)
        out.append((report, front))
    return out


def _key(record) -> list:
    return [record.point.x, record.point.n, record.point.tx, record.point.ty]


def _rows(report) -> list:
    return [[_key(r), r.status, r.metrics] for r in report.records]


def _digest(result) -> str:
    return digest([[_rows(report), [_key(r) for r in front]]
                   for report, front in result])


def _failed(result) -> int:
    # In ``auto`` a failed row was re-run on the scalar path (``fallback``
    # names why), so its failure is the reference answer; anything else
    # failing is a fault of the run.
    return sum(r.status == "failed" and r.fallback is None
               for report, _ in result for r in report.records)


def _check_journals(state: dict, result) -> None:
    for journal, (report, _) in zip(state["journals"], result):
        entries = load_journal(journal)
        check([[_key(e), e.status, e.metrics] for e in entries]
              == _rows(report), f"{journal} does not reload to the rows")


def _scalar_mismatches(state: dict, result) -> tuple[int, int]:
    """Count sampled ``auto`` rows that differ from scalar rows."""
    rng = random.Random(state["seed"] + 1)
    mismatches = rows = 0
    for k, (ctx, (report, _)) in enumerate(zip(state["contexts"], result)):
        by_point = {r.point: r for r in report.records}
        sample = rng.sample(state["points"][:-1], ORACLE_PER_CONTEXT)
        if k == 1:
            sample.append(SENTINEL)
        scalar = engine.run_sweep(sample, state["workloads"],
                                  ["latency-bound"], ctx, backend="scalar",
                                  jobs=2)
        for record in scalar.records:
            mine = by_point[record.point]
            rows += 1
            if (mine.status, mine.metrics) != (record.status,
                                               record.metrics):
                mismatches += 1
    return mismatches, rows


def _summary(result) -> dict:
    return {
        "digest": _digest(result),
        "latencies": [r.wall_time_s * 1e3 for report, _ in result
                      for r in report.records],
        "failed": _failed(result),
        "fronts": [len(front) for _, front in result],
    }


def run(state: dict, seconds: float, trace: bool) -> dict:
    n = 2 * len(state["points"])
    if trace:
        plain, plain_s, last, traced_s, summary, cache, tracer = \
            tracing.untraced_then_traced(lambda: _op(state))
        summaries = [_summary(plain), _summary(last)]
        tracing.require_calls(summary["layers"], TRACED_LAYERS)
        tracer.write_chrome(
            str(OUT / f"trace-expanded-frontier-{state['seed']}.json"),
            {"workload": "expanded-frontier", "seed": state["seed"]})
        fallbacks = sum(r.fallback is not None
                        for report, _ in last for r in report.records)
        metrics = tracing.layer_metrics(
            summary["layers"], n, cache,
            tracing.overhead_pct(plain_s, traced_s),
            summary["coverage_pct"], fallback_points=fallbacks)
    else:
        done, last = timed_ops(lambda: _op(state), seconds, _summary)
        rss = peak_rss_mib()
        summaries = [summary for summary, _ in done]
    for summary in summaries[1:]:
        check(summary["digest"] == summaries[0]["digest"],
              "two runs of one seed gave different rows or fronts")
    _check_journals(state, last)
    failed = sum(summary["failed"] for summary in summaries)
    attempted = n * len(summaries)
    notes = {"ops": len(summaries), "front_sizes": summaries[0]["fronts"]}
    if not trace:
        mismatches, rows = _scalar_mismatches(state, last)
        latency_p50, latency_p90 = op_percentiles(
            [summary["latencies"] for summary in summaries])
        metrics = {
            "points_per_s": (n / p50([wall for _, wall in done]), "1/s"),
            "estimate_p90_ms": (latency_p90, "ms"),
            "peak_rss_mib": (rss, "MiB"),
            "scalar_agree_pct": (100.0 * (rows - mismatches) / rows, "%"),
            "fidelity_max_err_pct": (fidelity(), "%"),
            "success_pct": (100.0 * (attempted - failed) / attempted, "%"),
        }
        notes["scalar_mismatches"] = f"{mismatches} of {rows} sampled rows"
        notes["estimate_p50_ms"] = f"{latency_p50:.3f}"
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "notes": notes}
