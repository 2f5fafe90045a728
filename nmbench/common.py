"""Helpers shared by the nmbench workloads."""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.config.presets import (
    eyeriss, eyeriss_context, tpu_v1, tpu_v1_context, tpu_v2,
    tpu_v2_context,
)
from repro.errors import ValidationError
from repro.validation.compare import assert_within, validate_chip
from repro.validation.published import (
    CLAIMED_ERROR_BANDS, EYERISS, TPU_V1, TPU_V2,
)

NMBENCH = Path(__file__).resolve().parent
ROOT = NMBENCH.parent
SRC = ROOT / "src"
#: Journals, daemon logs and Chrome traces land here, inside the checkout.
OUT = ROOT / ".nmbench"

#: Fresh-process set-ups timed per run, half before and half after the
#: timed region; ``setup_s`` is their median.
SETUP_PROBES = 8


class CheckFailed(Exception):
    """A hard correctness check failed; the run exits 1 with no result."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def digest(value) -> str:
    """SHA-256 of canonical JSON; floats keep every digit (``repr``)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def p50(values) -> float:
    return statistics.median(values)


def percentile(values, q: int) -> float:
    """The ``q``-th percentile (inclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_percentiles(latencies_per_op) -> tuple[float, float]:
    """Median over ops of each op's p50 and p90 per-point latency.

    One op disturbed by the machine then does not set the figure.
    """
    return (p50([p50(op) for op in latencies_per_op]),
            p50([percentile(op, 90) for op in latencies_per_op]))


def fast_quartile(values, better: str = "lower") -> float:
    """The quartile of ``values`` on the better side (q1, or q3 if higher).

    For samples that do not repeat the same work (serve windows differ in
    which cold points they hold), where a minimum would pick the cheapest
    work rather than the least-disturbed time.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1 if better == "lower" else q3


def peak_rss_mib(pid: int | None = None) -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    status = Path(f"/proc/{pid or os.getpid()}/status")
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {status}")


def timed_ops(op, seconds: float, summarize, min_ops: int = 2):
    """Run ``op`` back to back for about ``seconds``; at least ``min_ops``.

    Another op starts only if the last one would still end inside the
    window, so a run measures ``seconds`` without a long overshoot.  Each
    result is reduced by ``summarize`` and dropped before the next op, so
    peak memory does not grow with the number of ops.  Returns
    ``([(summarize(result), wall_s), ...], last_result)``.
    """
    done = []
    start = time.perf_counter()
    while True:
        result = None
        t0 = time.perf_counter()
        result = op()
        wall = time.perf_counter() - t0
        done.append((summarize(result), wall))
        elapsed = time.perf_counter() - start
        if len(done) >= min_ops and elapsed + wall > seconds:
            return done, result


def setup_samples(workload: str, seed: int, probes: int) -> list:
    """Wall times from process start until the first timed call.

    Each probe is a fresh interpreter running the workload's set-up
    (imports, input generation, a daemon for ``serve-estimate``); it
    prints ``ready`` where the timed region would begin, then tears down.
    """
    samples = []
    for _ in range(probes):
        start = time.perf_counter()
        probe = subprocess.Popen(
            [sys.executable, str(NMBENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = probe.stdout.readline().strip()
            samples.append(time.perf_counter() - start)
            probe.stdout.read()
        finally:
            probe.stdout.close()
            code = probe.wait(timeout=60)
        check(line == "ready" and code == 0,
              f"set-up probe for {workload} failed (exit {code})")
    return samples


def fidelity():
    """Largest |error| (%) of TPU-v1/v2 area and TDP and Eyeriss area.

    Each chip must also sit inside the paper's claimed validation band
    (EXPERIMENTS.md); a chip outside its band fails the run.
    """
    errors = []
    for chip, ctx, published in (
        (tpu_v1, tpu_v1_context, TPU_V1),
        (tpu_v2, tpu_v2_context, TPU_V2),
        (eyeriss, eyeriss_context, EYERISS),
    ):
        report = validate_chip(chip(), ctx(), published)
        band = CLAIMED_ERROR_BANDS[published.name]
        try:
            assert_within(report, band["area"], band.get("tdp"))
        except ValidationError as error:
            raise CheckFailed(str(error)) from error
        errors.append(abs(report.area_error))
        if report.tdp_error is not None:
            errors.append(abs(report.tdp_error))
    return 100.0 * max(errors)


def emit(attempted: int, failed: int, metrics: dict, notes: dict) -> None:
    """Print a readable table, then the one-line JSON result last.

    Only runs whose hard checks all passed get here, so ``correct`` is
    true; a failed check exits before printing a result.
    """
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:16.6f} {unit}")
    for name, value in notes.items():
        print(f"{name:28s} {value}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
