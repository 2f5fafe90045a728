#!/usr/bin/env python3
"""Repository benchmark: one workload per run, in a fresh process.

    python3 nmbench/run.py --workload table1-scalar --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass.  The last line of standard output is one JSON
object (``correct``, ``attempted``, ``failed``, ``metrics``).  A failed
hard correctness check prints its reason on standard error and exits 1.
See ``nmbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import importlib
import os
import signal
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = {
    "table1-scalar": "table1_scalar",
    "expanded-frontier": "expanded_frontier",
    "serve-estimate": "serve_estimate",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # The program under test must see its defaults, not the caller's
    # cache or seed settings.
    for key in [k for k in os.environ if k.startswith("NEUROMETER_")]:
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))
    # SIGTERM unwinds through every ``finally``, so daemons are reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    from common import OUT, SETUP_PROBES, CheckFailed, emit, setup_samples

    workload = importlib.import_module(WORKLOADS[args.workload])
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        state = workload.setup(args.seed)
        try:
            print("ready", flush=True)
        finally:
            workload.teardown(state)
        return 0

    try:
        # Probes on both sides of the timed region, so that ``setup_s``
        # spans the run rather than one moment of a shared host.
        probes = 0 if args.trace else SETUP_PROBES // 2
        samples = setup_samples(args.workload, args.seed, probes)
        state = workload.setup(args.seed)
        try:
            outcome = workload.run(state, args.seconds, bool(args.trace))
        finally:
            workload.teardown(state)
        samples += setup_samples(args.workload, args.seed, probes)
    except CheckFailed as error:
        print(f"{args.workload}: hard check failed: {error}",
              file=sys.stderr)
        return 1
    metrics = outcome["metrics"]
    if not args.trace:
        metrics = {"setup_s": (statistics.median(samples), "s"), **metrics}
    emit(outcome["attempted"], outcome["failed"], metrics,
         outcome.get("notes", {}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
