"""Run ``neurometer serve`` with the nmbench layer wrappers installed.

    python3 nmbench/daemon.py TOTALS.json serve --port 8757

Used only by traced ``serve-estimate`` runs.  The wrappers go in before
the daemon forks its pool, so the workers inherit them and add their
calls to the same shared table; when the daemon drains and exits, the
per-layer totals are written to ``TOTALS.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402


def main() -> int:
    totals_path, argv = sys.argv[1], sys.argv[2:]
    totals = tracing.SharedTotals()
    tracing.install(totals)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        Path(totals_path).write_text(json.dumps(totals.totals()))


if __name__ == "__main__":
    sys.exit(main())
