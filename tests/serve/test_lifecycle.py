"""The daemon as a real subprocess: boot, signals, drain, orphan hygiene.

These tests exercise the actual ``python -m repro serve`` entry point —
signal handlers, the ready line on stderr, exit codes, and the PDEATHSIG
contract that no forked pool worker survives its parent.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.dse.journal import load_journal
from repro.serve.client import ServeClient

REPO = Path(__file__).resolve().parents[2]
READY_PREFIX = "neurometer serve: listening on "


class Daemon:
    """A ``neurometer serve`` subprocess with its stderr streamed."""

    def __init__(self, *extra_args: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "1", *extra_args],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=str(REPO),
        )
        self.stderr_lines: list[str] = []
        self._reader = threading.Thread(target=self._drain_stderr,
                                        daemon=True)
        self._reader.start()

    def _drain_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr_lines.append(line.rstrip("\n"))

    def url(self, timeout_s: float = 60.0) -> str:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            for line in list(self.stderr_lines):
                if READY_PREFIX in line:
                    return line.split(READY_PREFIX, 1)[1].strip()
            if self.proc.poll() is not None:
                raise AssertionError(
                    "daemon exited before becoming ready:\n"
                    + "\n".join(self.stderr_lines)
                )
            time.sleep(0.05)
        raise AssertionError("daemon never printed its ready line")

    def client(self, **kwargs) -> ServeClient:
        return ServeClient(self.url(), **kwargs)

    def wait(self, timeout_s: float = 60.0) -> int:
        code = self.proc.wait(timeout=timeout_s)
        self._reader.join(timeout=5)
        return code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)


@pytest.fixture
def daemon_factory():
    daemons: list[Daemon] = []

    def boot(*extra_args: str) -> Daemon:
        daemon = Daemon(*extra_args)
        daemons.append(daemon)
        return daemon

    yield boot
    for daemon in daemons:
        daemon.kill()


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _wait_dead(pids: list[int], timeout_s: float = 30.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if not any(_pid_alive(pid) for pid in pids):
            return True
        time.sleep(0.05)
    return False


def test_boot_status_sigterm_exits_zero(daemon_factory):
    daemon = daemon_factory()
    client = daemon.client()
    status = client.wait_healthy(timeout_s=30.0)
    assert status["state"] == "serving"
    daemon.proc.send_signal(signal.SIGTERM)
    assert daemon.wait() == 0
    assert any("draining" in line for line in daemon.stderr_lines)
    assert any("drained, exiting" in line
               for line in daemon.stderr_lines)


@pytest.mark.parametrize("signame", ["SIGTERM", "SIGINT"])
def test_no_orphaned_workers_after_signal(daemon_factory, signame):
    daemon = daemon_factory()
    client = daemon.client(deadline_s=300.0)
    client.wait_healthy(timeout_s=30.0)
    # Force the pool to fork workers, then read their PIDs.
    client.estimate([64, 2, 2, 4])
    pids = client.status()["pool"]["worker_pids"]
    assert pids and all(_pid_alive(pid) for pid in pids)
    daemon.proc.send_signal(getattr(signal, signame))
    assert daemon.wait() == 0
    assert _wait_dead(pids), f"workers {pids} survived parent {signame}"


def test_no_orphaned_workers_after_sigkill(daemon_factory):
    """Even an unclean parent death reaps workers, via PDEATHSIG."""
    daemon = daemon_factory()
    client = daemon.client(deadline_s=300.0)
    client.wait_healthy(timeout_s=30.0)
    client.estimate([64, 2, 2, 4])
    pids = client.status()["pool"]["worker_pids"]
    assert pids
    daemon.proc.kill()  # SIGKILL: no drain, no atexit, no finally
    daemon.proc.wait(timeout=30)
    assert _wait_dead(pids), f"workers {pids} survived parent SIGKILL"


def test_sigterm_mid_sweep_checkpoints_journal(daemon_factory, tmp_path):
    journal_dir = tmp_path / "journals"
    journal_dir.mkdir()
    daemon = daemon_factory(
        "--journal-dir", str(journal_dir),
        "--request-log", str(tmp_path / "requests.jsonl"),
        "--drain-grace-s", "60",
    )
    client = daemon.client(timeout_s=300.0)
    client.wait_healthy(timeout_s=30.0)
    # Real model evaluations: distinct points so every journal line is
    # honest work, enough of them that the drain lands mid-sweep.
    points = [[4 * (i + 1), 1, 2, 2] for i in range(24)]
    outcome: dict = {}

    def run_sweep_request():
        try:
            outcome["payload"] = client.sweep(
                points, journal="mid-sweep.jsonl"
            )
        except Exception as error:  # recorded for the assertions below
            outcome["error"] = error

    thread = threading.Thread(target=run_sweep_request, daemon=True)
    thread.start()
    # Wait for the first *point* line (the journal opens with a header
    # line, which proves nothing has finished yet).
    journal_path = journal_dir / "mid-sweep.jsonl"
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if journal_path.exists():
            complete_lines = journal_path.read_bytes().count(b"\n")
            if complete_lines >= 2:
                break
        time.sleep(0.05)
    else:
        raise AssertionError("sweep never journaled a point")

    daemon.proc.send_signal(signal.SIGTERM)
    assert daemon.wait(timeout_s=120.0) == 0
    thread.join(timeout=30)

    # The journal parses cleanly and holds only finished points; a resume
    # would re-run the remainder.  (The sweep may also have finished just
    # before the signal landed — then every point is present.)
    entries = load_journal(journal_path)
    assert 0 < len(entries) <= len(points)
    seen = {tuple([e.point.x, e.point.n, e.point.tx, e.point.ty])
            for e in entries}
    assert seen <= {tuple(p) for p in points}

    if "error" in outcome:
        error = outcome["error"]
        payload = getattr(error, "payload", {})
        assert payload.get("resumable") is True
        assert payload.get("journal") == "mid-sweep.jsonl"
    else:
        assert outcome["payload"]["cancelled"] in (False, True)

    # The request log survived the drain and parses line by line.
    request_log = tmp_path / "requests.jsonl"
    for line in request_log.read_text().splitlines():
        json.loads(line)


def test_second_signal_skips_the_grace_window(daemon_factory, tmp_path):
    daemon = daemon_factory("--drain-grace-s", "600")
    client = daemon.client(timeout_s=300.0)
    client.wait_healthy(timeout_s=30.0)
    # Park a slow sweep so one request is in flight when the drain hits.
    points = [[4 * (i + 1), 1, 2, 2] for i in range(64)]

    def parked_sweep():
        try:
            client.request(
                "POST", "/sweep", {"points": points, "deadline_s": 600}
            )
        except Exception:
            # A severed connection is the expected fate of a request
            # abandoned by the forced teardown.
            return

    thread = threading.Thread(target=parked_sweep, daemon=True)
    thread.start()
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if client.status()["admission"]["inflight"] > 0:
            break
        time.sleep(0.05)
    daemon.proc.send_signal(signal.SIGTERM)
    time.sleep(0.3)
    daemon.proc.send_signal(signal.SIGTERM)
    assert daemon.wait(timeout_s=60.0) == 0


def test_forced_teardown_prints_no_callback_tracebacks(daemon_factory):
    """A cancelled connection handler must not end its task cancelled.

    The second signal lands 20 ms after the first, while a ``/sweep`` is
    still in flight, so the loop teardown cancels its handler.
    """
    daemon = daemon_factory("--drain-grace-s", "600")
    client = daemon.client(timeout_s=300.0)
    client.wait_healthy(timeout_s=30.0)
    points = [[4 * (i + 1), 1, 2, 2] for i in range(64)]

    def parked_sweep():
        try:
            client.request(
                "POST", "/sweep", {"points": points, "deadline_s": 600}
            )
        except Exception:
            # The forced teardown severs this request's connection.
            return

    thread = threading.Thread(target=parked_sweep, daemon=True)
    thread.start()
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if client.status()["admission"]["inflight"] > 0:
            break
        time.sleep(0.02)
    daemon.proc.send_signal(signal.SIGTERM)
    time.sleep(0.02)
    daemon.proc.send_signal(signal.SIGTERM)
    assert daemon.wait(timeout_s=60.0) == 0
    stderr = "\n".join(daemon.stderr_lines)
    assert "Exception in callback" not in stderr, stderr
    assert "Traceback" not in stderr, stderr


def test_sighup_reloads_live_safe_config(daemon_factory, tmp_path):
    """kill -HUP swaps deadlines/admission bounds without a restart.

    The daemon is booted with ``--reload-config``; rewriting the file
    and sending SIGHUP must (a) apply the reloadable keys, (b) ignore
    restart-only keys like ``port``, (c) keep the warm estimate cache,
    and (d) journal a ``/-/config-reload`` event to the request log.
    """
    reload_file = tmp_path / "reload.json"
    reload_file.write_text(json.dumps({}))
    log_path = tmp_path / "requests.jsonl"
    daemon = daemon_factory(
        "--max-inflight", "8",
        "--reload-config", str(reload_file),
        "--request-log", str(log_path),
    )
    client = daemon.client()
    assert client.status()["admission"]["max_inflight"] == 8

    # Warm the estimate cache so we can prove the reload keeps it.
    client.estimate([32, 4, 2, 2])
    stores_before = client.status()["cache"]["stores"]
    assert stores_before > 0

    reload_file.write_text(json.dumps({
        "max_inflight": 3,
        "deadline_s": 17.5,
        "port": 9999,  # restart-only: must be reported as ignored
    }))
    daemon.proc.send_signal(signal.SIGHUP)

    deadline = time.monotonic() + 30.0
    status = None
    while time.monotonic() < deadline:
        status = client.status()
        if status["admission"]["max_inflight"] == 3:
            break
        time.sleep(0.05)
    assert status is not None \
        and status["admission"]["max_inflight"] == 3, (
            "SIGHUP never applied the new admission bound:\n"
            + "\n".join(daemon.stderr_lines)
        )
    # The warm cache survived the reload (no restart happened).
    assert status["cache"]["stores"] == stores_before
    # The daemon still answers estimates afterwards.
    payload = client.estimate([32, 4, 2, 2])
    assert payload["status"] == "ok"
    assert any("config reloaded" in line for line in daemon.stderr_lines)

    client.drain()
    assert daemon.wait() == 0
    events = [
        json.loads(line)
        for line in log_path.read_text().splitlines()
        if line.strip()
    ]
    reloads = [
        e for e in events
        if e.get("kind") == "request"
        and e.get("endpoint") == "/-/config-reload"
    ]
    assert len(reloads) == 1
    detail = reloads[0]["detail"]
    assert detail["changed"]["max_inflight"] == [8, 3]
    assert detail["changed"]["deadline_s"] == [60.0, 17.5]
    assert "port" in detail["ignored"]


def test_sighup_with_bad_reload_file_keeps_serving(daemon_factory,
                                                  tmp_path):
    """A malformed reload file changes nothing and kills nobody."""
    reload_file = tmp_path / "reload.json"
    reload_file.write_text("{not json")
    daemon = daemon_factory("--max-inflight", "8",
                            "--reload-config", str(reload_file))
    client = daemon.client()
    daemon.proc.send_signal(signal.SIGHUP)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if any("reload" in line and "failed" in line
               for line in daemon.stderr_lines):
            break
        time.sleep(0.05)
    else:
        raise AssertionError("daemon never reported the failed reload")
    status = client.status()
    assert status["admission"]["max_inflight"] == 8
    assert daemon.proc.poll() is None  # still alive


def test_sighup_without_reload_config_is_ignored(daemon_factory):
    """SIGHUP on a daemon booted without --reload-config is a no-op."""
    daemon = daemon_factory()
    client = daemon.client()
    daemon.proc.send_signal(signal.SIGHUP)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if any("no --reload-config" in line
               for line in daemon.stderr_lines):
            break
        time.sleep(0.05)
    else:
        raise AssertionError("daemon never acknowledged the SIGHUP")
    assert client.status()["state"] == "serving"
    assert daemon.proc.poll() is None
