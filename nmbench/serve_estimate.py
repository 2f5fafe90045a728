"""``serve-estimate``: ``/estimate`` round trips against the daemon.

Recipe: ``neurometer serve`` runs as a subprocess with default settings
except an ephemeral port.  ``--seed`` picks a hot set of 20 Table I
points and a request stream:

* 60% a hot point, peak metrics only (the hot set takes 3 random grid
  points per TU length, then keeps 20 of those 21);
* 30% a fresh point of ``SpaceAxes.expanded()`` (a cold miss, which
  runs the scalar SRAM search in a pool worker);
* 10% a hot point with ``workloads: ["resnet"]`` at batch 8.

The mix holds exactly in every block of ten requests, in a seeded order
within the block.  Each hot key is requested once, untimed, before the
timed stream.  Closed loop: one ``ServeClient`` in the benchmark
process, which sends its next request only after the previous reply
(the daemon and its pool workers share the box's 2 cores with it).  A
run sends requests for ``--seconds`` and at least 1,000, so the p99 it
prints has at least 10 samples beyond it.

This is the only workload through ``serve`` (http, admission), the
pool's IPC, the cache's read path and the scalar ``perf.simulator``.
"""

from __future__ import annotations

import ctypes
import json
import os
import random
import signal
import socket
import subprocess
import sys
import time

import tracing
from common import (
    NMBENCH, OUT, ROOT, SRC, CheckFailed, check, digest, fast_quartile,
    fidelity, p50, peak_rss_mib, percentile,
)
from repro.dse import engine
from repro.dse.space import TU_LENGTHS, DesignPoint, SpaceAxes, full_grid
from repro.errors import ConfigurationError, RemoteError
from repro.serve.client import ServeClient
from repro.workloads import resnet50

HOT_POINTS = 20
#: Each block of ten requests holds the mix exactly, in a seeded order.
BLOCK = ("hot",) * 6 + ("cold",) * 3 + ("resnet",)
MIN_REQUESTS = 1000
#: Requests generated per seed; a run uses a prefix of them.
STREAM = 6000
#: Requests per session in a traced run (one untraced, one traced daemon).
TRACED_REQUESTS = 400
#: Cold answers re-checked against the in-process scalar oracle.
COLD_ORACLE = 40
BATCH = 8
#: Answers per window (20 whole blocks); figures are taken over windows.
WINDOW = 200
#: Daemon layers that must see calls in a traced session.
TRACED_LAYERS = ("build", "sram", "perf.simulate", "cache.key_hash",
                 "integrity.validate", "engine.sweep")
STOP_GRACE_S = 15.0


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    with socket.socket() as sock:
        sock.settimeout(0.5)
        if sock.connect_ex(("127.0.0.1", port)) == 0:
            raise CheckFailed(f"something already answers on port {port}")
    return port


def _die_with_parent() -> None:
    """``PR_SET_PDEATHSIG``: a killed benchmark leaves no daemon behind."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(1, signal.SIGKILL)


class Daemon:
    """One ``neurometer serve`` process group, always reaped."""

    def __init__(self, totals_path: str | None = None) -> None:
        self.port = _free_port()
        serve = ["serve", "--port", str(self.port)]
        if totals_path is None:
            argv = [sys.executable, "-m", "repro", *serve]
        else:
            argv = [sys.executable, str(NMBENCH / "daemon.py"), totals_path,
                    *serve]
        self.log_path = OUT / f"daemon-{self.port}.log"
        self.log = open(self.log_path, "w")
        launched = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, stdout=self.log, stderr=subprocess.STDOUT,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            start_new_session=True, preexec_fn=_die_with_parent)
        self.url = f"http://127.0.0.1:{self.port}"
        try:
            status = self._wait_ready()
            # A daemon left over from another run would answer warm.
            check(status["admission"]["admitted_total"] == 0
                  and status["uptime_s"]
                  <= time.perf_counter() - launched + 0.5,
                  f"the daemon on port {self.port} is not the one started")
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self) -> dict:
        client = ServeClient(self.url, timeout_s=5.0)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            check(self.proc.poll() is None,
                  f"daemon exited during start-up ({self.proc.returncode})")
            try:
                return client.status()
            except (ConfigurationError, RemoteError):
                time.sleep(0.01)
        raise CheckFailed("daemon did not answer /status within 60 s")

    def status(self) -> dict:
        return ServeClient(self.url, timeout_s=30.0).status()

    def stop(self) -> None:
        """SIGTERM, a bounded wait, then SIGKILL the whole group."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_GRACE_S)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        self.log.close()
        if self.proc.returncode == 0:
            os.remove(self.log_path)


def setup(seed: int) -> dict:
    rng = random.Random(seed)
    # Stratified by TU length, so every seed's hot set costs about the
    # same to serve and the seed moves the figures less than the box does.
    grid = full_grid()
    hot = [point for x in TU_LENGTHS for point in rng.sample(
        [p for p in grid if p.x == x], 3)]
    hot = rng.sample(hot, HOT_POINTS)
    axes = SpaceAxes.expanded()
    x_count, n_count, g_count = axes.axis_sizes()
    seen = set(hot)
    requests = []
    kinds = []
    while len(kinds) < STREAM:
        block = list(BLOCK)
        rng.shuffle(block)
        kinds.extend(block)
    for kind in kinds:
        if kind == "hot":
            point, body = rng.choice(hot), {}
        elif kind == "cold":
            point = None
            while point is None or point in seen:
                point = axes.point_at(rng.randrange(x_count),
                                      rng.randrange(n_count),
                                      rng.randrange(g_count))
            seen.add(point)
            body = {}
        else:
            point = rng.choice(hot)
            body = {"workloads": ["resnet"], "batch": BATCH}
        body["point"] = [point.x, point.n, point.tx, point.ty]
        requests.append(body)
    warm = [{"point": [p.x, p.n, p.tx, p.ty]} for p in hot]
    warm += [{**body, "workloads": ["resnet"], "batch": BATCH}
             for body in warm]
    state = {"seed": seed, "requests": requests, "hot": set(hot),
             "warm": warm}
    state["daemon"] = Daemon()
    return state


def teardown(state: dict) -> None:
    for daemon in (state.get("daemon"), state.get("traced_daemon")):
        if daemon is not None:
            daemon.stop()


def _session(daemon: Daemon, requests: list, seconds: float,
             min_requests: int, tracer=None) -> dict:
    """Closed loop: one client, each request sent after the last reply."""
    client = ServeClient(daemon.url, timeout_s=120.0)
    answers = []
    before = daemon.status()
    start = time.perf_counter()
    stop_at = start + seconds
    for body in requests:
        if len(answers) >= min_requests and time.perf_counter() >= stop_at:
            break
        span = tracer.enter("client.request") if tracer else None
        sent = time.perf_counter()
        try:
            status, payload = 200, client.request("POST", "/estimate", body)
        except RemoteError as error:
            status, payload = error.status, error.payload
        except ConfigurationError as error:
            status, payload = 0, {"error": str(error)}
        done_at = time.perf_counter()
        answers.append((status, payload, done_at - sent, done_at))
        if tracer:
            tracer.exit(span)
    end = time.perf_counter()
    rss = peak_rss_mib(daemon.proc.pid)
    after = daemon.status()
    return {"answers": answers, "start": start, "end": end,
            "rss": rss, "before": before, "after": after}


def _oracle_key(body: dict) -> tuple:
    return tuple(body["point"]), tuple(body.get("workloads", ()))


def _oracle(state: dict, answers: list) -> dict:
    """Check answers against an in-process scalar ``run_sweep``.

    Every hot answer, a seeded sample of cold answers and every answer
    that is not a 200 with status ``ok`` are checked.  A non-200, a
    degraded answer or a status other than the oracle's is a counted
    failure, unless the oracle fails the same way (the model's own
    answer).  A full 200 answer whose metrics differ is a wrong value:
    the run fails.  Returns the checked, agreeing and failed counts.
    """
    requests = state["requests"]
    cold = [i for i, body in enumerate(requests[:len(answers)])
            if DesignPoint(*body["point"]) not in state["hot"]]
    sample = set(random.Random(state["seed"] + 1).sample(
        cold, min(COLD_ORACLE, len(cold))))
    cold = set(cold)
    chosen = [i for i, (status, payload, _, _) in enumerate(answers)
              if i in sample or i not in cold or status != 200
              or payload.get("status") != "ok" or payload.get("degraded")]
    graphs = {"resnet": resnet50()}
    expected: dict = {}
    failures, wrong = [], []
    for index in chosen:
        body = requests[index]
        key = _oracle_key(body)
        if key not in expected:
            names = body.get("workloads", [])
            record = engine.run_sweep(
                [DesignPoint(*body["point"])],
                [(name, graphs[name]) for name in names],
                [body["batch"]] if names else [],
                backend="scalar").records[0]
            metrics = record.metrics
            check(json.loads(json.dumps(metrics)) == metrics,
                  f"oracle metrics of {key} do not round-trip through JSON")
            error = record.failure.error_type if record.failure else None
            expected[key] = (record.status, metrics, error)
        status, payload, _, _ = answers[index]
        want_status, want_metrics, want_error = expected[key]
        if status == 200 and payload.get("status") == want_status \
                and not payload.get("degraded"):
            if payload.get("metrics") == want_metrics:
                continue
            into = wrong
        elif status != 200 and want_status == "failed" \
                and payload.get("error") == want_error:
            continue
        else:
            into = failures
        into.append(f"request {index} {json.dumps(body)}: daemon answered "
                    f"{status} {json.dumps(payload)}, scalar oracle "
                    f"{want_status} {json.dumps(want_metrics)}")
    for description in failures[:3]:
        print(f"serve-estimate: failed answer: {description}",
              file=sys.stderr)
    check(not wrong, f"{len(wrong)} answers differ from the scalar oracle; "
          f"first: {wrong[0] if wrong else ''}")
    return {"checked": len(chosen), "failed": len(failures),
            "agreeing": len(chosen) - len(failures)}


def _windows(session: dict) -> list:
    """Answers in completion order, cut into windows of ``WINDOW``."""
    done = sorted((done_at, status, rtt)
                  for status, _, rtt, done_at in session["answers"])
    return [done[i:i + WINDOW]
            for i in range(0, len(done) - WINDOW + 1, WINDOW)]


def _window_figures(session: dict) -> dict:
    """Rate, p50 and p90 per window, each taken at its better quartile.

    Every window holds the mix exactly; the host is shared, and a few
    seconds of contention then move some windows, not the figure.
    """
    rates, medians, tails = [], [], []
    start = session["start"]
    for window in _windows(session):
        ok = sum(status == 200 for _, status, _ in window)
        rates.append(ok / (window[-1][0] - start))
        start = window[-1][0]
        latencies = [rtt * 1e3 for _, _, rtt in window]
        medians.append(p50(latencies))
        tails.append(percentile(latencies, 90))
    return {"rate": fast_quartile(rates, "higher"),
            "p50": fast_quartile(medians), "p90": fast_quartile(tails)}


def _answer_digest(answers: list) -> str:
    return digest([[status, payload.get("status"), payload.get("metrics"),
                    payload.get("error")]
                   for status, payload, _, _ in answers])


def _serve_layer(session: dict) -> dict:
    answers = session["answers"]
    ok = [(payload, rtt) for status, payload, rtt, _ in answers
          if status == 200]
    point_ms = [payload["wall_time_s"] * 1e3 for payload, _ in ok]
    overhead_ms = [(rtt - payload["wall_time_s"]) * 1e3
                   for payload, rtt in ok]
    before, after = session["before"], session["after"]
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    lookups = hits + after["cache"]["misses"] - before["cache"]["misses"]
    return {
        "serve.point_ms_p50": p50(point_ms),
        "serve.overhead_ms_p50": p50(overhead_ms),
        "serve.overhead_ms_p99": percentile(overhead_ms, 99),
        "serve.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "serve.worker_respawns": (after["pool"]["spawned_total"]
                                  - before["pool"]["spawned_total"]),
        "serve.retries": sum(payload.get("attempts", 1) - 1
                             for payload, _ in ok),
        "serve.non_200": sum(status != 200 for status, _, _, _ in answers),
    }


def _cache_delta(session: dict) -> dict:
    before, after = session["before"]["cache"], session["after"]["cache"]
    return {name: after[name] - before[name] for name in after}


def run(state: dict, seconds: float, trace: bool) -> dict:
    requests = state["requests"]
    if trace:
        batch = requests[:TRACED_REQUESTS]
        plain = _session(state["daemon"], batch, 0.0, len(batch))
        totals_path = str(OUT / f"daemon-totals-{state['seed']}.json")
        state["traced_daemon"] = Daemon(totals_path)
        tracer = tracing.Tracer()
        traced = _session(state["traced_daemon"], batch, 0.0, len(batch),
                          tracer)
        state.pop("traced_daemon").stop()
        with open(totals_path) as handle:
            layers = json.load(handle)
        os.remove(totals_path)
        check(_answer_digest(plain["answers"])
              == _answer_digest(traced["answers"]),
              "traced daemon answered differently from the untraced one")
        tracing.require_calls(layers, TRACED_LAYERS)
        summary = tracer.summary(traced["start"], traced["end"])
        tracer.write_chrome(
            str(OUT / f"trace-serve-estimate-{state['seed']}.json"),
            {"workload": "serve-estimate", "seed": state["seed"],
             "daemon_layers": layers})
        sessions = [plain, traced]
        plain_s = plain["end"] - plain["start"]
        traced_s = traced["end"] - traced["start"]
        metrics = tracing.layer_metrics(
            layers, len(batch), _cache_delta(traced),
            tracing.overhead_pct(plain_s, traced_s),
            summary["coverage_pct"], serve=_serve_layer(traced))
    else:
        # Each hot key once, untimed, so the timed stream finds it hot.
        warm = _session(state["daemon"], state["warm"], 0.0,
                        len(state["warm"]))
        check(all(status == 200 for status, _, _, _ in warm["answers"]),
              "a warm-up request for a hot point was not answered")
        session = _session(state["daemon"], requests, seconds, MIN_REQUESTS)
        sessions = [session]
    attempted = failed = checked = agreeing = 0
    for session in sessions:
        verdict = _oracle(state, session["answers"])
        attempted += len(session["answers"])
        failed += verdict["failed"]
        checked += verdict["checked"]
        agreeing += verdict["agreeing"]
    if not trace:
        answers = session["answers"]
        wall = session["end"] - session["start"]
        ok = len(answers) - failed
        latencies = [rtt * 1e3 for _, _, rtt, _ in answers]
        figures = _window_figures(session)
        metrics = {
            "points_per_s": (figures["rate"], "1/s"),
            "estimate_p90_ms": (figures["p90"], "ms"),
            "peak_rss_mib": (session["rss"], "MiB"),
            "scalar_agree_pct": (100.0 * agreeing / checked, "%"),
            "fidelity_max_err_pct": (fidelity(), "%"),
            "success_pct": (100.0 * ok / len(answers), "%"),
        }
        notes = {"requests": len(answers),
                 "estimate_p50_ms": f"{figures['p50']:.3f}",
                 "requests_per_s": f"{len(answers) / wall:.3f}",
                 "error_rate": f"{failed / len(answers):.6f}",
                 "estimate_p99_ms": f"{percentile(latencies, 99):.3f}",
                 "oracle_checked": checked}
    else:
        notes = {"requests_per_session": TRACED_REQUESTS}
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "notes": notes}
