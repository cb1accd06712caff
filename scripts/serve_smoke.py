#!/usr/bin/env python
"""End-to-end smoke test of the ``repro serve`` daemon as a real OS
process — what the CI ``serve-smoke`` job runs.

Boots the daemon as a subprocess and walks the service contract:

1. readiness flips once the daemon is up (and back off when draining);
2. a cold submission computes, a warm resubmission is a cache hit,
   and both bodies are byte-identical; the worker forked for the cold
   submission stays alive between requests;
3. a full admission queue yields 429 with both ``Retry-After``
   headers;
4. a SIGKILLed worker is a structured 500 on that request only —
   the daemon keeps serving — and the flight recorder dumps a ring
   file naming the crashing request ID;
5. ``GET /metrics`` under the load above passes the in-repo
   exposition validator with non-zero latency-histogram counts;
6. SIGTERM drains gracefully, even with an idle kept-alive client
   connection held open: in-flight work finishes, exit code 0 within
   the drain grace, the listener is closed, the held connection reads
   EOF (or a reset), every worker the daemon forked is gone — and the
   ``--journal`` file validates, carrying the crash request's
   lifecycle.

Run from the repo root::

    PYTHONPATH=src python scripts/serve_smoke.py

Exits non-zero on the first violated expectation.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.events import read_journal, validate_journal  # noqa: E402
from repro.obs.metrics import parse_exposition, validate_exposition  # noqa: E402
from repro.serve import ReproClient  # noqa: E402

#: the daemon's default ``--drain-grace`` (seconds)
DRAIN_GRACE = 30.0


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        raise SystemExit(1)
    print(f"  ok: {message}")


def _stat(pid: int):
    """The fields of ``/proc/<pid>/stat`` after the command name, or
    ``None`` once the process is gone (exited and reaped, or a
    zombie): [0] is the state, [1] the ppid, [19] the start time."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return None if fields[0] in "ZX" else fields


def children(parent: int) -> set:
    """``(pid, start time)`` of every running child of ``parent`` (the
    start time tells a reused PID apart)."""
    found = set()
    for entry in os.listdir("/proc"):
        fields = _stat(int(entry)) if entry.isdigit() else None
        if fields is not None and int(fields[1]) == parent:
            found.add((int(entry), fields[19]))
    return found


def running(pid: int, start: str) -> bool:
    fields = _stat(pid)
    return fields is not None and fields[19] == start


def closed_by_peer(connection: http.client.HTTPConnection) -> bool:
    """True once the server end of ``connection`` is closed."""
    try:
        return connection.sock.recv(1) == b""
    except ConnectionResetError:
        return True


def refused(port: int) -> bool:
    try:
        socket.create_connection(("127.0.0.1", port), timeout=2.0).close()
    except OSError:
        return True
    return False


def main() -> int:
    print("booting repro serve (ephemeral port, 1 worker, queue limit 1)")
    cache_dir = tempfile.mkdtemp(prefix="serve_smoke_cache_")
    telemetry_dir = tempfile.mkdtemp(prefix="serve_smoke_obs_")
    journal_path = os.path.join(telemetry_dir, "serve.jsonl")
    flight_dir = os.path.join(telemetry_dir, "flight")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--workers", "1", "--queue-limit", "1",
            "--cache", cache_dir, "--chaos",
            "--journal", journal_path, "--flight-dir", flight_dir,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=REPO_ROOT,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join(
                 p for p in (str(REPO_ROOT / "src"),
                             os.environ.get("PYTHONPATH")) if p)},
    )
    try:
        banner = proc.stdout.readline().strip()
        match = re.search(r"http://[\d.]+:(\d+)$", banner)
        check(match is not None, f"daemon announced itself: {banner!r}")
        port = int(match.group(1))
        client = ReproClient(port=port, retries=0)

        # 1. readiness flips on
        check(client.wait_ready(10.0), "readiness flipped to 200 after boot")

        # 2. cold compute, warm cache hit, byte-identical bodies
        params = {"seconds": 0.0, "nonce": "smoke"}
        cold = client.submit("chaos-sleep", params, deadline=10)
        check(cold.ok and not cold.cached, "cold submission computed (200, uncached)")
        warm = client.submit("chaos-sleep", params, deadline=10)
        check(warm.ok and warm.cached, "warm resubmission was a cache hit")
        check(
            json.dumps(cold.body, sort_keys=True)
            == json.dumps(warm.body, sort_keys=True),
            "cold and warm bodies are byte-identical",
        )
        workers = children(proc.pid)
        check(bool(workers),
              f"the slot's worker stays alive between requests "
              f"(pids {sorted(pid for pid, _ in workers)})")

        # 3. fill the worker, then the queue, then expect 429
        def occupy(nonce: int, seconds: float) -> None:
            ReproClient(port=port, retries=0).submit(
                "chaos-sleep", {"seconds": seconds, "nonce": nonce}, deadline=30
            )

        def poll_until(probe, message: str, timeout: float = 10.0) -> None:
            ends = time.monotonic() + timeout
            while not probe():
                if time.monotonic() >= ends:
                    check(False, message)
                time.sleep(0.02)
            check(True, message)

        first = threading.Thread(target=occupy, args=(1, 2.0))
        first.start()
        poll_until(lambda: client.stats()["server"]["in_flight"] >= 1,
                   "worker became busy")
        second = threading.Thread(target=occupy, args=(2, 0.0))
        second.start()
        poll_until(lambda: client.stats()["server"]["queue_depth"] >= 1,
                   "queue slot filled")
        rejected = client.submit("chaos-sleep", {"seconds": 0.0, "nonce": 3},
                                 deadline=10)
        check(rejected.status == 429, "overflow submission got 429")
        check(rejected.error_kind() == "queue-full",
              "429 carries the queue-full taxonomy")
        check(int(rejected.headers.get("retry-after", 0)) >= 1,
              "429 carries Retry-After")
        check(float(rejected.headers.get("x-repro-retry-after", 0)) > 0,
              "429 carries the fractional X-Repro-Retry-After")
        first.join()
        second.join()

        # 4. a crashed worker is one structured 500, not a dead server,
        #    and the flight recorder names the crashing request
        crashed = client.submit("chaos-crash", {"nonce": 4}, deadline=10,
                                request_id="smoke-crash-1")
        check(crashed.status == 500 and crashed.error_kind() == "crash",
              "SIGKILLed worker surfaced as a structured 500 crash")
        check(crashed.request_id == "smoke-crash-1",
              "crash response echoed the request ID")
        alive = client.submit("chaos-sleep", {"seconds": 0.0, "nonce": 5},
                              deadline=10)
        check(alive.ok, "daemon kept serving after the worker crash")
        workers |= children(proc.pid)  # the crashed worker's replacement
        dumps = [name for name in os.listdir(flight_dir)
                 if "smoke-crash-1" in name]
        check(bool(dumps),
              "flight dump names the crashing request ID")
        dump = json.load(open(os.path.join(flight_dir, dumps[0])))
        check(dump["reason"] == "crash"
              and dump["request_id"] == "smoke-crash-1"
              and any(e["request_id"] == "smoke-crash-1"
                      for e in dump["events"]),
              "flight dump carries the crash request's journal ring")

        # 5. /metrics under load validates with non-zero histogram counts
        text = client.metrics_text()
        samples = validate_exposition(text)
        check(samples > 0, f"/metrics passed the validator ({samples} samples)")
        parsed = parse_exposition(text)

        def histogram_count(family: str) -> float:
            return [value for name, _, value in parsed[family]["samples"]
                    if name == f"{family}_count"][0]

        check(histogram_count("repro_serve_request_seconds") > 0,
              "request latency histogram has observations")
        check(histogram_count("repro_exec_job_seconds") > 0,
              "engine job latency histogram has observations")
        check(any(
            value >= 1
            for _, labels, value in
            parsed["repro_serve_flight_dumps_total"]["samples"]
            if labels.get("reason") == "crash"),
            "flight-dump counter counted the crash dump")

        # 6. SIGTERM drains: readiness off, in-flight completes, exit 0,
        #    also with an idle kept-alive connection held open
        held = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        held.request("GET", "/healthz")
        reply = held.getresponse()
        reply.read()
        check(reply.status == 200 and not reply.will_close,
              "a kept-alive connection sits idle after one request")
        in_flight: dict = {}

        def slow() -> None:
            in_flight["response"] = ReproClient(port=port, retries=0).submit(
                "chaos-sleep", {"seconds": 1.0, "nonce": 6}, deadline=30
            )

        drainee = threading.Thread(target=slow)
        drainee.start()
        poll_until(lambda: client.stats()["server"]["in_flight"] >= 1,
                   "drainee request went in flight")
        proc.send_signal(signal.SIGTERM)
        signalled = time.monotonic()
        poll_until(lambda: not client.ready(),
                   "readiness flipped off on SIGTERM")
        drainee.join()
        check(in_flight["response"].ok,
              "in-flight request completed during the drain")
        proc.wait(timeout=DRAIN_GRACE)
        drained_in = time.monotonic() - signalled
        check(proc.returncode == 0, "daemon exited 0 after the drain")
        check(drained_in < DRAIN_GRACE,
              f"the drain finished within its grace ({drained_in:.1f} s)")
        check(refused(port), "the listener is closed")
        check(closed_by_peer(held),
              "the held idle connection reads EOF or a reset")
        held.close()
        left = sorted(pid for pid, start in workers if running(pid, start))
        check(not left, f"every recorded worker is gone after the drain "
                        f"({len(workers)} recorded, running: {left})")

        # the journal file validates and carries the crash lifecycle
        records = read_journal(journal_path)
        check(validate_journal(records) == len(records) and records,
              f"journal validates ({len(records)} records)")
        crash_kinds = {r["kind"] for r in records
                       if r["request_id"] == "smoke-crash-1"}
        check({"request-received", "request-failed"} <= crash_kinds,
              "journal carries the crash request's lifecycle by ID")
        print("serve smoke OK")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(cache_dir, ignore_errors=True)
        shutil.rmtree(telemetry_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
