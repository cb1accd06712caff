"""Chaos suite for the daemon: workers SIGKILLed mid-request, queue
overflow, circuit quarantine and recovery, drain under load, corrupt
cache entries.  The invariants under every fault:

* the server never hangs and never dies — the failing request gets a
  structured error, the next request gets service;
* a full queue is an immediate 429 with both ``Retry-After`` headers;
* a quarantined spec is refused up front (503) and recovers through a
  half-open probe once it stops crashing;
* a drain finishes in-flight work, refuses new work, and exits 0;
* a corrupt cache entry degrades to a recompute — the served payload
  is always the correct one.
"""

import json
import os
import threading
import time

import pytest

from repro.serve import ReproClient, ReproServer, ServeConfig

pytestmark = pytest.mark.slow


def _start(tmp_path, **overrides):
    # flight dumps go under the test's tmp dir, not the default
    # benchmarks/output relative to the working directory
    options = dict(port=0, workers=1, queue_limit=1, no_cache=True,
                   chaos=True, breaker_threshold=2, breaker_cooldown=0.3,
                   flight_dir=str(tmp_path / "flight"))
    options.update(overrides)
    return ReproServer(ServeConfig(**options)).start()


def _client(server, **kw):
    kw.setdefault("retries", 0)
    return ReproClient(port=server.port, **kw)


class TestWorkerCrash:
    def test_sigkill_is_a_structured_500_and_service_continues(self, tmp_path):
        server = _start(tmp_path)
        try:
            client = _client(server)
            crashed = client.submit("chaos-crash", {"nonce": 0}, deadline=10)
            assert crashed.status == 500
            assert crashed.error_kind() == "crash"
            # the very next request is served normally
            alive = client.submit("chaos-sleep", {"seconds": 0.0, "nonce": 0},
                                  deadline=10)
            assert alive.ok
            stats = client.stats()
            assert stats["server"]["errors"].get("crash") == 1
            assert stats["server"]["ok"] == 1
        finally:
            server.close()

    def test_spin_job_is_preempted_by_deadline(self, tmp_path):
        server = _start(tmp_path)
        try:
            client = _client(server)
            spun = client.submit("chaos-spin", {"nonce": 0}, deadline=0.3)
            assert spun.status == 504
            assert client.submit("chaos-sleep", {"seconds": 0.0, "nonce": 1},
                                 deadline=10).ok
        finally:
            server.close()


class TestCircuitQuarantine:
    def test_repeat_offender_is_circuit_broken(self, tmp_path):
        server = _start(tmp_path, breaker_threshold=2, breaker_cooldown=30.0)
        try:
            client = _client(server)
            for _ in range(2):
                assert client.submit("chaos-crash", {"nonce": 1},
                                     deadline=10).status == 500
            refused = client.submit("chaos-crash", {"nonce": 1}, deadline=10)
            assert refused.status == 503
            assert refused.error_kind() == "circuit-open"
            assert float(refused.headers["retry-after"]) >= 1
            # quarantine is per-spec: a different nonce still executes
            other = client.submit("chaos-sleep", {"seconds": 0.0, "nonce": 2},
                                  deadline=10)
            assert other.ok
            snapshot = client.stats()["breaker"]
            assert len(snapshot["open"]) == 1
            assert snapshot["trips"] == 1
        finally:
            server.close()

    def test_circuit_recovers_after_cooldown(self, tmp_path):
        trip = tmp_path / "trip"
        trip.write_text("x")
        server = _start(tmp_path, breaker_threshold=1, breaker_cooldown=0.2)
        try:
            client = _client(server)
            params = {"trip_file": str(trip), "nonce": 0}
            assert client.submit("chaos-flaky", params, deadline=10).status == 500
            assert client.submit("chaos-flaky", params,
                                 deadline=10).error_kind() == "circuit-open"
            trip.unlink()  # the fault is fixed...
            time.sleep(0.25)  # ...and the cooldown elapses
            probe = client.submit("chaos-flaky", params, deadline=10)
            assert probe.ok and probe.body["payload"]["recovered"] is True
            # circuit closed again: immediate service
            assert client.submit("chaos-flaky", params, deadline=10).ok
        finally:
            server.close()


class TestBackpressure:
    def test_queue_overflow_is_429_with_retry_after(self, tmp_path):
        server = _start(tmp_path, workers=1, queue_limit=1)
        try:
            stats_client = _client(server)

            def wait_for(predicate, what):
                ends = time.monotonic() + 5.0
                while time.monotonic() < ends:
                    if predicate(stats_client.stats()["server"]):
                        return
                    time.sleep(0.01)
                raise AssertionError(f"server never reached: {what}")

            background = []

            def occupy(nonce, seconds):
                background.append(
                    ReproClient(port=server.port, retries=0).submit(
                        "chaos-sleep", {"seconds": seconds, "nonce": nonce},
                        deadline=10,
                    )
                )

            # fill the single worker, then the single queue slot
            first = threading.Thread(target=occupy, args=(0, 0.8))
            first.start()
            wait_for(lambda s: s["in_flight"] == 1, "worker occupied")
            second = threading.Thread(target=occupy, args=(1, 0.0))
            second.start()
            wait_for(lambda s: s["queue_depth"] == 1, "queue slot occupied")

            rejected = _client(server).submit(
                "chaos-sleep", {"seconds": 0.0, "nonce": 99}, deadline=10
            )
            assert rejected.status == 429
            assert rejected.error_kind() == "queue-full"
            assert int(rejected.headers["retry-after"]) >= 1
            assert float(rejected.headers["x-repro-retry-after"]) > 0
            first.join()
            second.join()
            assert all(r.ok for r in background)
            # pressure released: the same submission now succeeds
            assert _client(server).submit(
                "chaos-sleep", {"seconds": 0.0, "nonce": 99}, deadline=10
            ).ok
        finally:
            server.close()

    def test_patient_client_rides_out_backpressure(self, tmp_path):
        server = _start(tmp_path, workers=1, queue_limit=1)
        try:
            clients = [
                ReproClient(port=server.port, retries=10, backoff_base=0.02,
                            backoff_cap=0.5)
                for _ in range(4)
            ]
            results = [None] * 4

            def run(index):
                results[index] = clients[index].submit(
                    "chaos-sleep", {"seconds": 0.1, "nonce": index},
                    deadline=10,
                )

            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert all(r is not None and r.ok for r in results)
        finally:
            server.close()


class TestDrain:
    def test_drain_finishes_in_flight_and_refuses_new(self, tmp_path):
        server = _start(tmp_path, workers=1, queue_limit=2, drain_grace=10.0)
        try:
            client = _client(server)
            in_flight = {}

            def slow():
                in_flight["response"] = client.submit(
                    "chaos-sleep", {"seconds": 0.5, "nonce": 0}, deadline=10
                )

            thread = threading.Thread(target=slow)
            thread.start()
            time.sleep(0.15)  # let the slow job reach a worker
            server.begin_drain("test")
            refused = _client(server).submit(
                "chaos-sleep", {"seconds": 0.0, "nonce": 1}, deadline=10
            )
            assert refused.status == 503
            assert refused.error_kind() == "draining"
            assert server.wait(timeout=5.0) == 0
            thread.join()
            assert in_flight["response"].ok
        finally:
            server.close()

    def test_drain_is_idempotent_and_wait_returns_zero_when_idle(self, tmp_path):
        server = _start(tmp_path)
        try:
            server.begin_drain("one")
            server.begin_drain("two")
            assert server.wait(timeout=5.0) == 0
        finally:
            server.close()


class TestCorruptCache:
    def test_corrupt_entry_degrades_to_correct_recompute(self, tmp_path):
        cache_dir = tmp_path / "cache"
        server = _start(tmp_path, no_cache=False, cache_dir=str(cache_dir))
        try:
            client = _client(server)
            first = client.submit("chaos-sleep", {"seconds": 0.0, "nonce": 7},
                                  deadline=10)
            assert first.ok and not first.cached
            key = first.body["key"]
            entry = cache_dir / key[:2] / f"{key}.json"
            assert entry.exists()
            entry.write_text("{ this is not json")
            again = client.submit("chaos-sleep", {"seconds": 0.0, "nonce": 7},
                                  deadline=10)
            assert again.ok and not again.cached  # recomputed, not served torn
            assert json.dumps(again.body, sort_keys=True) == json.dumps(
                first.body, sort_keys=True
            )
            assert client.stats()["cache"]["errors"] >= 1
            # and the rewritten entry is healthy again
            assert client.submit("chaos-sleep", {"seconds": 0.0, "nonce": 7},
                                 deadline=10).cached
        finally:
            server.close()

    def test_mislabelled_entry_is_never_served(self, tmp_path):
        cache_dir = tmp_path / "cache"
        server = _start(tmp_path, no_cache=False, cache_dir=str(cache_dir))
        try:
            client = _client(server)
            first = client.submit("chaos-sleep", {"seconds": 0.0, "nonce": 8},
                                  deadline=10)
            key = first.body["key"]
            entry = cache_dir / key[:2] / f"{key}.json"
            forged = json.loads(entry.read_text())
            forged["payload"] = {"slept": 999, "nonce": "forged"}
            forged["key"] = "0" * 64  # address no longer matches content
            entry.write_text(json.dumps(forged))
            again = client.submit("chaos-sleep", {"seconds": 0.0, "nonce": 8},
                                  deadline=10)
            assert again.ok
            assert again.body["payload"] == first.body["payload"]
        finally:
            server.close()


class TestServerNeverDies:
    def test_mixed_hostile_load_leaves_server_healthy(self, tmp_path):
        server = _start(tmp_path, workers=2, queue_limit=4, breaker_threshold=3)
        try:
            outcomes = []
            lock = threading.Lock()

            def hostile(index):
                client = ReproClient(port=server.port, retries=4,
                                     backoff_base=0.02, backoff_cap=0.3)
                tasks = [
                    ("chaos-sleep", {"seconds": 0.05, "nonce": index}),
                    ("chaos-crash", {"nonce": index}),
                    ("chaos-sleep", {"seconds": 0.0, "nonce": index + 100}),
                ]
                for task, params in tasks:
                    response = client.submit(task, params, deadline=5)
                    with lock:
                        outcomes.append((task, response.status))

            threads = [threading.Thread(target=hostile, args=(i,))
                       for i in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            client = _client(server)
            assert client.healthy() and client.ready()
            # every sleep eventually succeeded; every crash was a
            # structured 500/503, never a hang or connection death
            for task, status in outcomes:
                if task == "chaos-sleep":
                    assert status == 200
                else:
                    assert status in (500, 503)
        finally:
            server.close()
