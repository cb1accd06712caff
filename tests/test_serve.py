"""The serving layer under normal operation: the circuit breaker's
state machine, the HTTP surface (health, readiness, stats, submit,
lookup), deadline propagation, response byte-identity against the
engine, the retrying client, and loadgen's deterministic report."""

import json
import threading
import time

import pytest

from repro.exec import ExecutionEngine, Job, SerialExecutor, code_version_salt, register
from repro.serve import (
    CircuitBreaker,
    LoadgenConfig,
    ReproClient,
    ReproServer,
    Response,
    ServeConfig,
    ServeMetrics,
    build_job_pool,
)
from repro.serve.chaos import register_chaos_tasks


@register("test-serve-echo")
def _echo(params):
    return {"value": params["value"]}


@register("test-serve-boom")
def _boom(params):
    raise ValueError(f"boom {params['value']}")


@pytest.fixture
def server(tmp_path):
    """An in-process daemon on an ephemeral port, chaos tasks on,
    cache under the test's tmp dir; closed at teardown."""
    instance = ReproServer(
        ServeConfig(
            port=0,
            workers=2,
            queue_limit=4,
            cache_dir=str(tmp_path / "cache"),
            chaos=True,
            breaker_cooldown=0.2,
            flight_dir=str(tmp_path / "flight"),
        )
    ).start()
    try:
        yield instance
    finally:
        instance.close()


def _client(server, **kw):
    kw.setdefault("retries", 0)
    return ReproClient(port=server.port, **kw)


# -- serving counters ---------------------------------------------------------


class TestServeMetrics:
    def test_tallies_count_by_kind_sorted_and_reset(self):
        metrics = ServeMetrics()
        for kind, rejected in (("deadline", False), ("crash", False),
                               ("crash", False), ("queue-full", True)):
            metrics.count_error(kind, rejected)
        data = metrics.as_dict()
        assert list(data["errors"].items()) == [("crash", 2), ("deadline", 1)]
        assert data["rejected"] == {"queue-full": 1}
        assert "wall_seconds" not in data
        metrics.reset()
        assert (metrics.errors, metrics.rejected, metrics.requests) == ({}, {}, 0)


# -- circuit breaker ----------------------------------------------------------


class TestCircuitBreaker:
    def test_closed_until_threshold(self):
        breaker = CircuitBreaker(threshold=3, cooldown=10.0, clock=lambda: 0.0)
        for _ in range(2):
            assert breaker.admit("k").allowed
            breaker.record("k", ok=False)
        assert breaker.state("k") == "closed"
        breaker.record("k", ok=False)
        assert breaker.state("k") == "open"
        decision = breaker.admit("k")
        assert not decision.allowed
        assert decision.retry_after == pytest.approx(10.0)

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(threshold=2, cooldown=10.0)
        breaker.record("k", ok=False)
        breaker.record("k", ok=True)
        breaker.record("k", ok=False)
        assert breaker.state("k") == "closed"

    def test_half_open_single_probe(self):
        now = [0.0]
        breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock=lambda: now[0])
        breaker.record("k", ok=False)
        assert not breaker.admit("k").allowed
        now[0] = 5.1
        probe = breaker.admit("k")
        assert probe.allowed and probe.state == "half-open"
        # while the probe is outstanding nobody else gets in
        assert not breaker.admit("k").allowed
        breaker.record("k", ok=True)
        assert breaker.state("k") == "closed"
        assert breaker.admit("k").allowed

    def test_failed_probe_reopens_for_fresh_cooldown(self):
        now = [0.0]
        breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock=lambda: now[0])
        breaker.record("k", ok=False)
        now[0] = 6.0
        assert breaker.admit("k").allowed
        breaker.record("k", ok=False)
        assert breaker.state("k") == "open"
        now[0] = 10.0  # only 4s into the new cooldown
        assert not breaker.admit("k").allowed
        assert breaker.snapshot()["trips"] == 2

    def test_keys_are_independent(self):
        breaker = CircuitBreaker(threshold=1, cooldown=10.0)
        breaker.record("bad", ok=False)
        assert not breaker.admit("bad").allowed
        assert breaker.admit("good").allowed
        assert breaker.snapshot()["open"] == ["bad"]

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=0.0)


# -- HTTP surface -------------------------------------------------------------


class TestEndpoints:
    def test_health_and_readiness(self, server):
        client = _client(server)
        assert client.healthy()
        assert client.ready()
        server.begin_drain("test")
        assert client.healthy()  # alive while draining
        assert not client.ready()  # but no longer ready

    def test_submit_roundtrip(self, server):
        response = _client(server).submit("test-serve-echo", {"value": 7})
        assert response.ok
        assert response.body["payload"] == {"value": 7}
        assert len(response.body["key"]) == 64
        assert not response.cached

    def test_task_error_is_500_with_taxonomy(self, server):
        response = _client(server).submit("test-serve-boom", {"value": 1})
        assert response.status == 500
        assert response.error_kind() == "error"
        assert "boom 1" in response.body["error"]["message"]

    def test_unknown_task_and_bad_bodies(self, server):
        client = _client(server)
        assert client.submit("no-such-task", {}).error_kind() == "unknown-task"
        assert client.request("POST", "/v1/jobs", {"task": 3}).status == 400
        assert client.request("POST", "/v1/jobs", [1, 2]).status == 400
        bad_deadline = client.request(
            "POST", "/v1/jobs",
            {"task": "test-serve-echo", "params": {}, "deadline": -1},
        )
        assert bad_deadline.error_kind() == "bad-request"

    def test_unknown_route_404(self, server):
        assert _client(server).request("GET", "/nope").status == 404

    def test_tasks_endpoint_lists_registry(self, server):
        names = _client(server).tasks()
        assert "test-serve-echo" in names
        assert "chaos-sleep" in names

    def test_stats_shape(self, server):
        client = _client(server)
        client.submit("test-serve-echo", {"value": 1})
        stats = client.stats()
        assert stats["server"]["ok"] == 1
        assert stats["server"]["ready"] is True
        assert stats["server"]["workers"] == 2
        assert stats["exec"]["jobs"] >= 1
        assert stats["cache"]["puts"] == 1
        assert stats["breaker"]["open"] == []

    def test_stats_counts_agree_across_slots(self, server):
        """Each slot's engine counts only its own cache lookups: hits
        one slot serves while the other runs a job stay out of the
        busy slot's count."""
        client = _client(server)
        for value in range(3):
            assert client.submit("test-serve-echo", {"value": value}).ok
        held = threading.Thread(
            target=_client(server).submit,
            args=("chaos-sleep", {"seconds": 1.0, "nonce": "hold"}),
        )
        held.start()
        try:
            deadline = time.monotonic() + 10.0
            while client.stats()["server"]["in_flight"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            for value in range(3):
                assert client.submit("test-serve-echo", {"value": value}).cached
        finally:
            held.join()
        stats = client.stats()
        assert stats["exec"]["cache_hits"] == stats["cache"]["hits"] == 3
        assert stats["server"]["cached"] == 3
        assert (
            stats["exec"]["cache_hits"] + stats["exec"]["cache_misses"]
            == stats["exec"]["jobs"] == 7
        )
        assert "cache_errors" not in stats["exec"]

    def test_lookup_hits_cache(self, server):
        client = _client(server)
        submitted = client.submit("test-serve-echo", {"value": 9})
        found = client.lookup(submitted.body["key"])
        assert found.ok and found.cached
        assert found.body == submitted.body
        assert client.lookup("0" * 64).status == 404

    def test_trace_404_when_disabled(self, server):
        assert _client(server).request("GET", "/v1/trace").status == 404


class TestTraceEndpoint:
    def test_trace_collects_slot_spans(self):
        server = ReproServer(
            ServeConfig(port=0, workers=1, no_cache=True, trace=True)
        ).start()
        try:
            client = _client(server)
            client.submit("test-serve-echo", {"value": 1})
            trace = client.request("GET", "/v1/trace").body
            names = {e.get("name") for e in trace["traceEvents"]}
            assert "engine.run" in names or len(trace["traceEvents"]) > 1
        finally:
            server.close()


class TestAdmission:
    def test_stimuli_submission_is_bad_request(self, server):
        # a "stimuli" field is refused at admission rather than ignored
        # in favour of "inputs", and never reaches a worker slot
        response = _client(server).submit(
            "simulate-cell", {"workload": "medical", "stimuli": [{}]}
        )
        assert response.status == 400
        assert response.error_kind() == "bad-request"
        assert '"stimuli"' in response.body["error"]["message"]
        assert server.stats()["server"]["ok"] == 0


# -- determinism / byte identity ----------------------------------------------


class TestByteIdentity:
    def test_warm_hit_body_is_byte_identical(self, server):
        client = _client(server)
        cold = client.submit("test-serve-echo", {"value": 3})
        warm = client.submit("test-serve-echo", {"value": 3})
        assert not cold.cached and warm.cached
        assert json.dumps(cold.body, sort_keys=True) == json.dumps(
            warm.body, sort_keys=True
        )

    def test_served_payload_matches_engine(self, server):
        job = Job("test-serve-echo", {"value": 42})
        response = _client(server).submit("test-serve-echo", {"value": 42})
        engine = ExecutionEngine(executor=SerialExecutor(), cache=None)
        (local,) = engine.run([job])
        assert response.body["payload"] == local.payload
        assert response.body["key"] == job.key(code_version_salt())


# -- deadlines ----------------------------------------------------------------


class TestDeadlines:
    def test_slow_job_times_out_with_504(self, server):
        response = _client(server).submit(
            "chaos-sleep", {"seconds": 5.0, "nonce": "dl"}, deadline=0.3
        )
        assert response.status == 504
        assert response.error_kind() == "deadline"

    def test_deadline_clamped_to_max(self, tmp_path):
        server = ReproServer(
            ServeConfig(port=0, workers=1, no_cache=True, max_deadline=0.3,
                        chaos=True, flight_dir=str(tmp_path / "flight"))
        ).start()
        try:
            response = _client(server).submit(
                "chaos-sleep", {"seconds": 5.0, "nonce": "clamp"}, deadline=60.0
            )
            assert response.status == 504
        finally:
            server.close()


# -- the client ---------------------------------------------------------------


class TestClient:
    def test_backoff_prefers_fractional_hint(self):
        client = ReproClient(retries=3, backoff_base=0.1, backoff_cap=1.0)
        client.rng = __import__("random").Random(0)
        wait = client._backoff(0, {"x-repro-retry-after": "0.25",
                                   "retry-after": "7"})
        assert 0.25 <= wait < 0.25 + 0.1 + 1e-9

    def test_backoff_grows_without_hint(self):
        client = ReproClient(retries=5, backoff_base=0.1, backoff_cap=10.0)

        class _NoJitter:
            def uniform(self, a, b):
                return 0.0

        client.rng = _NoJitter()
        assert client._backoff(0, None) == pytest.approx(0.1)
        assert client._backoff(3, None) == pytest.approx(0.8)

    def test_retries_transient_then_returns_final(self, server):
        # draining server answers 503; a 0-retry client surfaces it,
        # a retrying client keeps trying and then surfaces the last
        server.begin_drain("test")
        slept = []
        client = ReproClient(
            port=server.port, retries=2, sleep=slept.append
        )
        response = client.submit("test-serve-echo", {"value": 1})
        assert response.status == 503
        assert response.attempts == 3
        assert len(slept) == 2

    def test_unreachable_raises_client_error(self):
        from repro.serve import ClientError

        client = ReproClient(port=1, retries=1, sleep=lambda s: None,
                             timeout=0.5)
        with pytest.raises(ClientError):
            client.request("GET", "/healthz")

    def test_response_error_kind_helpers(self):
        ok = Response(200, {}, {"key": "k", "payload": {}}, 1, 0.0)
        assert ok.ok and ok.error_kind() is None
        err = Response(429, {}, {"error": {"kind": "queue-full"}}, 1, 0.0)
        assert err.error_kind() == "queue-full"


# -- kept connections ---------------------------------------------------------


def _count_accepts(server):
    """Hook the daemon's listener: the list grows by one per accepted
    TCP connection."""
    accepted = []
    process_request = server._httpd.process_request

    def counting(request, client_address):
        accepted.append(client_address)
        process_request(request, client_address)

    server._httpd.process_request = counting
    return accepted


def _handler_threads():
    return [thread for thread in threading.enumerate()
            if "process_request_thread" in thread.name]


class TestKeptConnections:
    def test_consecutive_submits_share_one_connection(self, server):
        accepted = _count_accepts(server)
        client = _client(server)
        for value in range(5):
            assert client.submit("test-serve-echo", {"value": value}).ok
        assert len(accepted) == 1

    def test_threads_sharing_a_client_each_keep_one(self, server):
        accepted = _count_accepts(server)
        client = _client(server)
        outcomes = []

        def submit_three(offset):
            for value in range(offset, offset + 3):
                outcomes.append(
                    client.submit("test-serve-echo", {"value": value}).body
                )

        threads = [threading.Thread(target=submit_three, args=(offset,))
                   for offset in (0, 10)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(body["payload"]["value"] for body in outcomes) == [
            0, 1, 2, 10, 11, 12
        ]
        assert len(accepted) == 2

    def test_idle_connection_closed_by_daemon_is_resent_once(
        self, server, monkeypatch
    ):
        from repro.obs.events import EventJournal
        from repro.serve.server import _Handler

        monkeypatch.setattr(_Handler, "timeout", 0.05)
        accepted = _count_accepts(server)
        journal = EventJournal(keep=True)
        client = _client(server, journal=journal)
        assert client.submit("test-serve-echo", {"value": 1}).ok
        time.sleep(0.4)  # the daemon times the idle connection out
        response = client.submit("test-serve-echo", {"value": 2},
                                 request_id="after-idle")
        assert response.status == 200
        assert response.attempts == 1
        sends = [r for r in journal.records
                 if r["kind"] == "client-send"
                 and r["request_id"] == "after-idle"]
        assert len(sends) == 1
        assert len(accepted) == 2

    def test_drain_answers_with_connection_close(self, server):
        client = _client(server)
        assert client.submit("test-serve-echo", {"value": 1}).ok
        server.begin_drain("test")
        response = client.submit("test-serve-echo", {"value": 2})
        assert response.status == 503
        assert response.headers.get("connection") == "close"

    def test_close_ends_idle_handler_threads(self, tmp_path):
        instance = ReproServer(
            ServeConfig(port=0, workers=1, cache_dir=str(tmp_path / "c"))
        ).start()
        before = set(_handler_threads())
        try:
            client = ReproClient(port=instance.port, retries=0)
            assert client.submit("test-serve-echo", {"value": 1}).ok
            ours = set(_handler_threads()) - before
            assert ours  # the kept connection's handler
        finally:
            instance.close()
        for thread in ours:
            thread.join(timeout=2.0)  # well under the idle timeout
            assert not thread.is_alive()


# -- loadgen ------------------------------------------------------------------


class TestLoadgen:
    def test_job_pool_is_deterministic(self):
        config = LoadgenConfig(seed=3, cases=2, vectors=2)
        assert build_job_pool(config) == build_job_pool(config)
        other = build_job_pool(LoadgenConfig(seed=4, cases=2, vectors=2))
        assert other != build_job_pool(config)

    def test_loadgen_report_stable_across_runs(self):
        from repro.serve import run_loadgen

        server = ReproServer(
            ServeConfig(port=0, workers=2, no_cache=True)
        ).start()
        try:
            config = LoadgenConfig(
                port=server.port, seed=1, clients=2, requests=4,
                cases=2, vectors=1,
            )
            first = run_loadgen(config)
            second = run_loadgen(config)
        finally:
            server.close()
        assert first.ok and second.ok
        assert first.report == second.report
        assert "verdict: PASS" in first.report
