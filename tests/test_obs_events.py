"""The event journal and end-to-end request correlation: record
schema, contextvar binding, the flight-recorder ring, engine job
events, campaign events, and one request traced by a single ID from
the client log through the server journal into engine events, spans
and the crash flight dump."""

import json
import os
import threading

import pytest

from repro.exec import ExecutionEngine, Job, SerialExecutor, register
from repro.obs.events import (
    EventJournal,
    FlightRecorder,
    NULL_JOURNAL,
    bind_request_id,
    current_request_id,
    new_request_id,
    read_journal,
    validate_journal,
)
from repro.obs.metrics import MetricsRegistry, parse_exposition, validate_exposition
from repro.serve import ReproClient, ReproServer, ServeConfig


@register("test-obs-echo")
def _echo(params):
    return {"value": params["value"]}


# -- journal basics -----------------------------------------------------------


def test_emit_schema_and_file_sink(tmp_path):
    path = str(tmp_path / "j.jsonl")
    journal = EventJournal(path=path, keep=True, clock=lambda: 12.5)
    record = journal.emit("unit-test", request_id="req-1", detail="x")
    assert record == {
        "ts": 12.5, "kind": "unit-test", "request_id": "req-1", "detail": "x",
    }
    journal.emit("second")
    journal.close()
    loaded = read_journal(path)
    assert validate_journal(loaded) == 2
    assert loaded == journal.records
    assert journal.emitted == 2


def test_emit_picks_up_bound_request_id():
    journal = EventJournal(keep=True)
    assert current_request_id() == ""
    with bind_request_id("outer"):
        journal.emit("a")
        with bind_request_id("inner"):
            journal.emit("b")
        journal.emit("c")
    journal.emit("d")
    assert [r["request_id"] for r in journal.records] == [
        "outer", "inner", "outer", "",
    ]


def test_bindings_are_per_thread():
    seen = {}

    def worker():
        seen["thread"] = current_request_id()

    with bind_request_id("main-only"):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    assert seen["thread"] == ""


def test_new_request_id_shape():
    rid = new_request_id()
    assert len(rid) == 16 and rid != new_request_id()
    assert all(c in "0123456789abcdef" for c in rid)


def test_validate_journal_rejects_bad_records():
    with pytest.raises(ValueError, match="ts"):
        validate_journal([{"kind": "x", "request_id": ""}])
    with pytest.raises(ValueError, match="kind"):
        validate_journal([{"ts": 1.0, "kind": "", "request_id": ""}])
    with pytest.raises(ValueError, match="request_id"):
        validate_journal('{"ts": 1.0, "kind": "x"}')
    with pytest.raises(ValueError, match="record 2"):
        validate_journal(
            '{"ts": 1, "kind": "a", "request_id": ""}\n[1, 2]'
        )


def test_null_journal_is_inert():
    assert NULL_JOURNAL.enabled is False
    assert NULL_JOURNAL.emit("anything", request_id="r", x=1) is None
    assert NULL_JOURNAL.emitted == 0
    NULL_JOURNAL.close()


# -- flight recorder ----------------------------------------------------------


def test_flight_recorder_ring_is_bounded(tmp_path):
    recorder = FlightRecorder(capacity=3)
    journal = EventJournal(recorder=recorder)
    for index in range(5):
        journal.emit("tick", request_id=f"r{index}")
    ring = recorder.snapshot()
    assert [r["request_id"] for r in ring] == ["r2", "r3", "r4"]
    path = recorder.dump(str(tmp_path), "crash", request_id="r4")
    assert os.path.basename(path).startswith("flight_crash_r4_")
    with open(path) as handle:
        dump = json.load(handle)
    assert dump["reason"] == "crash"
    assert dump["request_id"] == "r4"
    assert len(dump["events"]) == 3
    assert recorder.dumps == 1


def test_flight_recorder_slugs_reason_and_unknown_rid(tmp_path):
    recorder = FlightRecorder(capacity=2)
    path = recorder.dump(str(tmp_path), "weird reason/../x")
    name = os.path.basename(path)
    assert "/.." not in name
    assert "_unknown_" in name


# -- engine correlation -------------------------------------------------------


def _engine(journal, registry=None):
    return ExecutionEngine(
        executor=SerialExecutor(), cache=None,
        journal=journal, registry=registry,
    )


def test_engine_emits_grid_and_job_events_with_one_run_id():
    journal = EventJournal(keep=True)
    engine = _engine(journal)
    engine.run([Job("test-obs-echo", {"value": 1}),
                Job("test-obs-echo", {"value": 2})])
    kinds = [r["kind"] for r in journal.records]
    assert kinds[0] == "grid-start" and kinds[-1] == "grid-complete"
    assert kinds.count("job-complete") == 2
    run_ids = {r["request_id"] for r in journal.records}
    assert len(run_ids) == 1
    assert next(iter(run_ids)).startswith("run-")


def test_engine_inherits_bound_request_id():
    journal = EventJournal(keep=True)
    engine = _engine(journal)
    with bind_request_id("req-abc"):
        engine.run([Job("test-obs-echo", {"value": 1})])
    assert {r["request_id"] for r in journal.records} == {"req-abc"}


def test_engine_metrics_count_jobs():
    registry = MetricsRegistry()
    engine = _engine(NULL_JOURNAL, registry)
    engine.run([Job("test-obs-echo", {"value": 1})])
    snapshot = registry.snapshot()
    (series,) = snapshot["repro_exec_jobs_total"]["series"]
    assert series == {"labels": {"outcome": "ok"}, "value": 1.0}
    (latency,) = snapshot["repro_exec_job_seconds"]["series"]
    assert latency["count"] == 1


def _small_campaigns():
    """Each campaign driver at a one- or two-job grid."""
    from repro.experiments import (
        run_explore,
        run_figure9,
        run_figure10,
        run_fuzz,
        run_robustness,
        run_sweep,
    )

    one = dict(designs=["Design1"], models=["Model1"])
    return {
        "figure9": lambda engine: run_figure9(engine=engine),
        "figure10": lambda engine: run_figure10(engine=engine),
        "robustness": lambda engine: run_robustness(
            scenarios=[], engine=engine, **one
        ),
        "fuzz": lambda engine: run_fuzz(
            count=1, models=["Model1"], corpus=None, engine=engine
        ),
        "sweep": lambda engine: run_sweep(engine=engine, **one),
        "explore": lambda engine: run_explore(
            allocations=["paper"], models=["Model1"], max_cells=1,
            engine=engine,
        ),
    }


@pytest.mark.parametrize(
    "campaign",
    ["figure9", "figure10", "robustness", "fuzz", "sweep", "explore"],
)
def test_campaign_events_share_one_run_id(campaign):
    journal = EventJournal(keep=True)
    _small_campaigns()[campaign](_engine(journal))
    kinds = [r["kind"] for r in journal.records]
    assert kinds[0] == "campaign-start" and kinds[-1] == "campaign-complete"
    assert kinds.count("campaign-start") == kinds.count("campaign-complete") == 1
    assert journal.records[0]["campaign"] == campaign
    run_ids = {r["request_id"] for r in journal.records}
    assert len(run_ids) == 1
    assert next(iter(run_ids)).startswith(campaign + "-")


# -- end-to-end serve correlation ---------------------------------------------


@pytest.fixture
def telemetry_server(tmp_path):
    from repro.serve.chaos import register_chaos_tasks

    register_chaos_tasks()
    instance = ReproServer(
        ServeConfig(
            port=0,
            workers=1,
            queue_limit=4,
            cache_dir=str(tmp_path / "cache"),
            chaos=True,
            trace=True,
            journal_path=str(tmp_path / "journal.jsonl"),
            flight_dir=str(tmp_path / "flight"),
        )
    ).start()
    yield instance
    instance.close()


def test_request_id_threads_client_server_engine_span(
    telemetry_server, tmp_path
):
    server = telemetry_server
    client_journal = EventJournal(keep=True)
    client = ReproClient(port=server.port, journal=client_journal)
    assert client.wait_ready()

    response = client.submit(
        "chaos-sleep", {"seconds": 0.01}, request_id="trace-me-001"
    )
    assert response.ok
    # the server echoes the ID back
    assert response.request_id == "trace-me-001"
    # client journal carries it
    assert any(
        r["request_id"] == "trace-me-001" and r["kind"] == "client-final"
        for r in client_journal.records
    )
    # server journal carries the whole lifecycle under the same ID
    kinds = [
        r["kind"]
        for r in server.recorder.snapshot()
        if r["request_id"] == "trace-me-001"
    ]
    for expected in (
        "request-received", "request-queued", "request-dispatched",
        "grid-start", "job-complete", "grid-complete", "request-complete",
    ):
        assert expected in kinds, (expected, kinds)
    # spans carry it as an attribute
    trace = server.trace_events()
    assert any(
        event.get("args", {}).get("request_id") == "trace-me-001"
        for event in trace["traceEvents"]
    )
    # journal file validates and shares the ID
    records = read_journal(str(tmp_path / "journal.jsonl"))
    assert validate_journal(records) == len(records)
    assert any(r["request_id"] == "trace-me-001" for r in records)


def test_metrics_endpoint_validates_with_nonzero_counts(telemetry_server):
    server = telemetry_server
    client = ReproClient(port=server.port)
    assert client.wait_ready()
    assert client.submit("chaos-sleep", {"seconds": 0.0}).ok
    text = client.metrics_text()
    assert validate_exposition(text) > 0
    parsed = parse_exposition(text)

    def count_of(family):
        return [
            value
            for name, _, value in parsed[family]["samples"]
            if name == f"{family}_count"
        ][0]

    assert count_of("repro_serve_request_seconds") >= 1
    assert count_of("repro_exec_job_seconds") >= 1
    stats = client.stats()
    assert stats["telemetry"]["enabled"] is True
    assert stats["telemetry"]["events_emitted"] > 0


def test_worker_crash_dumps_flight_recorder(telemetry_server, tmp_path):
    server = telemetry_server
    client = ReproClient(port=server.port)
    assert client.wait_ready()
    response = client.submit("chaos-crash", {}, request_id="crash-req-9")
    assert response.status == 500
    assert response.error_kind() == "crash"
    dumps = os.listdir(tmp_path / "flight")
    matching = [name for name in dumps if "crash-req-9" in name]
    assert matching, dumps
    with open(tmp_path / "flight" / matching[0]) as handle:
        dump = json.load(handle)
    assert dump["request_id"] == "crash-req-9"
    assert any(
        event["request_id"] == "crash-req-9" for event in dump["events"]
    )
    stats = client.stats()
    assert stats["telemetry"]["flight_dumps"] >= 1


def test_invalid_header_request_id_is_replaced(telemetry_server):
    server = telemetry_server
    client = ReproClient(port=server.port)
    assert client.wait_ready()
    response = client.submit(
        "chaos-sleep", {"seconds": 0.0}, request_id="bad id with junk!"
    )
    assert response.ok
    rid = response.request_id
    assert rid and rid != "bad id with junk!"
    assert len(rid) == 16  # a freshly minted one


def test_telemetry_off_disables_surfaces(tmp_path):
    instance = ReproServer(
        ServeConfig(
            port=0,
            workers=1,
            cache_dir=str(tmp_path / "cache"),
            telemetry=False,
        )
    ).start()
    try:
        client = ReproClient(port=instance.port)
        assert client.wait_ready()
        assert client.metrics_text() == ""
        assert client.request("GET", "/metrics").status == 404
        stats = client.stats()
        assert stats["telemetry"]["enabled"] is False
        assert stats["telemetry"]["metrics"] == {}
        # correlation IDs still echo even with telemetry off
        response = client.submit(
            "test-obs-echo", {"value": 3}, request_id="still-echoed"
        )
        assert response.ok and response.request_id == "still-echoed"
    finally:
        instance.close()
