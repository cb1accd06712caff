"""Tests of the benchmark's own helpers.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import random
import threading

import pytest

import drivers
from layers import (
    TARGETS,
    LayerTracer,
    Span,
    SpanRecorder,
    chrome_trace,
    layer_metrics,
    self_times,
)
from stats import pairs_won, percentile, quartiles, spread


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


# -- self time ---------------------------------------------------------------------


def test_self_time_subtracts_nested_and_sibling_children():
    # root [0, 10] holds siblings a [1, 3] and b [4, 8]; b holds c [5, 6]
    recorder = SpanRecorder("run", clock=FakeClock(0, 1, 3, 4, 5, 6, 8, 10))
    root = recorder.begin("root")
    recorder.end(recorder.begin("a"))
    b = recorder.begin("b")
    recorder.end(recorder.begin("c"))
    recorder.end(b)
    recorder.end(root)
    names = [span.name for span in recorder.spans]
    own = dict(zip(names, self_times(recorder.spans)))
    assert own == {"root": 4.0, "a": 2.0, "b": 3.0, "c": 1.0}
    assert [span.parent for span in recorder.spans] == [None, 0, 0, 2]


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("parent", 0.0, 10.0),
        Span("left", 2.0, 6.0, parent=0),
        Span("right", 4.0, 8.0, parent=0),
        Span("beyond", 9.0, 12.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_cross_thread_span_nests_under_the_request_it_serves():
    recorder = SpanRecorder("run")
    client = recorder.begin("serve.client", "req-1", publish=True)
    worker = threading.Thread(
        target=lambda: recorder.end(recorder.begin("serve.submit", "req-1"))
    )
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive()
    recorder.end(client)
    assert recorder.spans[1].parent == client
    assert recorder.spans[1].request_id == "req-1"
    assert recorder.begin("later") == 2
    assert recorder.spans[2].request_id == "run"


# -- statistics ---------------------------------------------------------------------


def test_percentiles_carry_their_sample_count():
    p50 = percentile([4.0, 1.0, 3.0, 2.0], 0.5)
    assert p50.value == pytest.approx(2.5)
    assert p50.samples == 4
    p90 = percentile(range(11), 0.9)
    assert (p90.value, p90.samples) == (9.0, 11)
    assert "n=11" in p90.describe("ms")
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_spread_and_pairs_won():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    assert quartiles(values)[1] == 12.0
    assert spread(values) == pytest.approx((13.5 - 10.5) / 12.0)
    assert pairs_won([10.0, 10.0], [9.0, 10.0], "lower") == 0.5
    assert pairs_won([10.0], [11.0], "higher") == 1.0
    assert pairs_won([], [1.0], "lower") is None


# -- failure counting ------------------------------------------------------------------


def test_refused_request_that_exhausts_its_retries_counts_as_failed():
    from repro.serve.client import ReproClient
    from repro.serve.server import ReproServer, ServeConfig

    server = ReproServer(ServeConfig(
        port=0, executor="serial", no_cache=True, telemetry=False,
        drain_grace=0.01,
    )).start()
    try:
        server.begin_drain("refusing on purpose")
        client = ReproClient(
            port=server.port, retries=2, backoff_base=0.001,
            backoff_cap=0.001, rng=random.Random(0),
        )
        requests = [("simulate-cell", {"spec": "x"})]
        replies = [None]
        drivers.client_loop(
            client, 0, requests, {"next": 0, "lock": threading.Lock()},
            replies,
        )
    finally:
        server.close()
    measurement = drivers.Measurement(attempted=1)
    drivers.account_replies(measurement, replies)
    assert replies[0].status == 503
    assert (measurement.failed, measurement.operations) == (1, 0)
    assert "503" in measurement.problems[0]


def test_divergent_payload_fails_the_request():
    replies = [
        drivers.Reply(0, status=200, seconds=0.05, key="k", payload={"v": 1}),
        drivers.Reply(1, status=200, cached=True, seconds=0.001, key="k",
                      payload={"v": 2}),
        None,
    ]
    measurement = drivers.Measurement(attempted=3)
    drivers.account_replies(measurement, replies)
    assert measurement.failed == 2  # the divergent body and the unsent one
    assert measurement.new_ms == [50.0]
    assert measurement.repeat_ms == [1.0]


def test_mismatched_sweep_cell_counts_as_failed():
    from repro.experiments.sweep import SweepCell, SweepResult

    result = SweepResult([
        SweepCell("Design1", "Model1", "handshake", 0, 10, 100, True),
        SweepCell("Design1", "Model1", "handshake", 1, 10, 100, False),
    ])
    measurement = drivers.Measurement(attempted=3)
    drivers.account_sweep(measurement, result)
    # one cell missing, one cell not equivalent
    assert measurement.failed == 2
    assert any("s1 not equivalent" in p for p in measurement.problems)


# -- wrappers ---------------------------------------------------------------------------


def _current(target):
    module = importlib.import_module(target.module)
    if target.owner:
        return getattr(module, target.owner).__dict__[target.attr]
    return getattr(module, target.attr)


def test_traced_run_records_layers_and_removes_every_wrapper():
    from repro.exec import ExecutionEngine, Job, canonical_spec_text
    from repro.fuzz.generator import GeneratorConfig, generate_case
    from repro.obs.trace import validate_chrome_trace

    originals = [_current(target) for target in TARGETS]
    text = canonical_spec_text(generate_case(3, GeneratorConfig(budget=6)).spec)
    job = Job("simulate-cell", {"spec": text, "inputs": {}, "limits": None})

    with LayerTracer("test-run") as tracer:
        assert all(_current(t) is not o for t, o in zip(TARGETS, originals))
        ExecutionEngine().run([job])
    assert all(_current(t) is o for t, o in zip(TARGETS, originals))

    metrics = layer_metrics(tracer.recorder)
    assert metrics["sim.cold.calls"] == 1
    assert metrics["sim.steps"] > 0
    assert metrics["exec.key.calls"] == 2
    assert metrics["lang.calls"] >= 1
    assert metrics["partition.search.calls"] == 0
    assert validate_chrome_trace(chrome_trace(tracer.recorder)) == len(
        tracer.recorder.spans
    )

    recorded = len(tracer.recorder.spans)
    ExecutionEngine().run([job])
    assert len(tracer.recorder.spans) == recorded
