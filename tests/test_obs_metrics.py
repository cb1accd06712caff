"""The metrics registry and Prometheus exposition: typed instruments,
label handling, histogram invariants, the render → parse → validate
round-trip, the disabled (no-op) mode, shared-stats helpers and the
SimMetrics registry bridge."""

import math
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    NULL_REGISTRY,
    _NULL_METRIC,
    parse_exposition,
    validate_exposition,
)
from repro.obs.stats import Ewma, percentile, summarize
from repro.sim.metrics import SimMetrics


# -- instruments --------------------------------------------------------------


def test_counter_monotone():
    registry = MetricsRegistry()
    counter = registry.counter("jobs_total", "Jobs.")
    counter.inc()
    counter.inc(3)
    assert counter.value == 4
    with pytest.raises(ValueError):
        counter.inc(-1)
    with pytest.raises(ValueError):
        counter.labels().dec()  # the counter child has no way down
    with pytest.raises(ValueError):
        counter.labels().set(0)


def test_gauge_up_and_down():
    registry = MetricsRegistry()
    gauge = registry.gauge("depth", "Depth.")
    gauge.set(5)
    gauge.dec(2)
    gauge.inc()
    assert gauge.value == 4


def test_labels_create_independent_series():
    registry = MetricsRegistry()
    counter = registry.counter("hits_total", "Hits.", ("outcome",))
    counter.labels("ok").inc(2)
    counter.labels("error").inc()
    counter.labels(outcome="ok").inc()  # by-name addressing, same child
    series = {
        s["labels"]["outcome"]: s["value"] for s in counter.snapshot_series()
    }
    assert series == {"ok": 3.0, "error": 1.0}


def test_label_arity_and_name_errors():
    registry = MetricsRegistry()
    counter = registry.counter("c_total", "C.", ("a", "b"))
    with pytest.raises(ValueError):
        counter.labels("only-one")
    with pytest.raises(ValueError):
        counter.labels(a="x", wrong="y")
    with pytest.raises(ValueError):
        counter.labels("x", b="y")  # positional + by-name mixed
    with pytest.raises(ValueError):
        registry.counter("c_total", "C.")  # label set mismatch
    with pytest.raises(ValueError):
        registry.gauge("c_total", "C.", ("a", "b"))  # type mismatch
    with pytest.raises(ValueError):
        registry.counter("bad name!", "B.")
    with pytest.raises(ValueError):
        registry.histogram("h", "H.", ("le",))  # reserved label


def test_histogram_bucket_invariants():
    registry = MetricsRegistry()
    histogram = registry.histogram(
        "latency_seconds", "L.", buckets=(0.1, 1.0, 10.0)
    )
    for value in (0.05, 0.5, 5.0, 50.0):
        histogram.observe(value)
    (series,) = histogram.snapshot_series()
    assert series["count"] == 4
    assert series["sum"] == pytest.approx(55.55)
    # cumulative and capped by +Inf == count
    assert series["buckets"] == {"0.1": 1, "1": 2, "10": 3, "+Inf": 4}


def test_histogram_boundary_values_are_le():
    registry = MetricsRegistry()
    histogram = registry.histogram("h_seconds", "H.", buckets=(1.0, 2.0))
    histogram.observe(1.0)  # le="1" bucket includes the boundary
    (series,) = histogram.snapshot_series()
    assert series["buckets"]["1"] == 1


def test_histogram_rejects_bad_buckets():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.histogram("h1", "H.", buckets=())
    with pytest.raises(ValueError):
        registry.histogram("h2", "H.", buckets=(1.0, 1.0))
    with pytest.raises(ValueError):
        registry.histogram("h3", "H.", buckets=(2.0, 1.0))
    registry.histogram("h4", "H.", buckets=(1.0, 2.0))
    with pytest.raises(ValueError):
        registry.histogram("h4", "H.", buckets=(1.0, 3.0))  # mismatch


def test_counter_thread_safety():
    registry = MetricsRegistry()
    counter = registry.counter("racy_total", "R.", ("lane",))

    def hammer(lane):
        for _ in range(2000):
            counter.labels(lane).inc()

    threads = [
        threading.Thread(target=hammer, args=(str(i % 2),)) for i in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    total = sum(s["value"] for s in counter.snapshot_series())
    assert total == 8000


# -- exposition: render → parse → validate ------------------------------------


def test_render_parse_roundtrip_with_gnarly_labels():
    registry = MetricsRegistry()
    gnarly = 'quote " backslash \\ newline \n done'
    registry.counter("odd_total", "Help with \\ and\nnewline.",
                     ("what",)).labels(gnarly).inc(7)
    registry.histogram("lat_seconds", "Latency.", ("task",),
                       buckets=(0.5, 1.5)).labels("sim").observe(0.7)
    registry.gauge("depth", "Depth.").set(3)
    text = registry.render()
    parsed = parse_exposition(text)
    (name, labels, value) = parsed["odd_total"]["samples"][0]
    assert labels == {"what": gnarly} and value == 7.0
    assert parsed["lat_seconds"]["type"] == "histogram"
    assert validate_exposition(text) >= 7


def test_render_formats_integers_and_infinities():
    registry = MetricsRegistry()
    registry.counter("n_total", "N.").inc(2)
    text = registry.render()
    assert "n_total 2\n" in text  # not 2.0
    registry2 = MetricsRegistry()
    registry2.gauge("g", "G.").set(math.inf)
    assert "g +Inf" in registry2.render()


def test_validate_rejects_missing_type():
    with pytest.raises(ValueError, match="TYPE"):
        validate_exposition("orphan_total 3\n")


def test_validate_rejects_negative_counter():
    text = "# TYPE bad_total counter\nbad_total -1\n"
    with pytest.raises(ValueError, match="out of range"):
        validate_exposition(text)


def test_validate_rejects_histogram_without_inf_bucket():
    text = (
        "# TYPE h histogram\n"
        'h_bucket{le="1"} 1\n'
        "h_sum 0.5\n"
        "h_count 1\n"
    )
    with pytest.raises(ValueError, match=r"\+Inf"):
        validate_exposition(text)


def test_validate_rejects_non_monotone_histogram():
    text = (
        "# TYPE h histogram\n"
        'h_bucket{le="1"} 5\n'
        'h_bucket{le="2"} 3\n'
        'h_bucket{le="+Inf"} 5\n'
        "h_sum 1\n"
        "h_count 5\n"
    )
    with pytest.raises(ValueError, match="monotone"):
        validate_exposition(text)


def test_validate_rejects_count_mismatch():
    text = (
        "# TYPE h histogram\n"
        'h_bucket{le="+Inf"} 4\n'
        "h_sum 1\n"
        "h_count 5\n"
    )
    with pytest.raises(ValueError, match="_count"):
        validate_exposition(text)


def test_parse_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_exposition('a_total{x="unterminated 1\n')
    with pytest.raises(ValueError):
        parse_exposition("a_total\n")  # no value
    with pytest.raises(ValueError):
        parse_exposition("a_total nan-ish\n")


# -- disabled mode ------------------------------------------------------------


def test_null_registry_hands_out_shared_noop():
    counter = NULL_REGISTRY.counter("x_total", "X.", ("a",))
    gauge = NULL_REGISTRY.gauge("y", "Y.")
    histogram = NULL_REGISTRY.histogram("z_seconds", "Z.")
    # one shared singleton, no per-call allocation
    assert counter is gauge is histogram is _NULL_METRIC
    assert counter.labels("anything") is counter
    counter.inc()
    gauge.set(9)
    gauge.dec()
    histogram.observe(1.0)
    assert counter.value == 0.0
    assert NULL_REGISTRY.render() == ""
    assert NULL_REGISTRY.snapshot() == {}


# -- shared stats helpers -----------------------------------------------------


def test_percentile_matches_loadgen_convention():
    values = sorted([0.1, 0.2, 0.3, 0.4])
    # nearest-rank with 0.5 rounding over (n - 1): same math the
    # loadgen report has always used
    assert percentile(values, 0.50) == 0.3
    assert percentile(values, 0.99) == 0.4
    assert percentile([], 0.5) == 0.0


def test_summarize_keys():
    summary = summarize([3.0, 1.0, 2.0])
    assert set(summary) == {"p50", "p90", "p99", "max"}
    assert summary["max"] == 3.0


def test_ewma_first_sample_seeds():
    ewma = Ewma(alpha=0.5)
    assert ewma.value == 0.0
    ewma.update(4.0)
    assert ewma.value == 4.0  # first sample seeds, not decays
    ewma.update(8.0)
    assert ewma.value == 6.0
    assert ewma.samples == 2


# -- kernel-counter bridges ---------------------------------------------------


def test_sim_metrics_publish():
    metrics = SimMetrics()
    metrics.activations = 5
    metrics.timesteps = 2
    registry = MetricsRegistry()
    metrics.publish(registry, run="original")
    snapshot = registry.snapshot()
    (series,) = snapshot["repro_sim_activations_total"]["series"]
    assert series == {"labels": {"run": "original"}, "value": 5.0}
    assert validate_exposition(registry.render()) > 0
