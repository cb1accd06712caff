"""Pipeline span tracer: nesting, aggregation, Chrome export, no-op mode."""

import json

import pytest

from repro.apps.medical import all_designs, medical_specification
from repro.models import resolve_model
from repro.obs.trace import NULL_TRACER, SpanTracer, validate_chrome_trace
from repro.refine import Refiner

#: Every refinement procedure must show up as a span (acceptance
#: criterion: at least one span per procedure).
REFINE_PROCEDURES = (
    "validate",
    "plan",
    "control",
    "data",
    "memory",
    "businterface",
    "arbiter",
    "emitter",
    "assemble",
)


class TestSpanTracer:
    def test_nesting_follows_context_managers(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                with tracer.span("leaf"):
                    pass
            with tracer.span("sibling"):
                pass
        assert [root.name for root in tracer.roots] == ["outer"]
        outer = tracer.roots[0]
        assert [child.name for child in outer.children] == ["inner", "sibling"]
        assert [s.name for s in outer.iter_tree()] == [
            "outer", "inner", "leaf", "sibling",
        ]
        assert tracer.current is None

    def test_spans_record_durations_and_attrs(self):
        tracer = SpanTracer()
        with tracer.span("work", category="test", flavor="unit") as span:
            span.set("items", 3)
            span.add("retries")
            span.add("retries")
        assert span.end is not None
        assert span.seconds >= 0.0
        assert span.attrs == {"flavor": "unit", "items": 3, "retries": 2}

    def test_aggregate_accumulates_roots_in_first_entry_order(self):
        tracer = SpanTracer()
        with tracer.span("a", category="phase"):
            with tracer.span("nested", category="phase"):
                pass
        with tracer.span("b", category="phase"):
            pass
        with tracer.span("a", category="phase"):
            pass
        with tracer.span("other", category="pipeline"):
            pass
        buckets = tracer.aggregate(category="phase")
        # roots only (no "nested"), re-entry accumulated, order preserved
        assert list(buckets) == ["a", "b"]
        assert buckets["a"] == tracer.roots[0].seconds + tracer.roots[2].seconds
        assert tracer.aggregate() == tracer.aggregate(category=None)
        assert "other" in tracer.aggregate()

    def test_find_by_name_and_category(self):
        tracer = SpanTracer()
        with tracer.span("x", category="one"):
            with tracer.span("x", category="two"):
                pass
        assert tracer.find("x").category == "one"
        assert tracer.find("x", category="two").category == "two"
        assert tracer.find("missing") is None

    def test_describe_renders_a_tree(self):
        tracer = SpanTracer()
        assert tracer.describe() == "no spans recorded"
        with tracer.span("root", items=2):
            with tracer.span("child"):
                pass
        text = tracer.describe()
        assert "root" in text and "items=2" in text
        assert "\n  child" in text  # indented under the root


class TestChromeExport:
    def test_export_is_schema_valid(self):
        tracer = SpanTracer()
        with tracer.span("pipeline"):
            with tracer.span("refine", lines=42):
                pass
        data = json.loads(tracer.to_chrome_json())
        assert validate_chrome_trace(data) == 3  # metadata + 2 spans
        assert data["displayTimeUnit"] == "ms"
        complete = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in complete} == {"pipeline", "refine"}
        # timestamps are relative to the earliest span start
        assert min(e["ts"] for e in complete) == 0.0
        refine = next(e for e in complete if e["name"] == "refine")
        assert refine["args"] == {"lines": 42}

    @pytest.mark.parametrize(
        "broken",
        [
            [],
            {"traceEvents": "nope"},
            {"traceEvents": [{"ph": "X"}]},
            {"traceEvents": [{"ph": "B", "pid": 1, "tid": 1, "ts": 0}]},
            {"traceEvents": [
                {"ph": "X", "pid": 1, "tid": 1, "ts": 0, "name": "n"}
            ]},  # complete event without dur
        ],
    )
    def test_validator_rejects_malformed(self, broken):
        with pytest.raises(ValueError):
            validate_chrome_trace(broken)


class TestNullTracer:
    def test_null_tracer_is_inert(self):
        span = NULL_TRACER.span("anything", category="x", attr=1)
        with span as inner:
            inner.set("k", "v")
            inner.add("n")
        # the shared no-op span carries no state at all
        assert NULL_TRACER.span("other") is span
        assert not hasattr(span, "attrs")


class TestRefinerIntegration:
    def test_one_span_per_refinement_procedure(self):
        spec = medical_specification()
        spec.validate()
        partition = all_designs(spec)["Design1"]
        tracer = SpanTracer()
        with tracer.span("refine"):
            refined = Refiner(
                spec, partition, resolve_model("Model2"), tracer=tracer
            ).run()
        names = [
            s.name for s in tracer.iter_spans() if s.category == "refine"
        ]
        for procedure in REFINE_PROCEDURES:
            assert procedure in names, f"no span for procedure {procedure}"
        # the wall-clock decomposition mirrors the spans
        assert set(refined.procedure_seconds) == set(REFINE_PROCEDURES)
        assert all(v >= 0.0 for v in refined.procedure_seconds.values())
        assert validate_chrome_trace(tracer.to_chrome_trace()) >= 10

    def test_detached_refiner_records_nothing_but_still_times(self):
        spec = medical_specification()
        spec.validate()
        partition = all_designs(spec)["Design1"]
        refined = Refiner(spec, partition, resolve_model("Model1")).run()
        assert set(refined.procedure_seconds) == set(REFINE_PROCEDURES)
        assert "validate" in refined.procedure_table()
