"""Tests for the differential fuzzing subsystem: the generator's
guarantees (validity, determinism, termination), the oracle stack, the
shrinker, corpus persistence, and the campaign driver."""

import pytest

from repro.errors import ReproError
from repro.experiments.fuzzing import (
    FuzzReport,
    replay_corpus_entry,
    run_fuzz,
)
from repro.fuzz import (
    CaseResult,
    CorpusEntry,
    GeneratorConfig,
    OracleFailure,
    check_roundtrip,
    check_walker_parity,
    generate_case,
    generate_input_vectors,
    iter_corpus,
    load_corpus_entry,
    restricted_assignment,
    run_all_oracles,
    save_corpus_entry,
    shrink_spec,
)
from repro.lang.parser import parse
from repro.lang.printer import print_specification
from repro.models import MODEL1
from repro.spec.stmt import CallStmt
from repro.spec.visitor import walk_statements


class TestGenerator:
    def test_deterministic_for_seed(self):
        first = generate_case(3)
        second = generate_case(3)
        assert print_specification(first.spec) == print_specification(
            second.spec
        )
        assert first.partition.assignment == second.partition.assignment

    def test_distinct_seeds_differ(self):
        assert print_specification(generate_case(0).spec) != (
            print_specification(generate_case(1).spec)
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_specs_validate(self, seed):
        case = generate_case(seed)
        case.spec.validate()  # must not raise
        assert case.partition.p >= 1

    def test_config_changes_output(self):
        small = generate_case(2, GeneratorConfig(budget=10))
        big = generate_case(2, GeneratorConfig(budget=120, max_depth=4))
        assert big.spec.line_count() > small.spec.line_count()

    def test_signals_slice_is_not_refinable(self):
        case = generate_case(4, GeneratorConfig(signals=True, waits=True))
        assert not case.refinable

    def test_div_zero_slice_is_not_refinable(self):
        case = generate_case(4, GeneratorConfig(div_zero_probability=0.5))
        assert not case.refinable

    def test_default_config_is_refinable(self):
        assert generate_case(4).refinable

    def test_input_vectors_deterministic_and_complete(self):
        spec = generate_case(6).spec
        first = generate_input_vectors(spec, 6, count=4)
        second = generate_input_vectors(spec, 6, count=4)
        assert first == second
        assert len(first) == 4
        names = {v.name for v in spec.inputs()}
        for vector in first:
            assert set(vector) == names


class TestOracles:
    @pytest.mark.parametrize("seed", range(6))
    def test_clean_sweep_on_default_slice(self, seed):
        case = generate_case(seed)
        vectors = generate_input_vectors(case.spec, seed, count=2)
        result = run_all_oracles(case, vectors, models=[MODEL1])
        assert isinstance(result, CaseResult)
        assert result.ok, [f.describe() for f in result.failures]
        assert result.checks > 0
        assert not result.skipped

    def test_non_refinable_case_skips_refinement(self):
        case = generate_case(1, GeneratorConfig(signals=True, waits=True))
        vectors = generate_input_vectors(case.spec, 1, count=2)
        result = run_all_oracles(case, vectors, models=[MODEL1])
        assert result.ok, [f.describe() for f in result.failures]
        assert result.skipped  # refinement oracle did not run

    def test_roundtrip_oracle_accepts_generated_spec(self):
        assert check_roundtrip(generate_case(2).spec) == []

    def test_parity_oracle_runs_every_vector(self):
        spec = generate_case(2).spec
        vectors = generate_input_vectors(spec, 2, count=3)
        assert check_walker_parity(spec, vectors) == []

    def test_failure_describe_mentions_oracle_and_inputs(self):
        failure = OracleFailure(
            "parity", "output q: 1 vs 2", inputs={"in1": 3}
        )
        text = failure.describe()
        assert "[parity]" in text
        assert "output q: 1 vs 2" in text
        assert "in1" in text


def _has_call(spec) -> bool:
    return any(
        isinstance(stmt, CallStmt)
        for leaf in spec.leaf_behaviors()
        for stmt in walk_statements(leaf.stmt_body)
    )


class TestShrinker:
    def test_shrinks_while_preserving_predicate(self):
        # find a generated case with a subprogram call, then shrink to
        # (close to) the smallest spec that still contains one
        case = next(
            generate_case(seed)
            for seed in range(50)
            if _has_call(generate_case(seed).spec)
        )
        small = shrink_spec(case.spec, _has_call)
        small.validate()
        assert _has_call(small)
        assert len(print_specification(small)) < len(
            print_specification(case.spec)
        )

    def test_result_of_shrinking_still_prints_and_parses(self):
        case = next(
            generate_case(seed)
            for seed in range(50)
            if _has_call(generate_case(seed).spec)
        )
        small = shrink_spec(case.spec, _has_call)
        reparsed = parse(print_specification(small))
        reparsed.validate()

    def test_predicate_never_true_returns_original(self):
        spec = generate_case(0).spec
        result = shrink_spec(spec, lambda s: True)
        # every candidate is "interesting", so shrinking bottoms out at
        # a tiny, still-valid spec
        result.validate()

    def test_restricted_assignment_drops_vanished_names(self):
        case = generate_case(5)
        assignment = dict(case.partition.assignment)
        shrunk = shrink_spec(case.spec, lambda s: True)
        projected = restricted_assignment(shrunk, assignment)
        top_names = {
            b.name for b in getattr(shrunk.top, "subs", ())
        } | {v.name for v in shrunk.variables} | {shrunk.top.name}
        assert set(projected) <= top_names | set(assignment)


class TestCorpusPersistence:
    def _entry(self):
        return CorpusEntry(
            name="sample_case",
            bug="stale temporary on inout write-back",
            spec_text=print_specification(generate_case(0).spec),
            partition={"b1": "PROC", "g1": "ASIC"},
            input_vectors=[{"in1": 5}, {"in1": -1}],
        )

    def test_save_load_roundtrip(self, tmp_path):
        entry = self._entry()
        path = save_corpus_entry(str(tmp_path), entry)
        loaded = load_corpus_entry(path)
        assert loaded.name == entry.name
        assert loaded.bug == entry.bug
        assert loaded.partition == entry.partition
        assert loaded.input_vectors == [{"in1": 5}, {"in1": -1}]
        loaded.load_spec().validate()

    def test_empty_vectors_are_not_persisted(self, tmp_path):
        entry = self._entry()
        entry.input_vectors = [{}, {"in1": 5}, {}]
        path = save_corpus_entry(str(tmp_path), entry)
        assert load_corpus_entry(path).input_vectors == [{"in1": 5}]

    def test_iter_corpus_sorted_by_name(self, tmp_path):
        for name in ("zebra", "alpha"):
            entry = self._entry()
            entry.name = name
            save_corpus_entry(str(tmp_path), entry)
        assert [e.name for e in iter_corpus(str(tmp_path))] == [
            "alpha", "zebra"
        ]

    def test_replay_flags_unparseable_entry(self):
        entry = CorpusEntry(
            name="broken", bug="x", spec_text="not a specification"
        )
        failures = replay_corpus_entry(entry, models=[MODEL1])
        assert failures and failures[0].oracle == "corpus"
        assert "broken" in failures[0].detail


class TestCampaign:
    def test_report_is_deterministic(self):
        first = run_fuzz(seed=11, count=6, models=[MODEL1], corpus=None)
        second = run_fuzz(seed=11, count=6, models=[MODEL1], corpus=None)
        assert first.render() == second.render()
        assert first.as_json() == second.as_json()

    def test_clean_campaign_reports_ok(self):
        report = run_fuzz(seed=0, count=10, models=[MODEL1], corpus=None)
        assert isinstance(report, FuzzReport)
        assert report.ok, report.render()
        assert report.checks > 0
        assert "all oracles passed" in report.render()

    def test_slices_are_interleaved(self):
        report = run_fuzz(seed=0, count=10, models=[MODEL1], corpus=None)
        assert {s.name for s in report.slices} == {
            "default", "signals", "div-zero"
        }

    def test_model_names_resolved(self):
        report = run_fuzz(seed=0, count=1, models=["Model2"], corpus=None)
        assert report.models == ["Model2"]

    def test_campaign_replays_corpus(self):
        report = run_fuzz(seed=0, count=1, models=[MODEL1],
                          corpus="tests/corpus")
        assert report.corpus_entries >= 3
        assert report.corpus_failures == 0

    def test_unknown_model_rejected(self):
        with pytest.raises(ReproError):
            run_fuzz(seed=0, count=1, models=["Model9"], corpus=None)
