"""Tests for the multi-objective exploration campaign
(:mod:`repro.experiments.explore` + the ``explore-cell`` task)."""

import json

import pytest

from repro.errors import ReproError
from repro.exec import ExecutionEngine, ResultCache
from repro.experiments.explore import (
    DesignPoint,
    ParetoFrontier,
    QualityCache,
    QualityEvaluator,
    run_explore,
    validate_explore_report,
)
from repro.obs.events import EventJournal
from repro.obs.metrics import MetricsRegistry

SMALL = dict(allocations=["paper"], models=["Model1", "Model2"])


def point(traffic, lines, cost, recipe="r", **kw):
    return DesignPoint(
        allocation=kw.get("allocation", "paper"), recipe=recipe,
        model=kw.get("model", "Model1"), protocol="handshake",
        traffic=traffic, refined_lines=lines, cost=cost,
    )


class TestParetoFrontier:
    def test_dominated_candidate_is_rejected(self):
        frontier = ParetoFrontier()
        assert frontier.add(point(10, 10, 10.0))
        assert not frontier.add(point(11, 11, 11.0))
        assert len(frontier) == 1

    def test_dominating_candidate_evicts(self):
        frontier = ParetoFrontier()
        frontier.add(point(10, 10, 10.0))
        assert frontier.add(point(9, 9, 9.0))
        assert len(frontier) == 1
        assert frontier.points[0].traffic == 9

    def test_incomparable_points_coexist(self):
        frontier = ParetoFrontier()
        frontier.add(point(10, 5, 10.0))
        assert frontier.add(point(5, 10, 10.0))
        assert len(frontier) == 2

    def test_exact_tie_keeps_first(self):
        frontier = ParetoFrontier()
        frontier.add(point(10, 10, 10.0, recipe="first"))
        assert not frontier.add(point(10, 10, 10.0, recipe="second"))
        assert frontier.points[0].recipe == "first"


class TestQualityComponents:
    def test_evaluator_baseline_scores_one(self):
        evaluator = QualityEvaluator()
        base = point(10, 20, 30.0)
        assert evaluator.score(base) == 1.0
        better = point(5, 10, 15.0)
        worse = point(20, 40, 60.0)
        assert evaluator.score(better) > 1.0 > evaluator.score(worse)

    def test_cache_keeps_top_k_deterministically(self):
        cache = QualityCache(top_k=2)
        cache.offer("paper", "greedy", 1.0, "pg")
        cache.offer("paper", "annealed@1", 1.2, "pa1")
        cache.offer("paper", "annealed@2", 1.1, "pa2")
        assert cache.winners("paper") == [("annealed@1", "pa1"),
                                          ("annealed@2", "pa2")]
        # a recipe's best score counts, and ties break by recipe name
        cache.offer("paper", "greedy", 1.2, "pg")
        assert cache.winners("paper") == [("annealed@1", "pa1"),
                                          ("greedy", "pg")]

    def test_cache_is_per_allocation(self):
        cache = QualityCache(top_k=1)
        cache.offer("paper", "greedy", 1.0, "pg")
        assert cache.winners("dual-asic") == []


class TestRunExplore:
    @pytest.fixture(scope="class")
    def campaign(self):
        return run_explore(**SMALL)

    def test_report_is_reproducible_and_beats_exhaustive(self, campaign):
        rendered = campaign.render()
        assert "Pareto frontier" in rendered
        assert campaign.cells_evaluated < campaign.exhaustive_cells
        assert campaign.cells_evaluated == len(campaign.evaluated)
        again = run_explore(**SMALL)
        assert again.render() == rendered

    def test_json_report_validates(self, campaign):
        data = json.loads(campaign.as_json())
        validate_explore_report(data)
        assert data["stop"]["reason"] in (
            "layers-exhausted", "frontier-converged", "cell-budget"
        )

    def test_validator_rejects_tampered_report(self, campaign):
        data = json.loads(campaign.as_json())
        data["cells_evaluated"] = data["exhaustive_cells"] + 1
        with pytest.raises(ReproError):
            validate_explore_report(data)
        data = json.loads(campaign.as_json())
        del data["stop"]
        with pytest.raises(ReproError):
            validate_explore_report(data)

    def test_warm_cache_is_byte_identical(self, campaign, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cold = run_explore(**SMALL, engine=ExecutionEngine(cache=cache))
        warm_engine = ExecutionEngine(cache=cache)
        warm = run_explore(**SMALL, engine=warm_engine)
        assert cold.render() == warm.render() == campaign.render()
        assert warm_engine.metrics.cache_hits > 0
        assert warm_engine.metrics.executed == 0

    def test_cell_budget_stops_deterministically(self):
        result = run_explore(**SMALL, max_cells=1)
        assert result.cells_evaluated == 1
        assert result.stop.reason == "cell-budget"
        assert result.stop.layer == 1

    def test_unknown_allocation_rejected(self):
        with pytest.raises(ReproError):
            run_explore(allocations=["nonesuch"])
        with pytest.raises(ReproError):
            run_explore(models=["Model9"])
        with pytest.raises(ReproError):
            run_explore(top_k=0)

    def test_telemetry_threads_through_engine(self, tmp_path):
        journal = EventJournal(keep=True)
        registry = MetricsRegistry()
        engine = ExecutionEngine(journal=journal, registry=registry)
        result = run_explore(**SMALL, engine=engine)
        kinds = [record["kind"] for record in journal.records]
        assert kinds[0] == "campaign-start"
        assert kinds[-1] == "campaign-complete"
        assert "explore-layer-start" in kinds
        assert "explore-layer-complete" in kinds
        run_ids = {record["request_id"] for record in journal.records}
        assert len(run_ids) == 1
        assert next(iter(run_ids)).startswith("explore-")
        evaluated = registry.counter(
            "repro_explore_cells_total", "", ("outcome",)
        ).labels("evaluated").value
        assert evaluated == result.cells_evaluated
        assert registry.gauge(
            "repro_explore_frontier_size", ""
        ).value == len(result.frontier)
