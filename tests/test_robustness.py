"""Robustness campaign runner: classification, rendering, determinism."""

import pytest

from repro.experiments.robustness import (
    RobustnessCell,
    RobustnessResult,
    default_scenarios,
    run_robustness,
)
from repro.sim.faults import FaultScenario


class TestCatalog:
    def test_default_scenarios_cover_both_expectations(self):
        scenarios = default_scenarios()
        expects = {s.expect for s in scenarios}
        assert expects == {"recover", "detect"}

    def test_bus_globs_do_not_match_control_signals(self):
        from fnmatch import fnmatchcase

        for scenario in default_scenarios():
            if scenario.target.startswith("b*"):
                assert not fnmatchcase("Acquire_done", scenario.target)
                assert not fnmatchcase("Filter_start", scenario.target)


class TestNameChecks:
    @pytest.mark.parametrize("kwargs, message", [
        ({"designs": ["Design9"]},
         "unknown design(s) ['Design9']; choose from "
         "['Design1', 'Design2', 'Design3']"),
        ({"models": ["Model9"]},
         "unknown model(s) ['Model9']; choose from "
         "['Model1', 'Model2', 'Model3', 'Model4']"),
    ])
    def test_unknown_name_is_a_repro_error_like_the_sweep(self, kwargs,
                                                          message):
        from repro.errors import FaultConfigError, ReproError
        from repro.experiments.sweep import run_sweep

        for run in (run_robustness, run_sweep):
            with pytest.raises(ReproError) as exc:
                run(**kwargs)
            assert str(exc.value) == message
            assert not isinstance(exc.value, FaultConfigError)


class TestCellSemantics:
    def _cell(self, expect, outcome, fired=1):
        return RobustnessCell(
            design="D",
            model="M",
            scenario=FaultScenario(
                name="s", kind="drop", target="x", expect=expect
            ),
            outcome=outcome,
            fired=fired,
        )

    def test_recover_expectation(self):
        assert self._cell("recover", "recovered").as_expected
        assert not self._cell("recover", "mismatch").as_expected

    def test_detect_expectation_accepts_every_detection_channel(self):
        for outcome in ("deadlock", "limit", "sim-error", "mismatch"):
            assert self._cell("detect", outcome).as_expected
        assert not self._cell("detect", "recovered").as_expected

    def test_vacuous_cell_is_never_unexpected(self):
        cell = self._cell("recover", "mismatch", fired=0)
        assert cell.vacuous and cell.as_expected
        assert cell.label() == "-"

    def test_unexpected_label_is_flagged(self):
        assert self._cell("recover", "mismatch").label() == "mismatch !"


class TestCampaignSlice:
    """One design x one model x two scenarios — the fast end-to-end
    slice; the full sweep runs from the CLI/benchmark harness."""

    @pytest.fixture(scope="class")
    def result(self, medical_spec):
        return run_robustness(
            spec=medical_spec,
            scenarios=[
                FaultScenario(
                    name="drop-done", kind="drop", target="b*_done",
                    count=1, expect="recover",
                ),
                FaultScenario(
                    name="kill-memory", kind="kill", target="?mem*",
                    count=1, expect="detect",
                ),
            ],
            designs=("Design1",),
            models=("Model4",),
        )

    def test_all_cells_behave_as_expected(self, result):
        assert result.unexpected() == []
        cells = result.all_cells()
        assert len(cells) == 2
        assert all(not c.vacuous for c in cells)

    def test_recovering_scenario_reported(self, result):
        assert "drop-done" in result.recovered_scenarios("Design1")

    def test_render_contains_table_and_summary(self, result):
        text = result.render()
        assert "Robustness campaign" in text
        assert "| Design1" in text
        assert "unexpected: 0" in text

    def test_same_seed_is_byte_identical(self, result, medical_spec):
        again = run_robustness(
            spec=medical_spec,
            scenarios=[
                FaultScenario(
                    name="drop-done", kind="drop", target="b*_done",
                    count=1, expect="recover",
                ),
                FaultScenario(
                    name="kill-memory", kind="kill", target="?mem*",
                    count=1, expect="detect",
                ),
            ],
            designs=("Design1",),
            models=("Model4",),
        )
        assert again.render() == result.render()


@pytest.mark.campaign
class TestFullCampaign:
    """Tier 2: the complete scenarios x 3 designs x 4 models sweep.
    Deselected by the default addopts; CI's scheduled job runs it with
    ``pytest -m campaign``."""

    def test_full_sweep_has_no_unexpected_cells(self, medical_spec):
        result = run_robustness(spec=medical_spec)
        assert result.unexpected() == []
        assert len(result.all_cells()) == 72
        assert "unexpected: 0" in result.render()
