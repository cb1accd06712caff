"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import main


@pytest.fixture()
def medical_file(tmp_path):
    from repro.apps.medical import medical_specification
    from repro.lang.printer import print_specification

    path = tmp_path / "medical.spec"
    path.write_text(print_specification(medical_specification()))
    return str(path)


class TestStats:
    def test_default_medical(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "behaviors: 16" in out
        assert "data-access channels: 52" in out

    def test_from_file(self, capsys, medical_file):
        assert main(["stats", medical_file]) == 0
        assert "MedicalBVM" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["stats", "/no/such/file.spec"]) == 2


class TestPrint:
    def test_print_parses_back(self, capsys):
        from repro.lang.parser import parse

        assert main(["print"]) == 0
        text = capsys.readouterr().out
        parse(text).validate()


class TestSimulate:
    def test_default(self, capsys):
        assert main(["simulate"]) == 0
        out = capsys.readouterr().out
        assert "completed" in out
        assert "display_out" in out

    def test_with_inputs(self, capsys):
        assert main(["simulate", "--input", "patient_profile=12",
                     "--input", "num_cycles=1"]) == 0
        assert "alarm_out = 0" in capsys.readouterr().out

    def test_bad_input_format(self, capsys):
        assert main(["simulate", "--input", "oops"]) == 2
        assert "name=value" in capsys.readouterr().err


class TestPartition:
    @pytest.mark.parametrize("algorithm", ["greedy", "kl", "annealed"])
    def test_algorithms(self, capsys, algorithm):
        assert main(["partition", "--algorithm", algorithm]) == 0
        out = capsys.readouterr().out
        assert "cost:" in out


class TestRefine:
    def test_refine_writes_output(self, capsys, tmp_path):
        out_file = tmp_path / "refined.spec"
        assert main([
            "refine", "--design", "Design1", "--model", "Model2",
            "-o", str(out_file),
        ]) == 0
        assert out_file.exists()
        from repro.lang.parser import parse

        parse(out_file.read_text()).validate()

    def test_unknown_design(self, capsys):
        assert main(["refine", "--design", "Design9"]) == 2
        assert "unknown design" in capsys.readouterr().err

    def test_refine_from_file(self, capsys, medical_file, tmp_path):
        assert main([
            "refine", medical_file, "--design", "Design3",
            "--model", "Model4",
        ]) == 0
        out = capsys.readouterr().out
        assert "Model4" in out


class TestVerify:
    def test_equivalent(self, capsys):
        assert main(["verify", "--design", "Design2", "--model", "Model1"]) == 0
        assert "EQUIVALENT" in capsys.readouterr().out


class TestExportC:
    def test_to_stdout(self, capsys):
        assert main(["export-c"]) == 0
        out = capsys.readouterr().out
        assert "int main(void)" in out
        assert "beh_BVM" in out

    def test_to_file_with_inputs(self, capsys, tmp_path):
        out_file = tmp_path / "bvm.c"
        assert main(["export-c", "--input", "patient_profile=12",
                     "-o", str(out_file)]) == 0
        assert "patient_profile = 12" in out_file.read_text()


class TestExportVhdl:
    def test_functional_model(self, capsys):
        assert main(["export-vhdl"]) == 0
        out = capsys.readouterr().out
        assert "entity MedicalBVM is" in out

    def test_refined_design(self, capsys, tmp_path):
        out_file = tmp_path / "asic.vhd"
        assert main(["export-vhdl", "--design", "Design2",
                     "--model", "Model2", "-o", str(out_file)]) == 0
        text = out_file.read_text()
        assert "entity MedicalBVM_Model2 is" in text
        assert "procedure MST_send_b" in text


class TestFigures:
    def test_figure9(self, capsys):
        assert main(["figure9"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "paper" in out

    def test_figure9_no_paper(self, capsys):
        assert main(["figure9", "--no-paper"]) == 0
        assert "(paper)" not in capsys.readouterr().out

    def test_figure10(self, capsys):
        assert main(["figure10"]) == 0
        assert "Figure 10" in capsys.readouterr().out


class TestKernelLimitFlags:
    def test_simulate_accepts_limit_flags(self, capsys):
        assert main(["simulate", "--max-steps", "1000",
                     "--max-delta", "500"]) == 0
        assert "completed" in capsys.readouterr().out

    def test_verify_limit_breach_names_the_limit(self, capsys):
        assert main(["verify", "--design", "Design1", "--model", "Model4",
                     "--max-steps", "500"]) == 2
        assert "max_steps=500" in capsys.readouterr().err


class TestVerifyProtocol:
    def test_timeout_protocol_is_equivalent(self, capsys):
        assert main(["verify", "--design", "Design1", "--model", "Model2",
                     "--protocol", "handshake-timeout"]) == 0
        assert "EQUIVALENT" in capsys.readouterr().out


class TestPartitionSeed:
    def test_annealed_seed_flag(self, capsys):
        assert main(["partition", "--algorithm", "annealed",
                     "--seed", "7"]) == 0
        assert "cost:" in capsys.readouterr().out


class TestRobustness:
    def test_single_cell_campaign(self, capsys, tmp_path):
        out_file = tmp_path / "campaign.txt"
        assert main(["robustness", "--design", "Design1",
                     "--model", "Model2", "-o", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "Robustness campaign" in out
        assert "unexpected: 0" in out
        assert out_file.read_text().startswith("Robustness campaign")

    def test_no_output_file(self, capsys):
        assert main(["robustness", "--design", "Design1",
                     "--model", "Model1", "-o", ""]) == 0
        assert "written to" not in capsys.readouterr().out


class TestProfile:
    def test_table_and_json(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "profile.json"
        assert main(["profile", "--design", "Design1",
                     "--model", "Model2", "-o", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "repro profile: MedicalBVM Design1 Model2" in out
        assert "bus transactions" in out
        assert "simulate-refined" in out
        assert "verify: EQUIVALENT" in out
        data = json.loads(out_file.read_text())
        assert data["equivalent"] is True
        assert data["refined_metrics"]["bus_transactions"] > 0
        assert set(data["phases_seconds"]) == {
            "refine", "simulate-original", "simulate-refined", "verify"
        }

    def test_no_verify_skips_phase(self, capsys):
        assert main(["profile", "--design", "Design1", "--no-verify",
                     "-o", ""]) == 0
        out = capsys.readouterr().out
        assert "verify: not run" in out
        assert "written to" not in out

    def test_unknown_design(self, capsys):
        assert main(["profile", "--design", "Design9", "-o", ""]) == 2

    def test_json_flag_prints_json(self, capsys):
        import json

        assert main(["profile", "--design", "Design1", "--json",
                     "-o", ""]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["design"] == "Design1"
        assert "refine_procedure_seconds" in data


class TestTrace:
    def test_trace_writes_valid_chrome_json(self, capsys, tmp_path):
        import json

        from repro.obs.trace import validate_chrome_trace

        out_file = tmp_path / "trace.json"
        assert main(["trace", "--design", "Design1", "--model", "Model2",
                     "-o", str(out_file)]) == 0
        out = capsys.readouterr().out
        # one span per pipeline stage and per refinement procedure
        for name in ("parse", "validate", "partition", "refine",
                     "estimate", "export-c", "export-vhdl",
                     "simulate-original", "simulate-refined",
                     "control", "data", "memory", "businterface",
                     "arbiter", "emitter", "assemble"):
            assert name in out, f"missing span {name}"
        data = json.loads(out_file.read_text())
        assert validate_chrome_trace(data) >= 16
        names = {e["name"] for e in data["traceEvents"] if e["ph"] == "X"}
        assert "emitter" in names and "simulate-refined" in names

    def test_trace_without_output_file(self, capsys):
        assert main(["trace", "--design", "Design1", "-o", ""]) == 0
        assert "written to" not in capsys.readouterr().out


class TestExplain:
    def test_explain_single_line(self, capsys):
        assert main(["explain", "1", "--design", "Design1"]) == 0
        out = capsys.readouterr().out
        assert "line 1:" in out
        assert "origin:" in out

    def test_explain_file_colon_line(self, capsys):
        assert main(["explain", "refined.sp:3", "--design", "Design1"]) == 0
        assert "line 3:" in capsys.readouterr().out

    def test_explain_all_summary(self, capsys):
        assert main(["explain", "--design", "Design1", "--all"]) == 0
        out = capsys.readouterr().out
        assert "lines" in out and "emitter" in out

    def test_explain_check_passes(self, capsys):
        assert main(["explain", "--design", "Design1", "--model", "Model3",
                     "--check"]) == 0
        out = capsys.readouterr().out
        assert "resolve to a refinement step" in out
        assert "provenance:" in out

    def test_explain_requires_a_line(self, capsys):
        assert main(["explain", "--design", "Design1"]) == 2

    def test_explain_rejects_bad_line(self, capsys):
        assert main(["explain", "abc", "--design", "Design1"]) == 2


class TestSimulateVcd:
    def test_vcd_of_refined_design_round_trips(self, capsys, tmp_path):
        from repro.obs.vcd import parse_vcd

        refined_file = tmp_path / "refined.sp"
        assert main(["refine", "--design", "Design1", "--model", "Model1",
                     "-o", str(refined_file)]) == 0
        vcd_file = tmp_path / "waves.vcd"
        assert main(["simulate", str(refined_file),
                     "--vcd", str(vcd_file)]) == 0
        out = capsys.readouterr().out
        assert "VCD waveform written" in out
        data = parse_vcd(vcd_file.read_text())
        assert data.signals
        assert sum(len(s.changes) for s in data.signals.values()) > 0


class TestFigure10Breakdown:
    def test_breakdown_table(self, capsys):
        assert main(["figure10", "--breakdown", "--no-paper"]) == 0
        out = capsys.readouterr().out
        assert "Figure 10 breakdown" in out
        assert "emitter" in out and "assemble" in out


class TestFuzz:
    def test_small_campaign_passes(self, capsys, tmp_path):
        report_file = tmp_path / "fuzz.txt"
        assert main(["fuzz", "--seed", "0", "--count", "4",
                     "--model", "Model1", "--corpus", "",
                     "-o", str(report_file)]) == 0
        out = capsys.readouterr().out
        assert "fuzz campaign" in out
        assert "all oracles passed" in out
        assert "fuzz campaign" in report_file.read_text()

    def test_fuzz_json_report(self, capsys):
        import json

        assert main(["fuzz", "--seed", "1", "--count", "2", "--json",
                     "--model", "Model1", "--corpus", "", "-o", ""]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["count"] == 2

    def test_corpus_replay_via_cli(self, capsys):
        assert main(["fuzz", "--count", "0", "--model", "Model1",
                     "-o", ""]) == 0
        assert "corpus replay" in capsys.readouterr().out

    def test_trace_export(self, capsys, tmp_path):
        import json

        trace_file = tmp_path / "fuzz_trace.json"
        assert main(["fuzz", "--count", "2", "--model", "Model1",
                     "--corpus", "", "-o", "",
                     "--trace", str(trace_file)]) == 0
        events = json.loads(trace_file.read_text())
        assert any(e.get("name", "").startswith("case-")
                   for e in events.get("traceEvents", events))


class TestEngineOptions:
    # every job is one design point or one seed: no bundling options
    @pytest.mark.parametrize("argv", [
        ["explore", "--batch", "--model", "Model1"],
        ["sweep", "--lanes", "3", "--design", "Design1", "--model", "Model1"],
        ["sweep", "--shards", "2", "--design", "Design1", "--model", "Model1"],
    ])
    def test_removed_bundling_options_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["-o", ""])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("cache_flags", [[], ["--no-cache"],
                                             ["--cache", "", "--no-cache"]])
    def test_refresh_without_a_cache_is_a_usage_error(self, capsys,
                                                      cache_flags):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--design", "Design1", "--model", "Model1",
                  "--refresh", *cache_flags, "-o", ""])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--refresh" in err and "--cache" in err

    def test_refresh_with_a_cache_recomputes(self, tmp_path, capsys):
        argv = ["sweep", "--design", "Design1", "--model", "Model1",
                "--cache", str(tmp_path / "cache"), "-o", ""]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--refresh"]) == 0
        assert re.search(r"jobs executed +1", capsys.readouterr().err)

    def test_no_cache_writes_no_entry(self, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(["sweep", "--design", "Design1", "--model", "Model1",
                     "--cache", str(cache_dir), "--no-cache",
                     "-o", ""]) == 0
        assert not cache_dir.exists()
