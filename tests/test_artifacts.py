"""Every committed artifact under ``benchmarks/output/`` is either
regenerated here and byte-compared (Figure 10 with its measured
milliseconds masked), checked by another test or CI step, or exempt
because it records measured times.

The deterministic artifacts of the paper's Figures 1 and 3–8, the
three ablations, the VHDL size table and the robustness campaign are
written by ``bench_*`` functions of ``benchmarks/``.  This test calls
those functions in-process, with a ``benchmark`` stand-in that runs
the measured callable once and a ``write_artifact`` that writes into
``tmp_path`` (never into ``benchmarks/output/``), and compares each
file with the committed one.  A change to what the refiner emits
therefore fails here, not silently.  The robustness campaign (about
20 s) and the 200-case fuzz campaign (about 16 s, regenerated through
``repro fuzz``) run in tier 2 (``-m campaign``).
"""

import fnmatch
import importlib.util
import inspect
import pathlib
import re

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
OUTPUT_DIR = BENCH_DIR / "output"
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
GITIGNORE = BENCH_DIR.parent / ".gitignore"

#: bench module -> (bench function, the artifacts it writes)
REGENERATED = {
    "bench_figure1": (
        ("bench_regenerate_figure1", ("figure1_refined.spec",)),
    ),
    "bench_figure3": (
        ("bench_regenerate_figure3_topologies", ("figure3_topologies.txt",)),
    ),
    "bench_figure4": (
        ("bench_regenerate_figure4", ("figure4_control_refinement.txt",)),
        ("bench_nonleaf_forces_wrap_scheme", ("figure4c_nonleaf.txt",)),
    ),
    "bench_figure5_6": (
        ("bench_regenerate_figure5", ("figure5_data_refinement.txt",)),
        ("bench_regenerate_figure6", ("figure6_nonleaf_refinement.txt",)),
    ),
    "bench_figure7": (
        ("bench_regenerate_figure7", ("figure7_arbiter.txt",)),
    ),
    "bench_figure8": (
        ("bench_regenerate_figure8", ("figure8_bus_interface.txt",)),
    ),
    "bench_ablation_equivalence": (
        ("bench_equivalence_cost_table", ("ablation_equivalence_cost.txt",)),
    ),
    "bench_ablation_partitioners": (
        ("bench_partitioner_comparison", ("ablation_partitioners.txt",)),
    ),
    "bench_ablation_protocols": (
        ("bench_protocol_comparison", ("ablation_protocols.txt",)),
    ),
    "bench_export_backends": (
        ("bench_vhdl_size_table", ("figure10_vhdl_sizes.txt",)),
    ),
    "bench_robustness": (
        ("bench_robustness_campaign", ("robustness_campaign.txt",)),
    ),
}

#: bench modules too slow for tier 1
TIER2 = {"bench_robustness"}

#: regenerated through ``repro fuzz`` (no bench function writes it)
FUZZ_REPORT = "fuzz_campaign.txt"

#: deterministic artifacts another test or a CI step compares
CHECKED_ELSEWHERE = {
    "figure9.txt": "equals tests/golden/medical_figure9.txt (asserted "
                   "below), which test_workloads.py regenerates",
    "explore_frontier.txt": "CI explore-smoke cmp's `repro explore` with it",
    "explore_frontier_pcm_pwm.txt": "CI explore-smoke cmp's the pcm_pwm "
                                    "frontier with it",
    "loadgen_report.txt": "CI serve-smoke cmp's `repro loadgen --serve "
                          "--seed 0` with it",
    "profile.json": "test_compile_time_resolution.py reads its counters",
}

#: regenerated and compared with its measured milliseconds masked
MASKED = ("bench_figure10", "bench_regenerate_figure10_table", "figure10.txt")

#: artifacts that carry measured times, so no rerun reproduces them
EXEMPT = {
    "kernel_batch.json": "CPU-time ratios of bench_kernel_batch.py",
    "kernel_batch.txt": "CPU-time ratios of bench_kernel_batch.py",
    "kernel_hotpath.json": "CPU-time ratios of bench_kernel_hotpath.py",
    "kernel_hotpath.txt": "CPU-time ratios of bench_kernel_hotpath.py",
    "explore_seeding.json": "search wall times of bench_explore.py",
    "explore_seeding.txt": "search wall times of bench_explore.py",
    "trace.json": "span timestamps of `repro profile --trace`",
}


def _load(path: pathlib.Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Benchmark:
    """Stands in for pytest-benchmark's fixture: one plain call."""

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def pedantic(self, fn, args=(), kwargs=None, **_):
        return fn(*args, **(kwargs or {}))


class _Fixtures:
    """Resolves a bench function's arguments the way pytest would, from
    the bench module's fixtures and ``benchmarks/conftest.py``."""

    def __init__(self, module, conftest, out_dir: pathlib.Path):
        self.sources = (module, conftest)
        self.out_dir = out_dir
        self.values = {
            "benchmark": _Benchmark(),
            "write_artifact": self._write,
        }

    def _write(self, name: str, text: str) -> None:
        (self.out_dir / name).write_text(text + "\n")

    def call(self, fn):
        kwargs = {name: self.get(name)
                  for name in inspect.signature(fn).parameters}
        return fn(**kwargs)

    def get(self, name: str):
        if name not in self.values:
            for source in self.sources:
                fixture = getattr(source, name, None)
                if fixture is not None:
                    self.values[name] = self.call(fixture.__wrapped__)
                    break
            else:
                raise LookupError(f"no fixture {name!r} for the bench call")
        return self.values[name]


@pytest.mark.campaign
def test_fuzz_campaign_report_is_byte_identical(tmp_path):
    from repro.cli import main

    out = tmp_path / FUZZ_REPORT
    corpus = BENCH_DIR.parent / "tests" / "corpus"
    assert main(["fuzz", "--seed", "0", "--count", "200",
                 "--corpus", str(corpus), "-o", str(out)]) == 0
    assert out.read_bytes() == (OUTPUT_DIR / FUZZ_REPORT).read_bytes()


@pytest.mark.parametrize("module_name", [
    pytest.param(name, marks=pytest.mark.campaign) if name in TIER2 else name
    for name in sorted(REGENERATED)
])
def test_regenerated_artifact_is_byte_identical(module_name, tmp_path):
    conftest = _load(BENCH_DIR / "conftest.py", "_artifact_bench_conftest")
    module = _load(BENCH_DIR / f"{module_name}.py", f"_artifact_{module_name}")
    fixtures = _Fixtures(module, conftest, tmp_path)
    expected = []
    for function, artifacts in REGENERATED[module_name]:
        fixtures.call(getattr(module, function))
        expected.extend(artifacts)
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(expected)
    for name in expected:
        assert (tmp_path / name).read_bytes() == (OUTPUT_DIR / name).read_bytes(), (
            f"{name} no longer matches benchmarks/output/{name}"
        )


def _mask_times(text: str) -> str:
    """Blank Figure 10's measured milliseconds and the column padding
    they stretch; sizes and ratios stay compared."""
    text = re.sub(r"/\d+ms", "/--ms", text)
    text = re.sub(r"-{3,}", "--", text)
    return re.sub(r" +", " ", text)


def test_figure10_artifact_matches_with_times_masked(tmp_path):
    module_name, function, name = MASKED
    conftest = _load(BENCH_DIR / "conftest.py", "_artifact_bench_conftest")
    module = _load(BENCH_DIR / f"{module_name}.py", f"_artifact_{module_name}")
    _Fixtures(module, conftest, tmp_path).call(getattr(module, function))
    assert _mask_times((tmp_path / name).read_text()) == _mask_times(
        (OUTPUT_DIR / name).read_text()
    ), f"{name} no longer matches benchmarks/output/{name}, times masked"


def test_every_committed_artifact_is_accounted_for():
    regenerated = {
        name
        for functions in REGENERATED.values()
        for _, artifacts in functions
        for name in artifacts
    } | {FUZZ_REPORT, MASKED[-1]}
    groups = (regenerated, set(CHECKED_ELSEWHERE), set(EXEMPT))
    assert sum(map(len, groups)) == len(set().union(*groups)), "listed twice"
    # files a local benchmark run may leave behind are not committed
    ignored = [
        line[len("benchmarks/output/"):]
        for line in GITIGNORE.read_text().split()
        if line.startswith("benchmarks/output/")
    ]
    committed = {
        path.name for path in OUTPUT_DIR.iterdir()
        if path.is_file()
        and not any(fnmatch.fnmatch(path.name, glob) for glob in ignored)
    }
    assert committed - set().union(*groups) == set()
    assert set().union(*groups) - committed == set()
    assert (OUTPUT_DIR / "figure9.txt").read_bytes() == (
        GOLDEN_DIR / "medical_figure9.txt"
    ).read_bytes()
