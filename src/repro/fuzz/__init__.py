"""Differential fuzzing: random SpecCharts vs a stack of oracles.

The subsystem hunts bugs in three layers at once:

* :mod:`repro.fuzz.generator` — a seeded random generator of valid,
  terminating, race-free specifications plus matching partitions;
* :mod:`repro.fuzz.oracle` — the judges: parser/printer round-trip,
  compiled-eval vs reference-walker parity, reused-vs-fresh simulator
  parity, and original-vs-refined equivalence across implementation
  models;
* :mod:`repro.fuzz.shrink` — an automatic test-case reducer and the
  persisted regression corpus under ``tests/corpus/``.

The campaign driver lives in :mod:`repro.experiments.fuzzing` and is
exposed as ``repro fuzz`` on the command line.
"""

from repro.fuzz.generator import (
    GeneratedCase,
    GeneratorConfig,
    generate_case,
    generate_controller_case,
    generate_input_vectors,
    generate_mesh_case,
    generate_pipeline_case,
)
from repro.fuzz.oracle import (
    CaseResult,
    OracleFailure,
    check_refinement,
    check_reuse_parity,
    check_roundtrip,
    check_walker_parity,
    run_all_oracles,
)
from repro.fuzz.shrink import (
    CorpusEntry,
    iter_corpus,
    load_corpus_entry,
    restricted_assignment,
    save_corpus_entry,
    shrink_spec,
)

__all__ = [
    "GeneratedCase",
    "GeneratorConfig",
    "generate_case",
    "generate_controller_case",
    "generate_input_vectors",
    "generate_mesh_case",
    "generate_pipeline_case",
    "CaseResult",
    "OracleFailure",
    "check_refinement",
    "check_reuse_parity",
    "check_roundtrip",
    "check_walker_parity",
    "run_all_oracles",
    "CorpusEntry",
    "iter_corpus",
    "load_corpus_entry",
    "restricted_assignment",
    "save_corpus_entry",
    "shrink_spec",
]
