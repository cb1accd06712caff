"""The setup every campaign driver shares.

A driver resolves its workload and stimulus through :func:`prologue`,
checks user-chosen names with :func:`select`, and runs its whole grid
inside :func:`bracket`, so every campaign journals one
``campaign-start`` ... ``campaign-complete`` pair under one run ID.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional

from repro.errors import ReproError
from repro.obs.events import (
    NULL_JOURNAL,
    bind_request_id,
    current_request_id,
    new_request_id,
)


class Prologue(NamedTuple):
    """What a registry-workload campaign runs over."""

    workload: object
    spec: object
    inputs: Dict[str, int]
    engine: object
    #: canonical printed text of ``spec`` (the form jobs carry)
    spec_text: str


def prologue(workload, spec, inputs, engine) -> Prologue:
    """Resolve ``workload`` (default ``medical``); an explicit ``spec``
    or ``inputs`` overrides the workload's, ``engine`` defaults to the
    serial, uncached :class:`repro.exec.ExecutionEngine`."""
    from repro.apps.workloads import resolve_workload
    from repro.exec import ExecutionEngine, canonical_spec_text

    workload = resolve_workload(workload)
    spec = spec or workload.spec()
    spec.validate()
    return Prologue(
        workload=workload,
        spec=spec,
        inputs=dict(inputs if inputs is not None else workload.default_inputs),
        engine=engine if engine is not None else ExecutionEngine(),
        spec_text=canonical_spec_text(spec),
    )


def select(what: str, names: Optional[Iterable[str]], known) -> List[str]:
    """``names`` in the caller's order (default: every ``known`` name,
    sorted); a name outside ``known`` is a :class:`ReproError`."""
    chosen = list(names) if names else sorted(known)
    unknown = sorted(set(chosen) - set(known))
    if unknown:
        raise ReproError(
            f"unknown {what}(s) {unknown}; choose from {sorted(known)}"
        )
    return chosen


@contextmanager
def bracket(engine, campaign: str, **fields) -> Iterator[Dict[str, object]]:
    """Journal one campaign under one run ID.

    The run ID is the bound request ID (a daemon request), else a
    minted ``<campaign>-`` ID when the engine's journal listens.  It
    stays bound for the whole block, so the engine's grid and job
    records share it.  ``fields`` go on ``campaign-start``; the caller
    fills the yielded dict with the ``campaign-complete`` fields.
    """
    journal = getattr(engine, "journal", NULL_JOURNAL)
    run_id = current_request_id()
    if not run_id and journal.enabled:
        run_id = f"{campaign}-{new_request_id()}"
    complete: Dict[str, object] = {}
    with bind_request_id(run_id):
        journal.emit("campaign-start", campaign=campaign, **fields)
        yield complete
        journal.emit("campaign-complete", campaign=campaign, **complete)
