"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so ``ru_maxrss``
and the program's per-process memos (parsed specifications, the code
salt) start fresh every time.  It prints one JSON object on its last
stdout line.  Not meant to be called by hand; see ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="wall-clock time the parent started this process")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--verify-local", action="store_true")
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)

    import drivers
    from layers import LayerTracer, chrome_trace, layer_metrics

    driver = drivers.WORKLOADS[args.workload]
    options = {"verify_local": True} if (
        args.verify_local and args.workload == "serve-mixed"
    ) else {}
    tracer = LayerTracer(f"perfbench-{args.workload}-{args.seed}") \
        if args.trace else None
    phase = drivers.Phase(tracer.install, tracer.uninstall) if tracer \
        else drivers.Phase()
    try:
        measurement = driver(args.seed, args.workdir, phase, **options)
    finally:
        if tracer is not None:
            tracer.uninstall()
    record = {
        "setup_s": phase.started_at - args.spawned_at,
        "campaign_s": measurement.campaign_s,
        "wall_s": measurement.wall_s,
        "operations": measurement.operations,
        "new_ms": measurement.new_ms,
        "repeat_ms": measurement.repeat_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "problems": measurement.problems,
        "digests": measurement.digests,
    }
    if tracer is not None:
        record["layers"] = layer_metrics(tracer.recorder)
        if args.trace_out:
            from repro.obs.trace import validate_chrome_trace

            document = chrome_trace(tracer.recorder)
            validate_chrome_trace(document)
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                json.dump(document, handle)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
