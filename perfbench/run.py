"""The repository benchmark: one workload, measured for a fixed time.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-seeds --seed 3 --seconds 30 --trace 0

Each repetition runs in a fresh interpreter (``child.py``) with its own
scratch directory under ``perfbench/tmp``; repetitions start while the
``--seconds`` budget lasts (at least three).  The untraced run
(``--trace 0``) prints the end-to-end metrics, the traced run
(``--trace 1``) the per-layer metrics of ``BENCHMARK.json``.  Every
metric is printed by name and unit, then the last stdout line is the
JSON result.  ``--record FILE`` appends the run, raw samples included,
to a JSON-lines file that ``compare.py`` reads.

The exit code is 0 when every repetition ran, whatever the output
checks say (they land in ``correct``/``failed``); it is non-zero when
the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import median, percentile  # noqa: E402

#: repetitions a run makes even when they overrun ``--seconds`` (the
#: median of three rejects one repetition slowed by the host)
MIN_REPETITIONS = 3
#: a run that has not finished after this long is abandoned
RUN_LIMIT_S = 170.0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_repetition(args, index: int, verify_local: bool, timeout: float) -> dict:
    workdir = os.path.join(HERE, "tmp", f"{os.getpid()}-{index}")
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(args.trace), "--workdir", workdir,
    ]
    if verify_local:
        command.append("--verify-local")
    if args.trace:
        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        command += ["--trace-out", os.path.join(
            out, f"trace-{args.workload}-s{args.seed}.json"
        )]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    env["REPRO_CACHE_DIR"] = os.path.join(workdir, "repro-cache")
    env["TMPDIR"] = os.path.join(workdir, "tmp")
    try:
        os.makedirs(env["TMPDIR"], exist_ok=True)
        command += ["--spawned-at", repr(time.time())]
        completed = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(
            f"perfbench: repetition {index} of {args.workload} did not "
            f"finish within the run's {RUN_LIMIT_S:.0f} s"
        ) from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still has its scratch directory there
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stderr[-4000:])
        raise SystemExit(
            f"perfbench: repetition {index} of {args.workload} exited "
            f"{completed.returncode}"
        )
    return json.loads(lines[-1])


def repetitions(args) -> list:
    """Start repetitions while the next one is expected to end within
    ``--seconds`` (judged by the longest so far), at least
    ``MIN_REPETITIONS``; the whole run stays within ``RUN_LIMIT_S``."""
    began = time.monotonic()
    records = []
    longest = 0.0
    while len(records) < MIN_REPETITIONS or (
        time.monotonic() - began + longest <= args.seconds
    ):
        started = time.monotonic()
        records.append(run_repetition(
            args, len(records), verify_local=not records,
            timeout=RUN_LIMIT_S - (started - began),
        ))
        longest = max(longest, time.monotonic() - started)
    return records


def end_to_end(records: list) -> dict:
    """The end-to-end metrics of one run, each with its sample count."""
    new = [ms for r in records for ms in r["new_ms"]]
    per_run = len(records)
    return {
        "setup_s": (median(r["setup_s"] for r in records), per_run),
        "campaign_s": (median(r["campaign_s"] for r in records), per_run),
        "req_per_s": (
            median(r["operations"] / r["wall_s"] for r in records), per_run
        ),
        "new_ms_p50": tuple(percentile(new, 0.50)),
        "new_ms_p90": tuple(percentile(new, 0.90)),
        "peak_rss_mb": (median(r["peak_rss_mb"] for r in records), per_run),
    }


def per_layer(records: list) -> dict:
    """Median over repetitions of every per-layer metric, plus the
    traced campaign time and throughput (tracing overhead is their
    ratio to the untraced figures) and the cache-hit latency."""
    names = records[0]["layers"]
    values = {
        name: (median(r["layers"][name] for r in records), len(records))
        for name in names
    }
    values["traced.campaign_s"] = (
        median(r["campaign_s"] for r in records), len(records)
    )
    values["traced.req_per_s"] = (
        median(r["operations"] / r["wall_s"] for r in records), len(records)
    )
    values["traced.repeat_ms_p50"] = tuple(
        percentile([ms for r in records for ms in r["repeat_ms"]], 0.50)
    )
    return values


def cross_check(records: list) -> list:
    """Every served body must equal the first repetition's, which was
    verified against an in-process recompute."""
    problems = []
    reference = records[0]["digests"]
    for index, record in enumerate(records[1:], start=1):
        for key, body in record["digests"].items():
            if reference.get(key, body) != body:
                problems.append(
                    f"repetition {index}: payload for {key[:12]} differs "
                    "from the verified repetition"
                )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default="",
                        help="append this run to a JSON-lines result set")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro next to the benchmark; run it from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    known = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in known:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{known}", file=sys.stderr)
        return 2

    # a terminated run raises here, so subprocess.run kills and reaps
    # the repetition in flight instead of orphaning it
    signal.signal(signal.SIGTERM, _terminate)
    records = repetitions(args)
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    measured = per_layer(records) if args.trace else end_to_end(records)
    attempted = sum(r["attempted"] for r in records)
    divergent = cross_check(records)
    failed = sum(r["failed"] for r in records) + len(divergent)
    problems = [p for r in records for p in r["problems"]] + divergent

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(records)} repetitions, trace {args.trace}")
    metrics = {}
    for metric in declared:
        value, samples = measured[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<24} {value:>14.6f} {metric['unit']:<6} "
              f"(n={samples})")
    print(f"  {'failed_ratio':<24} {failed / max(attempted, 1):>14.6f} ratio  "
          f"({failed} of {attempted} operations)")
    for problem in problems[:20]:
        print(f"  !! {problem}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    if args.record:
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "trace": args.trace, "result": result,
                "measured": {k: v[0] for k, v in measured.items()},
                "repetitions": [
                    {k: v for k, v in r.items() if k != "digests"}
                    for r in records
                ],
            }) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
