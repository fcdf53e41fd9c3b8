"""Run one workload of the repository benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload point_score --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the same traffic once more with span wrappers around
the engine's layers and reports the per-layer metrics instead.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Details (every named figure, the inputs behind them, the machine) are
written to ``.perfbench/results/`` and traced spans to
``.perfbench/traces/``.  The exit code is 0 when every output check
passed, 1 when one failed and 2 when the engine source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("point_score", "batch_score", "ingest_serve")
#: end-to-end metrics (every workload reports each one)
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "throughput_per_s": "1/s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small tables, for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def machine() -> dict:
    import numpy

    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: engine source not found under {source}; run from "
            "the root of a full checkout", file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(source), str(HERE)]
    import layers
    import workloads
    from inputs import Sizes

    sizes = Sizes.smoke() if args.smoke else Sizes()
    output = ROOT / ".perfbench"
    work = output / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = layers.TracedPass() if args.trace else None
    try:
        data = workloads.make_data(
            args.seed, sizes, with_series=args.workload == "batch_score"
        )
        database, setup_s = workloads.set_up(work, data)
        try:
            described = workloads.describe(database, data)
            run = getattr(workloads, args.workload)
            outcome = run(database, data, args.seconds, tracer)
            outcome.inputs.update(described)
        finally:
            database.close()
        outcome.problems += workloads.check_durable(work, data, outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcome.e2e["setup_s"] = setup_s
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "inputs": outcome.inputs,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in outcome.named.items()},
        "end_to_end": outcome.e2e, "problems": outcome.problems,
        "errors": outcome.errors[:10],
        "attempted": outcome.attempted, "failed": outcome.failed,
    }
    if tracer is not None:
        values = tracer.metrics(outcome)
        metrics = {
            name: {"value": value, "unit": layers.UNITS[name]}
            for name, value in values.items()
        }
        traces = output / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace_path = traces / f"{args.workload}-seed{args.seed}.json"
        details["spans"] = tracer.recorder.write_chrome_trace(trace_path)
        details["trace_file"] = str(trace_path.relative_to(ROOT))
        details["named"].update(
            (name, {"value": value, "unit": "ms"})
            for name, value in tracer.detail().items()
        )
        details["self_seconds"] = {
            name: {"calls": calls, "seconds": seconds}
            for name, (calls, seconds) in tracer.recorder.self_times().items()
        }
    else:
        metrics = {
            name: {"value": outcome.e2e[name], "unit": unit}
            for name, unit in E2E_UNITS.items()
        }
    details["metrics"] = metrics
    results = output / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=2, default=float)
    )
    report(details)
    correct = not outcome.problems
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def report(details: dict) -> None:
    print(
        f"perfbench {details['workload']} seed={details['seed']} "
        f"seconds={details['seconds']:g} trace={details['trace']}"
    )
    share = details["failed"] / max(details["attempted"], 1)
    print(f"  attempted {details['attempted']}, failed {details['failed']} "
          f"(failed_share {share:.4f})")
    for title, values in (("metrics", details["metrics"]), ("named", details["named"])):
        print(f"  {title}:")
        for name, entry in values.items():
            print(f"    {name:40s} {entry['value']:14.6g} {entry['unit']}")
    print(f"  inputs: {json.dumps(details['inputs'], default=float)}")
    print(f"  machine: {json.dumps(details['machine'])}")
    for problem in details["problems"][:10]:
        print(f"  PROBLEM: {problem}")
    for error in details["errors"]:
        print(f"  ERROR: {error}")


if __name__ == "__main__":
    sys.exit(main())
