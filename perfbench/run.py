#!/usr/bin/env python3
"""End-to-end benchmark of `repro merge` and `repro serve`.

Run from the root of a checkout::

    python3 perfbench/run.py --workload oneshot-spec --seed 0 --seconds 5 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the same inputs in-process under the span tracer and reports the
per-layer metrics instead.  Every output is checked; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``, the line before it the run's detail (failure records with
their ``where``, digests, counters).  Workload and metric names and units
come from BENCHMARK.json.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from dataclasses import dataclass
from pathlib import Path

from bench_clock import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])

FOCUSED_FLAGS = ("-t", "0.9", "--static-check", "--validate", "gate", "--oracle")


@dataclass(frozen=True)
class Context:
    seed: int
    seconds: float
    workdir: str
    trace_path: str
    clock: HostClock


def _run(workload: str, traced: bool, ctx: Context):
    """``(metrics, ledger, detail)`` of one run."""
    import bench_oneshot
    import bench_serve
    from bench_inputs import focused_inputs, oneshot_inputs
    from repro.merge.pass_ import PassConfig

    if workload == "serve-incremental":
        return bench_serve.run_traced(ctx) if traced else bench_serve.run_untraced(ctx)
    if workload == "oneshot-spec":
        build, flags, config = oneshot_inputs, (), PassConfig()
    else:
        build, flags = focused_inputs, FOCUSED_FLAGS
        config = PassConfig(threshold=0.9, static_check=True, validate="gate", oracle=True)
    if traced:
        return bench_oneshot.run_traced(ctx, build, config)
    return bench_oneshot.run_untraced(ctx, build, flags, config)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind normally so every child process is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    # `repro merge` and `repro serve` subprocesses run from the same tree.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    outdir = ROOT / ".perfbench_out"
    workdir.mkdir(parents=True)
    outdir.mkdir(exist_ok=True)
    try:
        with HostClock() as clock:
            ctx = Context(
                seed=args.seed,
                seconds=args.seconds,
                workdir=str(workdir),
                trace_path=str(outdir / f"trace-{args.workload}-seed{args.seed}.jsonl"),
                clock=clock,
            )
            metrics, ledger, detail = _run(args.workload, bool(args.trace), ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is using it
            pass

    names = [(m["name"], m["unit"]) for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    detail.update(
        workload=args.workload,
        seed=args.seed,
        failed_share=ledger.failed / ledger.attempted,
        where=ledger.where_counts(),
        failures=ledger.failures,
    )
    print(
        f"{args.workload} seed {args.seed}: {ledger.failed}/{ledger.attempted} operations "
        f"failed {ledger.where_counts()}",
        file=sys.stderr,
    )
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": ledger.correct,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
