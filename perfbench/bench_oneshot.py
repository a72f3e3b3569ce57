"""The one-shot workloads: `repro merge` subprocesses, file in to file out.

``oneshot-spec`` merges five Table-I models with default flags;
``focused-gated`` merges one larger module with a 0.9 threshold and every
gate on.  A *round* merges each input module once in a `repro merge`
process; a run repeats rounds until ``--seconds`` have passed and reports
per-round medians.

Each input is then merged once more in-process, untimed, by a mirror of
``repro.cli._cmd_merge``.  That merge is the determinism baseline (every
process must write its bytes and report its counters) and the source of
``dyn_icount_ratio``: ``driver`` runs on the merged module in memory, so
the ratio covers every module even when the emitted text is broken.

The traced run uses the same mirror and alternates an untraced and a
traced pass over the inputs, so the cost of tracing shows as
``trace.overhead_ratio``.
"""

from __future__ import annotations

import ast
import os
import re
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

import repro.ir
from repro.harness.experiments import make_ranker
from repro.ir import Module
from repro.merge.pass_ import FunctionMergingPass, PassConfig
from repro.obs import trace

from bench_checks import Ledger, OutputChecker, Reference, run_driver, sha256
from bench_clock import HostClock
from bench_inputs import InputModule
from bench_layers import assemble, startup_seconds
from bench_trace import LayerProbe, new_tracer, write_spans

SETUP_REPEATS = 2
# A hung merge fails its operation instead of holding the run past its limit.
MERGE_TIMEOUT_S = 60

_SUMMARY = re.compile(
    r"(?P<functions>\d+) functions, (?P<merges>\d+) merges, "
    r"size (?P<before>\d+) -> (?P<after>\d+) .*?"
    r"(?P<comparisons>\d+) fingerprint comparisons, outcomes=(?P<outcomes>\{.*?\})"
)


@dataclass
class MergeRun:
    """One merge of one input module, by subprocess or in-process.

    ``wall`` and ``cpu`` are as measured; ``speed`` is the host speed the
    :class:`~bench_clock.HostClock` saw meanwhile (1.0 when unsampled), so
    ``wall * speed`` is in reference seconds."""

    module: str
    wall: float
    cpu: float
    text: Optional[str]
    counters: Dict[str, object]
    error: str = ""
    speed: float = 1.0

    @property
    def digest(self) -> Optional[str]:
        return sha256(self.text) if self.text is not None else None


def parse_summary(stderr: str) -> Dict[str, object]:
    """Exact counters from the merge summary line `repro merge` prints."""
    match = _SUMMARY.search(stderr)
    if match is None:
        return {}
    return {
        "merges": int(match["merges"]),
        "size_before": int(match["before"]),
        "size_after": int(match["after"]),
        "comparisons": int(match["comparisons"]),
        "outcomes": ast.literal_eval(match["outcomes"]),
    }


def write_inputs(workdir: str, inputs: Sequence[InputModule]) -> List[str]:
    paths = []
    for inp in inputs:
        path = os.path.join(workdir, f"{inp.name}.ll")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(inp.text)
        paths.append(path)
    return paths


def setup(
    workdir: str, seed: int, build, clock: HostClock
) -> Tuple[List[InputModule], List[str], float]:
    """Generate and write the inputs SETUP_REPEATS times; returns the last
    set, its paths and the median set-up time in reference seconds.
    Replicas must agree byte for byte: the inputs are a function of the
    seed alone."""
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = build(seed)
        paths = write_inputs(workdir, inputs)
        times.append(clock.seconds(start, time.perf_counter()))
        digests.add(tuple(sha256(inp.text) for inp in inputs))
    if len(digests) != 1:
        raise RuntimeError("input generation is not deterministic for one seed")
    return inputs, paths, median(times)


def cli_merge(
    inp: InputModule, in_path: str, flags: Sequence[str], clock: HostClock
) -> MergeRun:
    out_path = in_path + ".cli.out"
    if os.path.exists(out_path):
        os.remove(out_path)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "merge", in_path, "-s", "f3m", *flags, "-o", out_path],
            capture_output=True,
            text=True,
            timeout=MERGE_TIMEOUT_S,
        )
        returncode, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:
        returncode, stderr = -1, f"timed out after {MERGE_TIMEOUT_S}s"
    end = time.perf_counter()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    speed = clock.speed(start, end)
    if returncode != 0 or not os.path.exists(out_path):
        error = f"exit {returncode}: {stderr[-300:]}"
        return MergeRun(inp.name, end - start, cpu, None, {}, error, speed)
    with open(out_path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return MergeRun(inp.name, end - start, cpu, text, parse_summary(stderr), speed=speed)


def merge_in_process(
    inp: InputModule, in_path: str, config: PassConfig, with_reference: bool = False
) -> Tuple[MergeRun, Module, Optional[Reference]]:
    """``repro.cli._cmd_merge`` for ``-s f3m``, one public call at a time,
    each under a span (no-ops unless a tracer is installed).  Returns the
    run, the merged module and, *with_reference*, the input's
    :class:`~bench_checks.Reference` taken from the parsed input before
    merging."""
    reference = None
    start = time.perf_counter()
    with trace.span("merge.op", module=inp.name):
        with trace.span("read"):
            with open(in_path, "r", encoding="utf-8") as handle:
                source = handle.read()
        module = repro.ir.parse_module(source, name=in_path)
        repro.ir.verify_module(module)
        if with_reference:
            reference = Reference.of_module(module)
        pass_ = FunctionMergingPass(make_ranker("f3m"), config)
        report = pass_.run(module)
        repro.ir.verify_module(module)
        text = repro.ir.print_module(module)
        with trace.span("write"):
            with open(in_path + ".inproc.out", "w", encoding="utf-8") as handle:
                handle.write(text)
    wall = time.perf_counter() - start
    counters = {
        "merges": report.merges,
        "size_before": report.size_before,
        "size_after": report.size_after,
        "comparisons": report.comparisons,
        "outcomes": {k: v for k, v in report.outcome_counts().items() if v},
    }
    return MergeRun(inp.name, wall, 0.0, text, counters), module, reference


def check_runs(
    runs: Sequence[MergeRun],
    baseline: Dict[str, MergeRun],
    refs: Dict[str, Reference],
    ledger: Ledger,
    label: str,
) -> None:
    """Record every merge in *ledger*: a run must match its module's
    *baseline* run (when there is one) byte for byte and counter for
    counter, and its output, whether it matches or not, must pass
    :func:`bench_checks.check_output`."""
    checker = OutputChecker()
    for i, run in enumerate(runs):
        op = f"{label}{i}:{run.module}"
        if run.text is None:
            ledger.record(op, ("merge.exit", run.error))
            continue
        failures = []
        base = baseline.get(run.module, run)
        if (run.digest, run.counters) != (base.digest, base.counters):
            failures.append(
                (
                    "nondeterministic",
                    f"output {run.digest} counters {run.counters} differ from "
                    f"{base.digest} {base.counters}",
                )
            )
        failures.extend(checker.check(run.text, refs[run.module]).failures())
        ledger.record(op, *failures)


def executed_ratio(
    merged: Dict[str, Module], refs: Dict[str, Reference], ledger: Ledger
) -> float:
    """``driver`` instructions executed on the merged modules in memory ÷
    on the inputs.  A merged module whose ``driver`` results differ from
    its input's is a miscompile, recorded and left out of the ratio."""
    before = after = 0
    for name, module in merged.items():
        outcomes, executed = run_driver(module)
        if tuple(outcomes) != refs[name].outcomes:
            ledger.record(f"inproc:{name}", ("driver.mismatch", f"driver gave {outcomes}"))
            continue
        ledger.record(f"inproc:{name}")
        before += refs[name].executed
        after += executed
    return after / before if before else 0.0


def size_reduction_pct(runs: Sequence[MergeRun]) -> float:
    before = sum(run.counters.get("size_before", 0) for run in runs)
    after = sum(run.counters.get("size_after", 0) for run in runs)
    return 100.0 * (before - after) / before if before else 0.0


def run_untraced(ctx, build, flags: Sequence[str], config: PassConfig):
    """End-to-end metrics of one untraced run; returns ``(metrics, ledger,
    detail)``."""
    inputs, paths, setup_s = setup(ctx.workdir, ctx.seed, build, ctx.clock)
    rounds: List[List[MergeRun]] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < ctx.seconds:
        rounds.append(
            [cli_merge(inp, path, flags, ctx.clock) for inp, path in zip(inputs, paths)]
        )
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    # An input whose merge process crashed or hung would do the same here.
    exited = {run.module for runs in rounds for run in runs if run.text is None}
    baseline, merged, refs = {}, {}, {}
    for inp, path in zip(inputs, paths):
        if inp.name in exited:
            refs[inp.name] = Reference.of(inp.text)
        else:
            run, module, refs[inp.name] = merge_in_process(inp, path, config, True)
            baseline[inp.name], merged[inp.name] = run, module
    ledger = Ledger()
    check_runs([run for runs in rounds for run in runs], baseline, refs, ledger, "cli")
    functions = sum(inp.functions for inp in inputs)
    metrics = {
        "merge_fns_per_s": median(
            functions / sum(r.wall * r.speed for r in runs) for runs in rounds
        ),
        "merge_cpu_s": median(sum(r.cpu * r.speed for r in runs) for runs in rounds),
        "peak_rss_mb": peak_kb / 1024.0,
        "size_reduction_pct": size_reduction_pct(list(baseline.values())),
        "dyn_icount_ratio": executed_ratio(merged, refs, ledger),
        "setup_s": setup_s,
    }
    detail = {
        "rounds": len(rounds),
        "functions": {inp.name: inp.functions for inp in inputs},
        "round_wall_s": [sum(r.wall for r in runs) for runs in rounds],
        "round_speed": [[round(r.speed, 3) for r in runs] for runs in rounds],
        "digests": {name: run.digest for name, run in baseline.items()},
        "counters": {name: run.counters for name, run in baseline.items()},
    }
    return metrics, ledger, detail


def run_traced(ctx, build, config: PassConfig):
    """Per-layer metrics: alternate untraced and traced in-process rounds."""
    inputs = build(ctx.seed)
    paths = write_inputs(ctx.workdir, inputs)
    startup_s = startup_seconds()
    tracer, probe = new_tracer(), LayerProbe()
    plain: List[MergeRun] = []
    traced: List[MergeRun] = []
    rounds = 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < ctx.seconds:
        order = (False, True) if rounds % 2 == 0 else (True, False)
        for with_trace in order:
            for inp, path in zip(inputs, paths):
                t0 = time.perf_counter()
                if with_trace:
                    with probe.install(), tracer.install():
                        run = merge_in_process(inp, path, config)[0]
                    traced.append(run)
                else:
                    run = merge_in_process(inp, path, config)[0]
                    plain.append(run)
                run.speed = ctx.clock.speed(t0, time.perf_counter())
        rounds += 1

    ledger = Ledger()
    refs = {inp.name: Reference.of(inp.text) for inp in inputs}
    baseline = {run.module: run for run in plain[: len(inputs)]}
    check_runs(plain + traced, baseline, refs, ledger, "inproc")
    metrics = assemble(
        tracer,
        probe,
        rounds=rounds,
        startup_s=startup_s,
        overhead_ratio=sum(r.wall * r.speed for r in traced)
        / sum(r.wall * r.speed for r in plain),
        ledger=ledger,
    )
    write_spans(tracer, ctx.trace_path)
    detail = {"traced_rounds": rounds, "spans": len(tracer.finished()), "trace": ctx.trace_path}
    return metrics, ledger, detail
