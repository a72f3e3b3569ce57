"""The benchmark's own tests: seeded inputs, output checks, layer
accounting and the names in BENCHMARK.json.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bench_inputs
import run
from bench_checks import Ledger, Reference, check_output, sha256
from bench_inputs import ServeScript, perturb, pool_inputs
from bench_layers import assemble
from bench_oneshot import MergeRun, check_runs, merge_in_process, parse_summary
from bench_serve import MergeCall, Session, check_session, run_session, stop
from bench_trace import LayerProbe, layer_times
from repro.serve import ServeClient
from repro.ir import parse_module, print_module
from repro.merge.pass_ import PassConfig
from repro.obs import trace
from repro.workloads.suites import build_workload

BENCH_DIR = Path(run.__file__).resolve().parent


@pytest.fixture(scope="module")
def small_text() -> str:
    return print_module(build_workload(30, name="small"))


def _changed_driver(text: str) -> str:
    start = text.index("@driver(")
    ret = text.index("ret i32 ", start)
    end = text.index("\n", ret)
    return text[:ret] + "ret i32 123456789" + text[end:]


def _perturbed(seed: int) -> str:
    module = build_workload(30, name="small")
    perturb(module, seed, "small")
    return print_module(module)


def test_same_seed_gives_identical_inputs_and_other_seeds_differ():
    assert _perturbed(3) == _perturbed(3)
    assert _perturbed(3) != _perturbed(4)
    assert [m.text for m in pool_inputs()] == [m.text for m in pool_inputs()]


def test_perturbed_inputs_parse_back(small_text):
    for seed in (0, 1, 2):
        text = _perturbed(seed)
        assert print_module(parse_module(text)) == text
    assert _perturbed(0) == small_text


def test_serve_script_replays_request_for_request():
    corpus = build_workload(60, name="corpus")
    first = ServeScript(7, corpus)
    second = ServeScript(7, corpus)
    blocks = [first.block(k) for k in range(2)]
    assert blocks == [second.block(k) for k in range(2)]
    assert blocks[0] != ServeScript(8, corpus).block(0)
    ops = [op for op, _, _ in blocks[0]]
    assert ops.count("submit") == bench_inputs.SUBMITS_PER_BLOCK
    assert ops.count("merge") == bench_inputs.MERGES_PER_BLOCK
    for op, text, _ in blocks[0]:
        if op == "submit":
            parse_module(text)  # every delta is valid IR


def test_good_output_passes(small_text):
    verdict = check_output(small_text, Reference.of(small_text))
    assert verdict.where is None
    assert verdict.executed == Reference.of(small_text).executed > 0


def test_duplicated_local_name_is_flagged_emit_reparse(small_text):
    lines = small_text.splitlines()
    i = next(i for i, line in enumerate(lines) if re.match(r"\s+%[\w.]+ = ", line))
    planted = "\n".join(lines[: i + 1] + [lines[i]] + lines[i + 1 :]) + "\n"
    verdict = check_output(planted, Reference.of(small_text))
    assert verdict.where == "emit.reparse"
    assert "redefinition" in verdict.message


def test_changed_driver_value_is_flagged_driver_mismatch(small_text):
    verdict = check_output(_changed_driver(small_text), Reference.of(small_text))
    assert verdict.where == "driver.mismatch"


def test_ledger_counts_failures_and_only_miscompiles_are_incorrect():
    ledger = Ledger()
    ledger.record("a")
    ledger.record("b", ("emit.reparse", "redefinition of %x"))
    assert (ledger.attempted, ledger.failed, ledger.correct) == (2, 1, True)
    ledger.record("c", ("nondeterministic", "other bytes"), ("driver.mismatch", "gave 1"))
    assert (ledger.attempted, ledger.failed, ledger.correct) == (3, 2, False)
    assert ledger.where_counts() == {
        "emit.reparse": 1,
        "nondeterministic": 1,
        "driver.mismatch": 1,
    }


def test_nondeterministic_merge_output_is_still_checked(small_text):
    refs = {"small": Reference.of(small_text)}
    good = MergeRun("small", 1.0, 1.0, small_text, {"merges": 1})
    bad = MergeRun("small", 1.0, 1.0, _changed_driver(small_text), {"merges": 1})
    ledger = Ledger()
    check_runs([good, bad], {"small": good}, refs, ledger, "cli")
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.where_counts() == {"nondeterministic": 1, "driver.mismatch": 1}
    assert not ledger.correct


def test_nondeterministic_serve_merge_is_still_checked(small_text):
    refs = {0: Reference.of(small_text)}
    session = Session()
    for text in (small_text, _changed_driver(small_text)):
        session.merges.append(MergeCall(0, 0.1, {"module": text}, 0.1, 1.0))
        session.answers.append(("merge", sha256(text)))
    ledger = Ledger()
    check_session(session, [], refs, ledger, "session")
    assert ledger.where_counts() == {"nondeterministic": 1, "driver.mismatch": 1}
    assert not ledger.correct


def test_daemon_that_dies_ends_the_session_with_serve_error():
    corpus = build_workload(40, name="corpus")
    client = ServeClient.spawn([sys.executable, "-c", "pass"])  # exits at once
    try:
        session = run_session(client, ServeScript(1, corpus), [], seconds=0.0, blocks=1)
    finally:
        stop(client)
    assert session.aborted and session.blocks == 0
    assert len(session.answers) == 1 and session.errors[0][1].startswith("transport:")
    ledger = Ledger()
    check_session(session, [], {}, ledger, "session")
    assert ledger.where_counts() == {"serve.error": 1}
    assert client._proc is None or client._proc.returncode is not None


def test_in_process_merge_matches_the_cli_and_keeps_its_reference(small_text, tmp_path):
    path = tmp_path / "small.ll"
    path.write_text(small_text)
    inp = bench_inputs.InputModule("small", 31, small_text)
    run_, module, reference = merge_in_process(inp, str(path), PassConfig(), True)
    assert reference == Reference.of(small_text)
    assert print_module(module) == run_.text
    cli = subprocess.run(
        [sys.executable, "-m", "repro", "merge", str(path), "-s", "f3m", "-o", "-"],
        env={**os.environ, "PYTHONPATH": str(BENCH_DIR.parent / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    assert cli.stdout == run_.text
    assert parse_summary(cli.stderr) == run_.counters


def test_layer_self_times_and_unaccounted_add_up_to_the_wall():
    tracer = trace.Tracer()
    with tracer.install():
        with trace.span("merge.op"):
            with trace.span("parse_module"):
                sum(range(20000))
            with trace.span("pass.run"):
                with trace.span("codegen"):
                    sum(range(20000))
                sum(range(20000))
    layers, wall, unaccounted = layer_times(tracer)
    assert wall > 0
    assert sum(layers.values()) + unaccounted == pytest.approx(wall, rel=1e-9)
    assert layers["ir.parse_s"] > 0 and layers["merge.codegen_s"] > 0


def test_assemble_gives_every_per_layer_metric_in_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == [BENCH_DIR.name]
    ledger = Ledger()
    ledger.record("op")
    metrics = assemble(trace.Tracer(), LayerProbe(), 1, 0.5, 1.0, ledger)
    assert {m["name"] for m in spec["per_layer"]} <= set(metrics)


def test_run_fails_without_the_program_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name)
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "oneshot-spec",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
