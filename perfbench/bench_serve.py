"""The serve-incremental workload: one `repro serve --stdio` daemon and
one closed-loop client.

Set-up loads the corpus into a freshly spawned daemon.  The session then
runs blocks of requests (:class:`bench_inputs.ServeScript`) until
``--seconds`` have passed, and at least MIN_BLOCKS blocks so every
reported percentile has ten or more samples beyond it: 100 submits for
p90, 1,000 queries for p99, 20 merges for p50.  Merge requests cycle
through a pool of distinct modules with ``no_result_cache``, so every
repeat runs the pipeline on warm fingerprint, alignment and plan caches
and must return the bytes it returned the first time.

A session times only its requests: the first MIN_BLOCKS blocks are built
before its clock starts, and the time spent building any later block is
taken out of its wall.  A daemon that dies or closes its pipe ends the
session with a ``serve.error`` instead of aborting the run.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs import trace
from repro.serve import ServeClient, ServeDaemon
from repro.serve.client import ServeError
from repro.serve.protocol import ProtocolError

from bench_checks import Ledger, OutputChecker, Reference, percentile, sha256
from bench_clock import HostClock
from bench_inputs import InputModule, ServeScript, serve_inputs
from bench_layers import assemble, startup_seconds
from bench_oneshot import SETUP_REPEATS
from bench_trace import LayerProbe, new_tracer, write_spans

MIN_BLOCKS = 10


@dataclass(frozen=True)
class MergeCall:
    """One `merge` request: pool module, latency, result payload, daemon
    CPU seconds, and the host speed meanwhile (see bench_clock)."""

    index: int
    latency: float
    result: Dict[str, object]
    cpu: float
    speed: float


@dataclass
class Session:
    """What one pass of the session script observed."""

    blocks: int = 0
    #: Seconds spent on requests: the session's wall less block building.
    wall: float = 0.0
    #: Mean host speed over the session (1.0 when unsampled).
    speed: float = 1.0
    latency: Dict[str, List[float]] = field(
        default_factory=lambda: {"submit": [], "query": [], "merge": []}
    )
    #: Per request, in order: (op, digest of the result or None on error).
    answers: List[Tuple[str, Optional[str]]] = field(default_factory=list)
    merges: List[MergeCall] = field(default_factory=list)
    #: Daemon queries' summed (candidates, buckets probed).
    query_work: Tuple[int, int] = (0, 0)
    errors: List[Tuple[int, str]] = field(default_factory=list)
    #: The transport failed (daemon died or closed its pipe); the session
    #: stopped at that request.
    aborted: bool = False


def _proc_cpu(pid: Optional[int]) -> float:
    """User + system CPU seconds of process *pid* (0 when unknown)."""
    if pid is None:
        return 0.0
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _peak_rss_mb(pid: int) -> float:
    """The daemon's VmHWM; 0 when it has exited (its session failed)."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _median(values: Sequence[float]) -> float:
    """Median, or 0 for a session that failed before it had any sample."""
    return median(values) if values else 0.0


def run_session(
    client: ServeClient,
    script: ServeScript,
    pool: Sequence[InputModule],
    seconds: float,
    blocks: Optional[int] = None,
    pid: Optional[int] = None,
    clock: Optional[HostClock] = None,
) -> Session:
    """Closed loop: each request is sent when the previous one returned.
    Runs *blocks* blocks, or MIN_BLOCKS and more until *seconds* passed.
    *pid* is the daemon's, for its CPU time; *clock* samples host speed."""
    session = Session()
    candidates = probed = 0
    building = 0.0
    for k in range(MIN_BLOCKS if blocks is None else blocks):
        script.block(k)
    start = time.perf_counter()
    with trace.span("session"):
        while not session.aborted:
            if blocks is not None:
                if session.blocks >= blocks:
                    break
            elif session.blocks >= MIN_BLOCKS and time.perf_counter() - start >= seconds:
                break
            t_build = time.perf_counter()
            requests = script.block(session.blocks)
            building += time.perf_counter() - t_build
            for op, arg, removed in requests:
                cpu0 = _proc_cpu(pid) if op == "merge" else 0.0
                t0 = time.perf_counter()
                try:
                    with trace.span("serve.request", op=op):
                        if op == "submit":
                            result = client.submit(module=arg, removed=removed or None)
                        elif op == "query":
                            result = client.query(name=arg)
                        else:
                            result = client.merge(module=pool[arg].text, no_result_cache=True)
                except ServeError as exc:
                    session.errors.append((len(session.answers), str(exc)))
                    session.answers.append((op, None))
                    continue
                except (OSError, ProtocolError) as exc:  # ConnectionError, BrokenPipeError
                    message = f"transport: {type(exc).__name__}: {exc}"
                    session.errors.append((len(session.answers), message))
                    session.answers.append((op, None))
                    session.aborted = True
                    break
                t1 = time.perf_counter()
                session.latency[op].append(t1 - t0)
                if op == "merge":
                    speed = clock.speed(t0, t1) if clock is not None else 1.0
                    cpu = _proc_cpu(pid) - cpu0
                    session.merges.append(MergeCall(arg, t1 - t0, result, cpu, speed))
                elif op == "query":
                    candidates += int(result.get("candidates", 0))
                    probed += int(result.get("buckets_probed", 0))
                session.answers.append((op, sha256(json.dumps(result, sort_keys=True))))
            if not session.aborted:
                session.blocks += 1
    end = time.perf_counter()
    session.wall = end - start - building
    if clock is not None:
        session.speed = clock.speed(start, end)
    session.query_work = (candidates, probed)
    return session


def stop(client: ServeClient) -> None:
    """Shut the spawned daemon down and wait for it to exit."""
    try:
        with client:  # __exit__ sends shutdown, closes the pipes, waits
            pass
    except OSError:  # the daemon is gone and its pipe broken
        proc = client._proc
        if proc is not None:
            proc.kill()
            proc.wait()


def setup(seed: int, clock: HostClock):
    """SETUP_REPEATS times: generate the inputs, spawn a daemon and load
    the corpus.  Returns the last replica's inputs and live client, and
    the median set-up time in reference seconds."""
    times, digests, client = [], set(), None
    for _ in range(SETUP_REPEATS):
        if client is not None:
            stop(client)
        start = time.perf_counter()
        corpus, pool, script = serve_inputs(seed)
        client = ServeClient.spawn()
        try:
            client.submit(module=corpus.text)
        except BaseException:
            stop(client)
            raise
        times.append(clock.seconds(start, time.perf_counter()))
        digests.add((sha256(corpus.text),) + tuple(sha256(m.text) for m in pool))
    if len(digests) != 1:
        raise RuntimeError("input generation is not deterministic for one seed")
    return corpus, pool, script, client, median(times)


def check_session(
    session: Session,
    pool: Sequence[InputModule],
    refs: Dict[int, Reference],
    ledger: Ledger,
    label: str,
    baseline: Optional[Session] = None,
    checker: Optional[OutputChecker] = None,
) -> Dict[str, int]:
    """Record every request of *session* in *ledger*.  A request whose
    answer differs from *baseline*'s same request, or a merge whose output
    differs from an earlier merge of the same pool module, is
    nondeterministic; every merge output is checked all the same.
    Returns summed dynamic instruction counts over the first merge of
    each pool module that passes every check."""
    checker = checker or OutputChecker()
    errors = dict(session.errors)
    merges = iter(session.merges)
    first_digest: Dict[int, str] = {}
    counted = set()
    executed = {"before": 0, "after": 0}
    for i, (op, digest) in enumerate(session.answers):
        name = f"{label}:{i}:{op}"
        if digest is None:
            ledger.record(name, ("serve.error", errors[i]))
            continue
        failures = []
        if baseline is not None:
            expected = baseline.answers[i] if i < len(baseline.answers) else None
            if expected != (op, digest):
                failures.append(("nondeterministic", f"answer {digest} != {expected}"))
        if op != "merge":
            ledger.record(name, *failures)
            continue
        call = next(merges)
        index, text = call.index, str(call.result.get("module", ""))
        if first_digest.setdefault(index, sha256(text)) != sha256(text):
            failures.append(("nondeterministic", f"pool{index} merged to new bytes"))
        verdict = checker.check(text, refs[index])
        failures.extend(verdict.failures())
        ledger.record(name, *failures)
        if not failures and index not in counted:
            counted.add(index)
            executed["before"] += refs[index].executed
            executed["after"] += verdict.executed
    return executed


def session_metrics(session: Session) -> Dict[str, float]:
    lat = {op: [s * 1000.0 for s in values] for op, values in session.latency.items()}
    requests = sum(len(values) for values in lat.values())
    return {
        "serve.submit_ms_p50": _median(lat["submit"]),
        "serve.submit_ms_p90": percentile(lat["submit"], 90),
        "serve.query_ms_p50": _median(lat["query"]),
        "serve.query_ms_p99": percentile(lat["query"], 99),
        "serve.merge_ms_p50": _median(lat["merge"]),
        "serve.session_req_per_s": requests / session.wall if session.wall > 0 else 0.0,
    }


def _size_reduction_pct(session: Session) -> float:
    seen: Dict[int, Tuple[int, int]] = {}
    for call in session.merges:
        seen.setdefault(call.index, (int(call.result["size_before"]), int(call.result["size_after"])))
    before = sum(b for b, _ in seen.values())
    return 100.0 * (before - sum(a for _, a in seen.values())) / before if before else 0.0


def run_untraced(ctx):
    corpus, pool, script, client, setup_s = setup(ctx.seed, ctx.clock)
    pid = client._proc.pid  # the daemon's CPU and peak RSS are read from /proc
    try:
        session = run_session(client, script, pool, ctx.seconds, pid=pid, clock=ctx.clock)
        peak_mb = _peak_rss_mb(pid)
    finally:
        stop(client)
    ledger = Ledger()
    refs = {j: Reference.of(m.text) for j, m in enumerate(pool)}
    executed = check_session(session, pool, refs, ledger, "session")
    metrics = {
        "merge_fns_per_s": _median(
            [pool[call.index].functions / (call.latency * call.speed) for call in session.merges]
        ),
        "merge_cpu_s": _median([call.cpu * call.speed for call in session.merges]),
        "peak_rss_mb": peak_mb,
        "size_reduction_pct": _size_reduction_pct(session),
        "dyn_icount_ratio": executed["after"] / executed["before"] if executed["before"] else 0.0,
        "setup_s": setup_s,
    }
    detail = {
        "blocks": session.blocks,
        "requests": len(session.answers),
        "latency": session_metrics(session),
        "merge_ms": [round(call.latency * 1000, 1) for call in session.merges],
        "merge_cpu_ms": [round(call.cpu * 1000) for call in session.merges],
        "merge_speed": [round(call.speed, 3) for call in session.merges],
        "answers_digest": sha256(json.dumps(session.answers[: _prefix(script)])),
    }
    return metrics, ledger, detail


def _prefix(script: ServeScript) -> int:
    """Requests in the first MIN_BLOCKS blocks (the seed-fixed prefix)."""
    return sum(len(script.block(k)) for k in range(MIN_BLOCKS))


def _in_process_session(
    corpus, script, pool, clock, seconds, blocks=None, probe=None, tracer=None
):
    daemon = ServeDaemon()
    client = ServeClient(daemon=daemon)
    client.submit(module=corpus.text)
    before = daemon.db.cache_counters()
    if tracer is None:
        session = run_session(client, script, pool, seconds, blocks=blocks, clock=clock)
    else:
        with probe.install(), tracer.install():
            session = run_session(client, script, pool, seconds, blocks=blocks, clock=clock)
    after = daemon.db.cache_counters()
    delta = {key: after[key] - before[key] for key in after}
    caches = {
        kind: (delta[f"{kind}_hits"], delta[f"{kind}_hits"] + delta[f"{kind}_misses"])
        for kind in ("fingerprint", "alignment", "plan")
    }
    return session, caches


def run_traced(ctx):
    """The session against an in-process daemon, untraced and then traced
    (same requests), so its spans and the client's share one tracer."""
    corpus, pool, script = serve_inputs(ctx.seed)
    startup_s = startup_seconds()
    plain, _ = _in_process_session(corpus, script, pool, ctx.clock, ctx.seconds)
    tracer, probe = new_tracer(), LayerProbe()
    traced, caches = _in_process_session(
        corpus, script, pool, ctx.clock, ctx.seconds, plain.blocks, probe, tracer
    )

    ledger = Ledger()
    refs = {j: Reference.of(m.text) for j, m in enumerate(pool)}
    checker = OutputChecker()
    check_session(plain, pool, refs, ledger, "inproc0", checker=checker)
    check_session(traced, pool, refs, ledger, "inproc1", baseline=plain, checker=checker)
    metrics = assemble(
        tracer,
        probe,
        rounds=1,
        startup_s=startup_s,
        overhead_ratio=(traced.wall * traced.speed) / (plain.wall * plain.speed),
        ledger=ledger,
        caches=caches,
        session=session_metrics(plain),
        query_work=traced.query_work,
    )
    write_spans(tracer, ctx.trace_path)
    detail = {"blocks": plain.blocks, "spans": len(tracer.finished()), "trace": ctx.trace_path}
    return metrics, ledger, detail
