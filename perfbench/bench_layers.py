"""Per-layer metrics of a traced run.

Layers are named after ``src/repro`` modules.  Times are self times from
the traced run, per traced round (one pass over the workload's modules,
or one serve session); counts come from the ``MergeReport`` of every pass
the traced round ran, the rankers' and caches' statistics, span counts,
and the :class:`~bench_trace.LayerProbe` counters.
"""

from __future__ import annotations

import subprocess
import sys
import time
from collections import Counter
from statistics import median
from typing import Dict, Optional, Tuple

from repro.merge.report import OUTCOMES

from bench_checks import Ledger
from bench_trace import LayerProbe, layer_times

STARTUP_REPEATS = 3

#: Latency metrics of the serve session (zero on the one-shot workloads).
SESSION_METRICS = (
    "serve.submit_ms_p50",
    "serve.submit_ms_p90",
    "serve.query_ms_p50",
    "serve.query_ms_p99",
    "serve.merge_ms_p50",
    "serve.session_req_per_s",
)


def startup_seconds() -> float:
    """Median wall of interpreter start plus ``import repro.cli``."""
    times = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro.cli"], check=True)
        times.append(time.perf_counter() - start)
    return median(times)


def _ratio(hits: int, lookups: int) -> float:
    return hits / lookups if lookups else 0.0


def assemble(
    tracer,
    probe: LayerProbe,
    rounds: int,
    startup_s: float,
    overhead_ratio: float,
    ledger: Ledger,
    caches: Optional[Dict[str, Tuple[int, int]]] = None,
    session: Optional[Dict[str, float]] = None,
    query_work: Tuple[int, int] = (0, 0),
) -> Dict[str, float]:
    """Every per-layer metric of a traced run of *rounds* traced rounds.

    *caches* maps ``fingerprint``/``alignment``/``plan`` to ``(hits,
    lookups)`` when a long-lived cache outlives the passes (the daemon);
    otherwise each pass's own caches are summed.  *session* carries the
    serve latency metrics; *query_work* the daemon queries'
    ``(candidates, buckets probed)``.
    """
    layers, wall, unaccounted = layer_times(tracer)
    spans = Counter(sp.name for sp in tracer.finished())
    outcomes: Counter = Counter()
    comparisons, probed, capped = query_work[0], query_work[1], 0
    fp = [0, 0]
    align = {"alignment": [0, 0], "plan": [0, 0]}
    validated = proved = 0
    for pass_, report in probe.passes:
        outcomes.update(report.outcome_counts())
        comparisons += report.comparisons
        stats = pass_.ranker.stats
        probed += stats.buckets_probed
        capped += stats.capped_buckets
        cache = getattr(pass_.ranker, "cache", None)
        if cache is not None:
            fp[0] += cache.stats.hits
            fp[1] += cache.stats.lookups
        cache_stats = report.align_cache_stats or {}
        for key, stats_dict in (("alignment", cache_stats), ("plan", cache_stats.get("plan", {}))):
            align[key][0] += stats_dict.get("hits", 0)
            align[key][1] += stats_dict.get("hits", 0) + stats_dict.get("misses", 0)
        for att in report.attempts:
            if att.validate_verdict is not None:
                validated += 1
                proved += att.validate_verdict == "proved"
    ratios = {"fingerprint": tuple(fp), "alignment": tuple(align["alignment"]), "plan": tuple(align["plan"])}
    ratios.update(caches or {})
    merges = sum(report.merges for _, report in probe.passes)

    def per_round(count: int) -> int:
        return count // rounds

    metrics: Dict[str, float] = {name: seconds / rounds for name, seconds in layers.items()}
    metrics.update(
        {
            "cli.startup_s": startup_s,
            "ir.parse_kinst_per_s": probe.parsed_instructions / 1000.0 / layers["ir.parse_s"]
            if layers["ir.parse_s"]
            else 0.0,
            "fingerprint.cache_hit_ratio": _ratio(*ratios["fingerprint"]),
            "search.comparisons": per_round(comparisons),
            "search.buckets_probed": per_round(probed),
            "search.capped_buckets": per_round(capped),
            "search.tombstones": per_round(probe.tombstones),
            "search.compactions": per_round(probe.compactions),
            "merge.bound_rejects": per_round(outcomes["rejected_bound"]),
            "alignment.calls": per_round(spans["align"]),
            "alignment.cache_hit_ratio": _ratio(*ratios["alignment"]),
            "alignment.plan_hit_ratio": _ratio(*ratios["plan"]),
            "merge.codegen_calls": per_round(spans["codegen"]),
            "merge.codegen_useful_ratio": _ratio(merges, spans["codegen"]),
            "merge.merges": per_round(merges),
            "merge.rollbacks": per_round(probe.rollbacks),
            "staticcheck.proved_ratio": _ratio(proved, validated),
            "oracle.calls": per_round(spans["oracle"]),
            "e2e.traced_wall_s": wall / rounds,
            "e2e.unaccounted_share": unaccounted / wall if wall else 0.0,
            "e2e.failed_share": ledger.failed / ledger.attempted,
            "trace.overhead_ratio": overhead_ratio,
        }
    )
    for outcome in OUTCOMES:
        metrics[f"merge.outcome.{outcome}"] = per_round(outcomes[outcome])
    for name in SESSION_METRICS:
        metrics[name] = (session or {}).get(name, 0.0)
    return metrics
