"""Layer accounting for the traced run.

The traced run installs the program's own :class:`repro.obs.trace.Tracer`
(which already opens ``attempt``, ``rank``, ``lsh_query``, ``bound``,
``align``, ``codegen``, ``staticcheck``, ``validate``, ``oracle``,
``commit``, ``fingerprint``, ``encode``, ``minhash`` and ``index`` spans)
and adds spans of its own from outside ``src/``: around the public calls
the benchmark makes, and around public functions it wraps for the
duration of the traced run only (:class:`LayerProbe`).

A span's self time is its duration minus the durations of its children
(spans of one thread nest, so children never overlap).  Every span name
maps to one layer metric; the self time of spans no layer claims (the
benchmark's own root spans) is ``e2e.unaccounted_share`` of the traced
wall, so the layer times plus the unaccounted time add up to the wall.
"""

from __future__ import annotations

import functools
import json
from contextlib import ExitStack, contextmanager
from typing import Callable, Dict, List, Optional, Tuple
from unittest import mock

import repro.ir
import repro.serve.db
from repro.merge.pass_ import FunctionMergingPass
from repro.merge.transaction import MergeTransaction
from repro.obs import trace
from repro.search.lsh import LSHIndex
from repro.serve.daemon import ServeDaemon
from repro.serve.db import FingerprintDatabase

#: Span name -> the layer metric its self time counts toward.
LAYER_OF_SPAN = {
    "read": "cli.io_s",
    "write": "cli.io_s",
    "parse_module": "ir.parse_s",
    "verify_module": "ir.verify_s",
    "print_module": "ir.print_s",
    "fingerprint": "fingerprint.s",
    "encode": "fingerprint.s",
    "minhash": "fingerprint.s",
    "rank": "search.rank_s",
    "lsh_query": "search.rank_s",
    "index": "search.index_build_s",
    "pass.run": "merge.pass_self_s",
    "attempt": "merge.attempt_self_s",
    "bound": "merge.bound_s",
    "align": "alignment.align_s",
    "codegen": "merge.codegen_s",
    "commit": "merge.commit_s",
    "staticcheck": "staticcheck.lint_s",
    "validate": "staticcheck.validate_s",
    "oracle": "oracle.s",
    "serve.request": "serve.protocol_s",
    "serve.handle": "serve.protocol_s",
    "serve.apply_delta": "serve.apply_delta_s",
    "serve.query": "serve.query_s",
    "serve.merge": "serve.merge_s",
}
LAYER_TIMES = tuple(dict.fromkeys(LAYER_OF_SPAN.values()))


def new_tracer() -> trace.Tracer:
    # Large enough that no run drops a span; layer_times() refuses a
    # trace that did.
    return trace.Tracer(maxlen=1 << 21)


def layer_times(tracer: trace.Tracer) -> Tuple[Dict[str, float], float, float]:
    """``(self seconds per layer, traced wall, unaccounted seconds)``."""
    if tracer.spans_dropped:
        raise RuntimeError(f"tracer dropped {tracer.spans_dropped} spans")
    spans = tracer.finished()
    covered: Dict[int, float] = {}
    for sp in spans:
        if sp.parent_id is not None:
            covered[sp.parent_id] = covered.get(sp.parent_id, 0.0) + sp.duration
    layers = {name: 0.0 for name in LAYER_TIMES}
    wall = unaccounted = 0.0
    for sp in spans:
        self_s = sp.duration - covered.get(sp.span_id, 0.0)
        layer = LAYER_OF_SPAN.get(sp.name)
        if layer is None:
            unaccounted += self_s
        else:
            layers[layer] += self_s
        if sp.parent_id is None:
            wall += sp.duration
    return layers, wall, unaccounted


def write_spans(tracer: trace.Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for sp in tracer.finished():
            json.dump(sp.to_dict(), handle, sort_keys=True, default=str)
            handle.write("\n")


class LayerProbe:
    """Spans and counters around public functions, for one traced region.

    ``parse_module``/``verify_module``/``print_module`` are wrapped where
    the benchmark (``repro.ir``) and the daemon (``repro.serve.db``) look
    them up; ``FunctionMergingPass.run``, the daemon's request handler and
    its three request methods get spans; LSH removals, compactions and
    transaction rollbacks are counted.
    """

    def __init__(self) -> None:
        self.parsed_instructions = 0
        self.tombstones = 0
        self.compactions = 0
        self.rollbacks = 0
        #: ``(pass, report)`` of every ``FunctionMergingPass.run``.
        self.passes: List[Tuple[FunctionMergingPass, object]] = []

    @contextmanager
    def install(self):
        parsed, ran = self._parsed, self._ran
        spans = (
            (repro.ir, "parse_module", "parse_module", parsed),
            (repro.ir, "verify_module", "verify_module", None),
            (repro.ir, "print_module", "print_module", None),
            (repro.serve.db, "parse_module", "parse_module", parsed),
            (repro.serve.db, "verify_module", "verify_module", None),
            (repro.serve.db, "print_module", "print_module", None),
            (FunctionMergingPass, "run", "pass.run", ran),
            (ServeDaemon, "handle", "serve.handle", None),
            (FingerprintDatabase, "apply_delta", "serve.apply_delta", None),
            (FingerprintDatabase, "query", "serve.query", None),
            (FingerprintDatabase, "merge_text", "serve.merge", None),
        )
        counters = (
            (LSHIndex, "remove", "tombstones"),
            (LSHIndex, "compact", "compactions"),
            (MergeTransaction, "rollback", "rollbacks"),
        )
        with ExitStack() as stack:
            for owner, attr, name, after in spans:
                wrapper = _spanned(name, getattr(owner, attr), after)
                stack.enter_context(mock.patch.object(owner, attr, wrapper))
            for owner, attr, counter in counters:
                wrapper = self._counted(counter, getattr(owner, attr))
                stack.enter_context(mock.patch.object(owner, attr, wrapper))
            yield self

    def _parsed(self, args, module) -> None:
        self.parsed_instructions += module.num_instructions

    def _ran(self, args, report) -> None:
        self.passes.append((args[0], report))

    def _counted(self, counter: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            setattr(self, counter, getattr(self, counter) + 1)
            return fn(*args, **kwargs)

        return wrapper


def _spanned(name: str, fn: Callable, after: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with trace.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(args, result)
        return result

    return wrapper
