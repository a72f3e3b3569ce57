"""Codegen's size limit: stopping a build early never drops a profitable merge.

The pass hands codegen the largest merged size that could still pay
(``ProfitabilityModel.size_limit``).  Codegen checks the merged
function's modelled size against it before SSA repair and after every
repair round, and stops the build once it is over.  These tests rebuild
every attempt without a limit on a copy of the module and check that:

* every stopped build would have been rejected as unprofitable anyway;
* no checkpoint size exceeds the size the finished build ends with;
* builds within the limit come out the same size as unlimited ones.
"""

import pytest

from repro.alignment import align_functions
from repro.analysis.size import function_size
from repro.fuzz.config import FuzzConfig
from repro.fuzz.generate import FAMILIES, candidate_family, generate_candidate
from repro.ir import parse_module, print_module
from repro.merge import FunctionMergingPass, PassConfig, merge_functions
from repro.merge import pass_ as pass_module
from repro.merge.errors import MergeError
from repro.merge.profitability import ProfitabilityModel
from repro.obs import trace
from repro.obs.metrics import Registry
from repro.search import ExhaustiveRanker, MinHashLSHRanker
from repro.workloads import build_workload

_CANDIDATES_PER_FAMILY = 4


def _candidates(family):
    config = FuzzConfig(seed=7)
    found = []
    index = 0
    while len(found) < _CANDIDATES_PER_FAMILY:
        if candidate_family(config.seed, index) == family:
            found.append(generate_candidate(config, index))
        index += 1
    return found


class _UnlimitedShadow:
    """Wraps the pass's ``merge_functions``: before each limited build, the
    same pair is built without a limit on a copy of the module."""

    def __init__(self, monkeypatch, strategy):
        self.real = pass_module.merge_functions
        self.strategy = strategy
        self.model = ProfitabilityModel()
        # (limited result, its size, unlimited size, unlimited profitable)
        self.builds = []
        monkeypatch.setattr(pass_module, "merge_functions", self)

    def __call__(self, alignment, module, name=None, options=None, size_limit=None):
        copy = parse_module(print_module(module))
        func_a = copy.get_function(alignment.function_a.name)
        func_b = copy.get_function(alignment.function_b.name)
        try:
            full = self.real(
                align_functions(func_a, func_b, strategy=self.strategy),
                copy,
                options=options,
            )
        except MergeError:
            full = None
        result = self.real(alignment, module, name, options, size_limit)
        if full is not None:
            self.builds.append(
                (
                    result,
                    function_size(result.merged),
                    function_size(full.merged),
                    self.model.evaluate(full).profitable,
                )
            )
        return result


def _run_shadowed(monkeypatch, module, config, ranker):
    shadow = _UnlimitedShadow(monkeypatch, config.alignment)
    report = FunctionMergingPass(ranker, config).run(module)
    return shadow, report


def _check_sound(shadow):
    aborted = 0
    for result, size, full_size, full_profitable in shadow.builds:
        assert result.checkpoint_sizes, "the pass always sets a size limit"
        assert max(result.checkpoint_sizes) <= full_size
        if result.aborted:
            aborted += 1
            assert not full_profitable
            assert size == 0  # the stopped build released its body
        else:
            assert size == full_size
    return aborted


# One private instruction in @f2 feeds the join phi, so the merged
# function needs one demotion: SSA repair runs exactly one round.
_REPAIR_PAIR = """
define i32 @f1(i32 %x) {
entry:
  %a = add i32 %x, 1
  %c = icmp sgt i32 %a, 10
  br i1 %c, label %big, label %small
big:
  %b1 = mul i32 %a, 3
  br label %join
small:
  %s1 = sub i32 %a, 4
  br label %join
join:
  %p = phi i32 [ %b1, %big ], [ %s1, %small ]
  %z = xor i32 %p, %a
  ret i32 %z
}
define i32 @f2(i32 %x) {
entry:
  %a = add i32 %x, 1
  %c = icmp sgt i32 %a, 10
  br i1 %c, label %big, label %small
big:
  %b1 = mul i32 %a, 3
  %b2 = add i32 %b1, 100
  br label %join
small:
  %s1 = sub i32 %a, 4
  br label %join
join:
  %p = phi i32 [ %b2, %big ], [ %s1, %small ]
  %z = xor i32 %p, %a
  ret i32 %z
}
"""


def _canonical(text):
    return print_module(parse_module(text))


def _build_repair_pair(size_limit):
    module = parse_module(_REPAIR_PAIR)
    f1, f2 = module.get_function("f1"), module.get_function("f2")
    result = merge_functions(align_functions(f1, f2), module, size_limit=size_limit)
    return module, result


class TestCheckpoints:
    def test_unstopped_build_records_both_checkpoints(self):
        module, result = _build_repair_pair(size_limit=10**6)
        assert not result.aborted and result.repairs == 1
        before_repair, after_round = result.checkpoint_sizes
        assert before_repair < after_round == function_size(result.merged)
        assert module.get_function(result.merged.name) is result.merged

    @pytest.mark.parametrize("checkpoint", [0, 1])
    def test_stop_leaves_module_untouched(self, checkpoint):
        sizes = _build_repair_pair(size_limit=10**6)[1].checkpoint_sizes
        module, result = _build_repair_pair(size_limit=sizes[checkpoint] - 1)
        assert result.aborted
        assert result.checkpoint_sizes == sizes[: checkpoint + 1]
        assert print_module(module) == _canonical(_REPAIR_PAIR)
        for name in ("f1", "f2"):
            assert module.get_function(name).num_uses == 0

    def test_no_limit_no_checkpoints(self):
        _module, result = _build_repair_pair(size_limit=None)
        assert not result.aborted and result.checkpoint_sizes == []


class TestSizeLimitSoundness:
    @pytest.mark.parametrize("legacy_bugs", [False, True])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_stopped_builds_are_never_profitable(self, monkeypatch, family, legacy_bugs):
        config = PassConfig(legacy_bugs=legacy_bugs)
        for module in _candidates(family):
            shadow, report = _run_shadowed(monkeypatch, module, config, ExhaustiveRanker())
            aborted = _check_sound(shadow)
            assert aborted == sum(a.codegen_aborted for a in report.attempts)
            monkeypatch.undo()

    def test_limit_stops_builds_on_a_workload(self, monkeypatch):
        module = build_workload(60)
        shadow, report = _run_shadowed(monkeypatch, module, PassConfig(), MinHashLSHRanker())
        aborted = _check_sound(shadow)
        # Most unprofitable builds stop early, some before SSA repair ran.
        assert aborted > report.outcome_counts()["unprofitable"] // 2
        assert any(
            len(build[0].checkpoint_sizes) == 1
            for build in shadow.builds
            if build[0].aborted
        )


class TestStoppedBuildObservability:
    def test_span_attribute_and_counter_agree(self):
        module = build_workload(120)
        tracer = trace.Tracer()
        registry = Registry()
        with tracer.install():
            report = FunctionMergingPass(
                MinHashLSHRanker(), PassConfig(), metrics=registry
            ).run(module)
        stopped = [a for a in report.attempts if a.codegen_aborted]
        assert stopped
        assert all(a.outcome == "unprofitable" for a in stopped)
        spans = [sp for sp in tracer.finished() if sp.name == "codegen"]
        assert sum(bool(sp.attrs.get("aborted")) for sp in spans) == len(stopped)
        assert registry.counter("merge.codegen_aborted").value == len(stopped)
