"""Pinned decisions of the default F3M pass on a fixed workload module.

Performance work on the pass (stopping codegen early, cheaper undo
records, caches) must not change a single decision.  The values below
were measured before the codegen size limit and the moved-body commit
snapshots existed; any change to them is a change of behaviour, not of
speed.
"""

import hashlib

from repro.ir import print_module
from repro.merge import FunctionMergingPass, PassConfig
from repro.search import MinHashLSHRanker
from repro.workloads import build_workload

_PINNED = {
    "sha256": "515ac8c7341a361e0203dd112a4dae628af4d39a389b0fba706a1f7fd78883bb",
    "merges": 96,
    "comparisons": 18519,
    "size": (20409, 16567),
    "outcomes": {
        "merged": 96,
        "no_candidate": 8,
        "rejected_threshold": 0,
        "rejected_bound": 7,
        "align_fail": 46,
        "codegen_fail": 0,
        "unprofitable": 146,
        "static_fail": 0,
        "validate_fail": 0,
        "oracle_fail": 0,
        "oracle_timeout": 0,
        "internal_error": 0,
        "rolled_back": 0,
    },
}


def test_default_f3m_pass_decisions_are_pinned():
    module = build_workload(300)
    report = FunctionMergingPass(MinHashLSHRanker(), PassConfig()).run(module)
    text = print_module(module)
    assert hashlib.sha256(text.encode()).hexdigest() == _PINNED["sha256"]
    assert report.merges == _PINNED["merges"]
    assert report.comparisons == _PINNED["comparisons"]
    assert (report.size_before, report.size_after) == _PINNED["size"]
    assert report.outcome_counts() == _PINNED["outcomes"]
