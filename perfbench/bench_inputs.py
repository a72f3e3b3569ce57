"""Seeded inputs for the three workloads.

Every input is a pure function of the workload seed.  Seed 0 gives the
unperturbed modules the generator builds; any other seed rewrites a fixed
share of each module's functions as mutated variants of themselves, so
each seed gives different inputs of the same shape and size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.harness.serve_bench import declare_external_callees
from repro.ir import Module, clone_function_into, print_module
from repro.workloads.mutate import make_variant
from repro.workloads.suites import WorkloadConfig, build_benchmark, build_workload

# oneshot-spec: five Table-I models, smallest to largest.  At half their
# Table-I size one round of five `repro merge` processes takes about 15 s
# on a 2-CPU host, which keeps all runs of all workloads within the
# benchmark's time budget.
ONESHOT_MODULES = ("429.mcf", "456.hmmer", "525.x264_r", "445.gobmk", "400.perlbench")
ONESHOT_SCALE = 0.5

FOCUSED_FUNCTIONS = 1500

SERVE_CORPUS_FUNCTIONS = 1000
SERVE_POOL_MODULES = 4
SERVE_POOL_FUNCTIONS = 60
# One block of the serve session: SUBMITS_PER_BLOCK submits, each followed
# by QUERIES_PER_SUBMIT queries, and MERGES_PER_BLOCK merges spread evenly.
SUBMITS_PER_BLOCK = 10
QUERIES_PER_SUBMIT = 10
MERGES_PER_BLOCK = 2
DELTA_SHARE = 0.01
ADDED_PER_DELTA = 2

PERTURB_SHARE = 0.02
MUTATIONS = 2


def perturb(module: Module, seed: int, salt: str) -> None:
    """Replace the bodies of a seeded PERTURB_SHARE of *module*'s functions
    (never the driver) with mutated variants of themselves."""
    if seed == 0:
        return
    rng = random.Random(f"{salt}:{seed}")
    funcs = [f for f in module.defined_functions() if not f.name.startswith("driver")]
    for func in rng.sample(funcs, max(1, round(len(funcs) * PERTURB_SHARE))):
        variant = make_variant(
            func, module.unique_name(func.name + ".seed"), rng, MUTATIONS, module
        )
        func.drop_body()
        clone_function_into(variant, func)
        variant.erase_from_parent()
        func.uniquify_names()


@dataclass(frozen=True)
class InputModule:
    """One generated module: its name, defined-function count and IR text."""

    name: str
    functions: int
    text: str


def _as_input(module: Module) -> InputModule:
    return InputModule(module.name, len(module.defined_functions()), print_module(module))


def _finish(module: Module, seed: int) -> InputModule:
    perturb(module, seed, module.name)
    return _as_input(module)


def oneshot_inputs(seed: int) -> List[InputModule]:
    return [
        _finish(build_benchmark(name, scale=ONESHOT_SCALE), seed)
        for name in ONESHOT_MODULES
    ]


def focused_inputs(seed: int) -> List[InputModule]:
    return [_finish(build_workload(FOCUSED_FUNCTIONS, name="focused"), seed)]


def pool_inputs() -> List[InputModule]:
    """The distinct modules the serve session sends as `merge` requests.

    They are the same for every seed: at 60 functions a 2% perturbation
    moves their size reduction by several percent, which would swamp the
    run-to-run spread the merge metrics are bounded by.
    """
    return [
        _as_input(
            build_workload(
                SERVE_POOL_FUNCTIONS, name=f"pool{j}", config=WorkloadConfig(seed=0x5E4E + j)
            )
        )
        for j in range(SERVE_POOL_MODULES)
    ]


# A serve request: ("submit", delta_text, removed_names), ("query", name),
# or ("merge", pool_index).
Request = Tuple[str, object, object]


@dataclass
class ServeScript:
    """The serve session's requests, generated block by block.

    Deltas are built from the *original* corpus, as in
    ``repro.harness.serve_bench.build_delta_text``: changed functions are
    mutated variants of resident functions, added functions are variants
    under fresh names, and removed functions are earlier additions.  Only
    the seed and the block number decide a block's requests, so a replay
    of the blocks is request-for-request identical.
    """

    seed: int
    corpus: Module
    names: List[str] = field(default_factory=list)
    added: List[str] = field(default_factory=list)
    blocks: List[List[Request]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.names = [
            f.name for f in self.corpus.defined_functions() if not f.name.startswith("driver")
        ]

    def block(self, k: int) -> List[Request]:
        """Requests of block *k*; blocks are built in order and kept."""
        while len(self.blocks) <= k:
            self.blocks.append(self._build(len(self.blocks)))
        return self.blocks[k]

    def _build(self, k: int) -> List[Request]:
        rng = random.Random(f"serve:{self.seed}:{k}")
        merge_every = SUBMITS_PER_BLOCK // MERGES_PER_BLOCK
        requests: List[Request] = []
        for step in range(SUBMITS_PER_BLOCK):
            text, removed = self._delta(rng, f"{k}.{step}")
            requests.append(("submit", text, removed))
            for _ in range(QUERIES_PER_SUBMIT):
                requests.append(("query", rng.choice(self.names), None))
            if step % merge_every == merge_every - 1:
                merge_no = k * MERGES_PER_BLOCK + step // merge_every
                requests.append(("merge", merge_no % SERVE_POOL_MODULES, None))
        return requests

    def _delta(self, rng: random.Random, tag: str) -> Tuple[str, List[str]]:
        delta = Module("delta")
        count = max(1, int(len(self.names) * DELTA_SHARE))
        for name in rng.sample(self.names, count):
            self._variant(self.corpus.get_function(name), name, rng, delta)
        new_names = [f"add.{tag}.{i}" for i in range(ADDED_PER_DELTA)]
        for name in new_names:
            self._variant(self.corpus.get_function(rng.choice(self.names)), name, rng, delta)
        removed = [self.added.pop(rng.randrange(len(self.added)))] if self.added else []
        self.added.extend(new_names)
        declare_external_callees(delta)
        text = print_module(delta)
        # Cloned call operands point into the corpus; drop them so the
        # corpus does not accumulate uses from dead delta modules.
        for func in delta.functions:
            func.drop_body()
        return text, removed

    @staticmethod
    def _variant(base, name: str, rng: random.Random, delta: Module) -> None:
        make_variant(base, name, rng, MUTATIONS, delta).uniquify_names()


def serve_inputs(seed: int) -> Tuple[InputModule, List[InputModule], ServeScript]:
    corpus = build_workload(SERVE_CORPUS_FUNCTIONS, name="corpus")
    perturb(corpus, seed, "corpus")
    text = print_module(corpus)
    return (
        InputModule("corpus", len(corpus.defined_functions()), text),
        pool_inputs(),
        ServeScript(seed, corpus),
    )
