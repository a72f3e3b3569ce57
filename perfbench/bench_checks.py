"""Output checks and the failure ledger.

Every operation the benchmark runs is recorded in a :class:`Ledger`.  An
operation whose output fails a check is a failed operation, with one
structured failure for each check it failed, naming *where*:

* ``merge.exit``     the `repro merge` process exited non-zero or timed out;
* ``emit.reparse``   the emitted module text does not parse back;
* ``emit.verify``    it parses but ``verify_module`` rejects it;
* ``driver.mismatch`` ``driver`` on the output returns other values (or
  traps differently) than on the input, under ``repro.ir.interp``;
* ``serve.error``    a daemon request returned an error, or the daemon
  died or closed its pipe (which ends the session);
* ``nondeterministic`` a repeat of the same operation on the same input
  produced other bytes or other exact counters.  Such an output is still
  re-parsed, verified and run like any other.

Only ``driver.mismatch`` makes a run incorrect: it is the one failure in
which the program hands back code that looks valid and computes wrong
values.  The others are loud failures and count in ``failed``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir import Interpreter, Module, parse_module, verify_module

#: Arguments ``driver`` is run with; the dynamic instruction count over all
#: of them is the Fig. 17 proxy.
DRIVER_INPUTS = (0, 1, 7, 1000)

Outcome = Tuple[str, object]
#: A failed check: ``(where, message)``.
Failure = Tuple[str, str]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_driver(module: Module) -> Tuple[List[Outcome], int]:
    """``driver`` results over DRIVER_INPUTS and the instructions executed."""
    func = module.get_function("driver")
    outcomes: List[Outcome] = []
    executed = 0
    for arg in DRIVER_INPUTS:
        interp = Interpreter()
        try:
            result = interp.run(func, [arg])
        except Exception as exc:  # a trap (InterpError) or an interpreter crash
            outcomes.append(("trap", type(exc).__name__))
            continue
        outcomes.append(("value", result.value))
        executed += result.instructions_executed
    return outcomes, executed


@dataclass(frozen=True)
class Reference:
    """What a correct output of one input module must reproduce."""

    outcomes: Tuple[Outcome, ...]
    executed: int

    @classmethod
    def of(cls, text: str) -> "Reference":
        module = parse_module(text, name="input")
        verify_module(module)
        return cls.of_module(module)

    @classmethod
    def of_module(cls, module: Module) -> "Reference":
        outcomes, executed = run_driver(module)
        return cls(tuple(outcomes), executed)


@dataclass(frozen=True)
class Verdict:
    where: Optional[str]
    message: str = ""
    executed: int = 0

    def failures(self) -> Tuple[Failure, ...]:
        """The verdict as :meth:`Ledger.record` failures (none when it passed)."""
        return ((self.where, self.message),) if self.where is not None else ()


def check_output(text: str, reference: Reference) -> Verdict:
    """Re-parse, verify and run an emitted module against its input."""
    try:
        module = parse_module(text, name="output")
    except Exception as exc:  # any parser failure is the finding itself
        return Verdict("emit.reparse", f"{type(exc).__name__}: {exc}")
    try:
        verify_module(module)
    except Exception as exc:
        return Verdict("emit.verify", f"{type(exc).__name__}: {exc}")
    if module.get_function("driver") is None:
        return Verdict("driver.mismatch", "output has no @driver")
    outcomes, executed = run_driver(module)
    if tuple(outcomes) != reference.outcomes:
        return Verdict(
            "driver.mismatch",
            f"driver{list(DRIVER_INPUTS)} gave {outcomes}, input gave {list(reference.outcomes)}",
        )
    return Verdict(None, "", executed)


class OutputChecker:
    """:func:`check_output` memoised by output digest (a repeat that emits
    the same bytes gets the same verdict without re-running the checks)."""

    def __init__(self) -> None:
        self._verdicts: Dict[Tuple[str, Reference], Verdict] = {}

    def check(self, text: str, reference: Reference) -> Verdict:
        key = (sha256(text), reference)
        if key not in self._verdicts:
            self._verdicts[key] = check_output(text, reference)
        return self._verdicts[key]


@dataclass
class Ledger:
    """Operations attempted and the structured failures among them."""

    attempted: int = 0
    #: Operations with at least one failure.
    failed: int = 0
    failures: List[Dict[str, str]] = field(default_factory=list)

    def record(self, op: str, *failures: Failure) -> None:
        """One operation and every check it failed (none: it passed)."""
        self.attempted += 1
        self.failed += bool(failures)
        for where, message in failures:
            self.failures.append({"op": op, "where": where, "message": message[:300]})

    @property
    def correct(self) -> bool:
        return not any(f["where"] == "driver.mismatch" for f in self.failures)

    def where_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for failure in self.failures:
            counts[failure["where"]] = counts.get(failure["where"], 0) + 1
        return counts


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]
