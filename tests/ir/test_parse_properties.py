"""Round-trip and robustness properties of the IR parser.

* Printed modules parse back to the same text: every fuzz family, the
  five Table-I models the end-to-end benchmark merges (scale 0.5), and
  ``build_workload``.
* Broken text — a printed module cut at a token boundary, or with random
  characters overwritten — raises ``ParseError`` or parses into a module
  that ``verify_module`` accepts or rejects with ``VerificationError``.
  Any other exception is a parser (or verifier) bug.
"""

import functools

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.fuzz.config import FuzzConfig
from repro.fuzz.generate import FAMILIES, candidate_family, generate_candidate
from repro.ir import ParseError, parse_module, print_module, verify_module
from repro.ir.parser import _TOKEN_RE
from repro.ir.verifier import VerificationError
from repro.workloads.suites import build_benchmark, build_workload

TABLE_I_MODELS = ("429.mcf", "456.hmmer", "525.x264_r", "445.gobmk", "400.perlbench")


def _candidate_text(family: str, seed: int) -> str:
    """The first candidate of campaign *seed* that belongs to *family*."""
    index = next(i for i in range(1000) if candidate_family(seed, i) == family)
    return print_module(generate_candidate(FuzzConfig(seed=seed), index))


def _round_trips(text: str) -> None:
    assert print_module(parse_module(text)) == text


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_fuzz_families_round_trip(family, seed):
    _round_trips(_candidate_text(family, seed))


@pytest.mark.parametrize("name", TABLE_I_MODELS)
def test_table_i_models_round_trip(name):
    _round_trips(print_module(build_benchmark(name, scale=0.5)))


@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(functions=st.integers(min_value=1, max_value=60))
def test_workloads_round_trip(functions):
    _round_trips(print_module(build_workload(functions, name="w")))


# -- broken text -------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _source(which: str) -> str:
    if which == "workload":
        return print_module(build_workload(12, name="w"))
    return _candidate_text(which, 7)


def _parse_and_verify(text: str) -> None:
    """Fail on anything but success, ParseError or VerificationError."""
    try:
        module = parse_module(text)
    except ParseError as exc:
        assert exc.line >= 1 and str(exc) == f"line {exc.line}: {exc.message}"
        return
    try:
        verify_module(module)
    except VerificationError:
        pass


_SOURCES = st.sampled_from(FAMILIES + ("workload",))
_PROPERTY_SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@_PROPERTY_SETTINGS
@given(which=_SOURCES, data=st.data())
def test_truncation_at_token_boundary(which, data):
    text = _source(which)
    cuts = sorted({edge for m in _TOKEN_RE.finditer(text) for edge in m.span()})
    _parse_and_verify(text[: data.draw(st.sampled_from(cuts))])


# Characters that matter to the tokenizer, plus any printable ASCII and a
# few that no token may contain.
_MUTANT_CHARS = st.one_of(
    st.sampled_from(list("%@-.0123456789[]{}(),:=*;x \n\té$")),
    st.characters(min_codepoint=32, max_codepoint=126),
)


@_PROPERTY_SETTINGS
@given(which=_SOURCES, data=st.data())
def test_random_character_mutations(which, data):
    chars = list(_source(which))
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        position = data.draw(st.integers(min_value=0, max_value=len(chars) - 1))
        chars[position] = data.draw(_MUTANT_CHARS)
    _parse_and_verify("".join(chars))
