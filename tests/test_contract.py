"""The contract of the public surface: every callable defined in `ccsp` and
exported by it or by one of its modules, called with drawn arguments, returns
or raises one of the documented errors, never another exception."""
import inspect
import re
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

import ccsp
from ccsp import (
    NULL,
    SKIP,
    Atom,
    Aux,
    GenConfig,
    Pair,
    ParseError,
    StateCapExceeded,
    Terminal,
    gen_term,
    trace,
)

_MODULES = (
    ccsp, ccsp.denotational, ccsp.equivalence, ccsp.operational, ccsp.parser, ccsp.terms,
    ccsp.warehouse,
)
#: name -> callable, for each public callable whose home is a `ccsp` module.
_CALLABLES = {
    f"{value.__module__}.{value.__qualname__}": value
    for module in _MODULES
    for name, value in vars(module).items()
    if not name.startswith("_")
    and callable(value)
    and not inspect.ismodule(value)
    and getattr(value, "__module__", "").startswith("ccsp")
}
_DOCUMENTED = (TypeError, ValueError, StateCapExceeded, ParseError)


def _terms(kind: str):
    return st.builds(
        lambda seed, depth: gen_term(GenConfig(seed, depth, ("a", "b"), kind)),
        st.integers(0, 2**32), st.integers(1, 3),
    )


# Terms of both kinds, the runtime-only terms, observations, the kind of
# arguments the library takes (alphabets, kinds, small counts, texts), and
# values that are none of these.
_VALUES = st.one_of(
    _terms("std"),
    _terms("comp"),
    st.sampled_from([
        NULL, Aux(Pair(Atom("a"), SKIP), SKIP), trace("a", "*"), trace("!"),
        (trace("a", "*"), trace("*")), Terminal.TICK, Terminal.THROW, ("a", "b"), ("a",),
        "std", "comp", "a ; b", "a % b", frozenset((trace("a", "*"),)),
        GenConfig(1, 2, ("a", "b"), "std"), (), [], None, True, False, 0.5, -1, 0, 1, 2,
        "", "ab", "*", b"a", b"",
    ]),
    st.integers(-3, 3),
    st.text(max_size=4),
    st.binary(max_size=2),
)


def _arity(fn) -> tuple[int, int]:
    """The fewest and most positional arguments `fn` takes (at most 5)."""
    try:
        params = inspect.signature(fn).parameters.values()
    except ValueError:  # a builtin with no signature
        return 0, 3
    positional = [p for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    required = sum(p.default is p.empty for p in positional)
    varargs = any(p.kind is p.VAR_POSITIONAL for p in params)
    return required, 5 if varargs else len(positional)


@pytest.mark.parametrize("name", sorted(_CALLABLES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_every_exported_callable_returns_or_raises_a_documented_error(name, data):
    fn = _CALLABLES[name]
    low, high = _arity(fn)
    args = data.draw(st.lists(_VALUES, min_size=low, max_size=high), label="args")
    try:
        out = fn(*args)
        if inspect.isgenerator(out):  # a generator checks its arguments when first run
            list(islice(out, 3))
    except _DOCUMENTED:
        pass


_A = Atom("a")


# Most of these used to return, or to end in another exception.
@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: ccsp.parse_standard(b"a"), TypeError, "not a text: b'a'"),
        (lambda: ccsp.sync_terminals(1, 2), TypeError, "not a terminal: 1"),
        (lambda: ccsp.sync_terminals(Terminal.TICK, None), TypeError, "not a terminal: None"),
        (lambda: ccsp.terms.trace_tokens(("a", "*")), TypeError, "not a trace: ('a', '*')"),
        (lambda: ccsp.terms.pair_tokens((trace("*"), "*")), TypeError, "not a trace: '*'"),
        (lambda: ccsp.terms.pair_tokens(trace("*")), TypeError, "not a trace: ()"),
        (lambda: ccsp.TracePair("x", None), TypeError, "not a trace: 'x'"),
        (lambda: ccsp.TracePair(trace("*"), (("a",), None)), TypeError,
         "not a trace: (('a',), None)"),
        (lambda: ccsp.pair_traces(trace("*"), "x"), TypeError, "not a trace: 'x'"),
        (lambda: ccsp.pair_traces(trace("!"), "x"), TypeError, "not a trace: 'x'"),
        (lambda: ccsp.lift_pair({trace("*")}, {"x"}), TypeError, "not a trace: 'x'"),
        (lambda: ccsp.seq_traces("", trace("*")), ValueError, "not enough values"),
        (lambda: ccsp.lift_par({trace("*")}, {"a"}), ValueError, "not enough values"),
        (lambda: ccsp.terms.check_alphabet("ab"), TypeError, "not a string: 'ab'"),
        (lambda: ccsp.validate_user_term(_A, "ab"), TypeError, "not a string: 'ab'"),
        (lambda: ccsp.validate_user_term(_A, ("a", "a")), ValueError, "each event once"),
        (lambda: next(ccsp.enumerate_terms(0, "ab")), TypeError, "not a string: 'ab'"),
        (lambda: GenConfig(1, 2, "ab", "std"), TypeError, "not a string: 'ab'"),
        (lambda: next(ccsp.enumerate_terms(True, ("a",))), TypeError, "max_ops must be an integer"),
        (lambda: next(ccsp.enumerate_terms("1", ("a",))), TypeError, "'str' object cannot be"),
        (lambda: next(ccsp.enumerate_terms(1, ("a",), "comp", True)), TypeError,
         "max_pair_operand_ops must be an integer"),
        (lambda: GenConfig(True, 2, ("a",), "std"), TypeError, "seed must be an integer"),
        (lambda: GenConfig(1, True, ("a",), "std"), TypeError, "max_depth must be an integer"),
        (lambda: next(ccsp.equivalence.run_prop_campaign(1, True, 2, ("a",), "std")), TypeError,
         "cases must be an integer"),
        (lambda: ccsp.equivalence.run_lemma_suite(1, True, 0, 2, ("a",)), TypeError,
         "cases must be an integer"),
        (lambda: ccsp.check_lemma(True, (_A, _A)), TypeError, "a law id must be an integer"),
        # A node of a kind's base class, which only `object.__new__` builds,
        # has no operator at all.
        (lambda: ccsp.traces_standard(object.__new__(ccsp.StandardTerm)), TypeError,
         "not a process term"),
        (lambda: ccsp.derived_traces_standard(object.__new__(ccsp.StandardTerm)), TypeError,
         "not a process term"),
        # These ended in an `AttributeError`, or built a node with no sizes.
        pytest.param(lambda: ccsp.StandardTerm(), TypeError, "cannot build a bare StandardTerm",
                     id="standard-base-builds-no-node"),
        pytest.param(lambda: ccsp.CompensableTerm(), TypeError,
                     "cannot build a bare CompensableTerm", id="compensable-base-builds-no-node"),
        pytest.param(lambda: trace("*") < 5, TypeError, "ordered only against another: 5",
                     id="trace-orders-only-against-a-trace"),
        pytest.param(lambda: Terminal.TICK < 0, TypeError, "'<' not supported",
                     id="terminal-orders-only-against-a-terminal"),
    ],
)
def test_malformed_arguments_are_refused(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
