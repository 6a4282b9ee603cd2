import json
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from ccsp.equivalence import GenConfig, enumerate_terms, gen_term
from ccsp.parser import MAX_DEPTH, MAX_NESTING, ParseError, parse_compensable, parse_standard
from ccsp.terms import (
    SKIP,
    THROW,
    YIELD,
    Atom,
    Block,
    CChoice,
    CPar,
    CSeq,
    Choice,
    Interrupt,
    Pair,
    Par,
    Seq,
    pretty_print,
    term_depth,
)

A = Atom("a")
B = Atom("b")
C = Atom("c")


def test_parse_keywords_and_sequence():
    assert parse_standard("SKIP ; THROW") is Seq(SKIP, THROW)
    assert parse_standard("YIELD") is YIELD


def test_parse_block_with_desugared_alias():
    term = parse_standard("[ a % b ; THROWW ]")
    assert term is Block(CSeq(Pair(A, B), Pair(THROW, SKIP)))


def test_parse_precedence_choice_vs_seq():
    assert parse_standard("a [] b ; c") is Choice(A, Seq(B, C))


@pytest.mark.parametrize(
    "text,expected",
    [
        ("a ; b || SKIP", Par(Seq(A, B), SKIP)),
        ("a |> b [] c", Choice(Interrupt(A, B), C)),
        ("a ; b |> c", Interrupt(Seq(A, B), C)),
        ("a [] b || c", Par(Choice(A, B), C)),
        ("a ; b ; c", Seq(Seq(A, B), C)),
        ("(a ; b) ; c", Seq(Seq(A, B), C)),
        ("a ; (b ; c)", Seq(A, Seq(B, C))),
    ],
)
def test_parse_standard_precedence_table(text, expected):
    assert parse_standard(text) is expected


def test_parse_compensable_pair():
    assert parse_compensable("a % b") is Pair(A, B)


def test_parse_compensable_aliases():
    assert parse_compensable("SKIPP") is Pair(SKIP, SKIP)
    assert parse_compensable("YIELDD") is Pair(YIELD, SKIP)
    assert parse_compensable("THROWW") is Pair(THROW, SKIP)


def test_parse_compensable_sequence_of_pairs():
    term = parse_compensable("(a % a') ; (b % b')")
    assert term is CSeq(Pair(A, Atom("a'")), Pair(B, Atom("b'")))


@pytest.mark.parametrize(
    "text,expected",
    [
        ("a % b ; c % d", CSeq(Pair(A, B), Pair(C, Atom("d")))),
        ("a % b [] c % d", CChoice(Pair(A, B), Pair(C, Atom("d")))),
        ("a % b || c % d", CPar(Pair(A, B), Pair(C, Atom("d")))),
        ("(a ; b) % SKIP", Pair(Seq(A, B), SKIP)),
        ("[ a % b ] % SKIP", Pair(Block(Pair(A, B)), SKIP)),
        ("((a % b))", Pair(A, B)),
    ],
)
def test_parse_compensable_forms(text, expected):
    assert parse_compensable(text) is expected


def test_blocks_nest():
    term = parse_standard("[ [ a % b ] % SKIP ]")
    assert term is Block(Pair(Block(Pair(A, B)), SKIP))


MALFORMED = [
    ("0", 0),  # the null process is not part of the syntax
    ("a ;", 3),  # missing operand
    ("a ; ; b", 4),
    ("(a ; b", 6),  # unclosed paren
    ("a $ b", 2),  # unknown operator
    ("a [] [] b", 5),
    ("SKIPP", 0),  # compensable-only keyword in standard position
    ("\u00c0", 0),  # event names are ASCII; this was a ValueError
    ("a\u00b2", 1),
]


@pytest.mark.parametrize("text,offset", MALFORMED)
def test_parse_errors_point_at_first_offending_lexeme(text, offset):
    with pytest.raises(ParseError) as exc:
        parse_standard(text)
    assert exc.value.position == offset


def test_compensable_construct_rejected_in_standard_position():
    with pytest.raises(ParseError) as exc:
        parse_standard("a % b")
    assert exc.value.position == 2


def test_standard_construct_rejected_in_compensable_position():
    with pytest.raises(ParseError):
        parse_compensable("a ; b")
    with pytest.raises(ParseError):
        parse_compensable("SKIP")


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError) as exc:
        parse_standard("a b")
    assert exc.value.position == 2


def test_nesting_limit_is_a_parse_error():
    # 196 parentheses used to end in a RecursionError from the descent.
    for depth in (MAX_NESTING + 1, 196):
        with pytest.raises(ParseError) as exc:
            parse_standard("(" * depth + "a" + ")" * depth)
        assert exc.value.position == MAX_NESTING
    assert parse_standard("(" * MAX_NESTING + "a" + ")" * MAX_NESTING) is A
    wrapped = "a % b"
    for _ in range(MAX_NESTING):
        wrapped = f"({wrapped})"
    assert parse_compensable(wrapped) is Pair(A, B)
    with pytest.raises(ParseError):
        parse_compensable(f"({wrapped})")


def test_nesting_limit_counts_blocks_and_parentheses_together():
    body = "a % b"
    for _ in range(MAX_NESTING - 1):
        body = f"[ {body} ] % SKIP"
    nested = parse_standard(f"[ {body} ]")
    assert pretty_print(nested) == f"[ {body} ]"
    with pytest.raises(ParseError):
        parse_standard(f"([ {body} ])")


def test_nested_compensable_brackets_parse_fast():
    # At each level `comp_pair` reads `([ ... ] % SKIP)` first as a pair
    # operand, which fails at `%`, then as a parenthesized compensable term;
    # parsing the inner block afresh each time doubles the work per level.
    text, term = "a % b", Pair(A, B)
    for _ in range(20):
        text = f"a % b ; ([ {text} ] % SKIP)"
        term = CSeq(Pair(A, B), Pair(Block(term), SKIP))
    start = time.perf_counter()
    assert parse_compensable(text) is term
    assert time.perf_counter() - start < 1.0


def test_depth_limit_is_a_parse_error():
    chain = " ; ".join(["a"] * MAX_DEPTH)
    assert term_depth(parse_standard(chain)) == MAX_DEPTH
    pairs = " ; ".join(["a % b"] * (MAX_DEPTH - 1))
    assert term_depth(parse_compensable(pairs)) == MAX_DEPTH
    for parse, text in (
        (parse_standard, chain + " ; a"),
        (parse_standard, " ; ".join(["a"] * 5000)),
        (parse_compensable, pairs + " ; a % b"),
    ):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert f"at most {MAX_DEPTH} deep" in str(exc.value)


def test_whitespace_insensitive():
    assert parse_standard("a;b||c") is parse_standard(" a ;  b ||\tc ")


@given(
    st.integers(0, 2**63 - 1),
    st.integers(1, 5),
    st.sampled_from(["std", "comp"]),
)
def test_parse_inverts_pretty_print(seed, depth, kind):
    cfg = GenConfig(seed=seed, max_depth=depth, alphabet=("a", "b", "c"), kind=kind)
    term = gen_term(cfg)
    parse = parse_standard if kind == "std" else parse_compensable
    assert parse(pretty_print(term)) is term


GOLDEN = Path(__file__).parent / "data" / "parse_errors_golden.txt"

#: Every one- and two-lexeme input over these, space-joined and unspaced
#: (`a;b`, `|||>`, `[]]`, `SKIPPa`, `a0`), is pinned.
LEXEMES = ("a", "a'", ";", "[]", "||", "|>", "%", "(", ")", "[", "]",
           "SKIP", "YIELD", "SKIPP", "THROWW", "0", "$")

#: `a ; b` with each kind of separator the tokenizer skips, and non-breaking
#: and ideographic spaces, which are whitespace too.
SPACED = ("a\t;\tb", "a\n;\nb", "a\r\n;\x0bb\x0c", "a\u00a0;\u00a0b", "a\u3000;\u3000b",
          "\ta ; b\n")


def golden_inputs() -> list[str]:
    texts = [*LEXEMES, *(f"{x} {y}" for x in LEXEMES for y in LEXEMES)]
    texts += [text for text, _ in MALFORMED]
    texts += [f"{x}{y}" for x in LEXEMES for y in LEXEMES]
    return list(dict.fromkeys([*texts, *SPACED]))


def golden_lines() -> list[str]:
    """Per input and grammar: the rendered term, or the error's three fields."""
    lines = []
    for text in golden_inputs():
        for kind, parse in (("std", parse_standard), ("comp", parse_compensable)):
            try:
                result = pretty_print(parse(text))
            except ParseError as e:
                result = [e.position, e.expected, e.found]
            lines.append(json.dumps([kind, text, result]))
    return lines


def test_parse_results_match_golden():
    # The space-joined lines were written by the parser before the operator
    # table replaced its per-level methods, the unspaced and whitespace lines
    # by the parser before its tokens came from one pattern.  Regenerate with:
    #   PYTHONPATH=src python3 -c "import tests.test_parser as t; t.write_golden()"
    assert golden_lines() == GOLDEN.read_text(encoding="utf-8").splitlines()


def write_golden() -> None:
    GOLDEN.write_text("\n".join(golden_lines()) + "\n", encoding="utf-8")


@pytest.mark.parametrize(
    "kind,max_ops,count",
    [("std", 2, 8255), ("comp", 1, 3150)],
    ids=["standard-2-8255", "compensable-1-3150"],
)
def test_parse_inverts_pretty_print_exhaustively(kind, max_ops, count):
    parse = parse_standard if kind == "std" else parse_compensable
    terms = list(enumerate_terms(max_ops, ("a", "b"), kind))
    assert len(terms) == count
    for term in terms:
        assert parse(pretty_print(term)) is term
