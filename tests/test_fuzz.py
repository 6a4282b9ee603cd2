"""Fuzz the text entry points: any short input ends in a term, a
`ParseError`, or an exit code, never in another exception."""
import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from ccsp.cli import run
from ccsp.parser import ParseError, parse_compensable, parse_standard

# Grammar lexemes, so that many inputs get past the tokenizer, mixed with
# arbitrary characters.  Twelve pieces keep every term small enough for the
# semantics to finish at once.
_LEXEMES = (
    "a", "b", "a'", "x_1", ";", "[]", "||", "|>", "%", "(", ")", "[", "]",
    "SKIP", "THROW", "YIELD", "SKIPP", "THROWW", "YIELDD", " ", "0",
)
texts = st.one_of(
    st.lists(st.sampled_from(_LEXEMES) | st.characters(), max_size=12).map("".join),
    st.text(max_size=20),
)
fuzz = settings(max_examples=150, deadline=None)


@fuzz
@given(texts)
def test_parsers_raise_only_parse_errors(text):
    for parse in (parse_standard, parse_compensable):
        try:
            parse(text)
        except ParseError:
            pass


@fuzz
@given(texts)
def test_check_ends_in_an_exit_code(text):
    for kind in ("std", "comp"):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = run(["check", "--kind", kind, text])
        assert code in (0, 1, 2)
