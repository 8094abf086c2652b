"""`parse_stream` against the token-at-a-time parser it replaced.

The reference below is the earlier regex tokenizer and parse loop, kept
verbatim: it reads one token at a time, so its result, or its first error
with line and column, is the definition the faster parser must reproduce.
Texts are drawn over the characters that matter to the format, as token
soups with small numbers, and as rendered valid streams with a few
characters changed.  Runs are derandomized, so the suite stays deterministic.
"""

import itertools
import re
from typing import Iterator

from hypothesis import given, settings, strategies as st

from aritygap import FiniteFunction, FunctionFormatError, parse, parse_stream, render, render_line
from aritygap.core import _check_shape
from test_substitution import PROFILE, functions

FUZZ = settings(derandomize=True, max_examples=400, deadline=None)

_TOKEN = re.compile(r"\S+")


def _tokens(text: str) -> Iterator[tuple[str, int, int]]:
    # ';' acts as a line separator so the compact one-line form parses too.
    for lineno, raw in enumerate(text.split("\n"), start=1):
        for part in raw.split(";"):
            if part.lstrip().startswith("#"):
                break
            for m in _TOKEN.finditer(part):
                yield m.group(), lineno, m.start() + 1


def _int_token(tok: tuple[str, int, int], what: str) -> int:
    text, line, col = tok
    try:
        return int(text)
    except ValueError:
        raise FunctionFormatError(f"{what}: {text!r} is not an integer", line, col) from None


def reference_parse_stream(text: str) -> list[FiniteFunction]:
    """Parse a concatenation of zero or more functions in the text format."""
    stream = _tokens(text)
    out = []
    while True:
        header = list(itertools.islice(stream, 3))
        if not header:
            return out
        if len(header) < 3:
            tok = header[-1]
            raise FunctionFormatError("incomplete header, expected 'k n b'", tok[1], tok[2])
        k = _int_token(header[0], "domain size")
        n = _int_token(header[1], "arity")
        b = _int_token(header[2], "codomain size")
        if k < 2 or n < 1 or b < 2:
            raise FunctionFormatError(
                f"invalid header 'k n b' = '{k} {n} {b}' (need k >= 2, n >= 1, b >= 2)",
                header[0][1],
                header[0][2],
            )
        try:
            _check_shape(k, n, b)
        except ValueError as exc:
            raise FunctionFormatError(str(exc), header[0][1], header[0][2]) from None
        size = k**n
        values = []
        last = header[2]
        for tok in itertools.islice(stream, size):
            v = _int_token(tok, "table value")
            if not 0 <= v < b:
                raise FunctionFormatError(f"value {v} not in 0..{b - 1}", tok[1], tok[2])
            values.append(v)
            last = tok
        if len(values) != size:
            raise FunctionFormatError(
                f"expected {size} values, got {len(values)}", last[1], last[2]
            )
        out.append(FiniteFunction(k, n, b, tuple(values)))


# The last seven characters are whitespace to both str.split() and re's \s
# without being '\n': the parser relies on those two agreeing.
ALPHABET = "0123456789-+_x#; \t\n\r\x0b\x0c\x1c\x85\xa0\u2028\u3000"
SEPARATORS = (" ", "  ", "\t", "\n", "\r\n", ";", " ; ", "\n# note 1 2\n", ";#x\n", " ;\t# c\n")
# Twos and threes make most headers valid; the rest are values or near-misses.
WORDS = ("2", "2", "2", "3", "3", "1", "1", "0", "0", "4", "-1", "+1", "1_0", "_1", "x", "0x1", "00", "27")


def outcome(parser, text):
    try:
        fns = parser(text)
    except FunctionFormatError as exc:
        return "error", exc.message, exc.line, exc.column
    assert all(type(f.table) is tuple for f in fns)
    return "ok", fns


def assert_same_outcome(text):
    assert outcome(parse_stream, text) == outcome(reference_parse_stream, text)


@st.composite
def token_soups(draw):
    # Mostly small numbers, so headers are often valid and tables get read.
    pieces = draw(st.lists(st.tuples(st.sampled_from(WORDS), st.sampled_from(SEPARATORS)), max_size=40))
    return draw(st.sampled_from(("", " ", "# c\n"))) + "".join(w + s for w, s in pieces)


@st.composite
def edited_streams(draw):
    fns = draw(st.lists(functions(), min_size=1, max_size=2))
    text = "".join(draw(st.sampled_from((render, lambda f: render_line(f) + "\n")))(f) for f in fns)
    chars = list(text)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(chars)))
        edit = draw(st.sampled_from(("insert", "replace", "delete")))
        c = draw(st.sampled_from(ALPHABET))
        if edit == "insert":
            chars.insert(at, c)
        elif at < len(chars):
            chars[at : at + 1] = [c] if edit == "replace" else []
    return "".join(chars)


@FUZZ
@given(st.text(alphabet=ALPHABET, max_size=200))
def test_parse_matches_reference_on_random_text(text):
    assert_same_outcome(text)


@FUZZ
@given(token_soups())
def test_parse_matches_reference_on_token_soup(text):
    assert_same_outcome(text)


@settings(FUZZ, max_examples=200)
@given(edited_streams())
def test_parse_matches_reference_on_edited_streams(text):
    assert_same_outcome(text)


@PROFILE
@given(functions())
def test_render_round_trip(f):
    assert parse(render(f)) == f
    assert parse(render_line(f)) == f
