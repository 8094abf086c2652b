"""`parse_stream` against the token-at-a-time parser it replaced.

The reference below is the earlier regex tokenizer and parse loop, kept
verbatim: it reads one token at a time, so its result, or its first error
with line and column, is the definition the faster parser must reproduce.
Texts are drawn over the characters that matter to the format, as token
soups with small numbers, and as rendered valid streams with a few
characters changed.  Runs are derandomized, so the suite stays deterministic.
"""

import inspect
import itertools
import random
import re
from typing import Iterator

import pytest
from hypothesis import given, settings, strategies as st

from aritygap import core
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


# Words at the edge of parse_stream's one-digit path: the digit b itself, a
# digit above b, two-character numbers, int() spellings and non-ASCII
# characters, among them a raw byte as it arrives from undecodable input.
BOUNDARY_WORDS = ("b", "9", "00", "10", "+1", "1_0", "٠", "５", "²", "\udcff")


@st.composite
def boundary_streams(draw):
    # Rendered streams over b = 2..12, so tables take both the one-digit path
    # and the int() path, with one word replaced by a boundary word.
    streams = []
    for _ in range(draw(st.integers(1, 2))):
        k, b = draw(st.integers(2, 3)), draw(st.integers(2, 12))
        n = draw(st.integers(1, 4 if k == 2 else 3))
        table = draw(st.lists(st.integers(0, b - 1), min_size=k**n, max_size=k**n))
        streams.append([str(w) for w in (k, n, b, *table)])
    words = streams[draw(st.integers(0, len(streams) - 1))]
    at = draw(st.integers(0, len(words) - 1))
    word = draw(st.sampled_from(BOUNDARY_WORDS))
    words[at] = words[2] if word == "b" else word
    return "".join(
        " ".join(ws[:3]) + draw(st.sampled_from(("\n", ";"))) + " ".join(ws[3:]) + "\n"
        for ws in streams
    )


def check_boundary_words(parser):
    @settings(FUZZ, max_examples=300)
    @given(boundary_streams())
    def check(text):
        got = outcome(parser, text)
        assert got == outcome(reference_parse_stream, text)
        if got[0] == "ok":
            assert all(type(v) is int for f in got[1] for v in f.table)

    check()


def test_parse_matches_reference_at_the_one_digit_boundary():
    check_boundary_words(parse_stream)


def test_boundary_check_fails_a_fast_path_one_digit_too_wide():
    # A twin of parse_stream whose one-digit path also takes the digit b.
    source = inspect.getsource(core.parse_stream)
    assert source.count("_DIGITS[:b]") == 1
    scope = dict(vars(core))
    exec(source.replace("_DIGITS[:b]", "_DIGITS[: b + 1]"), scope)
    with pytest.raises(AssertionError):
        check_boundary_words(scope["parse_stream"])


@st.composite
def edited_renders(draw):
    # render's output for one or two functions, the layout parse_stream's
    # line path reads, with one character inserted, replaced or deleted.  At
    # b = 11 and 12 a row may hold two-digit values, which the path refuses.
    text = ""
    for _ in range(draw(st.integers(1, 2))):
        k, b = draw(st.integers(2, 3)), draw(st.integers(2, 12))
        n = draw(st.integers(1, 4 if k == 2 else 3))
        table = draw(st.lists(st.integers(0, b - 1), min_size=k**n, max_size=k**n))
        text += render(FiniteFunction(k, n, b, tuple(table)))
    at = draw(st.integers(0, len(text) - 1))
    edit = draw(st.sampled_from(("insert", "replace", "delete")))
    c = draw(st.sampled_from(ALPHABET))
    return text[:at] + (c if edit != "delete" else "") + text[at + (edit != "insert") :]


def check_edited_renders(parser):
    @settings(FUZZ, max_examples=300)
    @given(edited_renders())
    def check(text):
        got = outcome(parser, text)
        assert got == outcome(reference_parse_stream, text)
        if got[0] == "ok":
            assert all(f._packed in (None, bytes(f.table)) for f in got[1])

    check()


def test_parse_matches_reference_on_edited_renders():
    check_edited_renders(parse_stream)


SEPARATOR_CHECK = ' or raw.count(b" ") != count * size - 1'


def test_edited_renders_fail_a_line_path_without_its_separator_check():
    # A twin of parse_stream whose line path does not check that the odd
    # bytes of a blob of rows are spaces.
    source = inspect.getsource(core.parse_stream)
    assert source.count(SEPARATOR_CHECK) == 1
    scope = dict(vars(core))
    exec(source.replace(SEPARATOR_CHECK, ""), scope)
    with pytest.raises(AssertionError):
        check_edited_renders(scope["parse_stream"])


@st.composite
def edited_runs(draw):
    # render's output for two to six functions of at most two shapes, so
    # that equal header lines form runs, which the line path checks a blob
    # of rows at a time.  A header may be re-spelled, which starts a new run.
    # Up to two edits: a character inserted, replaced or deleted, or a paired
    # shift that moves the last " d" of one row to the front of the next row
    # of its run, as "d ", which leaves the blob of the two rows as it was.
    # Returns the text and whether it is render's output with every value
    # below 10, which the line path must read.
    shapes = draw(st.lists(st.tuples(st.integers(2, 3), st.integers(1, 3), st.integers(2, 12)),
                           min_size=1, max_size=2))
    text, clean = "", True
    for _ in range(draw(st.integers(2, 6))):
        k, n, b = draw(st.sampled_from(shapes))
        table = draw(st.lists(st.integers(0, b - 1), min_size=k**n, max_size=k**n))
        respelled = (f"{k} {n} {b}", f"{k}  {n} {b}", f"0{k} {n} {b}")
        text += draw(st.sampled_from(respelled[:1] * 3 + respelled[1:])) + "\n"
        text += render(FiniteFunction(k, n, b, tuple(table))).split("\n", 1)[1]
        clean = clean and max(table) < 10
    for _ in range(draw(st.integers(0, 2))):
        edit = draw(st.sampled_from(("shift", "shift", "insert", "replace", "delete")))
        lines = text.split("\n")
        pairs = [i for i in range(1, len(lines) - 2) if lines[i - 1] == lines[i + 1]]
        if edit == "shift" and pairs:
            i = draw(st.sampled_from(pairs))
            lines[i : i + 3 : 2] = lines[i][:-2], lines[i][-1:] + " " + lines[i + 2]
            text, clean = "\n".join(lines), False
        elif edit != "shift":
            at = draw(st.integers(0, len(text) - 1))
            c = draw(st.sampled_from(ALPHABET))
            text = text[:at] + (c if edit != "delete" else "") + text[at + (edit != "insert") :]
            clean = False
    return text, clean


def check_edited_runs(parser):
    @settings(FUZZ, max_examples=300)
    @given(edited_runs())
    def check(drawn):
        text, clean = drawn
        got = outcome(parser, text)
        assert got == outcome(reference_parse_stream, text)
        packed = [f._packed for f in got[1]] if got[0] == "ok" else []
        if clean or any(p is not None for p in packed):
            assert all(type(p) is bytes and p == bytes(f.table) for p, f in zip(packed, got[1]))

    check()


def test_parse_matches_reference_on_edited_runs():
    check_edited_runs(parse_stream)


ROW_LENGTH_CHECK = "set(map(len, block)) != {2 * size - 1} or "


def test_edited_runs_fail_a_line_path_without_its_row_length_check():
    # A twin of parse_stream whose line path checks only the blob of a run's
    # rows, so a paired shift between two rows still joins into a valid blob.
    source = inspect.getsource(core.parse_stream)
    assert source.count(ROW_LENGTH_CHECK) == 1
    scope = dict(vars(core))
    exec(source.replace(ROW_LENGTH_CHECK, ""), scope)
    with pytest.raises(AssertionError):
        check_edited_runs(scope["parse_stream"])


def test_a_run_longer_than_one_blob_is_located_at_a_bad_digit_in_its_last_row():
    # 5,000 (2,4,2) tables, 160 KB of one run, so several blobs of about
    # 64 KiB: the line path reads them all, and a 2 as the very last value
    # sends the whole text to the word path, which locates it.
    rng = random.Random("run-2-4-2")
    fns = [FiniteFunction(2, 4, 2, tuple(rng.randrange(2) for _ in range(16))) for _ in range(5000)]
    text = "".join(map(render, fns))
    got = parse_stream(text)
    assert got == fns and all(f._packed == bytes(f.table) for f in got)
    text = text[:-2] + "2\n"
    got = outcome(parse_stream, text)
    assert got == ("error", "value 2 not in 0..1", 10000, 31)
    assert got == outcome(reference_parse_stream, text)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(2, 3), st.integers(1, 4), st.integers(2, 12), st.data())
def test_render_is_the_join_of_the_values(k, n, b, data):
    # Up to b = 10 render writes digits into a row of spaces, from the
    # parsed bytes where they exist; above, it joins the values.
    table = data.draw(st.lists(st.integers(0, b - 1), min_size=k**n, max_size=k**n))
    joined = f"{k} {n} {b}\n" + " ".join(str(v) for v in table) + "\n"
    assert render(FiniteFunction(k, n, b, tuple(table))) == joined
    assert render(parse(joined)) == joined


@pytest.mark.parametrize(
    "k, n, b, values",
    [
        (2, 16, 2, lambda rng, size: [rng.randrange(2) for _ in range(size)]),
        (3, 4, 11, lambda rng, size: [rng.choice((0, 5, 9, 10, 10)) for _ in range(size)]),
        (2, 8, 12, lambda rng, size: [rng.randrange(10) for _ in range(size - 1)] + [11]),
    ],
    ids=["random-2-16-2", "tens-3-4-11", "last-two-digit-2-8-12"],
)
def test_large_table_round_trip(k, n, b, values):
    f = FiniteFunction(k, n, b, tuple(values(random.Random(f"{k} {n} {b}"), k**n)))
    text = render(f)
    g = parse(text)
    assert g == f
    assert g.table == tuple(map(int, text.split()[3:]))
