"""Dense-table representation of finite functions f: {0..k-1}^n -> {0..b-1}.

A function is stored as its complete value table, indexed by the big-endian
mixed-radix encoding of argument tuples: (a1, ..., an) maps to index
a1*k^(n-1) + a2*k^(n-2) + ... + an, so the first argument is the most
significant digit.  ``itertools.product(range(k), repeat=n)`` yields tuples
in exactly this index order.  Argument slots are numbered 1..n throughout
the public API.

Text interchange format (UTF-8), used by every CLI command:

    line 1:  k n b            (decimal, space separated)
    rest:    k^n codomain values in index order, whitespace separated,
             optionally spread over several lines

A ``#`` that starts a line, or starts a ``;``-part of one, after optional
spaces, makes the rest of that line a comment; a ``#`` anywhere else is a
bad token.  A compact single-line variant with ``;`` standing in for the
newline after the header is also accepted by ``parse`` (it is the form used
for failure records in verification reports).  ``render`` always emits the
two-line form.  A stream is validated as a whole before any function is
returned, so one bad token anywhere rejects all of it.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

# Guard against absurd table sizes before allocating anything.
MAX_TABLE_ENTRIES = 10**8


class ArityGapError(Exception):
    """Base class for domain-level errors (as opposed to bad arguments)."""


class GapUndefinedError(ArityGapError):
    """The arity gap is only defined for functions with >= 2 essential slots."""


class UnsupportedCodomainError(ArityGapError):
    """Operation requires the codomain to be identified with the domain (b = k)."""


class UnsupportedDomainError(ArityGapError):
    """Operation is restricted to two-element domains (and codomains)."""


class UnsupportedArityError(ArityGapError):
    """Operation excludes this arity."""


class NoSuchSupportError(ArityGapError):
    """No essentially at most unary support exists."""


class OracleInfeasibleError(ArityGapError):
    """Brute-force enumeration would exceed the configured budget."""


class FunctionFormatError(ValueError):
    """Malformed function text; carries the offending line and column."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", col {column}"
            where += ": "
        super().__init__(where + message)


def _check_shape(k: int, n: int, b: int) -> int:
    # k^n, the size of a table over k, n and b, after the only checks of k,
    # n, b and the table limit, made in that order before a table is built.
    if k < 2:
        raise ValueError(f"domain size k must be >= 2, got {k}")
    if n < 1:
        raise ValueError(f"arity n must be >= 1, got {n}")
    if b < 2:
        raise ValueError(f"codomain size b must be >= 2, got {b}")
    # 2^n alone is over the limit once n reaches its bit length, so from
    # there on k^n is written as a power and never computed.
    power = n >= MAX_TABLE_ENTRIES.bit_length()
    if power or k**n > MAX_TABLE_ENTRIES:
        entries = f"{k}^{n}" if power else k**n
        raise ValueError(f"table would need {entries} entries, over the {MAX_TABLE_ENTRIES} limit")
    return k**n


def tuple_to_index(k: int, t: Sequence[int]) -> int:
    idx = 0
    for a in t:
        idx = idx * k + a
    return idx


def index_to_tuple(k: int, n: int, idx: int) -> tuple[int, ...]:
    out = [0] * n
    for pos in range(n - 1, -1, -1):
        idx, out[pos] = divmod(idx, k)
    return tuple(out)


def all_tuples(k: int, n: int) -> Iterator[tuple[int, ...]]:
    """All of {0..k-1}^n in table-index order."""
    return itertools.product(range(k), repeat=n)


@dataclass(frozen=True)
class FiniteFunction:
    """A total function {0..k-1}^n -> {0..b-1} as a dense table.

    Instances are immutable and safe to share between threads.  The codomain
    carries no structure beyond equality of its elements.

    The constructor validates every field and table entry.  A few internal
    sites build functions through the private ``_valid`` instead, which skips
    those checks, because each result is valid by construction:

    - ``parse_stream``, after checking the header and every value itself;
    - ``minors._substitute`` and ``minors.diagonal``, which gather entries of
      an already valid table (``_substitute`` checks a wider target arity
      with ``_check_shape`` first);
    - ``minors.identification_minor``, which copies slices of an already
      valid table of the same shape;
    - ``oracle.function_by_id``, whose entries are base-b digits,
      ``oracle.functions_in_order``, whose tables are the tuples of
      ``itertools.product(range(b), repeat=k**n)``, and
      ``oracle.sampled_function``, whose entries are the top bits of
      ``getrandbits`` words, kept below b as ``randrange(b)`` draws them;
      all three size their tables by ``_check_shape(k, n, b)`` first;
    - ``classify.classify_pseudo_boolean``, whose table ``h`` relabels the
      two values of a valid table over k = 2 as 0 and 1.
    """

    k: int
    n: int
    b: int
    table: tuple[int, ...]

    def __post_init__(self):
        size = _check_shape(self.k, self.n, self.b)
        if not isinstance(self.table, tuple):
            object.__setattr__(self, "table", tuple(self.table))
        if len(self.table) != size:
            raise ValueError(f"expected {size} table entries, got {len(self.table)}")
        for pos, v in enumerate(self.table):
            if not isinstance(v, int) or not 0 <= v < self.b:
                raise ValueError(f"table entry {v!r} at index {pos} not in 0..{self.b - 1}")

    @classmethod
    def _valid(cls, k: int, n: int, b: int, table: tuple[int, ...]) -> FiniteFunction:
        # The function with these fields, which the caller knows to be valid,
        # without the per-entry checks of __post_init__.
        f = object.__new__(cls)
        f.__dict__.update(k=k, n=n, b=b, table=table)
        return f

    @property
    def size(self) -> int:
        return self.k**self.n

    def eval(self, t: Sequence[int]) -> int:
        if len(t) != self.n:
            raise ValueError(f"expected {self.n} arguments, got {len(t)}")
        for pos, a in enumerate(t):
            if not 0 <= a < self.k:
                raise ValueError(f"argument {a!r} at slot {pos + 1} not in 0..{self.k - 1}")
        return self.table[tuple_to_index(self.k, t)]

    def __call__(self, *args: int) -> int:
        return self.eval(args)

    def tuples(self) -> Iterator[tuple[int, ...]]:
        return all_tuples(self.k, self.n)

    def is_constant(self) -> bool:
        first = self.table[0]
        return all(v == first for v in self.table)


def constant(k: int, n: int, b: int, value: int) -> FiniteFunction:
    return FiniteFunction(k, n, b, (value,) * _check_shape(k, n, b))


def projection(k: int, n: int, t: int) -> FiniteFunction:
    """The operation (a1, ..., an) -> a_t, with codomain identified with the domain."""
    if not 1 <= t <= n:
        raise ValueError(f"projection slot {t} not in 1..{n}")
    _check_shape(k, n, k)
    return FiniteFunction(k, n, k, tuple(tt[t - 1] for tt in all_tuples(k, n)))


def from_function(k: int, n: int, b: int, fn: Callable[[tuple[int, ...]], int]) -> FiniteFunction:
    _check_shape(k, n, b)
    return FiniteFunction(k, n, b, tuple(fn(t) for t in all_tuples(k, n)))


def parse_stream(text: str) -> list[FiniteFunction]:
    """Parse a concatenation of zero or more functions in the text format.

    The whole text is checked before any function is returned.  An error
    names the line and column of the first offending token.
    """
    # ';' separates words as a newline does, so the compact one-line form
    # parses too; a '#' that starts a line or a ';'-part, after optional
    # spaces, ends that line.
    if "#" in text:
        text = re.sub(r"(?:^|;)[^\S\n]*#.*", "", text, flags=re.MULTILINE)
    words = text.replace(";", " ").split()

    def error(message: str, pos: int) -> FunctionFormatError:
        # Located only when raised: word pos, its line, and its column after
        # the last '\n' or ';' before it.
        start = next(itertools.islice(re.finditer(r"[^\s;]+", text), pos, None)).start()
        column = start - max(text.rfind("\n", 0, start), text.rfind(";", 0, start))
        return FunctionFormatError(message, text.count("\n", 0, start) + 1, column)

    def integer(pos: int, what: str) -> int:
        try:
            return int(words[pos])
        except ValueError:
            raise error(f"{what}: {words[pos]!r} is not an integer", pos) from None

    out = []
    pos = 0
    while pos < len(words):
        if len(words) - pos < 3:
            raise error("incomplete header, expected 'k n b'", len(words) - 1)
        k = integer(pos, "domain size")
        n = integer(pos + 1, "arity")
        b = integer(pos + 2, "codomain size")
        if k < 2 or n < 1 or b < 2:
            raise error(
                f"invalid header 'k n b' = '{k} {n} {b}' (need k >= 2, n >= 1, b >= 2)", pos
            )
        try:
            size = _check_shape(k, n, b)
        except ValueError as exc:
            raise error(str(exc), pos) from None
        lo = pos + 3
        chunk = words[lo : lo + size]
        try:
            values = tuple(map(int, chunk))
        except ValueError:
            values = None
        if values is None or (values and (min(values) < 0 or max(values) >= b)):
            for at in range(lo, lo + len(chunk)):
                v = integer(at, "table value")
                if not 0 <= v < b:
                    raise error(f"value {v} not in 0..{b - 1}", at)
        if len(chunk) != size:
            raise error(f"expected {size} values, got {len(chunk)}", lo + len(chunk) - 1)
        out.append(FiniteFunction._valid(k, n, b, values))
        pos = lo + size
    return out


def parse(text: str) -> FiniteFunction:
    """Parse exactly one function."""
    fns = parse_stream(text)
    if len(fns) != 1:
        raise FunctionFormatError(f"expected exactly one function, found {len(fns)}")
    return fns[0]


def render(f: FiniteFunction) -> str:
    return f"{f.k} {f.n} {f.b}\n" + " ".join(str(v) for v in f.table) + "\n"


def render_line(f: FiniteFunction) -> str:
    """Compact one-line form, used for failure records in reports."""
    return f"{f.k} {f.n} {f.b};" + " ".join(str(v) for v in f.table)
