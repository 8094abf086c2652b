"""Executable gap classifiers: the general rationale-based classifier, the
two-valued (Boolean) family recognizer, and the pseudo-Boolean reduction."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import (
    FiniteFunction,
    UnsupportedDomainError,
    all_tuples,
    _values,
)
from .analysis import _essential_ids
from .gap import _essential_part, quasi_arity
from .minors import diagonal
from .oddsupp import is_restriction_determined_by_oddsupp

TAG_QUASI_NULLARY = "QuasiNullary"
TAG_QUASI_LOW = "QuasiLow"
TAG_QUASI_N_MINUS_2 = "QuasiNMinus2"
TAG_ODDSUPP = "OddsuppDetermined"
TAG_TERNARY = "TernaryPattern"
TAG_GAP_ONE = "GapOne"

FAMILY_LINEAR = "linear"        # x1 + ... + xm + c, m >= 2
FAMILY_PRODUCT = "product"      # x1*x2 + x1 + c
FAMILY_MAJORITY = "majority"    # x1*x2 + x1*x3 + x2*x3 + c
FAMILY_TWOTHIRDS = "twothirds"  # x1*x2 + x1*x3 + x2*x3 + x1 + x2 + c


@dataclass(frozen=True)
class AnfPolynomial:
    """Multilinear polynomial mod 2: a set of nonempty monomials plus a constant."""

    n: int
    monomials: frozenset[frozenset[int]]
    constant: int

    def evaluate(self, t: tuple[int, ...]) -> int:
        v = self.constant
        for mono in self.monomials:
            if all(t[i - 1] for i in mono):
                v ^= 1
        return v

    def table(self) -> tuple[int, ...]:
        return tuple(self.evaluate(t) for t in all_tuples(2, self.n))


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _anf_bits(n: int, table: bytes | tuple[int, ...]) -> int:
    # The ANF coefficients of a 0/1 table as the bits of one int: bit j is
    # the coefficient of the monomial whose slots are n - p for the set bits
    # p of j (bit 0 is the constant).  Packs the table (entry j at bit j),
    # then runs the subset-lattice Moebius transform one bit position at a
    # time: every j with bit p set takes the XOR of j - 2^p.
    x = int(bytes(table[::-1]).translate(_DIGITS), 2)
    for w, low in _moebius_masks(n):
        x ^= (x & low) << w
    return x


@lru_cache(maxsize=32)
def _moebius_masks(n: int) -> tuple[tuple[int, int], ...]:
    # For each bit position p, (2^p, the 2^n-bit mask of 2^p ones then 2^p
    # zeros, repeated): the repeat is (2^(2^n) - 1) / (2^(2w) - 1) with w = 2^p.
    full = (1 << (1 << n)) - 1
    return tuple(
        (w, full // ((1 << 2 * w) - 1) * ((1 << w) - 1)) for w in (1 << p for p in range(n))
    )


def anf(f: FiniteFunction) -> AnfPolynomial:
    """The unique multilinear polynomial mod 2 with f's table (subset-lattice
    Moebius transform)."""
    if f.k != 2 or f.b != 2:
        raise UnsupportedDomainError(f"ANF needs k = b = 2, got k={f.k}, b={f.b}")
    x = _anf_bits(f.n, _values(f))
    coef = f"{x:0{1 << f.n}b}"[::-1]
    monos = [
        # bit position p of the index corresponds to slot n - p
        frozenset(f.n - p for p in range(f.n) if j >> p & 1)
        for j in range(1, 1 << f.n)
        if coef[j] == "1"
    ]
    return AnfPolynomial(f.n, frozenset(monos), x & 1)


@dataclass(frozen=True)
class Classification:
    """Gap value plus the structural reason for it.

    `m` is the quasi-arity for the quasi-arity based tags.  `pattern` and
    `pattern_h` describe the ternary case.  The family fields are filled for
    two-valued inputs; `perm` maps family variables to original slots.
    `decomposition` is the (outer injection, inner Boolean function) pair of
    the pseudo-Boolean reduction, when one exists.
    """

    gap: int
    tag: str
    m: int | None = None
    pattern: tuple[int, int, int] | None = None
    pattern_h: FiniteFunction | None = None
    family: str | None = None
    family_constant: int | None = None
    perm: tuple[int, ...] | None = None
    decomposition: tuple[tuple[int, int], FiniteFunction] | None = None


def render_classification(c: Classification) -> str:
    parts = [f"gap={c.gap}", f"tag={c.tag}"]
    if c.m is not None:
        parts.append(f"m={c.m}")
    if c.pattern is not None:
        parts.append("pattern=" + "".join(str(i) for i in c.pattern))
    if c.family is not None:
        parts.append(f"family={c.family}")
        parts.append(f"c={c.family_constant}")
        parts.append("perm=" + ",".join(str(p) for p in c.perm))
    return " ".join(parts)


def ternary_pattern(f: FiniteFunction) -> tuple[tuple[int, int, int], FiniteFunction] | None:
    """Selector bits (i1, i2, i3) and the unary h with

        f(x1, x0, x0) = h(x_i1),  f(x0, x1, x0) = h(x_i2),  f(x0, x0, x1) = h(x_i3)

    for all x0, x1.  Setting x1 = x0 forces h to be the diagonal of f, so only
    the selectors are searched.  None if no (necessarily unique) pattern fits.
    """
    if f.n != 3:
        raise ValueError(f"pattern test needs arity 3, got {f.n}")
    table = _values(f)
    if len(_essential_ids(f.k, f.n, table)) != 3:
        raise ValueError("pattern test needs all three slots essential")
    h = diagonal(f)
    if h.is_constant():
        return None
    k, ht = f.k, h.table
    # (x0, x0, x0) sits at index x0 * (k^2 + k + 1); moving the slot of
    # stride s from x0 to x1 adds (x1 - x0) * s.
    step = k * k + k + 1
    by_x0 = tuple(v for v in ht for _ in range(k))  # h(x0) in row x0, column x1
    pattern = []
    for stride in (k * k, k, 1):
        values = tuple(
            table[x0 * step + (x1 - x0) * stride] for x0 in range(k) for x1 in range(k)
        )
        # h nonconstant makes the fit unique
        if values == by_x0:
            pattern.append(0)
        elif values == ht * k:
            pattern.append(1)
        else:
            return None
    return tuple(pattern), h


def classify(f: FiniteFunction) -> Classification:
    """Gap of f with its structural rationale.

    The function is first restricted to its essential slots (arity n below).
    Quasi-arity m <= n - 3 forces gap n - m.  Otherwise for n = 3 the gap is
    2 exactly when a ternary selector pattern exists, and for n != 3 exactly
    when m = n - 2, or m = n and the restriction to the repeat set is
    determined by oddsupp.  In all remaining cases the gap is 1.
    """
    g, slots = _essential_part(f, "classification")
    n = len(slots)
    qa = quasi_arity(g)
    if qa <= n - 3:
        tag = TAG_QUASI_NULLARY if qa == 0 else TAG_QUASI_LOW
        return Classification(gap=n - qa, tag=tag, m=qa)
    if n == 3:
        tp = ternary_pattern(g)
        if tp is not None:
            pattern, h = tp
            return Classification(gap=2, tag=TAG_TERNARY, pattern=pattern, pattern_h=h)
        return Classification(gap=1, tag=TAG_GAP_ONE)
    if qa == n - 2:
        return Classification(gap=2, tag=TAG_QUASI_N_MINUS_2, m=qa)
    if qa == n and is_restriction_determined_by_oddsupp(g).determined:
        return Classification(gap=2, tag=TAG_ODDSUPP)
    return Classification(gap=1, tag=TAG_GAP_ONE)


# Monomial masks over the essential part (m = n), as _anf_bits lays them
# out: the monomial with index j is bit j, and slot i is bit m - i of j.
_X1X2 = 1 << 0b11
_PRODUCT2 = {_X1X2 | 1 << 0b10: (1, 2), _X1X2 | 1 << 0b01: (2, 1)}
_PAIRS3 = 1 << 0b110 | 1 << 0b101 | 1 << 0b011
_TWOTHIRDS3 = {  # the pairs and two singletons: (perm, selector pattern)
    _PAIRS3 | 1 << 0b100 | 1 << 0b010: ((1, 2, 3), (1, 1, 0)),
    _PAIRS3 | 1 << 0b100 | 1 << 0b001: ((1, 3, 2), (1, 0, 1)),
    _PAIRS3 | 1 << 0b010 | 1 << 0b001: ((2, 3, 1), (0, 1, 1)),
}


def _match_family(monos: int, m: int):
    # The family of the ANF monomials `monos` (an _anf_bits mask without
    # its constant bit) with its variables in family order, and the
    # rationale of its gap 2 (tag, the tag's m, selector pattern), or None.
    # The rationale is read off the family, independently of classify(), so
    # the two routes can be compared.  Families are matched on the essential
    # part, up to slot permutation: the linear and majority shapes are
    # permutation invariant, the other two are resolved by where their
    # singleton monomials sit.
    if m >= 2 and monos.bit_count() == m and monos == sum(1 << (1 << p) for p in range(m)):
        perm = tuple(range(1, m + 1))
        if m == 2:
            return FAMILY_LINEAR, perm, TAG_QUASI_N_MINUS_2, 0, None
        if m == 3:
            return FAMILY_LINEAR, perm, TAG_TERNARY, None, (1, 1, 1)
        return FAMILY_LINEAR, perm, TAG_ODDSUPP, None, None
    if m == 2 and monos in _PRODUCT2:
        return FAMILY_PRODUCT, _PRODUCT2[monos], TAG_QUASI_N_MINUS_2, 0, None
    if m == 3:
        if monos == _PAIRS3:
            return FAMILY_MAJORITY, (1, 2, 3), TAG_TERNARY, None, (0, 0, 0)
        if monos in _TWOTHIRDS3:
            perm, pattern = _TWOTHIRDS3[monos]
            return FAMILY_TWOTHIRDS, perm, TAG_TERNARY, None, pattern
    return None


def _classify_two_valued(
    g: FiniteFunction, slots: tuple[int, ...], h: FiniteFunction, decomposition=None
) -> Classification:
    # The classification of the essential part g of a function, with slot
    # map slots, from its 0/1 relabelling h (h is g for a Boolean input).
    x = _anf_bits(h.n, _values(h))
    match = _match_family(x & ~1, len(slots))
    if match is None:
        return Classification(gap=1, tag=TAG_GAP_ONE, decomposition=decomposition)
    family, perm, tag, m, pattern = match
    return Classification(
        gap=2,
        tag=tag,
        m=m,
        pattern=pattern,
        pattern_h=diagonal(g) if pattern is not None else None,
        family=family,
        family_constant=x & 1,
        perm=tuple(slots[q - 1] for q in perm),
        decomposition=decomposition,
    )


def classify_boolean(f: FiniteFunction) -> Classification:
    """Gap of a Boolean function via its multilinear polynomial.

    The gap is 2 exactly when the essential part matches, up to slot
    permutation, one of the four closed families (linear with >= 2 terms,
    x1x2+x1+c, the three pairwise products + c, or those products + x1+x2+c);
    otherwise it is 1.
    """
    if f.k != 2 or f.b != 2:
        raise UnsupportedDomainError(
            f"Boolean classifier needs k = b = 2, got k={f.k}, b={f.b}"
        )
    g, slots = _essential_part(f, "classification")
    return _classify_two_valued(g, slots, g)


def classify_pseudo_boolean(f: FiniteFunction) -> Classification:
    """Gap of a function on the two-element domain with arbitrary codomain.

    With exactly two values in the range, f factors through the Boolean
    function h relabeled so that h(0,...,0) = 0, and inherits h's gap.  A
    nonconstant binary f has gap 2 exactly when f(0,0) = f(1,1).  Every other
    case has gap 1.
    """
    if f.k != 2:
        raise UnsupportedDomainError(f"pseudo-Boolean classifier needs k = 2, got k={f.k}")
    g, slots = _essential_part(f, "classification")
    table = _values(g)
    values = set(table)
    if len(values) == 2:
        v0 = table[0]
        v1 = (values - {v0}).pop()
        h = FiniteFunction._valid(2, g.n, 2, tuple(0 if v == v0 else 1 for v in table))
        return _classify_two_valued(g, slots, h, ((v0, v1), h))
    if g.n == 2 and table[0] == table[3]:
        return Classification(gap=2, tag=TAG_QUASI_N_MINUS_2, m=0)
    return Classification(gap=1, tag=TAG_GAP_ONE)
