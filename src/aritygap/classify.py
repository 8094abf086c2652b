"""Executable gap classifiers: the general rationale-based classifier, the
two-valued (Boolean) family recognizer, and the pseudo-Boolean reduction."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .core import (
    FiniteFunction,
    GapUndefinedError,
    UnsupportedDomainError,
    all_tuples,
)
from .analysis import _essential_ids, restrict_to_essential
from .gap import quasi_arity
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


def anf(f: FiniteFunction) -> AnfPolynomial:
    """The unique multilinear polynomial mod 2 with f's table (subset-lattice
    Moebius transform)."""
    if f.k != 2 or f.b != 2:
        raise UnsupportedDomainError(f"ANF needs k = b = 2, got k={f.k}, b={f.b}")
    coef = list(f.table)
    size = 1 << f.n
    for p in range(f.n):
        bit = 1 << p
        for j in range(size):
            if j & bit:
                coef[j] ^= coef[j ^ bit]
    monos = []
    for j in range(1, size):
        if coef[j]:
            # bit position p of the index corresponds to slot n - p
            monos.append(frozenset(f.n - p for p in range(f.n) if j >> p & 1))
    return AnfPolynomial(f.n, frozenset(monos), coef[0])


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
    if len(_essential_ids(f.k, f.n, f.table)) != 3:
        raise ValueError("pattern test needs all three slots essential")
    h = diagonal(f)
    if h.is_constant():
        return None
    shapes = (
        lambda x0, x1: (x1, x0, x0),
        lambda x0, x1: (x0, x1, x0),
        lambda x0, x1: (x0, x0, x1),
    )
    pattern = []
    for shape in shapes:
        fits0 = fits1 = True
        for x0 in range(f.k):
            for x1 in range(f.k):
                v = f.eval(shape(x0, x1))
                if v != h.table[x0]:
                    fits0 = False
                if v != h.table[x1]:
                    fits1 = False
            if not (fits0 or fits1):
                return None
        # h nonconstant makes the fit unique
        pattern.append(1 if fits1 else 0)
    return (pattern[0], pattern[1], pattern[2]), h


def classify(f: FiniteFunction) -> Classification:
    """Gap of f with its structural rationale.

    The function is first restricted to its essential slots (arity n below).
    Quasi-arity m <= n - 3 forces gap n - m.  Otherwise for n = 3 the gap is
    2 exactly when a ternary selector pattern exists, and for n != 3 exactly
    when m = n - 2, or m = n and the restriction to the repeat set is
    determined by oddsupp.  In all remaining cases the gap is 1.
    """
    g, slots = restrict_to_essential(f)
    n = len(slots)
    if n < 2:
        raise GapUndefinedError(f"classification needs >= 2 essential slots, got {n}")
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


_PAIRS3 = frozenset(
    {frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})}
)


def _match_family(p: AnfPolynomial, m: int) -> tuple[str, tuple[int, ...]] | None:
    # Families are matched on the essential part, up to slot permutation.
    # The linear and majority shapes are permutation invariant; the other two
    # are resolved by where their singleton monomials sit.
    monos = p.monomials
    if m >= 2 and monos == frozenset(frozenset({i}) for i in range(1, m + 1)):
        return FAMILY_LINEAR, tuple(range(1, m + 1))
    if m == 2:
        if monos == frozenset({frozenset({1, 2}), frozenset({1})}):
            return FAMILY_PRODUCT, (1, 2)
        if monos == frozenset({frozenset({1, 2}), frozenset({2})}):
            return FAMILY_PRODUCT, (2, 1)
    if m == 3:
        if monos == _PAIRS3:
            return FAMILY_MAJORITY, (1, 2, 3)
        singles = {next(iter(s)) for s in monos if len(s) == 1}
        if len(singles) == 2 and monos == _PAIRS3 | {frozenset({i}) for i in singles}:
            i, j = sorted(singles)
            rest = ({1, 2, 3} - singles).pop()
            return FAMILY_TWOTHIRDS, (i, j, rest)
    return None


def _family_tag(family: str, m: int, perm_norm: tuple[int, ...]):
    # Structural rationale for each gap-2 family; kept independent of
    # classify() so the two routes can be compared.
    if family == FAMILY_PRODUCT or (family == FAMILY_LINEAR and m == 2):
        return TAG_QUASI_N_MINUS_2, 0, None
    if family == FAMILY_LINEAR and m >= 4:
        return TAG_ODDSUPP, None, None
    if family == FAMILY_LINEAR:  # m == 3
        return TAG_TERNARY, None, (1, 1, 1)
    if family == FAMILY_MAJORITY:
        return TAG_TERNARY, None, (0, 0, 0)
    pattern = [0, 0, 0]
    pattern[perm_norm[0] - 1] = 1
    pattern[perm_norm[1] - 1] = 1
    return TAG_TERNARY, None, tuple(pattern)


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
    g, slots = restrict_to_essential(f)
    m = len(slots)
    if m < 2:
        raise GapUndefinedError(f"classification needs >= 2 essential slots, got {m}")
    p = anf(g)
    match = _match_family(p, m)
    if match is None:
        return Classification(gap=1, tag=TAG_GAP_ONE)
    family, perm_norm = match
    tag, tag_m, pattern = _family_tag(family, m, perm_norm)
    return Classification(
        gap=2,
        tag=tag,
        m=tag_m,
        pattern=pattern,
        pattern_h=diagonal(g) if pattern is not None else None,
        family=family,
        family_constant=p.constant,
        perm=tuple(slots[q - 1] for q in perm_norm),
    )


def classify_pseudo_boolean(f: FiniteFunction) -> Classification:
    """Gap of a function on the two-element domain with arbitrary codomain.

    With exactly two values in the range, f factors through the Boolean
    function h relabeled so that h(0,...,0) = 0, and inherits h's gap.  A
    nonconstant binary f has gap 2 exactly when f(0,0) = f(1,1).  Every other
    case has gap 1.
    """
    if f.k != 2:
        raise UnsupportedDomainError(f"pseudo-Boolean classifier needs k = 2, got k={f.k}")
    g, slots = restrict_to_essential(f)
    n = len(slots)
    if n < 2:
        raise GapUndefinedError(f"classification needs >= 2 essential slots, got {n}")
    values = set(g.table)
    if len(values) == 2:
        v0 = g.table[0]
        v1 = (values - {v0}).pop()
        h = FiniteFunction._valid(2, n, 2, tuple(0 if v == v0 else 1 for v in g.table))
        inner = classify_boolean(h)
        return replace(
            inner,
            pattern_h=diagonal(g) if inner.pattern is not None else None,
            perm=tuple(slots[q - 1] for q in inner.perm) if inner.perm else None,
            decomposition=((v0, v1), h),
        )
    if n == 2 and g.table[0] == g.table[3]:
        return Classification(gap=2, tag=TAG_QUASI_N_MINUS_2, m=0)
    return Classification(gap=1, tag=TAG_GAP_ONE)
