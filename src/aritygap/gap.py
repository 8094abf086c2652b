"""Quasi-arity, semiprojections, essentially at most unary supports, and the arity gap."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Sequence

from .core import (
    FiniteFunction,
    GapUndefinedError,
    NoSuchSupportError,
    UnsupportedCodomainError,
    all_tuples,
    _values,
)
from .analysis import _WORDS, _essential_ids, _repeat_set, restrict_to_essential
from .minors import _substitute, diagonal


@lru_cache(maxsize=256)
def _section_layout(k: int, n: int, i: int, j: int) -> tuple:
    # How _section copies f restricted to x_i = x_j: the (n-1)-ary table
    # without slot i, in slices.  The free digits above, between and below
    # slots i and j form three groups of (count, step in f's table, step in
    # the section); each slice runs along the longest group, and the other
    # two (the unit-step one inner) give the (table, section) offsets of its
    # starts.  The common digit a weighs k^(n-i) + k^(n-j) in f's table and
    # k^(n-1-j) in the section, or k^(n-j) when i < j moves slot j one place
    # up.  Kept at every size: the layouts of all pairs i < j of a shape hold
    # fewer offsets than f's table has entries (at most 0.61 k^n, at (2,6)).
    si, sj = k ** (n - i), k ** (n - j)
    hi, lo = (si, sj) if si > sj else (sj, si)
    mid = k * lo if i < j else lo
    *groups, (run, step, ostep) = sorted(
        ((k**n // (k * hi), k * hi, hi), (hi // (k * lo), k * lo, mid), (lo, 1, 1))
    )
    (c1, s1, t1), (c2, s2, t2) = sorted(groups, key=lambda g: -g[1])
    offsets = [(x * s1 + y * s2, x * t1 + y * t2) for x in range(c1) for y in range(c2)]
    return si + sj, sj if i < j else sj // k, run * step, step, run * ostep, ostep, offsets


def _merged_is_inessential(k: int, n: int, i: int, j: int, table: Sequence[int]) -> bool:
    # Whether _section's common digit is inessential: along its layout, each
    # plane a = 1..k-1 of f's own table equals plane 0, read in words of 2^e
    # entries (the unit-step starts, thinned) where a packed k = 2 one strides.
    wt, _, span, step, _, _, offsets = _section_layout(k, n, i, j)
    if k == 2 and step > 1 and isinstance(table, bytes) and (e := min(3, n - max(i, j))):
        table, offsets = memoryview(table).cast(_WORDS[e]), [(o >> e, p) for o, p in offsets[:: 1 << e]]
        wt, span, step = wt >> e, span >> e, step >> e
    for x in range(wt, k * wt, wt):
        for o, _ in offsets:
            if table[x + o : x + o + span : step] != table[o : o + span : step]:
                return False
    return True


def _section(k: int, n: int, i: int, j: int, table: Sequence[int]) -> Sequence[int]:
    # f restricted to x_i = x_j, as _section_layout describes it.  A packed
    # (bytes) table gives a bytearray, any other a list.
    wt, wa, span, step, ospan, ostep, offsets = _section_layout(k, n, i, j)
    out = bytearray(k ** (n - 1)) if isinstance(table, bytes) else [0] * k ** (n - 1)
    for a in range(k):
        x, y = a * wt, a * wa
        for o, p in offsets:
            out[y + p : y + p + ospan : ostep] = table[x + o : x + o + span : step]
    return out


def quasi_arity(f: FiniteFunction) -> int:
    """Minimum essential arity over all total functions agreeing with f on the
    repeat set.

    Computed directly: for n = 2 it is 0 or 1 according to whether the
    diagonal a -> f(a, a) is constant, and otherwise it is the number of
    slots essential within the repeat set (for n = 1 the whole domain, so
    the essential arity).
    """
    if f.n == 2:
        return 0 if diagonal(f).is_constant() else 1
    return len(_essential_ids(f.k, f.n, _values(f), on_repeat=True))


def is_semiprojection(f: FiniteFunction) -> int | None:
    """The least slot t with f(a) = a_t on every tuple containing a repeat, if any.

    Requires the codomain to be identified with the domain (b = k).
    """
    if f.b != f.k:
        raise UnsupportedCodomainError(
            f"semiprojection test needs b = k, got b={f.b}, k={f.k}"
        )
    candidates = set(range(1, f.n + 1))
    for t, v in _repeat_set(f.k, f.n, zip(all_tuples(f.k, f.n), _values(f))):
        candidates = {s for s in candidates if t[s - 1] == v}
        if not candidates:
            return None
    return min(candidates)


@dataclass(frozen=True)
class UnarySupport:
    """Essentially at most unary supports of a quasi-nullary or quasi-unary function.

    `ambiguous` is set in the binary quasi-unary case, where exactly two
    essentially unary supports exist; otherwise the support is unique.
    """

    supports: tuple[FiniteFunction, ...]
    slots: tuple[int, ...]
    ambiguous: bool


def unique_unary_support(f: FiniteFunction) -> UnarySupport:
    """The essentially at most unary supports of f.  Quasi-arity 0 gives the
    n-ary constant f(0,...,0) and no slot; quasi-arity 1 gives a -> f(a,...,a)
    read at the one slot essential on the repeat set, ambiguous (one support
    per slot) exactly when n = 2.  Raises NoSuchSupportError from quasi-arity 2."""
    ids = _essential_ids(f.k, f.n, _values(f), on_repeat=True)
    if len(ids) >= 2:
        raise NoSuchSupportError(f"quasi-arity is {len(ids)}, no essentially unary support")
    d = diagonal(f)
    if f.n == 2 and not d.is_constant():
        return UnarySupport(tuple(_substitute(d, 2, (s,)) for s in (1, 2)), (1, 2), True)
    return UnarySupport((_substitute(d, f.n, ids or (1,)),), ids, False)


@dataclass(frozen=True)
class GapReport:
    """Essential arity, quasi-arity, gap data and the pair achieving it.

    `qa`, `essl` and `support` describe the function restricted to its
    essential slots; `pair` and `essential` are in the original slot
    numbering.
    """

    ess: int
    qa: int
    essl: int
    gap: int
    pair: tuple[int, int]
    essential: tuple[int, ...]
    support: FiniteFunction | None


def _essential_part(f: FiniteFunction, subject: str) -> tuple[FiniteFunction, tuple[int, ...]]:
    # restrict_to_essential(f), refused for the subject below two essential slots.
    g, slots = restrict_to_essential(f)
    if len(slots) < 2:
        raise GapUndefinedError(f"{subject} needs >= 2 essential slots, got {len(slots)}")
    return g, slots


def _pair_scan(f: FiniteFunction) -> tuple[FiniteFunction, tuple[int, ...], int, tuple[int, int]]:
    # f on its essential slots, those slots, the most essential slots kept
    # by a minor identifying two of them, and the least pair keeping that
    # many, in f's numbering: arity_gap without the repeat-set scan.
    g, slots = _essential_part(f, "arity gap")
    ess = len(slots)
    table = _values(g)
    best = -1
    best_pair = (1, 2)
    for i, j in combinations(range(1, ess + 1), 2):
        # Once the best keeps ess - 2, a section whose merged slot is
        # inessential keeps no more and cannot win: skip it unsectioned.
        if best == ess - 2 and _merged_is_inessential(g.k, ess, i, j, table):
            continue
        e = len(_essential_ids(g.k, ess - 1, _section(g.k, ess, i, j, table)))
        if e > best:
            best = e
            best_pair = (i, j)
            if e == ess - 1:
                break
    return g, slots, best, (slots[best_pair[0] - 1], slots[best_pair[1] - 1])


def arity_gap(f: FiniteFunction) -> GapReport:
    """Minimum drop in essential arity over identifications of two essential slots.

    f is first replaced by the equivalent function on its essential slots,
    then pairs of slots are identified in lexicographic order; the reported
    pair is the least one achieving the minimum drop, in f's numbering.
    Pair (i, j) is scanned on the (n-1)-ary section x_i = x_j, which has the
    essential slots of the identification minor.  A section keeps at most
    ess - 1 slots, its merged slot (x_i = x_j) among them.  So the scan
    stops at the first that keeps ess - 1, and once the best keeps ess - 2
    it skips each pair whose merged slot, checked on f's own table, is
    inessential: that section keeps at most ess - 2, and only a strict gain
    replaces the best.  The result is exact either way.  Quasi-arity and
    support come from one repeat-set scan, which callers that read only
    the gap skip by calling `_pair_scan`.
    """
    g, slots, essl, pair = _pair_scan(f)
    ess = len(slots)
    ids = _essential_ids(g.k, ess, _values(g), on_repeat=True)
    qa = quasi_arity(g) if ess == 2 else len(ids)
    support = _substitute(diagonal(g), ess, ids or (1,)) if qa <= 1 else None
    return GapReport(
        ess=ess,
        qa=qa,
        essl=essl,
        gap=ess - essl,
        pair=pair,
        essential=slots,
        support=support,
    )
