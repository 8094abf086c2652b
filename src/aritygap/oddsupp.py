"""The oddsupp map (values occurring an odd number of times) and the tests for
a function being determined by it, on the whole domain or on the repeat set."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Sequence

from .core import FiniteFunction, _values, index_to_tuple
from .analysis import _repeat_set


def oddsupp(t: Sequence[int]) -> frozenset[int]:
    """The set of values with odd multiplicity in t."""
    return frozenset(v for v, c in Counter(t).items() if c % 2 == 1)


def oddsupp_mask(t: Sequence[int]) -> int:
    """oddsupp as a bitmask over domain elements."""
    return sum(1 << v for v in oddsupp(t))


@dataclass(frozen=True)
class OddsuppProfile:
    """Outcome of an oddsupp-determination test.

    `star` maps reachable oddsupp bitmasks to values and is present whenever
    every fiber is constant; `witness` is the lexicographically first pair
    of tuples with equal oddsupp but different values, present otherwise.
    For the restricted test, a respected but constant star map still yields
    determined = False (star_constant tells the two apart).
    """

    determined: bool
    star: dict[int, int] | None
    star_constant: bool | None
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None


@lru_cache(maxsize=64)
def _fibers(
    k: int, n: int, restricted: bool
) -> tuple[itemgetter, tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    # The table laid out fiber by fiber, over the repeat set when restricted:
    # a gather that reads the layout off a table, the table index at each
    # layout position, and each fiber's (mask, start, end) in it.  Fibers
    # come in the order of their first members, and each fiber's entries in
    # index order.  k >= 2 and n >= 1 (n >= 2 when restricted) leave at
    # least two indices, so the gather always returns a tuple.  A mask is
    # the XOR of 1 << v over a tuple, and expanding one slot at a time (the
    # last lazily) yields the masks in index order.  At n > k every tuple
    # repeats, so the restricted layout is the whole-domain one, shared.
    if restricted and n > k:
        return _fibers(k, n, False)
    masks = [0]
    for _ in range(n - 1):
        masks = [m ^ 1 << a for m in masks for a in range(k)]
    entries = enumerate(m ^ 1 << a for m in masks for a in range(k))
    if restricted:
        entries = _repeat_set(k, n, entries)
    members: dict[int, list[int]] = {}
    for idx, mask in entries:
        members.setdefault(mask, []).append(idx)
    order: list[int] = []
    spans = []
    for mask, idxs in members.items():
        spans.append((mask, len(order), len(order) + len(idxs)))
        order += idxs
    return itemgetter(*order), tuple(order), tuple(spans)


def _fiber_profile(f: FiniteFunction, restricted: bool) -> OddsuppProfile:
    # One gather lays the values out fiber by fiber; each fiber is then tested
    # for constancy by a count over its slice.  The first fiber that holds two
    # values has the least first member among such fibers, and the first of
    # its entries with another value is the witness's second tuple.
    gather, order, spans = _fibers(f.k, f.n, restricted)
    vals = gather(_values(f))
    star: dict[int, int] = {}
    for mask, lo, hi in spans:
        v = vals[lo]
        if vals[lo:hi].count(v) != hi - lo:
            second = next(order[i] for i in range(lo + 1, hi) if vals[i] != v)
            return OddsuppProfile(
                determined=False,
                star=None,
                star_constant=None,
                witness=(index_to_tuple(f.k, f.n, order[lo]), index_to_tuple(f.k, f.n, second)),
            )
        star[mask] = v
    star = dict(sorted(star.items()))
    star_constant = len(set(star.values())) <= 1
    determined = (not star_constant) if restricted else True
    return OddsuppProfile(determined, star, star_constant, None)


def is_determined_by_oddsupp(f: FiniteFunction) -> OddsuppProfile:
    """True iff f is constant on every oddsupp fiber of the whole domain."""
    return _fiber_profile(f, restricted=False)


def is_restriction_determined_by_oddsupp(f: FiniteFunction) -> OddsuppProfile:
    """True iff f is constant on every oddsupp fiber of the repeat set AND the
    induced map on reachable subsets is nonconstant.

    Reachable subsets all have size of the same parity as n and at most n - 2.
    """
    if f.n < 2:
        raise ValueError("restricted oddsupp test needs arity >= 2")
    return _fiber_profile(f, restricted=True)


def reachable_oddsupp_masks(k: int, n: int, restricted: bool = False) -> tuple[int, ...]:
    """The oddsupp masks of the tuples (of the repeat set when restricted), sorted."""
    return tuple(sorted(mask for mask, _, _ in _fibers(k, n, restricted)[2]))
