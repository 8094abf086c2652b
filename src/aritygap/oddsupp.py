"""The oddsupp map (values occurring an odd number of times) and the tests for
a function being determined by it, on the whole domain or on the repeat set."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .core import FiniteFunction, all_tuples, index_to_tuple
from .analysis import _repeat_set


def oddsupp(t: Sequence[int]) -> frozenset[int]:
    """The set of values with odd multiplicity in t."""
    return frozenset(v for v, c in Counter(t).items() if c % 2 == 1)


def oddsupp_mask(t: Sequence[int]) -> int:
    """oddsupp as a bitmask over domain elements."""
    mask = 0
    for v, c in Counter(t).items():
        if c % 2 == 1:
            mask |= 1 << v
    return mask


@lru_cache(maxsize=64)
def _oddsupp_masks(k: int, n: int) -> tuple[int, ...]:
    return tuple(oddsupp_mask(t) for t in all_tuples(k, n))


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


def _fiber_profile(f: FiniteFunction, restricted: bool) -> OddsuppProfile:
    # One walk over the table.  The fiber with the least first member that
    # holds two values becomes bad_mask at its own first conflicting entry
    # and stays so, which makes that entry the witness's second tuple.
    entries = zip(range(f.size), _oddsupp_masks(f.k, f.n), f.table)
    if restricted:
        entries = _repeat_set(f.k, f.n, entries)
    rep_idx: dict[int, int] = {}
    rep_val: dict[int, int] = {}
    bad_mask = second = None
    for idx, m, v in entries:
        if m not in rep_idx:
            rep_idx[m] = idx
            rep_val[m] = v
        elif v != rep_val[m] and (bad_mask is None or rep_idx[m] < rep_idx[bad_mask]):
            bad_mask, second = m, idx
    if bad_mask is not None:
        first = rep_idx[bad_mask]
        return OddsuppProfile(
            determined=False,
            star=None,
            star_constant=None,
            witness=(index_to_tuple(f.k, f.n, first), index_to_tuple(f.k, f.n, second)),
        )
    star = {m: rep_val[m] for m in sorted(rep_val)}
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
    """All oddsupp bitmasks realized by tuples, by direct enumeration."""
    masks = _oddsupp_masks(k, n)
    if restricted:
        masks = _repeat_set(k, n, masks)
    return tuple(sorted(set(masks)))
