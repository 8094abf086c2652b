"""Essential variables, with witnesses, for total functions and their restriction
to the repeat set (tuples containing at least one repeated coordinate)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .core import (
    FiniteFunction,
    UnsupportedArityError,
    all_tuples,
    constant,
    index_to_tuple,
    strides,
)
from .minors import _substitute


@dataclass(frozen=True)
class EssentialityWitness:
    """Two inputs differing only at `slot` that get different values."""

    slot: int
    left: tuple[int, ...]
    right: tuple[int, ...]


@lru_cache(maxsize=None)
def _slot_pairs(k: int, n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # For each slot, every index pair differing only there, ordered
    # lexicographically by (first index, second index).  The first pair with
    # differing table values is therefore the canonical witness.
    size = k**n
    per_slot = []
    for s in strides(k, n):
        pairs = []
        for idx in range(size):
            d = (idx // s) % k
            for j in range(d + 1, k):
                pairs.append((idx, idx + (j - d) * s))
        per_slot.append(tuple(pairs))
    return tuple(per_slot)


@lru_cache(maxsize=None)
def _repeat_flags(k: int, n: int) -> bytes:
    # flag[idx] == 1 iff the tuple has a repeated coordinate; by convention
    # every unary tuple counts as being in the repeat set.
    if n == 1 or n > k:
        return b"\x01" * (k**n)
    return bytes(1 if len(set(t)) < n else 0 for t in all_tuples(k, n))


@lru_cache(maxsize=None)
def _slot_pairs_on_repeat(k: int, n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    if n == 1 or n > k:
        return _slot_pairs(k, n)
    flags = _repeat_flags(k, n)
    return tuple(
        tuple(p for p in pairs if flags[p[0]] and flags[p[1]])
        for pairs in _slot_pairs(k, n)
    )


def _essential_ids(k: int, n: int, table: Sequence[int]) -> tuple[int, ...]:
    out = []
    for slot, pairs in enumerate(_slot_pairs(k, n), start=1):
        for a, bb in pairs:
            if table[a] != table[bb]:
                out.append(slot)
                break
    return tuple(out)


def _essential_ids_on_repeat(k: int, n: int, table: Sequence[int]) -> tuple[int, ...]:
    out = []
    for slot, pairs in enumerate(_slot_pairs_on_repeat(k, n), start=1):
        for a, bb in pairs:
            if table[a] != table[bb]:
                out.append(slot)
                break
    return tuple(out)


def _witnesses(f: FiniteFunction, per_slot) -> dict[int, EssentialityWitness]:
    found = {}
    for slot, pairs in enumerate(per_slot, start=1):
        for a, bb in pairs:
            if f.table[a] != f.table[bb]:
                found[slot] = EssentialityWitness(
                    slot, index_to_tuple(f.k, f.n, a), index_to_tuple(f.k, f.n, bb)
                )
                break
    return found


def essential_slots(f: FiniteFunction) -> dict[int, EssentialityWitness]:
    """Map each essential slot to its first witness.

    Witnesses are searched per slot in lexicographic order of the index pair,
    so outputs are reproducible.
    """
    return _witnesses(f, _slot_pairs(f.k, f.n))


def essential_slots_on_diagonal(f: FiniteFunction) -> dict[int, EssentialityWitness]:
    """Like essential_slots, but both witness tuples must contain a repeat."""
    return _witnesses(f, _slot_pairs_on_repeat(f.k, f.n))


def essential_arity(f: FiniteFunction) -> int:
    return len(_essential_ids(f.k, f.n, f.table))


@dataclass(frozen=True)
class DiagonalRestriction:
    """View of f on the tuples with a repeated coordinate.

    For n > k that is the whole domain; for n = 1 it is all of A by
    convention.
    """

    f: FiniteFunction

    def contains(self, t: Sequence[int]) -> bool:
        if self.f.n == 1:
            return True
        return len(set(t)) < self.f.n

    def indices(self) -> Iterator[int]:
        flags = _repeat_flags(self.f.k, self.f.n)
        return (idx for idx in range(self.f.size) if flags[idx])

    def tuples(self) -> Iterator[tuple[int, ...]]:
        flags = _repeat_flags(self.f.k, self.f.n)
        return (t for idx, t in enumerate(self.f.tuples()) if flags[idx])

    @property
    def size(self) -> int:
        return sum(_repeat_flags(self.f.k, self.f.n))


def _on_slots(f: FiniteFunction, ids: tuple[int, ...]) -> FiniteFunction:
    # f with slot ids[l] fed from target slot l + 1 and every other slot from
    # the last target slot.
    m = len(ids)
    sigma = [m] * f.n
    for pos, s in enumerate(ids, start=1):
        sigma[s - 1] = pos
    return _substitute(f, m, tuple(sigma))


def restrict_to_essential(f: FiniteFunction) -> tuple[FiniteFunction, tuple[int, ...]]:
    """The equivalent function on f's essential slots, plus the slot map.

    Inessential slots are fed from the last essential one (any values give
    the same function), and f itself is returned when every slot is
    essential.  With no essential slot at all the result is the unary
    constant f(0,...,0).
    """
    ids = _essential_ids(f.k, f.n, f.table)
    if not ids:
        return constant(f.k, 1, f.b, f.table[0]), ()
    if len(ids) == f.n:
        return f, ids
    return _on_slots(f, ids), ids


@dataclass(frozen=True)
class SupportExtension:
    """Total function agreeing with f on the repeat set, on the slots that
    are essential there.  `nullary` marks the essentially nullary case, which
    is packaged as a unary constant."""

    h: FiniteFunction
    slots: tuple[int, ...]
    nullary: bool


def support_extension(f: FiniteFunction) -> SupportExtension:
    """Collapse f to its diagonally essential slots (defined for n != 2).

    With essential-on-repeat slots i1 < ... < im, the result is
    h(c1, ..., cm) = f at the tuple with slot i_l = c_l and every other slot
    = c_m; h agrees with f on every tuple containing a repeat, and h padded
    back to arity n is a support of f.
    """
    if f.n == 2:
        raise UnsupportedArityError("no support extension for binary functions")
    ids = _essential_ids_on_repeat(f.k, f.n, f.table)
    if not ids:
        return SupportExtension(constant(f.k, 1, f.b, f.table[0]), (), True)
    return SupportExtension(_on_slots(f, ids), ids, False)


def is_restriction_totally_symmetric(f: FiniteFunction) -> bool:
    """True iff f's value on the repeat set depends only on the argument multiset."""
    seen: dict[tuple[int, ...], int] = {}
    flags = _repeat_flags(f.k, f.n)
    for idx, t in enumerate(all_tuples(f.k, f.n)):
        if not flags[idx]:
            continue
        key = tuple(sorted(t))
        v = f.table[idx]
        if seen.setdefault(key, v) != v:
            return False
    return True
