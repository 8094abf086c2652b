"""Essential variables, with witnesses, for total functions and their restriction
to the repeat set (tuples containing at least one repeated coordinate)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Iterable, Iterator, Sequence

from .core import (
    FiniteFunction,
    UnsupportedArityError,
    all_tuples,
    index_to_tuple,
    _values,
)
from .minors import _substitute


@dataclass(frozen=True)
class EssentialityWitness:
    """Two inputs differing only at `slot` that get different values."""

    slot: int
    left: tuple[int, ...]
    right: tuple[int, ...]


@lru_cache(maxsize=64)
def _repeat_flags(k: int, n: int) -> bytes:
    # flag[idx] == 1 iff the tuple has a repeated coordinate; by convention
    # every unary tuple counts as being in the repeat set.
    if n == 1 or n > k:
        return b"\x01" * (k**n)
    return bytes(1 if len(set(t)) < n else 0 for t in all_tuples(k, n))


_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _repeat_set(k: int, n: int, items: Iterable, off: bool = False) -> Iterator:
    # The items, one per table index in index order, whose tuple has a
    # repeated coordinate, or with off those whose tuple is repeat-free.
    flags = _repeat_flags(k, n)
    return compress(items, flags.translate(_FLIP) if off else flags)


_RUN_CAP = 64  # entries compared by a run's probe
_MIN_RUN = 16  # below this, comparing pairs one by one is faster than slicing


@lru_cache(maxsize=64)
def _plan(k: int, n: int, on_repeat: bool) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    # Each slot with its heads (a, b, span, step): the slot is essential
    # (within the repeat set when on_repeat) iff some head has table[a] !=
    # table[b] or, for span > 0, table[a:a+span:step] != table[b:b+span:step].
    # With stride s, each block of k*s entries holds the k values of the slot; a
    # run pairs the entries with digit 0 there with those with digit d,
    # inside a block (step 1) or along a residue mod k*s (step k*s),
    # whichever is longer.  Each run is compared in two slices: a probe of
    # its first _RUN_CAP entries, where a table that depends on the slot
    # usually differs, then the rest of the run in one memcmp on a packed
    # table.  Runs shorter than _MIN_RUN, and the repeat set when it is not
    # the whole domain, list pairs instead: in each fiber of the slot, its
    # first member in the repeat set with each later one.
    if on_repeat and not 2 <= n <= k:
        return _plan(k, n, False)
    size = k**n
    flags = _repeat_flags(k, n) if on_repeat else b"\x01" * size
    plan = []
    for slot in range(1, n + 1):
        s = k ** (n - slot)
        width = k * s
        run = max(s, size // width)
        heads: list[tuple[int, int, int, int]] = []
        if on_repeat or run < _MIN_RUN:
            for a in (q + r for q in range(0, size, width) for r in range(s)):
                fiber = [c for c in range(a, a + width, s) if flags[c]]
                heads += [(fiber[0], c, 0, 1) for c in fiber[1:]]
        else:
            step = 1 if run == s else width
            for lead in range(0, size, width) if step == 1 else range(s):
                cut, end = lead + min(run, _RUN_CAP) * step, lead + run * step
                for a, z in (lead, cut), (cut, end):
                    heads += [(a, a + d * s, z - a, step) for d in range(1, k) if a < z]
        plan.append((slot, tuple(heads)))
    return tuple(plan)


def _essential_ids(k: int, n: int, table: Sequence[int], on_repeat=False) -> tuple[int, ...]:
    out = []
    for slot, heads in _plan(k, n, on_repeat):
        for a, b, span, step in heads:
            if table[a] != table[b] or (
                span and table[a : a + span : step] != table[b : b + span : step]
            ):
                out.append(slot)
                break
    return tuple(out)


def _with_witnesses(f: FiniteFunction, on_repeat: bool) -> dict[int, EssentialityWitness]:
    # Walks the index pairs in order only for the slots found essential.
    k, n, table = f.k, f.n, _values(f)
    flags = _repeat_flags(k, n) if on_repeat else b"\x01" * f.size
    found = {}
    for slot in _essential_ids(k, n, table, on_repeat):
        s = k ** (n - slot)
        found[slot] = next(
            EssentialityWitness(slot, index_to_tuple(k, n, a), index_to_tuple(k, n, b))
            for a in range(f.size)
            if flags[a]
            for b in range(a + s, a + (k - a // s % k) * s, s)
            if flags[b] and table[a] != table[b]
        )
    return found


def essential_slots(f: FiniteFunction) -> dict[int, EssentialityWitness]:
    """Map each essential slot to its first witness.

    Witnesses are searched per slot in lexicographic order of the index pair,
    so outputs are reproducible.
    """
    return _with_witnesses(f, False)


def essential_slots_on_diagonal(f: FiniteFunction) -> dict[int, EssentialityWitness]:
    """Like essential_slots, but both witness tuples must contain a repeat."""
    return _with_witnesses(f, True)


def essential_arity(f: FiniteFunction) -> int:
    return len(_essential_ids(f.k, f.n, _values(f)))


def _on_slots(f: FiniteFunction, ids: tuple[int, ...]) -> FiniteFunction:
    # f with slot ids[l] fed from target slot l + 1 and every other slot from
    # the last target slot.  With no ids every slot is fed from slot 1, which
    # makes the nullary result the unary constant f(0,...,0).
    m = len(ids) or 1
    sigma = [m] * f.n
    for pos, s in enumerate(ids, start=1):
        sigma[s - 1] = pos
    return _substitute(f, m, tuple(sigma))


def restrict_to_essential(f: FiniteFunction) -> tuple[FiniteFunction, tuple[int, ...]]:
    """The equivalent function on f's essential slots, plus the slot map.

    Inessential slots are fed from the last essential one (any values give
    the same function), and f itself is returned when every slot is
    essential.  With no essential slot at all every slot is fed from one,
    which gives the unary constant f(0,...,0).
    """
    ids = _essential_ids(f.k, f.n, _values(f))
    return (f if len(ids) == f.n else _on_slots(f, ids)), ids


@dataclass(frozen=True)
class SupportExtension:
    """Total function agreeing with f on the repeat set, on the slots that
    are essential there.  `nullary` marks the essentially nullary case, where
    every slot is fed from one: the unary constant f(0,...,0)."""

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
    ids = _essential_ids(f.k, f.n, _values(f), on_repeat=True)
    return SupportExtension(_on_slots(f, ids), ids, not ids)


def is_restriction_totally_symmetric(f: FiniteFunction) -> bool:
    """True iff f's value on the repeat set depends only on the argument multiset."""
    seen: dict[tuple[int, ...], int] = {}
    for t, v in _repeat_set(f.k, f.n, zip(all_tuples(f.k, f.n), _values(f))):
        if seen.setdefault(tuple(sorted(t)), v) != v:
            return False
    return True
