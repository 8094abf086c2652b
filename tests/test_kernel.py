"""The essential-slot kernel on tables large enough to compare slices.

In tables of 512 to 4,096 entries every slot is scanned by comparing runs of
up to 64 entries, inside a block or along a residue; only the repeat set of
(5,5), which is not the whole domain, is scanned pair by pair.  Each table
depends on a random set of slots, and may have the last entry of such a run
changed, so that the slots are essential through that one entry only.
Every answer, witnesses included, is checked against a scan of all index
pairs built from `FiniteFunction.eval` alone.  Runs are derandomized, so the
suite stays deterministic.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from aritygap import (
    FiniteFunction,
    essential_arity,
    essential_slots,
    essential_slots_on_diagonal,
    quasi_arity,
)

SHAPES = ((2, 9), (2, 10), (2, 11), (2, 12), (3, 6), (3, 7), (4, 5), (5, 5))
RUN = 64


def has_repeat(t):
    return len(set(t)) < len(t)


def definitional_witnesses(f, on_repeat=False):
    """Each slot with a pair of inputs that differ only there and get
    different values, mapped to the first such pair in lexicographic order
    (both inputs with a repeated coordinate when on_repeat)."""
    points = list(itertools.product(range(f.k), repeat=f.n))
    value = {t: f.eval(t) for t in points}
    found = {}
    for t in points:
        if on_repeat and not has_repeat(t):
            continue
        for slot in range(1, f.n + 1):
            for v in range(t[slot - 1] + 1, f.k):
                u = t[: slot - 1] + (v,) + t[slot:]
                if on_repeat and not has_repeat(u):
                    continue
                if slot not in found and value[t] != value[u]:
                    found[slot] = (t, u)
    return found


def run_ends(k, n):
    """Indices that end a run of at most RUN entries pairing digit d with
    digit 0 at some slot, inside a block or along a residue."""
    size = k**n
    ends = set()
    for slot in range(1, n + 1):
        s = k ** (n - slot)
        width = k * s
        for d in range(k):
            for q in range(0, size, width):  # inside each block
                ends.update(q + d * s + min(c + RUN, s) - 1 for c in range(0, s, RUN))
            for r in range(s):  # along each residue mod k*s
                count = size // width
                ends.update(
                    r + d * s + (min(c + RUN, count) - 1) * width for c in range(0, count, RUN)
                )
    return sorted(ends)


@st.composite
def padded_functions(draw, k, n):
    """An essentially m-ary table padded to arity n, with one entry at the end
    of a run changed or not and, for n <= k, its entries off the repeat set
    overwritten or not."""
    b = draw(st.integers(2, 3))
    slots = sorted(draw(st.sets(st.integers(1, n), max_size=4)))
    core = draw(st.lists(st.integers(0, b - 1), min_size=k ** len(slots), max_size=k ** len(slots)))
    table = []
    for t in itertools.product(range(k), repeat=n):
        pos = 0
        for s in slots:
            pos = pos * k + t[s - 1]
        table.append(core[pos])
    if draw(st.booleans()):
        idx = draw(st.sampled_from(run_ends(k, n)))
        table[idx] = (table[idx] + draw(st.integers(1, b - 1))) % b
    if n <= k and draw(st.booleans()):
        for idx, t in enumerate(itertools.product(range(k), repeat=n)):
            if not has_repeat(t):
                table[idx] = draw(st.integers(0, b - 1))
    return FiniteFunction(k, n, b, tuple(table))


def pairs(witnesses):
    return {slot: (w.left, w.right) for slot, w in witnesses.items()}


@pytest.mark.parametrize("k, n", SHAPES)
@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_kernel_matches_the_definition_on_large_tables(k, n, data):
    f = data.draw(padded_functions(k, n))
    whole = definitional_witnesses(f)
    on_repeat = definitional_witnesses(f, on_repeat=True)
    assert essential_arity(f) == len(whole)
    assert pairs(essential_slots(f)) == whole
    # every shape here has arity n >= 3, where quasi-arity is the number of
    # slots essential within the repeat set
    assert quasi_arity(f) == len(on_repeat)
    assert pairs(essential_slots_on_diagonal(f)) == on_repeat
