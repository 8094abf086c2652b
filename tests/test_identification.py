"""Identification minors against the definition.

`identification_minor(f, i, j)` is the sigma-minor that feeds slot i from
slot j and every other slot from itself.  The shapes below take k from 2 to
5 and tables of up to 4,096 entries; the fixed pairs are the first two
slots, the last two, and the first with the last, each in both orders.
Every minor is checked against a table built from `FiniteFunction.eval`
alone.  Runs are derandomized, so the suite stays deterministic.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from aritygap import FiniteFunction, identification_minor

SHAPES = (
    (4, 2), (2, 5), (3, 4), (5, 3), (4, 5), (40, 2), (2, 11), (2, 12), (3, 7), (4, 6), (5, 5),
)


def fixed_pairs(n):
    """Adjacent first slots, adjacent last slots, and the first with the
    last slot, each in both orders."""
    pairs = [(1, 2), (n - 1, n), (1, n)]
    return pairs + [(j, i) for i, j in pairs]


def definitional_minor(f, i, j):
    """The table of t -> f(t with slot i replaced by t_j)."""
    out = []
    for t in itertools.product(range(f.k), repeat=f.n):
        u = list(t)
        u[i - 1] = t[j - 1]
        out.append(f.eval(u))
    return tuple(out)


@pytest.mark.parametrize("k, n", SHAPES)
@settings(derandomize=True, max_examples=10, deadline=None)
@given(data=st.data())
def test_identification_minor_is_the_definition(k, n, data):
    b = data.draw(st.integers(2, 4))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    f = FiniteFunction(k, n, b, tuple(rng.randrange(b) for _ in range(k**n)))
    drawn = tuple(data.draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)))
    for i, j in fixed_pairs(n) + [drawn]:
        minor = identification_minor(f, i, j)
        assert (minor.k, minor.n, minor.b) == (k, n, b)
        assert minor.table == definitional_minor(f, i, j), (i, j)
