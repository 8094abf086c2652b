import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from aritygap import (
    FiniteFunction,
    arity_gap,
    MinorMap,
    all_tuples,
    diagonal,
    essential_arity,
    essential_slots,
    gen_essentially_m_ary,
    gen_quasi_m_ary,
    identification_minor,
    simple_minor,
    tuple_to_index,
)
from aritygap.analysis import _essential_ids
from aritygap.gap import _section, _section_layout
from aritygap.oracle import _id_gather

XOR2 = FiniteFunction(2, 2, 2, (0, 1, 1, 0))
AND2 = FiniteFunction(2, 2, 2, (0, 0, 0, 1))
XOR3 = FiniteFunction(2, 3, 2, (0, 1, 1, 0, 1, 0, 0, 1))
MAJ3 = FiniteFunction(2, 3, 2, (0, 0, 0, 1, 0, 1, 1, 1))


def salomaa3():
    table = [0] * 27
    table[tuple_to_index(3, (0, 1, 2))] = 1
    return FiniteFunction(3, 3, 3, tuple(table))


# Independent oracle: expand the substitution definition tuple by tuple.
def brute_minor_table(g, sigma, target_arity):
    return tuple(
        g.eval(tuple(t[s - 1] for s in sigma))
        for t in all_tuples(g.k, target_arity)
    )


def test_simple_minor_collapses_xor():
    m = simple_minor(XOR2, MinorMap(2, 1, (1, 1)))
    assert m.n == 1
    assert m.table == (0, 0)


def test_simple_minor_permutation_of_and():
    assert simple_minor(AND2, MinorMap(2, 2, (2, 1))) == AND2


def test_simple_minor_padding_xor():
    sigma = (1, 2)
    expected = brute_minor_table(XOR2, sigma, 3)
    assert expected == (0, 0, 1, 1, 1, 1, 0, 0)
    m = simple_minor(XOR2, MinorMap(2, 3, sigma))
    assert m.table == expected
    assert set(essential_slots(m)) == {1, 2}


def test_simple_minor_arity_mismatch():
    with pytest.raises(ValueError):
        simple_minor(XOR2, MinorMap(3, 3, (1, 2, 3)))


def test_minor_map_validation():
    with pytest.raises(ValueError):
        MinorMap(2, 2, (1,))
    with pytest.raises(ValueError):
        MinorMap(2, 2, (0, 1))
    with pytest.raises(ValueError):
        MinorMap(2, 2, (1, 3))


def test_identification_xor3():
    assert identification_minor(XOR3, 1, 2).table == (0, 1, 0, 1, 0, 1, 0, 1)


def test_identification_salomaa_constant():
    f = salomaa3()
    for i, j in itertools.permutations(range(1, 4), 2):
        assert identification_minor(f, i, j).is_constant()


def test_identification_maj3():
    expected = brute_minor_table(MAJ3, (1, 3, 3), 3)
    assert expected == (0, 1, 0, 1, 0, 1, 0, 1)
    assert identification_minor(MAJ3, 2, 3).table == expected


def test_identification_rejects_bad_slots():
    with pytest.raises(ValueError):
        identification_minor(XOR3, 2, 2)
    with pytest.raises(ValueError):
        identification_minor(XOR3, 0, 1)


def test_identification_equals_simple_minor():
    for i, j in itertools.permutations(range(1, 4), 2):
        sigma = list(range(1, 4))
        sigma[i - 1] = j
        assert identification_minor(XOR3, i, j) == simple_minor(
            XOR3, MinorMap(3, 3, tuple(sigma))
        )


def test_diagonal_examples():
    assert diagonal(XOR2).table == (0, 0)
    assert diagonal(MAJ3).table == (0, 1)
    assert diagonal(salomaa3()).table == (0, 0, 0)


@pytest.mark.parametrize("seed", range(8))
def test_diagonal_commutes_with_identification(seed):
    rng = random.Random(seed)
    k = rng.randint(2, 3)
    n = rng.randint(2, 4)
    b = rng.randint(2, 3)
    f = FiniteFunction(k, n, b, tuple(rng.randrange(b) for _ in range(k**n)))
    for i, j in itertools.permutations(range(1, n + 1), 2):
        assert diagonal(identification_minor(f, i, j)) == diagonal(f)


@pytest.mark.parametrize("seed", range(8))
def test_minors_never_gain_essential_slots(seed):
    rng = random.Random(100 + seed)
    k = rng.randint(2, 3)
    n = rng.randint(2, 4)
    f = FiniteFunction(k, n, 2, tuple(rng.randrange(2) for _ in range(k**n)))
    for _ in range(5):
        target = rng.randint(1, n + 1)
        sigma = tuple(rng.randint(1, target) for _ in range(n))
        m = simple_minor(f, MinorMap(n, target, sigma))
        assert len(essential_slots(m)) <= len(essential_slots(f))


# The section of f at x_i = x_j: an (n-1)-ary table without slot i.
SECTION_SHAPES = [(2, n) for n in range(2, 7)] + [(3, 3), (3, 4), (3, 5), (4, 3), (4, 4), (5, 3)]
SECTION_ARITY = {2: 6, 3: 5, 4: 4, 5: 3}


def definitional_section(f, i, j):
    """The table of u -> f(t), where t is u with t_j inserted at slot i."""
    out = []
    for u in all_tuples(f.k, f.n - 1):
        t = list(u)
        t.insert(i - 1, None)
        t[i - 1] = t[j - 1]
        out.append(f.eval(tuple(t)))
    return out


def check_section(f, i, j):
    section = _section(f.k, f.n, i, j, f.table)
    want = definitional_section(f, i, j)
    assert section == want, (i, j)
    # A packed (bytes) table gives the same entries.
    if f.b <= 256:
        assert list(_section(f.k, f.n, i, j, bytes(f.table))) == want, (i, j)
    # The minor does not depend on slot i, and its slot j is the merged slot.
    kept = len(_essential_ids(f.k, f.n - 1, section))
    assert kept == essential_arity(identification_minor(f, i, j)), (i, j)


@pytest.mark.parametrize("k,n", SECTION_SHAPES + [(2, 11)])
def test_section_is_the_definition(k, n):
    # Every ordered pair, so both orders, adjacent slots and slots 1 and n.
    # The first table names its own indices, so the section is the index
    # map itself; the others keep different numbers of slots per pair.  The
    # layout cache starts empty, so the first table's sections build the
    # layouts and the others read them, at every size.
    _section_layout.cache_clear()
    rng = random.Random(k * 10 + n)
    fs = [
        FiniteFunction(k, n, k**n, tuple(range(k**n))),
        FiniteFunction(k, n, 3, tuple(rng.randrange(3) for _ in range(k**n))),
        gen_essentially_m_ary(k, n, 2, 2, rng.getrandbits(32)),
    ]
    if n <= k:
        fs.append(gen_quasi_m_ary(k, n, 2, 1, rng.getrandbits(32)))
    for f in fs:
        for i, j in itertools.permutations(range(1, n + 1), 2):
            check_section(f, i, j)
    assert _section_layout.cache_info().currsize == n * (n - 1)


@pytest.mark.parametrize("k,n", SECTION_SHAPES + [(2, 11)])
def test_oracle_id_gather_is_the_identification_minor(k, n):
    # The oracle's own map of each ordered pair, cached and built afresh,
    # against minors' identification minor.  The table names its own
    # indices, so the gathered table is the map itself.
    f = FiniteFunction(k, n, k**n, tuple(range(k**n)))
    for i, j in itertools.permutations(range(1, n + 1), 2):
        want = identification_minor(f, i, j).table
        assert _id_gather(k, n, i, j)(f.table) == want, (i, j)
        assert _id_gather.__wrapped__(k, n, i, j)(f.table) == want, (i, j)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data())
def test_section_is_the_definition_sampled(data):
    k = data.draw(st.integers(2, 5))
    n = data.draw(st.integers(2, SECTION_ARITY[k]))
    b = data.draw(st.integers(2, 3))
    table = data.draw(st.lists(st.integers(0, b - 1), min_size=k**n, max_size=k**n))
    i, j = data.draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
    check_section(FiniteFunction(k, n, b, tuple(table)), i, j)


@pytest.mark.parametrize("k,n", SECTION_SHAPES + [(2, 11)])
def test_cached_section_is_the_definition(k, n):
    # arity_gap reads its sections through the layout cache.  With the cache
    # cold and then warm it reports the essential count and least pair that
    # the identification minors give, and the cold scan keeps one layout per
    # pair it read, at every size.
    rng = random.Random(k * 10 + n)
    fs = [
        FiniteFunction(k, n, 3, tuple(rng.randrange(3) for _ in range(k**n))),
        gen_essentially_m_ary(k, n, 2, max(2, n - 1), rng.getrandbits(32)),
    ]
    if n <= k:
        fs.append(gen_quasi_m_ary(k, n, 2, 1, rng.getrandbits(32)))
    for f in fs:
        _section_layout.cache_clear()
        report = arity_gap(f)
        pairs = list(itertools.combinations(report.essential, 2))
        kept = [essential_arity(identification_minor(f, i, j)) for i, j in pairs]
        essl = max(kept)
        assert (report.essl, report.pair) == (essl, pairs[kept.index(essl)])
        ess = len(report.essential)
        scanned = kept.index(essl) + 1 if essl == ess - 1 else len(pairs)
        assert _section_layout.cache_info().currsize == scanned
        assert arity_gap(f) == report
        assert _section_layout.cache_info().currsize == scanned
