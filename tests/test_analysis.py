import random

import pytest

from aritygap import (
    FiniteFunction,
    MinorMap,
    UnsupportedArityError,
    all_tuples,
    constant,
    essential_arity,
    essential_slots,
    essential_slots_on_diagonal,
    from_function,
    is_restriction_totally_symmetric,
    restrict_to_essential,
    simple_minor,
    support_extension,
    tuple_to_index,
)

AND2 = FiniteFunction(2, 2, 2, (0, 0, 0, 1))
XOR2 = FiniteFunction(2, 2, 2, (0, 1, 1, 0))


def salomaa3():
    table = [0] * 27
    table[tuple_to_index(3, (0, 1, 2))] = 1
    return FiniteFunction(3, 3, 3, tuple(table))


def semiproj3():
    # first projection with one value changed off the repeat set
    return from_function(3, 3, 3, lambda t: 2 if t == (0, 1, 2) else t[0])


def has_repeat(t):
    return len(set(t)) < len(t) or len(t) == 1


# Independent oracle: scan every pair of tuples differing in one slot.
def brute_essential(f, diagonal_only=False):
    out = set()
    for t in all_tuples(f.k, f.n):
        if diagonal_only and not has_repeat(t):
            continue
        for i in range(f.n):
            for v in range(f.k):
                u = t[:i] + (v,) + t[i + 1 :]
                if diagonal_only and not has_repeat(u):
                    continue
                if f.eval(u) != f.eval(t):
                    out.add(i + 1)
    return out


def random_function(rng, k, n, b):
    return FiniteFunction(k, n, b, tuple(rng.randrange(b) for _ in range(k**n)))


def test_essential_examples():
    assert set(essential_slots(AND2)) == {1, 2}
    assert essential_arity(AND2) == 2
    assert essential_slots(constant(3, 3, 2, 1)) == {}
    padded = simple_minor(XOR2, MinorMap(2, 3, (1, 2)))
    assert set(essential_slots(padded)) == {1, 2}


def test_essential_on_diagonal_examples():
    assert essential_slots_on_diagonal(salomaa3()) == {}
    rng = random.Random(1)
    # The repeat set is the whole domain at n > k, and all of A at n = 1.
    f = random_function(rng, 2, 3, 2)
    assert essential_slots_on_diagonal(f) == essential_slots(f) != {}
    g = FiniteFunction(2, 1, 2, (0, 1))
    assert essential_slots_on_diagonal(g) == essential_slots(g) != {}
    assert set(essential_slots_on_diagonal(semiproj3())) == {1}
    assert brute_essential(semiproj3(), diagonal_only=True) == {1}


@pytest.mark.parametrize("seed", range(10))
def test_essential_matches_brute(seed):
    rng = random.Random(seed)
    f = random_function(rng, rng.randint(2, 3), rng.randint(1, 4), rng.randint(2, 3))
    assert set(essential_slots(f)) == brute_essential(f)
    assert set(essential_slots_on_diagonal(f)) == brute_essential(f, diagonal_only=True)


@pytest.mark.parametrize("seed", range(10))
def test_witnesses_are_valid(seed):
    rng = random.Random(50 + seed)
    f = random_function(rng, rng.randint(2, 3), rng.randint(1, 4), rng.randint(2, 3))
    for slot, w in essential_slots(f).items():
        assert w.slot == slot
        assert f.eval(w.left) != f.eval(w.right)
        assert sum(a != b for a, b in zip(w.left, w.right)) == 1
        assert w.left[slot - 1] != w.right[slot - 1]
    for slot, w in essential_slots_on_diagonal(f).items():
        assert f.eval(w.left) != f.eval(w.right)
        assert has_repeat(w.left) and has_repeat(w.right)


def test_witness_is_deterministic_lex_first():
    w = essential_slots(AND2)[1]
    assert (w.left, w.right) == ((0, 1), (1, 1))


@pytest.mark.parametrize("seed", range(10))
def test_diagonal_subset_of_full(seed):
    rng = random.Random(99 + seed)
    f = random_function(rng, 3, 3, 2)
    assert set(essential_slots_on_diagonal(f)) <= set(essential_slots(f))


def test_support_extension_nullary():
    ext = support_extension(salomaa3())
    assert ext.nullary
    assert ext.slots == ()
    assert ext.h.table == (0, 0, 0)


def test_support_extension_unary():
    ext = support_extension(semiproj3())
    assert not ext.nullary
    assert ext.slots == (1,)
    assert ext.h.table == (0, 1, 2)


def test_support_extension_rejects_binary():
    with pytest.raises(UnsupportedArityError):
        support_extension(XOR2)


def test_support_extension_wide_arity_is_essential_part():
    rng = random.Random(7)
    for _ in range(10):
        f = random_function(rng, 2, 3, 2)
        ext = support_extension(f)
        if ext.nullary:
            assert f.is_constant()
        else:
            core, slots = restrict_to_essential(f)
            assert ext.h == core
            assert ext.slots == slots


@pytest.mark.parametrize(
    "k,n,b", [(2, 1, 2), (2, 3, 2), (2, 4, 2), (3, 3, 2), (3, 3, 3), (3, 4, 2), (2, 3, 3)]
)
def test_support_extension_agrees_on_diagonal(k, n, b):
    rng = random.Random(k * 100 + n * 10 + b)
    for _ in range(20):
        f = random_function(rng, k, n, b)
        ext = support_extension(f)
        for t in filter(has_repeat, all_tuples(k, n)):
            if ext.nullary:
                assert f.eval(t) == ext.h.table[0]
            else:
                assert f.eval(t) == ext.h.eval(tuple(t[s - 1] for s in ext.slots))


@pytest.mark.parametrize("k,n,b", [(2, 3, 2), (3, 3, 2), (3, 4, 2)])
def test_padded_extension_is_a_support(k, n, b):
    rng = random.Random(k + n + b)
    for _ in range(10):
        f = random_function(rng, k, n, b)
        ext = support_extension(f)
        if ext.nullary:
            padded = constant(k, n, b, ext.h.table[0])
        else:
            padded = simple_minor(ext.h, MinorMap(len(ext.slots), n, ext.slots))
        for t in filter(has_repeat, all_tuples(k, n)):
            assert padded.eval(t) == f.eval(t)


def test_restrict_to_essential():
    padded = simple_minor(XOR2, MinorMap(2, 3, (1, 2)))
    core, slots = restrict_to_essential(padded)
    assert slots == (1, 2)
    assert core == XOR2
    const_core, const_slots = restrict_to_essential(constant(3, 2, 2, 1))
    assert const_slots == ()
    assert const_core.table == (1, 1, 1)


def test_restriction_symmetry_check():
    assert is_restriction_totally_symmetric(XOR2)  # only the diagonal is constrained
    maj = FiniteFunction(2, 3, 2, (0, 0, 0, 1, 0, 1, 1, 1))
    assert is_restriction_totally_symmetric(maj)
    assert is_restriction_totally_symmetric(semiproj3()) is False
