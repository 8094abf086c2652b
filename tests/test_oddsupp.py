import math
import random

import pytest

from aritygap import (
    FiniteFunction,
    all_tuples,
    from_function,
    gen_oddsupp_determined,
    is_determined_by_oddsupp,
    is_restriction_determined_by_oddsupp,
    is_restriction_totally_symmetric,
    oddsupp,
    oddsupp_mask,
    reachable_oddsupp_masks,
    tuple_to_index,
)

XOR3 = FiniteFunction(2, 3, 2, (0, 1, 1, 0, 1, 0, 0, 1))
MAJ3 = FiniteFunction(2, 3, 2, (0, 0, 0, 1, 0, 1, 1, 1))


def salomaa3():
    table = [0] * 27
    table[tuple_to_index(3, (0, 1, 2))] = 1
    return FiniteFunction(3, 3, 3, tuple(table))


def random_function(rng, k, n, b):
    return FiniteFunction(k, n, b, tuple(rng.randrange(b) for _ in range(k**n)))


# Independent oracle: group tuples by a Counter-based oddsupp and compare.
def brute_fibers(f, restricted):
    fibers = {}
    for t in all_tuples(f.k, f.n):
        if restricted and len(set(t)) == f.n and f.n > 1:
            continue
        key = frozenset(v for v in set(t) if sum(1 for x in t if x == v) % 2)
        fibers.setdefault(key, set()).add(f.eval(t))
    return fibers


def test_oddsupp_examples():
    assert oddsupp((0, 1, 1)) == frozenset({0})
    assert oddsupp((2, 2)) == frozenset()
    assert oddsupp((0, 1, 2)) == frozenset({0, 1, 2})
    assert oddsupp_mask((0, 1, 1)) == 1
    assert oddsupp_mask((0, 1, 2)) == 7


def test_xor3_is_determined():
    p = is_determined_by_oddsupp(XOR3)
    assert p.determined
    assert p.star == {1: 0, 2: 1}  # {0} -> 0, {1} -> 1
    assert not p.star_constant


def test_maj3_is_not_determined():
    p = is_determined_by_oddsupp(MAJ3)
    assert not p.determined
    left, right = p.witness
    assert oddsupp(left) == oddsupp(right)
    assert MAJ3.eval(left) != MAJ3.eval(right)
    assert (left, right) == ((0, 0, 0), (0, 1, 1))  # lexicographically first


def test_unary_always_determined():
    rng = random.Random(0)
    for _ in range(10):
        f = random_function(rng, rng.randint(2, 4), 1, rng.randint(2, 4))
        assert is_determined_by_oddsupp(f).determined


@pytest.mark.parametrize("seed", range(10))
def test_fibers_match_brute(seed):
    rng = random.Random(seed)
    f = random_function(rng, rng.randint(2, 3), rng.randint(2, 4), rng.randint(2, 3))
    assert is_determined_by_oddsupp(f).determined == all(
        len(v) == 1 for v in brute_fibers(f, False).values()
    )
    fibers = brute_fibers(f, True)
    respected = all(len(v) == 1 for v in fibers.values())
    star_values = {next(iter(v)) for v in fibers.values()} if respected else None
    p = is_restriction_determined_by_oddsupp(f)
    assert p.determined == (respected and len(star_values or ()) >= 2)


def test_restricted_xor3():
    p = is_restriction_determined_by_oddsupp(XOR3)
    assert p.determined
    assert not p.star_constant


def test_restricted_salomaa_fails_nonconstancy():
    p = is_restriction_determined_by_oddsupp(salomaa3())
    assert not p.determined
    assert p.witness is None
    assert p.star_constant


def test_restricted_constructed_positive():
    # values on the repeat set read off a nonconstant map of the oddsupp value
    star = {0: 0, 0b011: 1, 0b101: 1, 0b110: 1}

    def fn(t):
        if len(set(t)) == 4:
            return 0
        return star[oddsupp_mask(t)]

    f = from_function(3, 4, 2, fn)
    assert is_restriction_determined_by_oddsupp(f).determined


def test_restricted_needs_arity_two():
    with pytest.raises(ValueError):
        is_restriction_determined_by_oddsupp(FiniteFunction(2, 1, 2, (0, 1)))


def test_restricted_binary_never_determined():
    # only the empty set is reachable from the binary diagonal
    rng = random.Random(4)
    for _ in range(10):
        f = random_function(rng, 3, 2, 3)
        p = is_restriction_determined_by_oddsupp(f)
        assert not p.determined
        assert p.witness is None or oddsupp(p.witness[0]) == oddsupp(p.witness[1])


def test_determined_restriction_is_symmetric():
    for seed in range(5):
        f = gen_oddsupp_determined(3, 4, 2, seed)
        assert is_restriction_determined_by_oddsupp(f).determined
        assert is_restriction_totally_symmetric(f)


def test_star_masks_have_matching_parity_and_size():
    for seed in range(5):
        f = gen_oddsupp_determined(3, 4, 2, seed)
        p = is_restriction_determined_by_oddsupp(f)
        for mask in p.star:
            size = bin(mask).count("1")
            assert size % 2 == f.n % 2
            assert size <= f.n - 2


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_reachable_mask_count_formula(k, n):
    masks = reachable_oddsupp_masks(k, n)
    expected = sum(
        math.comb(k, s) for s in range(0, min(n, k) + 1) if s % 2 == n % 2
    )
    assert len(masks) == expected
    if n >= 2:
        restricted = reachable_oddsupp_masks(k, n, restricted=True)
        expected_r = sum(
            math.comb(k, s)
            for s in range(0, min(n - 2, k) + 1)
            if s % 2 == n % 2
        )
        assert len(restricted) == expected_r


def test_oddsupp_witnesses_always_have_two_masks_to_map():
    # gen_oddsupp_determined needs a nonconstant map on the reachable masks:
    # at n >= 4 both 0...0 and 1 0...0 repeat a coordinate and differ in
    # oddsupp, so two masks are always reachable.
    shapes = [(k, n) for k in range(2, 8) for n in range(4, 9) if k**n <= 3 * 10**5]
    assert len(shapes) == 26
    for k, n in shapes:
        reach = reachable_oddsupp_masks(k, n, restricted=True)
        ends = {oddsupp_mask((0,) * n), oddsupp_mask((1,) + (0,) * (n - 1))}
        assert len(ends) == 2 and ends <= set(reach), (k, n)


def test_witness_pairs_stay_on_repeat_set_when_restricted():
    # doctor a function whose repeat-set fibers clash
    def fn(t):
        if t == (0, 0, 1):
            return 1
        return 0

    f = from_function(3, 3, 2, fn)
    p = is_restriction_determined_by_oddsupp(f)
    assert not p.determined
    left, right = p.witness
    assert len(set(left)) < 3 and len(set(right)) < 3
    assert oddsupp(left) == oddsupp(right)
    assert f.eval(left) != f.eval(right)
