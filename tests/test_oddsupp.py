import functools
import itertools
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from aritygap import (
    FiniteFunction,
    OddsuppProfile,
    all_tuples,
    constant,
    from_function,
    gen_oddsupp_determined,
    index_to_tuple,
    is_determined_by_oddsupp,
    is_restriction_determined_by_oddsupp,
    is_restriction_totally_symmetric,
    oddsupp,
    oddsupp_mask,
    reachable_oddsupp_masks,
    tuple_to_index,
)
from aritygap.oddsupp import _fiber_profile, _fibers

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
    # The masks read off the layouts against the Counter-based masks.
    tuples = list(all_tuples(k, n))
    assert masks == tuple(sorted({oddsupp_mask(t) for t in tuples}))
    if n >= 2:
        repeat = {oddsupp_mask(t) for t in tuples if len(set(t)) < n}
        assert restricted == tuple(sorted(repeat))


@pytest.mark.parametrize("k, n", [(2, 3), (2, 5), (3, 4), (4, 5)])
def test_restricted_layout_is_the_whole_domain_one_when_every_tuple_repeats(k, n):
    assert _fibers(k, n, True) is _fibers(k, n, False)


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


@functools.cache
def reference_entries(k, n, restricted):
    # (index, oddsupp mask) of each tuple, over the repeat set when restricted.
    return [
        (idx, oddsupp_mask(t))
        for idx, t in enumerate(all_tuples(k, n))
        if not restricted or len(set(t)) < n
    ]


# The single walk the fiber layout replaced, kept as the reference: a fiber
# with two values becomes bad_mask at its own first conflicting entry and stays
# so unless a fiber with a lesser first member conflicts later.
def reference_profile(f, restricted):
    rep_idx, rep_val = {}, {}
    bad_mask = second = None
    for idx, m in reference_entries(f.k, f.n, restricted):
        v = f.table[idx]
        if m not in rep_idx:
            rep_idx[m] = idx
            rep_val[m] = v
        elif v != rep_val[m] and (bad_mask is None or rep_idx[m] < rep_idx[bad_mask]):
            bad_mask, second = m, idx
    if bad_mask is not None:
        witness = (index_to_tuple(f.k, f.n, rep_idx[bad_mask]), index_to_tuple(f.k, f.n, second))
        return OddsuppProfile(False, None, None, witness)
    star = {m: rep_val[m] for m in sorted(rep_val)}
    star_constant = len(set(star.values())) <= 1
    return OddsuppProfile((not star_constant) if restricted else True, star, star_constant, None)


# A fault-injected twin of the layout test: its witness takes the last entry
# of the first non-constant fiber that differs from the fiber's first value.
def last_differing_profile(f, restricted):
    _, order, spans = _fibers(f.k, f.n, restricted)
    for _, lo, hi in spans:
        fiber = order[lo:hi]
        others = [i for i in fiber if f.table[i] != f.table[fiber[0]]]
        if others:
            witness = (index_to_tuple(f.k, f.n, fiber[0]), index_to_tuple(f.k, f.n, others[-1]))
            return OddsuppProfile(False, None, None, witness)
    return _fiber_profile(f, restricted)


def profiles(f, test):
    out = [repr(test(f, False))]
    if f.n >= 2:
        out.append(repr(test(f, True)))
    return out


def exhaustive(k, n, b):
    return (FiniteFunction(k, n, b, table) for table in itertools.product(range(b), repeat=k**n))


REFERENCE_SHAPES = [(2, 2, 2), (2, 3, 2), (3, 2, 3), (2, 4, 2), (2, 2, 4)]


@pytest.mark.parametrize("shape", REFERENCE_SHAPES, ids=lambda s: "-".join(map(str, s)))
def test_layout_matches_reference_exhaustively(shape):
    # repr covers the witness, the star with its key order and star_constant.
    for f in exhaustive(*shape):
        assert profiles(f, _fiber_profile) == profiles(f, reference_profile), f.table


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_layout_matches_reference_sampled(data):
    kind = data.draw(st.sampled_from(["random", "constant", "oddsupp-determined"]))
    k = data.draw(st.integers(2, 4))
    n = data.draw(st.integers(4 if kind == "oddsupp-determined" else 1, 5))
    b = data.draw(st.integers(2, 4))
    if kind == "random":
        table = data.draw(st.lists(st.integers(0, b - 1), min_size=k**n, max_size=k**n))
        f = FiniteFunction(k, n, b, tuple(table))
    elif kind == "constant":
        f = constant(k, n, b, data.draw(st.integers(0, b - 1)))
    else:
        f = gen_oddsupp_determined(k, n, b, data.draw(st.integers(0, 2**32 - 1)))
    assert profiles(f, _fiber_profile) == profiles(f, reference_profile)


@pytest.mark.parametrize("shape", [(2, 3, 2), (3, 2, 3)], ids=lambda s: "-".join(map(str, s)))
def test_reference_check_catches_a_late_witness(shape):
    # The exhaustive comparison, run on the fault-injected twin, must fail.
    assert any(
        profiles(f, last_differing_profile) != profiles(f, reference_profile)
        for f in exhaustive(*shape)
    )


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_layout_memory_at_arity_sixteen():
    # Resident-set growth of a fresh interpreter over both tests on one
    # random (2,n,2) table, which builds its layout (at n > k the restricted
    # one is the whole-domain one).  statm reads the current resident set;
    # ru_maxrss would carry the peak over exec.
    script = (
        "import os, random, sys\n"
        "from aritygap import FiniteFunction, is_determined_by_oddsupp, "
        "is_restriction_determined_by_oddsupp\n"
        "def rss():\n"
        "    with open('/proc/self/statm') as fh:\n"
        "        return int(fh.read().split()[1]) * os.sysconf('SC_PAGE_SIZE')\n"
        "n = int(sys.argv[1])\n"
        "rng = random.Random(0)\n"
        "f = FiniteFunction(2, n, 2, tuple(rng.randrange(2) for _ in range(2**n)))\n"
        "before = rss()\n"
        "is_determined_by_oddsupp(f)\n"
        "is_restriction_determined_by_oddsupp(f)\n"
        "print(rss() - before)\n"
    )
    for n, bound in ((16, 16 << 20), (18, 20 << 20)):
        done = subprocess.run(
            [sys.executable, "-c", script, str(n)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert int(done.stdout) <= bound, (n, int(done.stdout))
