import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from aritygap import (
    AnfPolynomial,
    FiniteFunction,
    GapUndefinedError,
    UnsupportedDomainError,
    all_tuples,
    anf,
    arity_gap,
    classify,
    classify_boolean,
    classify_pseudo_boolean,
    essential_slots,
    from_function,
    gen_salomaa,
    gen_ternary_pattern,
    is_restriction_determined_by_oddsupp,
    quasi_arity,
    render_classification,
    ternary_pattern,
)
from aritygap.classify import _anf_bits

XOR2 = FiniteFunction(2, 2, 2, (0, 1, 1, 0))
AND2 = FiniteFunction(2, 2, 2, (0, 0, 0, 1))
XOR3 = FiniteFunction(2, 3, 2, (0, 1, 1, 0, 1, 0, 0, 1))
MAJ3 = FiniteFunction(2, 3, 2, (0, 0, 0, 1, 0, 1, 1, 1))


def semiproj3():
    return from_function(3, 3, 3, lambda t: 2 if t == (0, 1, 2) else t[0])


def boolean_from_anf(n, monomials, c):
    def fn(t):
        v = c
        for mono in monomials:
            if all(t[i - 1] for i in mono):
                v ^= 1
        return v

    return from_function(2, n, 2, fn)


def all_functions(k, n, b):
    for table in itertools.product(range(b), repeat=k**n):
        yield FiniteFunction(k, n, b, table)


# --- algebraic normal form ---------------------------------------------------


def test_anf_examples():
    p = anf(AND2)
    assert p.monomials == frozenset({frozenset({1, 2})})
    assert p.constant == 0
    p = anf(XOR2)
    assert p.monomials == frozenset({frozenset({1}), frozenset({2})})
    assert p.constant == 0
    p = anf(MAJ3)
    assert p.monomials == frozenset(
        {frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})}
    )
    assert p.constant == 0


def test_anf_rejects_other_domains():
    with pytest.raises(UnsupportedDomainError):
        anf(FiniteFunction(3, 2, 2, (0,) * 9))
    with pytest.raises(UnsupportedDomainError):
        anf(FiniteFunction(2, 2, 3, (0, 1, 2, 0)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_anf_round_trip_exhaustive(n):
    # every Boolean function equals the evaluation of its polynomial
    for f in all_functions(2, n, 2):
        assert anf(f).table() == f.table


def subset_lattice_anf(n, table):
    # The ANF coefficients by the in-place Moebius transform over a list.
    coef = list(table)
    for p in range(n):
        bit = 1 << p
        for j in range(1 << n):
            if j & bit:
                coef[j] ^= coef[j ^ bit]
    return coef


def masks_per_call_anf(n, table):
    # _anf_bits as it was before its masks were kept per n: each bit
    # position's mask is rebuilt by doubling on every call.
    x = int("".join(map(str, reversed(table))), 2)
    size = 1 << n
    for p in range(n):
        w = 1 << p
        low = (1 << w) - 1
        width = 2 * w
        while width < size:
            low |= low << width
            width *= 2
        x ^= (x & low) << w
    return x


def test_anf_bits_match_the_subset_lattice_transform():
    def check(n, table):
        x = _anf_bits(n, table)
        assert x >> (1 << n) == 0
        assert [x >> j & 1 for j in range(1 << n)] == subset_lattice_anf(n, table)
        assert x == masks_per_call_anf(n, table)

    for n in range(1, 5):
        for table in itertools.product(range(2), repeat=1 << n):
            check(n, table)
    rng = random.Random(5)
    for n in range(5, 13):
        for _ in range(8):
            check(n, tuple(rng.randrange(2) for _ in range(1 << n)))
        check(n, (0,) * (1 << n))
        check(n, (1,) * (1 << n))


@st.composite
def boolean_tables(draw):
    n = draw(st.integers(1, 10))
    raw = draw(st.binary(min_size=1 << n, max_size=1 << n))
    return n, tuple(v & 1 for v in raw)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(boolean_tables())
def test_anf_bits_match_per_call_masks(case):
    n, table = case
    assert _anf_bits(n, table) == masks_per_call_anf(n, table)


def test_anf_evaluate_matches_definition():
    p = AnfPolynomial(3, frozenset({frozenset({1, 3}), frozenset({2})}), 1)
    g = boolean_from_anf(3, [{1, 3}, {2}], 1)
    assert p.table() == g.table


# --- ternary pattern ---------------------------------------------------------


def test_ternary_pattern_examples():
    pattern, h = ternary_pattern(MAJ3)
    assert pattern == (0, 0, 0)
    assert h.table == (0, 1)
    pattern, h = ternary_pattern(semiproj3())
    assert pattern == (1, 0, 0)
    assert h.table == (0, 1, 2)
    two_thirds = boolean_from_anf(3, [{1, 2}, {1, 3}, {2, 3}, {1}, {2}], 0)
    pattern, _ = ternary_pattern(two_thirds)
    assert pattern == (1, 1, 0)
    pattern, _ = ternary_pattern(XOR3)
    assert pattern == (1, 1, 1)


def test_ternary_pattern_absent():
    f = from_function(2, 3, 2, lambda t: t[0] & (t[1] | t[2]))
    assert set(essential_slots(f)) == {1, 2, 3}
    assert ternary_pattern(f) is None


def test_ternary_pattern_preconditions():
    with pytest.raises(ValueError):
        ternary_pattern(XOR2)
    with pytest.raises(ValueError):
        ternary_pattern(FiniteFunction(2, 3, 2, (0, 1, 0, 1, 0, 1, 0, 1)))


# --- general classifier ------------------------------------------------------


def test_classify_examples():
    c = classify(MAJ3)
    assert (c.gap, c.tag, c.pattern) == (2, "TernaryPattern", (0, 0, 0))
    assert c.pattern_h.table == (0, 1)
    c = classify(XOR3)
    assert (c.gap, c.tag, c.pattern) == (2, "TernaryPattern", (1, 1, 1))
    c = classify(gen_salomaa(4))
    assert (c.gap, c.tag, c.m) == (4, "QuasiNullary", 0)


def test_classify_requires_two_essential_slots():
    with pytest.raises(GapUndefinedError):
        classify(FiniteFunction(2, 2, 2, (0, 0, 1, 1)))


def test_classify_rendering():
    assert render_classification(classify(gen_salomaa(3))) == "gap=3 tag=QuasiNullary m=0"
    assert (
        render_classification(classify_boolean(XOR2))
        == "gap=2 tag=QuasiNMinus2 m=0 family=linear c=0 perm=1,2"
    )


def test_classify_quasi_n_minus_2_tag():
    assert classify(XOR2).tag == "QuasiNMinus2"
    xor4 = boolean_from_anf(4, [{1}, {2}, {3}, {4}], 0)
    c = classify(xor4)
    assert (c.gap, c.tag) == (2, "OddsuppDetermined")


# --- Boolean families --------------------------------------------------------


def test_classify_boolean_examples():
    c = classify_boolean(XOR2)
    assert (c.gap, c.family, c.family_constant) == (2, "linear", 0)
    c = classify_boolean(FiniteFunction(2, 2, 2, (0, 0, 1, 0)))
    assert (c.gap, c.family, c.family_constant, c.perm) == (2, "product", 0, (1, 2))
    c = classify_boolean(AND2)
    assert (c.gap, c.family) == (1, None)


def test_classify_boolean_rejects_other_domains():
    with pytest.raises(UnsupportedDomainError):
        classify_boolean(FiniteFunction(3, 2, 3, (0,) * 9))


def test_classify_boolean_families_complete():
    # the ten essentially ternary gap-2 functions split 2 + 2 + 6
    counts = {"linear": 0, "majority": 0, "twothirds": 0}
    for f in all_functions(2, 3, 2):
        if len(essential_slots(f)) != 3:
            continue
        c = classify_boolean(f)
        if c.gap == 2:
            counts[c.family] += 1
    assert counts == {"linear": 2, "majority": 2, "twothirds": 6}


def test_classify_boolean_permutations_recovered():
    f = boolean_from_anf(3, [{1, 2}, {1, 3}, {2, 3}, {1}, {3}], 1)
    c = classify_boolean(f)
    assert c.family == "twothirds"
    assert c.family_constant == 1
    assert c.perm == (1, 3, 2)
    padded = boolean_from_anf(4, [{2, 3}], 0)  # product family on slots 2, 3
    c = classify_boolean(boolean_from_anf(4, [{2, 3}, {3}], 1))
    assert c.family == "product"
    assert c.perm == (3, 2)
    assert classify_boolean(padded).gap == 1


# --- pseudo-Boolean ----------------------------------------------------------


def test_classify_pseudo_boolean_binary_bullet():
    f = FiniteFunction(2, 2, 3, (2, 0, 1, 2))
    c = classify_pseudo_boolean(f)
    assert c.gap == 2
    assert c.decomposition is None


def test_classify_pseudo_boolean_decomposition():
    g_map = {0: 0, 1: 2}
    f = from_function(2, 3, 3, lambda t: g_map[t[0] ^ t[1] ^ t[2]])
    c = classify_pseudo_boolean(f)
    assert c.gap == 2
    (v0, v1), h = c.decomposition
    assert (v0, v1) == (0, 2)
    assert h == XOR3
    assert h.table[0] == 0


def test_classify_pseudo_boolean_wide_range():
    f = from_function(2, 3, 3, lambda t: (t[0] + t[1] + t[2]) % 3)
    assert len(set(f.table)) == 3
    c = classify_pseudo_boolean(f)
    assert (c.gap, c.tag) == (1, "GapOne")


def test_classify_pseudo_boolean_rejects_wide_domain():
    with pytest.raises(UnsupportedDomainError):
        classify_pseudo_boolean(FiniteFunction(3, 2, 2, (0,) * 9))


def test_pseudo_boolean_labeling_invariance():
    # swapping the two range values leaves the gap unchanged
    rng = random.Random(11)
    for _ in range(30):
        h_table = tuple(rng.randrange(2) for _ in range(8))
        f = FiniteFunction(2, 3, 4, tuple(3 if v else 1 for v in h_table))
        g = FiniteFunction(2, 3, 4, tuple(1 if v else 3 for v in h_table))
        if len(essential_slots(f)) < 2:
            continue
        assert classify_pseudo_boolean(f).gap == classify_pseudo_boolean(g).gap


# --- agreement between the routes -------------------------------------------


@pytest.mark.parametrize(
    "k,n,b",
    [(2, 2, 2), (2, 3, 2), (2, 4, 2), (2, 2, 3), (2, 3, 3), (3, 2, 2), (3, 2, 3)],
)
def test_classify_agrees_with_arity_gap_exhaustive(k, n, b):
    for f in all_functions(k, n, b):
        if len(essential_slots(f)) < 2:
            continue
        assert classify(f).gap == arity_gap(f).gap


@pytest.mark.parametrize("n", [2, 3])
def test_boolean_and_general_classifiers_agree(n):
    for f in all_functions(2, n, 2):
        if len(essential_slots(f)) < 2:
            continue
        assert classify_boolean(f).gap == classify(f).gap


@pytest.mark.parametrize("n,b", [(2, 3), (3, 3)])
def test_pseudo_boolean_and_general_classifiers_agree(n, b):
    for f in all_functions(2, n, b):
        if len(essential_slots(f)) < 2:
            continue
        assert classify_pseudo_boolean(f).gap == classify(f).gap


# --- ternary taxonomy over matching codomain ---------------------------------


def is_majority_op(f):
    return all(
        f.eval((a, a, c)) == a and f.eval((a, c, a)) == a and f.eval((c, a, a)) == a
        for a in range(f.k)
        for c in range(f.k)
    )


def is_minority_op(f):
    return all(
        f.eval((a, a, c)) == c and f.eval((a, c, a)) == c and f.eval((c, a, a)) == c
        for a in range(f.k)
        for c in range(f.k)
    )


def is_semiprojection_op(f):
    return any(
        all(f.eval(t) == t[s] for t in all_tuples(f.k, 3) if len(set(t)) < 3)
        for s in range(3)
    )


@pytest.mark.parametrize("k", [2, 3])
def test_taxonomy_patterns(k):
    maj = gen_ternary_pattern(k, (0, 0, 0), seed=1)
    assert is_majority_op(maj)
    assert ternary_pattern(maj)[0] == (0, 0, 0)
    mino = gen_ternary_pattern(k, (1, 1, 1), seed=1)
    assert is_minority_op(mino)
    assert ternary_pattern(mino)[0] == (1, 1, 1)
    for pattern in ((1, 1, 0), (1, 0, 1), (0, 1, 1)):
        f = gen_ternary_pattern(k, pattern, seed=2)
        assert ternary_pattern(f)[0] == pattern
        assert not is_majority_op(f) and not is_minority_op(f)
        assert not is_semiprojection_op(f)
    if k >= 3:
        for pattern in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            f = gen_ternary_pattern(k, pattern, seed=3)
            assert ternary_pattern(f)[0] == pattern
            assert is_semiprojection_op(f)


def test_taxonomy_definitional_equivalence_exhaustive_k2():
    # with codomain = domain and h the identity, the selector patterns match
    # the definitional classes exactly (the one-hot class is empty over two
    # elements, so that equivalence holds vacuously)
    identity = (0, 1)
    for f in all_functions(2, 3, 2):
        if len(essential_slots(f)) != 3:
            continue
        tp = ternary_pattern(f)
        with_id = tp is not None and tp[1].table == identity
        assert (with_id and tp[0] == (0, 0, 0)) == is_majority_op(f)
        assert (with_id and tp[0] == (1, 1, 1)) == is_minority_op(f)
        assert (with_id and sum(tp[0]) == 1) == is_semiprojection_op(f)


def test_identity_pattern_boundary():
    # the all-ones pattern factors through oddsupp; the other gap-2 ternary
    # patterns have full quasi-arity and do not
    for pattern in itertools.product((0, 1), repeat=3):
        try:
            f = gen_ternary_pattern(3, pattern, seed=5)
        except ValueError:
            continue
        determined = is_restriction_determined_by_oddsupp(f).determined
        if pattern == (1, 1, 1):
            assert determined
        else:
            assert not determined
        if sum(pattern) == 1:
            assert quasi_arity(f) == 1
        else:
            assert quasi_arity(f) == 3
