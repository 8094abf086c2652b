"""Properties of the one substitution-index builder in `minors`, of the
identification-minor maps that `oracle_gap` builds for itself, and of the
pair scan in `arity_gap` that stops early and skips pairs that cannot win.

Every re-indexed table of the library (simple minors, restrictions to
essential slots and support extensions) is gathered through the `minors`
index map; `oracle_gap` gathers its identification minors through its own
maps, so that a fault in one is not repeated by the other.  Each result is
checked here against a reference built from `FiniteFunction.eval` alone.
`arity_gap` is checked against a scan of every pair of essential slots,
also on tables built so that pairs are skipped before a later one wins.  Runs
are derandomized, so the suite stays deterministic.
"""

import inspect
import itertools
import random
import tracemalloc

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

import aritygap.gap
from aritygap import (
    FiniteFunction,
    GapReport,
    GapUndefinedError,
    MinorMap,
    NoSuchSupportError,
    arity_gap,
    classify_pseudo_boolean,
    diagonal,
    essential_arity,
    essential_slots,
    gen_salomaa,
    function_by_id,
    gen_essentially_m_ary,
    gen_quasi_m_ary,
    identification_minor,
    parse,
    quasi_arity,
    render,
    restrict_to_essential,
    simple_minor,
    support_extension,
    unique_unary_support,
)
from aritygap.cli import main
from aritygap.gap import _section
from aritygap.oracle import _id_gather, parse_instance_filter, sampled_function

MAX_SIZE = 1024
PROFILE = settings(derandomize=True, max_examples=60, deadline=None)


def max_arity(k):
    n = 1
    while k ** (n + 1) <= MAX_SIZE:
        n += 1
    return n


def points(k, n):
    return itertools.product(range(k), repeat=n)


def has_repeat(t):
    return len(t) == 1 or len(set(t)) < len(t)


@st.composite
def shapes(draw):
    k = draw(st.integers(2, 4))
    n = draw(st.integers(1, max_arity(k)))
    b = draw(st.integers(2, 3))
    return k, n, b


@st.composite
def tables(draw, k, n, b):
    return tuple(draw(st.lists(st.integers(0, b - 1), min_size=k**n, max_size=k**n)))


@st.composite
def functions(draw):
    """A function that depends on a random subset of its slots, optionally
    with its values off the repeat set overwritten, so restrictions and
    support extensions drop slots as often as they keep them."""
    k, n, b = draw(shapes())
    slots = sorted(draw(st.sets(st.integers(1, n))))
    inner = FiniteFunction(k, max(len(slots), 1), b, draw(tables(k, max(len(slots), 1), b)))
    noise = draw(tables(k, n, b)) if draw(st.booleans()) else None
    table = []
    for pos, t in enumerate(points(k, n)):
        if noise is not None and not has_repeat(t):
            table.append(noise[pos])
        elif slots:
            table.append(inner.eval(tuple(t[s - 1] for s in slots)))
        else:
            table.append(inner.eval((0,)))
    return FiniteFunction(k, n, b, tuple(table))


@st.composite
def minor_cases(draw):
    k, m, b = draw(shapes())
    g = FiniteFunction(k, m, b, draw(tables(k, m, b)))
    n = draw(st.integers(1, max_arity(k)))
    sigma = tuple(draw(st.lists(st.integers(1, n), min_size=m, max_size=m)))
    return g, MinorMap(m, n, sigma)


@PROFILE
@given(minor_cases())
def test_simple_minor_is_the_substitution(case):
    g, sigma = case
    minor = simple_minor(g, sigma)
    assert (minor.k, minor.n, minor.b) == (g.k, sigma.n, g.b)
    for t in points(g.k, sigma.n):
        assert minor.eval(t) == g.eval(tuple(t[s - 1] for s in sigma.sigma))


@PROFILE
@given(functions())
def test_restrict_to_essential_is_equivalent(f):
    core, slots = restrict_to_essential(f)
    assert list(slots) == sorted(set(slots))
    if len(slots) == f.n:
        assert core is f
    for t in points(f.k, f.n):
        args = tuple(t[s - 1] for s in slots) if slots else (0,)
        assert f.eval(t) == core.eval(args)


@PROFILE
@given(functions().filter(lambda f: f.n != 2))
def test_support_extension_matches_on_repeat_set(f):
    ext = support_extension(f)
    h = ext.h
    if ext.nullary:
        assert ext.slots == () and h.n == 1
    else:
        # h(c1, ..., cm) is f with slot i_l = c_l and every other slot = c_m
        for c in points(f.k, len(ext.slots)):
            t = [c[-1]] * f.n
            for pos, s in enumerate(ext.slots):
                t[s - 1] = c[pos]
            assert h.eval(c) == f.eval(tuple(t))
    for t in points(f.k, f.n):
        if has_repeat(t):
            args = tuple(t[s - 1] for s in ext.slots) if ext.slots else (0,)
            assert f.eval(t) == h.eval(args)


@PROFILE
@given(functions())
def test_unary_support_matches_on_repeat_set(f):
    if quasi_arity(f) >= 2:
        with pytest.raises(NoSuchSupportError):
            unique_unary_support(f)
        return
    u = unique_unary_support(f)
    for h in u.supports:
        assert (h.k, h.n, h.b) == (f.k, f.n, f.b)
        assert essential_arity(h) <= 1
        assert all(h.eval(t) == f.eval(t) for t in points(f.k, f.n) if has_repeat(t))
    if f.n != 2:
        assert u.slots == support_extension(f).slots
    assert u.ambiguous == (f.n == 2 and not diagonal(f).is_constant())


@PROFILE
@given(functions(), st.data())
def test_trusted_sites_build_publicly_valid_functions(f, data):
    # These sites skip the constructor's checks; the checks must still pass.
    n = data.draw(st.integers(1, max_arity(f.k)))
    sigma = tuple(data.draw(st.lists(st.integers(1, n), min_size=f.n, max_size=f.n)))
    results = [
        simple_minor(f, MinorMap(f.n, n, sigma)),
        diagonal(f),
        restrict_to_essential(f)[0],
        function_by_id(f.k, f.n, f.b, data.draw(st.integers(0, f.b**f.size - 1))),
        sampled_function(f.k, f.n, f.b, data.draw(st.integers(0, 9)), data.draw(st.integers(0, 9))),
    ]
    if f.n >= 2:
        i, j = data.draw(st.lists(st.integers(1, f.n), min_size=2, max_size=2, unique=True))
        results.append(identification_minor(f, i, j))
    if f.k == 2 and essential_arity(f) >= 2:
        decomposition = classify_pseudo_boolean(f).decomposition
        if decomposition is not None:
            results.append(decomposition[1])
    for g in results:
        assert g == FiniteFunction(g.k, g.n, g.b, g.table)


@pytest.mark.parametrize("k,n", [(2, n) for n in range(1, 8)] + [(3, 4), (3, 5), (4, 4), (5, 3)])
def test_oracle_partition_maps_are_the_substitution(k, n):
    # The oracle's maps identify two slots: the partition with one block of
    # two.  Each entry of the table names its own index, so the gathered
    # table is the map itself: entry t must read f at (t_sigma(1), ...,
    # t_sigma(n)), where sigma feeds slot i from slot j.
    f = FiniteFunction(k, n, k**n, tuple(range(k**n)))
    for i, j in itertools.permutations(range(1, n + 1), 2):
        sigma = tuple(j if s == i else s for s in range(1, n + 1))
        reference = tuple(f.eval(tuple(t[s - 1] for s in sigma)) for t in points(k, n))
        assert _id_gather(k, n, i, j)(f.table) == reference, (i, j)
        assert _id_gather.__wrapped__(k, n, i, j)(f.table) == reference, (i, j)


def all_pairs_gap(f):
    """(ess, essl, gap, pair, essential) from every pair of essential slots:
    the lexicographically least pair whose minor keeps the most slots."""
    slots = tuple(essential_slots(f))
    kept = {
        (i, j): essential_arity(identification_minor(f, i, j))
        for i, j in itertools.combinations(slots, 2)
    }
    essl = max(kept.values())
    pair = min(p for p, e in kept.items() if e == essl)
    return len(slots), essl, len(slots) - essl, pair, slots


def report_fields(f):
    r = arity_gap(f)
    return r.ess, r.essl, r.gap, r.pair, r.essential


def parity(k, n):
    return FiniteFunction(k, n, k, tuple(sum(t) % k for t in points(k, n)))


@PROFILE
@given(functions())
def test_arity_gap_matches_all_pairs(f):
    if len(essential_slots(f)) < 2:
        with pytest.raises(GapUndefinedError):
            arity_gap(f)
        return
    assert report_fields(f) == all_pairs_gap(f)


@pytest.mark.parametrize(
    "f", [parity(2, 2), parity(2, 5), parity(2, 8), gen_salomaa(2), gen_salomaa(3)],
    ids=["parity-2-2", "parity-2-5", "parity-2-8", "salomaa-2", "salomaa-3"],
)
def test_arity_gap_without_early_exit(f):
    # no minor keeps ess - 1 slots, so every pair is visited
    fields = report_fields(f)
    assert fields == all_pairs_gap(f)
    assert fields[2] >= 2


def counted_identifications(monkeypatch):
    calls = []

    def counting(k, n, i, j, table):
        calls.append((i, j))
        return _section(k, n, i, j, table)

    monkeypatch.setattr(aritygap.gap, "_section", counting)
    return calls


def test_arity_gap_stops_at_first_pair_keeping_ess_minus_one(monkeypatch):
    rng = random.Random(5)
    f = FiniteFunction(2, 6, 2, tuple(rng.randrange(2) for _ in range(64)))
    ess = essential_arity(f)
    assert ess == 6 and essential_arity(identification_minor(f, 1, 2)) == ess - 1
    calls = counted_identifications(monkeypatch)
    assert arity_gap(f).pair == (1, 2)
    assert calls == [(1, 2)]


def counted_prunes(monkeypatch):
    pruned = []
    real = aritygap.gap._merged_is_inessential

    def counting(k, n, i, j, table):
        out = real(k, n, i, j, table)
        if out:
            pruned.append((i, j))
        return out

    monkeypatch.setattr(aritygap.gap, "_merged_is_inessential", counting)
    return pruned


@pytest.mark.parametrize("n, skipped", [(6, 14), (14, 90)], ids=["6", "14"])
def test_arity_gap_sections_one_pair_of_a_parity_table(monkeypatch, n, skipped):
    # Pair (1, 2) keeps ess - 2 slots; every later pair's merged slot is
    # inessential (x_i + x_i = 0 mod 2), so it is skipped unsectioned.
    f = parity(2, n)
    calls = counted_identifications(monkeypatch)
    pruned = counted_prunes(monkeypatch)
    for g in (f, parse(render(f))):
        calls.clear()
        pruned.clear()
        assert arity_gap(g).gap == 2
        assert calls == [(1, 2)]
        assert pruned == list(itertools.combinations(range(1, n + 1), 2))[1:]
        assert len(pruned) == skipped


def test_arity_gap_scans_the_repeat_set_once(monkeypatch):
    f = gen_quasi_m_ary(4, 3, 2, 1, 0)
    real = aritygap.gap._essential_ids
    on_repeat = []

    def counting(*args, **kwargs):
        on_repeat.append(kwargs.get("on_repeat", False))
        return real(*args, **kwargs)

    monkeypatch.setattr(aritygap.gap, "_essential_ids", counting)
    r = arity_gap(f)
    assert r.qa == 1 and r.support is not None
    assert on_repeat.count(True) == 1


def test_gap_filter_scans_no_repeat_set_and_builds_no_diagonal(monkeypatch):
    # The gap= filter reads only the gap, so it skips the repeat-set scan and
    # the unary support that arity_gap adds, at n = 2 (where quasi-arity is
    # read off the diagonal) as at n = 3.
    binary, ternary = FiniteFunction(2, 2, 2, (0, 1, 1, 0)), gen_quasi_m_ary(4, 3, 2, 1, 0)
    real_ids, real_diagonal = aritygap.gap._essential_ids, aritygap.gap.diagonal
    calls = []

    def counting_ids(*args, **kwargs):
        if kwargs.get("on_repeat"):
            calls.append("on_repeat")
        return real_ids(*args, **kwargs)

    def counting_diagonal(f):
        calls.append("diagonal")
        return real_diagonal(f)

    monkeypatch.setattr(aritygap.gap, "_essential_ids", counting_ids)
    monkeypatch.setattr(aritygap.gap, "diagonal", counting_diagonal)
    keep = parse_instance_filter("gap=2")
    assert [keep(binary), keep(ternary), keep(parity(2, 6))] == [True, True, True]
    assert calls == []
    assert arity_gap(ternary).gap == 2
    assert calls == ["on_repeat", "diagonal"]


def test_enumerate_builds_each_section_layout_once(capsys):
    # Restricted to their essential slots, the (2,4,2) tables have 2, 3 or 4
    # slots; over all of them the gap=2 filter meets the 1 + 3 + 6 pairs of
    # those shapes, and builds each pair's layout once.
    layouts = aritygap.gap._section_layout
    layouts.cache_clear()
    assert main(["enumerate", "--k", "2", "--n", "4", "--b", "2", "--filter", "gap=2"]) == 0
    assert capsys.readouterr().out.count("\n") == 2 * 78
    info = layouts.cache_info()
    assert info.misses == info.currsize == 10


def test_section_layouts_of_large_tables_are_kept():
    # The (2,11) parity table has 2,048 entries.  The first arity_gap call
    # reads all 55 pairs (one sectioned, 54 checked and skipped) and builds
    # each pair's layout; a second call builds none.
    layouts = aritygap.gap._section_layout
    layouts.cache_clear()
    assert arity_gap(parity(2, 11)).gap == 2
    assert layouts.cache_info().misses == layouts.cache_info().currsize == 55
    assert arity_gap(parity(2, 11)).gap == 2
    assert layouts.cache_info().misses == layouts.cache_info().currsize == 55


def test_section_layouts_of_a_shape_hold_fewer_offsets_than_its_table():
    # The memory bound that lets every layout be kept: over the pairs i < j
    # of any shape up to 2^16 entries the offsets add up to fewer than k^n,
    # and all 153 layouts of (2,18) take at most 4 MiB (2.76 MiB measured).
    build = aritygap.gap._section_layout.__wrapped__
    for k in range(2, 257):
        for n in range(2, 17):
            if k**n > 2**16:
                break
            pairs = itertools.combinations(range(1, n + 1), 2)
            assert sum(len(build(k, n, i, j)[-1]) for i, j in pairs) < k**n, (k, n)
    tracemalloc.start()
    try:
        layouts = [build(2, 18, i, j) for i, j in itertools.combinations(range(1, 19), 2)]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(layouts) == 153
    assert held <= 4 * 2**20


def pair_loop_gap(f):
    """arity_gap's report from the n-ary identification minor of each pair,
    scanned in full, with quasi-arity and support computed apart."""
    g, slots = restrict_to_essential(f)
    ess = len(slots)
    if ess < 2:
        raise GapUndefinedError(f"arity gap needs >= 2 essential slots, got {ess}")
    best, best_pair = -1, (1, 2)
    for i, j in itertools.combinations(range(1, ess + 1), 2):
        e = essential_arity(identification_minor(g, i, j))
        if e > best:
            best, best_pair = e, (i, j)
            if e == ess - 1:
                break
    qa = quasi_arity(g)
    support = unique_unary_support(g).supports[0] if qa <= 1 else None
    pair = (slots[best_pair[0] - 1], slots[best_pair[1] - 1])
    return GapReport(ess, qa, best, ess - best, pair, slots, support)


def same_as_pair_loop(f):
    try:
        expected = repr(pair_loop_gap(f))
    except GapUndefinedError as e:
        with pytest.raises(GapUndefinedError, match=str(e)):
            arity_gap(f)
        return
    assert repr(arity_gap(f)) == expected


@pytest.mark.parametrize("k,n,b", [(2, 4, 2), (3, 2, 3), (2, 3, 3)])
def test_arity_gap_is_the_pair_loop_exhaustive(k, n, b):
    for table in itertools.product(range(b), repeat=k**n):
        same_as_pair_loop(FiniteFunction(k, n, b, table))


def seeded_parity(k, n, b, rng):
    """h(p(t_1) + ... + p(t_n) mod 2) with p nonconstant: gap 2."""
    p = [0, 1] + [rng.randrange(2) for _ in range(k - 2)]
    rng.shuffle(p)
    h = rng.sample(range(b), 2)
    return FiniteFunction(k, n, b, tuple(h[sum(p[a] for a in t) % 2] for t in points(k, n)))


@pytest.mark.parametrize("k,n,b", [(2, 12, 2), (3, 8, 3), (5, 5, 5)])
@pytest.mark.parametrize("seed", range(2))
def test_arity_gap_is_the_pair_loop_seeded(k, n, b, seed):
    rng = random.Random(f"{k}:{n}:{seed}")
    fs = [
        seeded_parity(k, n, b, rng),
        gen_essentially_m_ary(k, n, b, 3 + seed, rng.getrandbits(32)),
        gen_quasi_m_ary(k, n, b, n if n > k else 2 + seed, rng.getrandbits(32)),
    ]
    for f in fs:
        same_as_pair_loop(f)


def parity_with_term(k, n, b, parity_slots, term_slots, term, p=None, h=(0, 1)):
    """h((p(t_s) summed over parity_slots) + term(t_i, t_j) mod 2) with (i, j)
    = term_slots and p(a) = a mod 2 by default.  Identifying two parity
    slots cancels them, so their section's merged slot is inessential
    wherever the term does not read it."""
    p = p or [a % 2 for a in range(k)]
    i, j = term_slots
    return FiniteFunction(
        k, n, b,
        tuple(
            h[(sum(p[t[s - 1]] for s in parity_slots) + term[t[i - 1] * k + t[j - 1]]) % 2]
            for t in points(k, n)
        ),
    )


@st.composite
def pruned_scan_tables(draw):
    """A parity over some or all slots, plus a term on two slots (often the
    last two) that is 1 on a few digit pairs (often (k-1, k-1) alone): many
    pairs keep ess - 2 slots with an inessential merged slot, and a pair
    that keeps ess - 1 may come later, with a merged slot that differs at
    digit k - 1 only.  Or a random table."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(2, {2: 8, 3: 5, 4: 4}[k]))
    b = draw(st.integers(2, 3))
    if draw(st.integers(0, 4)) == 0:
        return FiniteFunction(k, n, b, draw(tables(k, n, b)))
    parity_slots = sorted(draw(st.sets(st.integers(1, n), min_size=2) | st.just(range(1, n + 1))))
    pair = st.sets(st.integers(1, n), min_size=2, max_size=2).map(sorted)
    term_slots = tuple(draw(pair | st.just((n - 1, n))))
    hits = draw(st.sets(st.integers(0, k * k - 1), max_size=2) | st.just({k * k - 1}))
    p = [0, 1] + draw(st.lists(st.integers(0, 1), min_size=k - 2, max_size=k - 2))
    h = draw(st.permutations(range(b)))[:2]
    term = [int(x in hits) for x in range(k * k)]
    return parity_with_term(k, n, b, parity_slots, term_slots, term, draw(st.permutations(p)), h)


# x1 + x2 + x3 x4 + parity(x5..x12): pair (1, 2) keeps 10 of 12 slots, and
# (1, 3) is the least pair keeping 11.
X3_AND_X4 = parity_with_term(2, 12, 2, [1, 2, *range(5, 13)], (3, 4), [0, 0, 0, 1])
# The same at k = 3: the term [x4 = x5 = 2] leaves the merged slot of every
# pair holding slot 4 or 5 equal at digits 0 and 1, and pair (1, 4) is the
# least keeping 4 of 5.
DIGIT_TWO = parity_with_term(3, 5, 2, range(1, 6), (4, 5), [0] * 8 + [1])


def check_pruned_scan(t):
    # The pruned scan gives the full pair loop's report on the tuple table
    # and on its packed twin, through arity_gap and through _pair_scan.
    for f in (t, parse(render(t))):
        same_as_pair_loop(f)
        try:
            r = arity_gap(f)
        except GapUndefinedError:
            continue
        _, slots, essl, pair = aritygap.gap._pair_scan(f)
        assert (slots, essl, pair) == (r.essential, r.essl, r.pair)


PRUNED_SCAN = settings(derandomize=True, max_examples=300, deadline=None, report_multiple_bugs=False)


@PRUNED_SCAN
@given(pruned_scan_tables())
@example(X3_AND_X4)
@example(DIGIT_TWO)
@example(parity(3, 6))
def test_pruned_pair_scan_is_the_pair_loop(t):
    check_pruned_scan(t)


@pytest.mark.parametrize(
    "f, sectioned, pruned",
    [(X3_AND_X4, [(1, 2), (1, 3)], []), (DIGIT_TWO, [(1, 2), (1, 4)], [(1, 3)])],
    ids=["x3-and-x4", "digit-two"],
)
def test_pruned_scan_sections_a_late_winner(monkeypatch, f, sectioned, pruned):
    # Pair (1, 2) keeps ess - 2 slots; a later pair with an essential merged
    # slot is still sectioned, and the first that keeps ess - 1 wins.
    calls = counted_identifications(monkeypatch)
    skipped = counted_prunes(monkeypatch)
    r = arity_gap(f)
    assert (calls, skipped) == (sectioned, pruned)
    assert (r.gap, r.pair) == (1, sectioned[-1])


def patched(monkeypatch, name, old, new):
    # A twin of gap.<name> with one line of its source changed.
    source = inspect.getsource(getattr(aritygap.gap, name))
    assert source.count(old) == 1
    scope = dict(vars(aritygap.gap))
    exec(source.replace(old, new), scope)
    monkeypatch.setattr(aritygap.gap, name, scope[name])


@pytest.mark.parametrize(
    "name,old,new",
    [
        # compares digit 1 with digit 0 only, which misses a k >= 3 merged
        # slot that differs at digit 2 (DIGIT_TWO)
        ("_merged_is_inessential", "for x in range(wt, k * wt, wt)", "for x in (wt,)"),
        # prunes once the best keeps ess - 3 too, which the generated tables
        # show at ess = 2, where the initial best -1 is ess - 3 (x1 + x2)
        ("_pair_scan", "if best == ess - 2 and", "if best in (ess - 2, ess - 3) and"),
    ],
    ids=["digit-1-only", "prune-at-ess-3"],
)
def test_pruned_scan_check_fails_a_faulty_prune(monkeypatch, name, old, new):
    patched(monkeypatch, name, old, new)

    @settings(PRUNED_SCAN, phases=[Phase.generate])
    @given(pruned_scan_tables())
    def check(t):
        check_pruned_scan(t)

    with pytest.raises(AssertionError):
        check()
