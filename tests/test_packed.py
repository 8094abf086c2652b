"""A parsed table keeps its bytes beside the tuple; both forms give the same
answers in every layer.

`parse_stream` reads text in `render`'s layout (a header line, then one row of
single digits below b, one space apart) line by line as bytes, and keeps each
row's values as `FiniteFunction._packed`; the essential-slot scan and the
section builder then compare bytes instead of tuples of ints.  Each example
is a parsed (packed) function and its constructed (tuple) twin, run through
the same layers; essential slots are also checked against a scan of every
fiber of every slot.  Tables of 4,096 entries and more may differ in one
entry of the last slice of a slot's run, the only place that makes the slot
essential.  Runs are derandomized, so the suite stays deterministic.

A parsed table's tuple is built only when something reads `table`: each
public layer gets a fresh parse and must leave the `table` slot unbuilt.
"""

import copy
import inspect
import itertools
import pickle
from dataclasses import asdict, replace

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from aritygap import (
    ArityGapError,
    FiniteFunction,
    GapUndefinedError,
    anf,
    arity_gap,
    classify,
    classify_boolean,
    classify_pseudo_boolean,
    diagonal,
    essential_arity,
    essential_slots,
    function_by_id,
    gen_salomaa,
    is_determined_by_oddsupp,
    is_restriction_determined_by_oddsupp,
    oracle_gap,
    parse,
    quasi_arity,
    render,
    restrict_to_essential,
    support_extension,
    ternary_pattern,
    unique_unary_support,
)
from aritygap import analysis, gap, minors
from aritygap.oracle import functions_in_order, sampled_function
from aritygap.analysis import _essential_ids
from aritygap.gap import _pair_scan, _section

SMALL = ((2, 5), (3, 3), (3, 4), (4, 4))
LARGE = ((2, 12), (3, 8), (4, 6))
SCAN = tuple((2, n) for n in range(2, 7)) + ((3, 2), (3, 3), (3, 4), (4, 3))
RUN = 64  # entries in a run's probe; the rest of the run is one more slice
EXAMPLES = settings(derandomize=True, max_examples=30, deadline=None, report_multiple_bugs=False)


def last_slice(k, n, slot):
    """The indices with digit 0 at slot that fall in the last slice of their
    run: a run pairs digit 0 with digit d inside a block of k*s entries or
    along a residue mod k*s, whichever is longer, and is cut into a probe of
    its first RUN entries and one slice for the rest."""
    s = k ** (n - slot)
    width = k * s
    run = max(s, k**n // width)
    step = 1 if run == s else width
    leads = range(0, k**n, width) if step == 1 else range(s)
    return [lead + p * step for lead in leads for p in range(RUN if run > RUN else 0, run)]


def reference_ids(f, on_repeat=False):
    """The slots on some fiber of which f takes two values (both points with a
    repeated coordinate when on_repeat; every unary point counts as one)."""
    k, n = f.k, f.n
    keep = [
        not on_repeat or n == 1 or len(set(t)) < n for t in itertools.product(range(k), repeat=n)
    ]
    out = []
    for slot in range(1, n + 1):
        s = k ** (n - slot)
        fibers = {}
        for idx, v in enumerate(f.table):
            if keep[idx]:
                fibers.setdefault(idx - idx // s % k * s, set()).add(v)
        if any(len(values) > 1 for values in fibers.values()):
            out.append(slot)
    return tuple(out)


@st.composite
def tables(draw, shapes):
    """A table over a drawn shape that depends on at most 3 random slots or
    on all of them, as a random table of those slots or as their sum mod b,
    with one entry in the last slice of a run of some other slot changed or
    not."""
    k, n = draw(st.sampled_from(shapes))
    b = draw(st.sampled_from((2, 3, 10)))
    slots = sorted(draw(st.sets(st.integers(1, n), max_size=3) | st.just(range(1, n + 1))))
    if draw(st.booleans()):
        size = k ** len(slots)
        core = draw(st.lists(st.integers(0, b - 1), min_size=size, max_size=size))
    else:
        core = [sum(t) % b for t in itertools.product(range(k), repeat=len(slots))]
    table = []
    for t in itertools.product(range(k), repeat=n):
        pos = 0
        for s in slots:
            pos = pos * k + t[s - 1]
        table.append(core[pos])
    free = [s for s in range(1, n + 1) if s not in slots]
    if k**n >= 4096 and free and draw(st.booleans()):
        slot = draw(st.sampled_from(free))
        idx = draw(st.sampled_from(last_slice(k, n, slot)))
        idx += draw(st.integers(1, k - 1)) * k ** (n - slot)  # its partner with digit d
        table[idx] = (table[idx] + draw(st.integers(1, b - 1))) % b
    return FiniteFunction(k, n, b, tuple(table))


def outcome(layer, f):
    try:
        return layer(f)
    except GapUndefinedError as exc:
        return type(exc), str(exc)


def check_twins(t):
    k, n = t.k, t.n
    p = parse(render(t))
    assert p._packed == bytes(t.table) and t._packed is None
    assert type(p.table) is tuple and type(t.table) is tuple
    assert p == t and hash(p) == hash(t) and repr(p) == repr(t)
    assert pickle.loads(pickle.dumps(p)) == t and pickle.loads(pickle.dumps(t)) == p
    for on_repeat in (False, True):
        ids = reference_ids(t, on_repeat)
        assert _essential_ids(k, n, p._packed, on_repeat) == ids
        assert _essential_ids(k, n, t.table, on_repeat) == ids
    for i, j in itertools.permutations(range(1, n + 1), 2):
        assert list(_section(k, n, i, j, p._packed)) == _section(k, n, i, j, t.table)
    assert restrict_to_essential(p) == restrict_to_essential(t)
    assert quasi_arity(p) == quasi_arity(t)
    assert outcome(arity_gap, p) == outcome(arity_gap, t)
    assert outcome(classify, p) == outcome(classify, t)


@EXAMPLES
@given(tables(SMALL))
def test_packed_and_tuple_twins_agree_on_small_tables(t):
    check_twins(t)


@EXAMPLES
@given(tables(LARGE))
def test_packed_and_tuple_twins_agree_on_large_tables(t):
    check_twins(t)


def test_twin_check_fails_a_plan_without_its_last_slice(monkeypatch):
    # A twin of _plan whose runs keep their probe and drop the rest.
    source = inspect.getsource(analysis._plan)
    assert source.count("(lead, cut), (cut, end)") == 1
    scope = dict(vars(analysis))
    exec(source.replace("(lead, cut), (cut, end)", "((lead, cut),)"), scope)
    monkeypatch.setattr(analysis, "_plan", scope["_plan"])

    @settings(EXAMPLES, phases=[Phase.generate])
    @given(tables(LARGE))
    def check(t):
        check_twins(t)

    with pytest.raises(AssertionError):
        check()


def test_plan_holds_a_probe_and_a_remainder_per_run():
    # A probe and one head for the rest of each run hold (2,18) to a few
    # thousand heads (2,044); fixed 64-entry slices took 36,864.
    assert sum(len(heads) for _, heads in analysis._plan(2, 18, False)) <= 4096


@settings(derandomize=True, max_examples=100, deadline=None, report_multiple_bugs=False)
@given(tables(SCAN))
@example(gen_salomaa(3))  # gap 3
@example(gen_salomaa(4))  # gap 4
def test_pair_scan_agrees_with_arity_gap_and_oracle_gap(t):
    # The gap-only scan gives arity_gap's slots, essl and pair on both forms,
    # and its gap is the one the definitional oracle finds.
    for f in (t, parse(render(t))):
        try:
            r = arity_gap(f)
        except GapUndefinedError:
            assert outcome(_pair_scan, f) == outcome(oracle_gap, f) == outcome(arity_gap, f)
            continue
        _, slots, essl, pair = _pair_scan(f)
        assert (slots, essl, pair) == (r.essential, r.essl, r.pair)
        assert len(slots) - essl == oracle_gap(f)


TABLE_SLOT = vars(FiniteFunction)["table"]  # the slot itself, past any property


def last_entry(f):
    return f(*(f.k - 1,) * f.n)


LAYERS = (
    arity_gap,
    classify,
    is_determined_by_oddsupp,
    is_restriction_determined_by_oddsupp,
    classify_boolean,
    classify_pseudo_boolean,
    quasi_arity,
    essential_arity,
    essential_slots,
    restrict_to_essential,
    unique_unary_support,
    support_extension,
    ternary_pattern,
    diagonal,
    anf,
    render,
    last_entry,
    FiniteFunction.is_constant,
)


def unbuilt(f):
    return TABLE_SLOT.__get__(f) is None


def answer(layer, f):
    try:
        return layer(f)
    except (ArityGapError, ValueError) as exc:
        return type(exc), str(exc)


def check_unbuilt(t):
    # Each layer runs on a fresh parse of t, which it must leave unbuilt, and
    # then answers as on t.
    text = render(t)
    for layer in LAYERS:
        p = parse(text)
        assert unbuilt(p)
        got = answer(layer, p)
        assert unbuilt(p), layer.__name__
        assert got == answer(layer, t), layer.__name__


@EXAMPLES
@given(tables(SCAN))
@example(FiniteFunction(2, 3, 3, (2, 0, 0, 2, 0, 2, 2, 0)))  # the pseudo-Boolean relabel
@example(gen_salomaa(3))  # a ternary pattern
def test_parsed_tables_stay_unbuilt_through_every_layer(t):
    check_unbuilt(t)


def test_unbuilt_check_fails_a_substitute_that_reads_the_table(monkeypatch):
    # A twin of minors._substitute that gathers from the tuple.
    source = inspect.getsource(minors._substitute)
    assert source.count("_values(g)") == 1
    scope = dict(vars(minors))
    exec(source.replace("_values(g)", "g.table"), scope)
    for module in (minors, analysis, gap):
        monkeypatch.setattr(module, "_substitute", scope["_substitute"])

    @settings(EXAMPLES, phases=[Phase.generate])
    @given(tables(SCAN))
    def check(t):
        check_unbuilt(t)

    with pytest.raises(AssertionError):
        check()


@EXAMPLES
@given(tables(SMALL))
def test_unbuilt_tables_compare_hash_print_and_copy_as_constructed(t):
    text = render(t)
    assert parse(text) == t and t == parse(text)
    assert not parse(text) != t and not t != parse(text)
    other = FiniteFunction(t.k, t.n, t.b, ((t.table[0] + 1) % t.b, *t.table[1:]))
    assert parse(text) != other and other != parse(text) and parse(text) != text
    assert hash(parse(text)) == hash(t) and repr(parse(text)) == repr(t)
    assert {t: 1}[parse(text)] == 1 and {parse(text): 1}[t] == 1
    loaded = pickle.loads(pickle.dumps(parse(text)))
    assert type(loaded) is FiniteFunction and loaded == t
    assert loaded._packed == bytes(t.table)
    for clone in (copy.copy(parse(text)), copy.deepcopy(parse(text))):
        assert type(clone) is FiniteFunction and clone == t
    assert replace(parse(text), b=t.b + 1) == replace(t, b=t.b + 1)
    assert asdict(parse(text)) == {**asdict(t), "_packed": bytes(t.table)}


def test_only_the_line_path_makes_unbuilt_tables():
    assert {"__getattr__", "__getattribute__"}.isdisjoint(vars(FiniteFunction))
    assert type(TABLE_SLOT) is not property
    made = (
        FiniteFunction(2, 2, 2, (0, 1, 1, 0)),
        FiniteFunction._valid(2, 2, 2, (0, 1, 1, 0)),
        function_by_id(2, 2, 2, 6),
        next(functions_in_order(2, 2, 2, 6, 7)),
        sampled_function(2, 3, 2, 0, 5),
        parse("2 2 2;0 1 1 0"),
    )
    assert all(type(f) is FiniteFunction for f in made)
    assert unbuilt(parse("2 2 2\n0 1 1 0\n"))


@pytest.mark.parametrize(
    "replace_",
    [
        replace,
        pytest.param(
            getattr(copy, "replace", None),
            marks=pytest.mark.skipif(not hasattr(copy, "replace"), reason="Python 3.13+"),
        ),
    ],
    ids=["dataclasses.replace", "copy.replace"],
)
def test_replace_on_a_parsed_table_gives_a_plain_validated_function(replace_):
    changed = replace_(parse("2 2 2\n0 1 1 0\n"), b=3)
    assert type(changed) is FiniteFunction and changed == FiniteFunction(2, 2, 3, (0, 1, 1, 0))
    with pytest.raises(ValueError, match="^table entry 2 at index 1 not in 0..1$"):
        replace_(parse("2 1 3\n0 2\n"), b=2)
