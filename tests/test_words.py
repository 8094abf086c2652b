"""Slots whose probe finds no difference, confirmed in machine words.

On the full domain, `_essential_ids` reads a packed k = 2 table through 2-,
4- or 8-byte memoryviews, and so does `gap._merged_is_inessential` where its
slices are strided.  On the repeat set of a shape with 2 <= n <= k, every
table is read as one big int with a byte lane per entry.  Both are checked
against walks of every fiber (`tests/test_packed.py::reference_ids`) and of
every index pair, on tables that leave the probe nothing to find: constant,
parity and padded ones, and near-constant ones with one entry changed in the
last word of a run.  Twins with one fault each must fail those checks.
"""

import functools
import inspect
import itertools
import random
import subprocess
import sys

import pytest
from hypothesis import Phase, given, settings, strategies as st

from aritygap import FiniteFunction, constant, parse, render
from aritygap import analysis, gap
from aritygap.analysis import _essential_ids
from aritygap.oracle import gen_quasi_m_ary
from test_packed import reference_ids

WORDS = settings(derandomize=True, max_examples=60, deadline=None, report_multiple_bugs=False)


def merged_reference(f, i, j):
    """Whether f takes one value along the common digit of slots i and j:
    the pair loop over every index with both digits 0."""
    k, n, table = f.k, f.n, f.table
    si, sj = k ** (n - i), k ** (n - j)
    return all(
        table[a] == table[a + d * (si + sj)]
        for a in range(k**n)
        if a // si % k == a // sj % k == 0
        for d in range(1, k)
    )


@st.composite
def word_tables(draw):
    """A (2,n) table, 4 <= n <= 16: constant, a parity of some slots, or a
    random table of at most 3 slots; then maybe one entry changed in the
    last 8 entries, the last word of the last run of each slot and of each
    strided section slice, or anywhere.  A near-constant table is a
    constant one with such a change in its last 8 entries."""
    n = draw(st.sampled_from(range(4, 17)))
    kind = draw(st.sampled_from(("near-constant", "constant", "parity", "padded")))
    slots = sorted(draw(st.sets(st.integers(1, n), min_size=1, max_size=3)))
    core = draw(st.lists(st.integers(0, 2), min_size=2 ** len(slots), max_size=2 ** len(slots)))
    table = []
    for t in itertools.product(range(2), repeat=n):
        if kind.endswith("constant"):
            table.append(core[0])
        elif kind == "parity":
            table.append(sum(t[s - 1] for s in slots) % 2)
        else:
            table.append(core[int("".join(str(t[s - 1]) for s in slots), 2)])
    where = "last word" if kind == "near-constant" else draw(st.sampled_from(("none", "last word", "anywhere")))
    if where != "none":
        idx = 2**n - 1 - draw(st.integers(0, 7)) if where == "last word" else draw(st.integers(0, 2**n - 1))
        table[idx] = (table[idx] + draw(st.integers(1, 2))) % 3
    return FiniteFunction(2, n, 3, tuple(table))


def check_words(f, pairs):
    p = parse(render(f))
    assert p._packed == bytes(f.table)
    ids = reference_ids(f)
    assert _essential_ids(2, f.n, p._packed) == ids
    assert _essential_ids(2, f.n, f.table) == ids
    for i, j in pairs:
        want = merged_reference(f, i, j)
        assert gap._merged_is_inessential(2, f.n, i, j, p._packed) == want, (i, j)
        assert gap._merged_is_inessential(2, f.n, i, j, f.table) == want, (i, j)


@st.composite
def words_and_pairs(draw):
    f = draw(word_tables())
    pairs = list(itertools.combinations(range(1, f.n + 1), 2))
    return f, draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=8, unique=True))


@WORDS
@given(words_and_pairs())
def test_word_views_are_the_fiber_walk_and_the_pair_loop(case):
    check_words(*case)


@pytest.mark.parametrize("n", [11, 14, 16])
def test_word_views_see_a_change_in_the_last_entry(n):
    # A constant table with its last entry changed: every slot is essential,
    # and every pair's merged slot too, most of them only through the last
    # word of a run or of a slice (pairs checked up to n = 14).
    table = [1] * 2**n
    table[-1] = 2
    f = FiniteFunction(2, n, 3, tuple(table))
    assert reference_ids(f) == tuple(range(1, n + 1))
    check_words(f, itertools.combinations(range(1, n + 1), 2) if n <= 14 else ())


def twin(monkeypatch, module, name, old, new):
    # A twin of module.<name> with one line of its source changed.
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1
    scope = dict(vars(module))
    exec(source.replace(old, new), scope)
    monkeypatch.setattr(module, name, scope[name])


@pytest.mark.parametrize(
    "module, name, old, new",
    [
        (
            analysis,
            "_inessential",
            "_plan(2, n - e, False)[slot - 1][1]",
            "tuple((a, b, span and span - step, step) for a, b, span, step in _plan(2, n - e, False)[slot - 1][1])",
        ),
        (gap, "_merged_is_inessential", "span >> e, step >> e", "(span >> e) - (step >> e), step >> e"),
    ],
    ids=["essential-ids", "merged-slot"],
)
def test_word_check_fails_a_confirmation_one_word_short(monkeypatch, module, name, old, new):
    twin(monkeypatch, module, name, old, new)

    @settings(WORDS, phases=[Phase.generate])
    @given(words_and_pairs())
    def check(case):
        check_words(*case)

    with pytest.raises(AssertionError):
        check()


REPEAT_SHAPES = ((4, 4), (5, 5), (6, 6), (7, 7))


@functools.lru_cache(maxsize=None)
def repeat_set(k, n):
    """1 at each index whose tuple has a repeated coordinate, else 0."""
    return bytes(len(set(t)) < n for t in itertools.product(range(k), repeat=n))


def repeat_tables(k, n, seed):
    """The constant table and a quasi-m-ary one for every m, each as it is
    and with one entry of the repeat set changed."""
    rng = random.Random(seed)
    repeat = [a for a, kept in enumerate(repeat_set(k, n)) if kept]
    for table in [constant(k, n, 2, 1).table] + [
        gen_quasi_m_ary(k, n, 2, m, rng.getrandbits(32)).table for m in range(n + 1)
    ]:
        yield FiniteFunction(k, n, 2, table)
        changed = list(table)
        changed[rng.choice(repeat)] ^= 1
        yield FiniteFunction(k, n, 2, tuple(changed))


def repeat_reference(f):
    """reference_ids(f, on_repeat=True), one fiber at a time."""
    k, n, table = f.k, f.n, f.table
    keep = repeat_set(k, n)
    out = []
    for slot in range(1, n + 1):
        s = k ** (n - slot)
        for a in (q + r for q in range(0, k**n, k * s) for r in range(s)):
            fiber = zip(table[a : a + k * s : s], keep[a : a + k * s : s])
            if len({v for v, kept in fiber if kept}) > 1:
                out.append(slot)
                break
    return tuple(out)


def check_lanes(shapes):
    for k, n in shapes:
        for f in repeat_tables(k, n, k):
            ids = repeat_reference(f)
            assert _essential_ids(k, n, bytes(f.table), True) == ids, (k, n)
            assert _essential_ids(k, n, f.table, True) == ids, (k, n)
            if k < 7:  # entries above 255 give one lane int per byte of them
                wide = tuple(v * 257 + 300 for v in f.table)
                assert _essential_ids(k, n, wide, True) == ids, (k, n)


def test_repeat_lanes_are_the_fiber_walk():
    check_lanes(REPEAT_SHAPES)


def test_repeat_reference_is_reference_ids():
    for k, n in REPEAT_SHAPES[:3]:
        for f in repeat_tables(k, n, k):
            assert repeat_reference(f) == reference_ids(f, on_repeat=True)


def test_lane_check_fails_lanes_without_the_partners_repeat_flags(monkeypatch):
    # Without R >> 8*d*s a repeat-set entry is compared with a partner
    # outside the repeat set, where quasi-m-ary tables are random.
    twin(monkeypatch, analysis, "_plan", "& r & r >> 8 * d * s", "& r")
    with pytest.raises(AssertionError):
        check_lanes(REPEAT_SHAPES[:3])


def test_repeat_plan_holds_a_probe_and_lanes_per_slot():
    # The (7,7) plan once listed every pair of its fibers (about 640 MiB);
    # now each slot holds at most _RUN_CAP probe pairs and k - 1 lanes.
    for (slot, probe), lanes in analysis._plan(7, 7, True):
        assert len(probe) <= 64
        assert len(lanes) == 6 and all(isinstance(x, int) for x in lanes)


def test_quasi_arity_of_a_constant_7x7_table_stays_under_64_mib():
    # The lanes of the (7,7) plan take about 35 MB; ru_maxrss is in KiB on
    # Linux and in bytes on macOS.  The measuring interpreter is started
    # from a small one, since ru_maxrss carries over exec.
    script = (
        "import resource, sys\n"
        "from aritygap import constant, quasi_arity\n"
        "f = constant(7, 7, 2, 1)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "q = quasi_arity(f)\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(q, (after - before) * (1 if sys.platform == 'darwin' else 1024))\n"
    )
    launcher = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    done = subprocess.run(
        [sys.executable, "-c", launcher, sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.stderr == ""
    q, grown = map(int, done.stdout.split())
    assert q == 0
    assert grown <= 64 * 2**20
