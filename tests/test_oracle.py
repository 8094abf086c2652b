import hashlib
import importlib
import itertools
import pkgutil
import random
import resource
import subprocess
import sys
from dataclasses import replace
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

import aritygap
import aritygap.gap

from aritygap import (
    FiniteFunction,
    GapUndefinedError,
    MinorMap,
    OracleInfeasibleError,
    SweepSpec,
    THEOREMS,
    UnsupportedCodomainError,
    arity_gap,
    diagonal,
    essential_slots,
    from_function,
    function_by_id,
    gen_essentially_m_ary,
    gen_oddsupp_determined,
    gen_quasi_m_ary,
    gen_salomaa,
    gen_semiprojection,
    gen_ternary_pattern,
    identification_minor,
    is_restriction_totally_symmetric,
    oracle_gap,
    oracle_quasi_arity,
    parse,
    quasi_arity,
    render,
    render_report,
    simple_minor,
    verify,
)
from aritygap import oracle
from aritygap.cli import main
from aritygap.oracle import (
    TheoremCheck,
    _essential_count,
    _sampled_table,
    constructed_witnesses,
    function_count,
    functions_in_order,
    sampled_function,
)

XOR2 = FiniteFunction(2, 2, 2, (0, 1, 1, 0))
AND2 = FiniteFunction(2, 2, 2, (0, 0, 0, 1))
MAJ3 = FiniteFunction(2, 3, 2, (0, 0, 0, 1, 0, 1, 1, 1))


def all_functions(k, n, b):
    for table in itertools.product(range(b), repeat=k**n):
        yield FiniteFunction(k, n, b, table)


def random_function(rng, k, n, b):
    return FiniteFunction(k, n, b, tuple(rng.randrange(b) for _ in range(k**n)))


# Reference sweep over literally every substitution map into every target arity,
# to certify that oracle_gap may look at identification minors only.
def full_sigma_essl(f):
    ess = len(essential_slots(f))
    best = -1
    for target in range(1, f.n + 1):
        for sigma in itertools.product(range(1, target + 1), repeat=f.n):
            m = simple_minor(f, MinorMap(f.n, target, sigma))
            e = len(essential_slots(m))
            if best < e < ess:
                best = e
    return best


def test_oracle_gap_examples():
    assert oracle_gap(XOR2) == 2
    assert oracle_gap(AND2) == 1
    assert oracle_gap(MAJ3) == 2
    with pytest.raises(GapUndefinedError):
        oracle_gap(FiniteFunction(2, 2, 2, (0, 0, 1, 1)))


@pytest.mark.parametrize("seed", range(12))
def test_oracle_gap_matches_full_sigma_sweep(seed):
    rng = random.Random(seed)
    k = rng.randint(2, 3)
    n = rng.randint(2, 3)
    b = rng.randint(2, 3)
    f = random_function(rng, k, n, b)
    if len(essential_slots(f)) < 2:
        return
    assert oracle_gap(f) == len(essential_slots(f)) - full_sigma_essl(f)


@pytest.mark.parametrize("k,n,b", [(2, 4, 2), (3, 3, 2), (2, 5, 2)])
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_oracle_gap_matches_full_sigma_sweep_with_inessential_slots(k, n, b, m, seed):
    # The oracle identifies only pairs of the m essential slots; the reference
    # still tries every map of all n slots.
    f = gen_essentially_m_ary(k, n, b, m, seed)
    assert oracle_gap(f) == m - full_sigma_essl(f)


def set_partitions(n):
    """Every partition of range(n), given for each element as the least
    member of its block; each element joins an earlier block or opens one."""
    labels = [()]
    for _ in range(n):
        labels = [a + (c,) for a in labels for c in range(max(a, default=-1) + 2)]
    return [tuple(a.index(c) for c in a) for a in labels]


def eval_essentials(f):
    # Slots with two inputs that differ only there and get different values,
    # found through FiniteFunction.eval alone.  If two such inputs exist, one
    # of them disagrees with the input that has 0 at the slot.
    value = {t: f.eval(t) for t in itertools.product(range(f.k), repeat=f.n)}
    return {
        slot
        for slot in range(f.n)
        if any(
            value[t] != value[t[:slot] + (v,) + t[slot + 1 :]]
            for t in value
            if t[slot] == 0
            for v in range(1, f.k)
        )
    }


def strict_partition_gap(f):
    """ess f minus the most essential slots of a minor that feeds two
    essential slots of f from one slot, over every partition of the slots."""
    points = list(itertools.product(range(f.k), repeat=f.n))
    essential = eval_essentials(f)
    kept = []
    for lead in set_partitions(f.n):
        if len({lead[s] for s in essential}) < len(essential):
            table = tuple(f.eval(tuple(t[l] for l in lead)) for t in points)
            kept.append(len(eval_essentials(FiniteFunction(f.k, f.n, f.b, table))))
    return len(essential) - max(kept)


def strict_partition_gap_cases():
    for k, n, b in [(2, 3, 2), (3, 2, 3), (2, 3, 3)]:
        yield from all_functions(k, n, b)
    for k, n, b, samples in [(2, 4, 2, 200), (3, 4, 2, 100)]:
        yield from (sampled_function(k, n, b, 5, i) for i in range(samples))
    yield from (gen_salomaa(k) for k in range(3, 6))
    for k, n in [(3, 3), (4, 4)]:
        yield from (gen_quasi_m_ary(k, n, 2, m, seed) for m in range(n + 1) for seed in range(2))


def test_oracle_gap_is_the_least_drop_over_strict_partition_minors():
    # oracle_gap scans only the minors that identify two essential slots;
    # every other minor that merges essential slots must keep no more.
    seen = 0
    for f in strict_partition_gap_cases():
        if len(eval_essentials(f)) >= 2:
            assert oracle_gap(f) == strict_partition_gap(f), f.table
            seen += 1
    assert seen > 20000


def test_oracle_gap_checks_only_the_slots_that_can_stay_essential(monkeypatch):
    # Over the exhaustive (2,4,2) T5.1 inputs, oracle_gap checks the n slots
    # of f and, in each identification minor it reads, f's essential slots
    # other than the fed one: 491,214 calls.  Checking every slot of each
    # minor made 569,480, 78,266 of them on slots that cannot be essential.
    calls = []
    real = oracle._is_essential
    monkeypatch.setattr(oracle, "_is_essential", lambda *args: calls.append(args) or real(*args))
    report = verify(SweepSpec("T5.1", 2, 4, 2, "exhaustive"))
    assert (report.checked, report.failures) == (65536, ())
    assert len(calls) == 491214


@pytest.mark.parametrize("k,n,b", [(2, 2, 2), (2, 3, 2), (3, 2, 2)])
def test_oracle_gap_agrees_with_arity_gap_exhaustive(k, n, b):
    for f in all_functions(k, n, b):
        if len(essential_slots(f)) < 2:
            continue
        assert oracle_gap(f) == arity_gap(f).gap


GAP_SHAPES = [(3, 4, 2), (3, 5, 2), (4, 4, 3), (5, 5, 2), (3, 3, 3), (4, 5, 2)]


def gap_battery(k, n, b):
    """gen_quasi_m_ary for every m the shape allows, gen_oddsupp_determined
    (n >= 4), three seeds each, the parity table and, at n = k = b,
    gen_salomaa."""
    ms = range(n + 1) if n <= k else [n]
    fs = [gen_quasi_m_ary(k, n, b, m, seed) for m in ms for seed in range(3)]
    if n >= 4:
        fs += [gen_oddsupp_determined(k, n, b, seed) for seed in range(3)]
    fs.append(FiniteFunction(k, n, b, tuple(sum(t) % 2 for t in itertools.product(range(k), repeat=n))))
    if n == k == b:
        fs.append(gen_salomaa(k))
    return fs


def gaps_against_the_oracle():
    return [(arity_gap(f).gap, oracle_gap(f)) for shape in GAP_SHAPES for f in gap_battery(*shape)]


def test_arity_gap_agrees_with_oracle_gap_beyond_two_element_domains():
    pairs = gaps_against_the_oracle()
    assert len(pairs) == 76
    assert all(fast == slow for fast, slow in pairs)
    assert {slow for _, slow in pairs} == {1, 2, 3, 4, 5}


def test_oracle_gap_catches_a_section_that_reads_one_entry_early(monkeypatch):
    # arity_gap's sections read every entry of f's table one place early
    # (the first from the end); oracle_gap gathers its own minors, so the
    # two must disagree.
    real = aritygap.gap._section

    def faulty(k, n, i, j, table):
        return real(k, n, i, j, table[-1:] + table[:-1])

    monkeypatch.setattr(aritygap.gap, "_section", faulty)
    assert any(fast != slow for fast, slow in gaps_against_the_oracle())


# Reference: the least essential arity over every completion of f's values
# on the repeat set, enumerated entry by entry.
def completion_min_essl(f):
    free = [idx for idx, t in enumerate(f.tuples()) if f.n > 1 and len(set(t)) == f.n]
    table = list(f.table)
    best = f.n
    for values in itertools.product(range(f.b), repeat=len(free)):
        for pos, v in zip(free, values):
            table[pos] = v
        best = min(best, len(essential_slots(FiniteFunction(f.k, f.n, f.b, tuple(table)))))
    return best


@st.composite
def small_functions(draw):
    """A table of at most 243 entries that depends on a drawn set of slots,
    constant when the set is empty, with one entry changed or not."""
    k = draw(st.integers(2, 6))
    n = draw(st.integers(1, max(m for m in range(1, 9) if k**m <= 243)))
    b = draw(st.integers(2, 3))
    slots = sorted(draw(st.sets(st.integers(0, n - 1))))
    core = draw(st.lists(st.integers(0, b - 1), min_size=k ** len(slots), max_size=k ** len(slots)))
    table = []
    for t in itertools.product(range(k), repeat=n):
        pos = 0
        for s in slots:
            pos = pos * k + t[s]
        table.append(core[pos])
    if draw(st.booleans()):
        idx = draw(st.integers(0, k**n - 1))
        table[idx] = (table[idx] + draw(st.integers(1, b - 1))) % b
    return FiniteFunction(k, n, b, tuple(table))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(f=small_functions())
def test_oracle_essential_count_is_the_definition(f):
    assert _essential_count(f.k, f.n, f.table) == len(eval_essentials(f))


@pytest.mark.parametrize("k,n,b", [(3, 2, 2), (2, 3, 2)])
def test_oracle_quasi_arity_matches_completion_enumeration(k, n, b):
    for f in all_functions(k, n, b):
        assert oracle_quasi_arity(f) == completion_min_essl(f)


def test_oracle_quasi_arity_matches_completion_enumeration_sampled():
    for i in range(200):
        f = sampled_function(3, 3, 2, 13, i)
        assert oracle_quasi_arity(f) == completion_min_essl(f)


def test_oracles_catch_a_kernel_that_drops_the_last_slot(monkeypatch):
    # Every module's binding of the fast kernel misses the last slot; the
    # oracles decide essentiality on their own, so the sweeps that compare
    # against them must report failures.
    real = aritygap.analysis._essential_ids

    def faulty(k, n, table, on_repeat=False):
        return tuple(s for s in real(k, n, table, on_repeat) if s != n)

    for info in pkgutil.iter_modules(aritygap.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"aritygap.{info.name}")
        if hasattr(module, "_essential_ids"):
            monkeypatch.setattr(module, "_essential_ids", faulty)
    assert verify(SweepSpec("T5.1", 2, 3, 2, "exhaustive")).failures
    assert verify(SweepSpec("L3.4", 3, 3, 2, "sampled", samples=300, seed=0)).failures


def test_oracle_gap_builds_its_own_partition_minors(monkeypatch):
    # minors' index map sends the last entry of every minor to the first.
    # oracle_gap gathers its identification minors through maps of its own,
    # so none of its answers moves, while the classifier it checks goes
    # through minors and the T5.1 sweep reports failures.
    def answers():
        out = []
        for f in functions_in_order(2, 3, 2, 0, 256):
            try:
                out.append(oracle_gap(f))
            except GapUndefinedError:
                out.append(None)
        return out

    real = aritygap.minors._sigma_gather

    def faulty(k, m, n, sigma):
        index = list(real(k, m, n, sigma)(range(k**m)))
        index[-1] = index[0]
        return itemgetter(*index)

    before = answers()
    assert not verify(SweepSpec("T5.1", 2, 3, 2, "exhaustive")).failures
    monkeypatch.setattr(aritygap.minors, "_sigma_gather", faulty)
    assert answers() == before
    assert verify(SweepSpec("T5.1", 2, 3, 2, "exhaustive")).failures


def _limited_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_oracle_gap_on_a_wide_random_table_fits_in_memory():
    # A random (2,13) table has a minor that keeps ess - 1 slots among its
    # first pairs of slots; the scan returns there, within the child's 1 GiB.
    script = (
        "import random\n"
        "from aritygap import FiniteFunction, oracle_gap\n"
        "rng = random.Random(13)\n"
        "print(oracle_gap(FiniteFunction(2, 13, 2, tuple(rng.randrange(2) for _ in range(2**13)))))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limited_address_space,
    )
    assert done.stderr == ""
    assert done.stdout == "1\n"


def test_verify_t51_at_arity_13_finishes_in_memory():
    # The (2,13,2) witness battery holds an essentially binary table whose
    # strict minors are all constant; the oracle scans the one pair of its
    # two essential slots, not every pair of the 13 slots.
    argv = ["verify", "--theorem", "T5.1", "--k", "2", "--n", "13", "--b", "2", "--samples", "1"]
    done = subprocess.run(
        [sys.executable, "-m", "aritygap", *argv],
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=_limited_address_space,
    )
    assert done.stderr == ""
    assert done.returncode == 0
    assert done.stdout == "theorem=T5.1 checked=6 failures=0 seed=0\n"


def test_id_gather_cache_stays_small():
    # 290 distinct pair maps over the (2,6) to (2,10) shapes, the largest of
    # the size oracle_gap and the sweeps cache; the bounded cache keeps the
    # interpreter's resident set (read from /proc/self/statm, since
    # ru_maxrss carries over exec) within 16 MiB of where it was before the
    # maps were built.
    if not sys.platform.startswith("linux"):
        pytest.skip("reads /proc/self/statm")
    script = (
        "import itertools, os\n"
        "from aritygap.oracle import _id_gather\n"
        "def rss():\n"
        "    with open('/proc/self/statm') as fh:\n"
        "        return int(fh.read().split()[1]) * os.sysconf('SC_PAGE_SIZE')\n"
        "keys = [(n, i, j) for n in range(10, 5, -1)\n"
        "        for i, j in itertools.permutations(range(1, n + 1), 2)]\n"
        "assert len(keys) == 290\n"
        "before = rss()\n"
        "for n, i, j in keys:\n"
        "    _id_gather(2, n, i, j)\n"
        "assert _id_gather.cache_info().currsize == 256\n"
        "print((rss() - before) / 2**20)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert done.stderr == ""
    assert float(done.stdout) <= 16


def test_oracle_gap_builds_one_map_per_pair_of_essential_slots(monkeypatch):
    # Every strict minor of gen_salomaa(6) is constant, so the scan reads
    # all C(6, 2) identification minors and builds no other map.
    built = []
    real = oracle.itemgetter
    monkeypatch.setattr(oracle, "itemgetter", lambda *index: built.append(len(index)) or real(*index))
    assert oracle_gap(gen_salomaa(6)) == 6
    assert built == [6**6] * 15


@pytest.mark.parametrize("theorem, shape", [("T6.3", (3, 5, 2)), ("T4.4", (3, 4, 2))])
def test_gap_checks_compute_one_report_per_function(monkeypatch, theorem, shape):
    # The gap checks read the quasi-arity off the one arity_gap report they
    # make per function, instead of computing it a second time.
    calls = {"quasi_arity": 0, "arity_gap": 0}

    def counted(name, fn):
        def wrapper(f):
            calls[name] += 1
            return fn(f)

        return wrapper

    for name in calls:
        monkeypatch.setattr(oracle, name, counted(name, getattr(oracle, name)))
    checked, failures = oracle._sweep_range(SweepSpec(theorem, *shape, "sampled", 300, 1), (0, 300))
    assert failures == []
    assert checked > 0
    assert calls == {"quasi_arity": 0, "arity_gap": checked}


def test_oracle_catches_repeat_flags_that_miss_a_tuple(monkeypatch):
    # The kernel's repeat-set flags lose (0, 0, 1) at k = n = 3; the
    # quasi-arity oracle reads the repeat set off the tuples themselves,
    # so the L3.4 sweeps that compare against it must report failures.
    real = aritygap.analysis._repeat_flags
    lost = aritygap.tuple_to_index(3, (0, 0, 1))

    def faulty(k, n):
        flags = real(k, n)
        return flags[:lost] + b"\x00" + flags[lost + 1 :] if (k, n) == (3, 3) else flags

    monkeypatch.setattr(aritygap.analysis, "_repeat_flags", faulty)
    aritygap.analysis._plan.cache_clear()
    try:
        for b in (2, 3):
            spec = SweepSpec("L3.4", 3, 3, b, "sampled", samples=300, seed=0)
            assert verify(spec).failures, b
    finally:
        aritygap.analysis._plan.cache_clear()


def test_oracle_quasi_arity_examples():
    f = from_function(3, 2, 2, lambda t: 0 if t[0] == t[1] else (t[0] + t[1]) % 2)
    assert oracle_quasi_arity(f) == 0
    semi = from_function(3, 3, 3, lambda t: 2 if t == (0, 1, 2) else t[0])
    assert oracle_quasi_arity(semi) == 1
    rng = random.Random(0)
    wide = random_function(rng, 2, 3, 2)  # n > k: the function is its only support
    assert oracle_quasi_arity(wide) == len(essential_slots(wide))


def test_oracle_quasi_arity_budget(monkeypatch):
    f = from_function(3, 3, 3, lambda t: t[0])
    monkeypatch.setenv("ARITYGAP_BUDGET", "10")
    with pytest.raises(OracleInfeasibleError):
        oracle_quasi_arity(f)


@pytest.mark.parametrize("k,n,b", [(2, 2, 2), (3, 2, 2), (3, 2, 3)])
def test_oracle_quasi_arity_agrees_exhaustive(k, n, b):
    for f in all_functions(k, n, b):
        assert oracle_quasi_arity(f) == quasi_arity(f)


def test_oracle_quasi_arity_budget_is_refused_before_the_battery(monkeypatch):
    # The L3.4 search size follows from k and n alone, so verify refuses an
    # over-budget shape before it builds samples or witnesses.
    built = []
    monkeypatch.setattr(oracle, "constructed_witnesses", lambda *args: built.append(args) or [])
    monkeypatch.setenv("ARITYGAP_BUDGET", "319")
    message = r"^2\^3 slot sets over 40 repeat-set rows exceed the budget$"
    with pytest.raises(OracleInfeasibleError, match=message):
        verify(SweepSpec("L3.4", 4, 3, 2, "sampled", samples=50, seed=1))
    assert built == []
    monkeypatch.setenv("ARITYGAP_BUDGET", "320")
    assert verify(SweepSpec("L3.4", 4, 3, 2, "sampled", samples=50, seed=1)).checked == 50
    assert len(built) == 1


def test_one_budget_bounds_the_quasi_arity_refusal_and_search(monkeypatch):
    # ARITYGAP_BUDGET bounds both L3.4's early refusal and its predicate's
    # search: (4,3) needs 2^3 slot sets over 40 repeat-set rows.
    spec = SweepSpec("L3.4", 4, 3, 2, "sampled", samples=50, seed=1)
    message = r"^2\^3 slot sets over 40 repeat-set rows exceed the budget$"
    for budget in ("10", "319"):
        monkeypatch.setenv("ARITYGAP_BUDGET", budget)
        with pytest.raises(OracleInfeasibleError, match=message):
            verify(spec)
    monkeypatch.setenv("ARITYGAP_BUDGET", "320")
    assert verify(spec).checked == 63


def test_oracle_quasi_arity_agrees_sampled():
    rng = random.Random(21)
    for _ in range(60):
        f = random_function(rng, 3, 3, 2)
        assert oracle_quasi_arity(f) == quasi_arity(f)


# --- generators ---------------------------------------------------------------


def test_gen_salomaa_tables():
    assert gen_salomaa(2).table == (0, 1, 0, 0)
    f = gen_salomaa(3)
    assert f(0, 1, 2) == 1
    assert sum(f.table) == 1
    with pytest.raises(ValueError):
        gen_salomaa(1)


def test_gen_quasi_m_ary_cases():
    f = gen_quasi_m_ary(3, 3, 2, 0, seed=0)
    assert quasi_arity(f) == 0
    assert len(essential_slots(f)) == 3
    assert all(
        identification_minor(f, i, j).is_constant()
        for i, j in itertools.permutations(range(1, 4), 2)
    )
    g = gen_quasi_m_ary(4, 3, 2, 1, seed=1)
    assert quasi_arity(g) == 1
    assert len(essential_slots(g)) == 3
    h = gen_quasi_m_ary(3, 2, 2, 0, seed=2)
    assert not h.is_constant()
    assert len(set(h.table[0:9:4])) == 1  # constant diagonal


def test_gen_quasi_m_ary_contradictions():
    with pytest.raises(ValueError):
        gen_quasi_m_ary(3, 4, 2, 1, seed=0)  # no repeat-free tuples above arity k
    with pytest.raises(ValueError):
        gen_quasi_m_ary(2, 2, 2, 2, seed=0)
    with pytest.raises(ValueError):
        gen_quasi_m_ary(3, 3, 2, 4, seed=0)


def test_gen_quasi_m_ary_refuses_arity_one_up_front(monkeypatch):
    # Every unary tuple is in the repeat set, so a unary function is its own
    # only completion: below m = 1 no witness exists, and none is attempted.
    monkeypatch.setattr(oracle, "gen_essentially_m_ary", lambda *args: pytest.fail("attempted"))
    message = (
        r"^arity 1 over a 3-element domain leaves no repeat-free tuples, "
        r"so quasi-0-ary functions there depend on at most 0 slots$"
    )
    with pytest.raises(ValueError, match=message):
        gen_quasi_m_ary(3, 1, 2, 0, seed=0)
    monkeypatch.undo()
    assert quasi_arity(gen_quasi_m_ary(3, 1, 2, 1, seed=0)) == 1


def test_gen_essentially_m_ary():
    for m in (0, 1, 2):
        f = gen_essentially_m_ary(3, 4, 2, m, seed=m)
        assert len(essential_slots(f)) == m
        assert quasi_arity(f) == m  # arity above k: supports are unique


def test_gen_oddsupp_determined():
    f = gen_oddsupp_determined(3, 4, 2, seed=0)
    assert quasi_arity(f) == 4
    assert is_restriction_totally_symmetric(f)
    g = gen_oddsupp_determined(2, 4, 2, seed=0)
    from aritygap import is_determined_by_oddsupp

    assert is_determined_by_oddsupp(g).determined  # n > k: repeat set is everything
    with pytest.raises(ValueError):
        gen_oddsupp_determined(3, 3, 2, seed=0)


def test_gen_semiprojection():
    from aritygap import is_semiprojection

    f = gen_semiprojection(4, 4, 2, seed=3)
    assert is_semiprojection(f) == 2
    assert len(essential_slots(f)) == 4
    with pytest.raises(ValueError):
        gen_semiprojection(3, 4, 1, seed=0)


def test_gen_ternary_pattern_rejects_unrealizable(monkeypatch):
    # A two-element semiprojection is a projection.  At k = 2 there is no
    # repeat-free entry to draw, so one attempt decides.
    fills = []
    fill = oracle._fill_repeat_free

    def counted(*args):
        fills.append(args)
        return fill(*args)

    monkeypatch.setattr(oracle, "_fill_repeat_free", counted)
    message = r"^no essentially ternary function with pattern \(1, 0, 0\) found in 1000 attempts$"
    with pytest.raises(ValueError, match=message):
        gen_ternary_pattern(2, (1, 0, 0), seed=0)
    assert len(fills) == 1


def test_generators_are_deterministic():
    assert gen_quasi_m_ary(3, 3, 2, 1, seed=9) == gen_quasi_m_ary(3, 3, 2, 1, seed=9)
    assert gen_oddsupp_determined(3, 4, 2, seed=9) == gen_oddsupp_determined(3, 4, 2, seed=9)
    assert gen_ternary_pattern(3, (0, 1, 1), seed=9) == gen_ternary_pattern(3, (0, 1, 1), seed=9)


# Each case runs one generator on seeds 0..9; the digest is the SHA-256 of the
# rendered outputs in order, with "error: <message>" for a refused seed.
GENERATOR_CASES = {
    "essentially-3-4-2-m2": (lambda s: gen_essentially_m_ary(3, 4, 2, 2, s)),
    "quasi-4-4-3-m2": (lambda s: gen_quasi_m_ary(4, 4, 3, 2, s)),
    "quasi-3-3-2-m0": (lambda s: gen_quasi_m_ary(3, 3, 2, 0, s)),
    "quasi-3-3-2-m1": (lambda s: gen_quasi_m_ary(3, 3, 2, 1, s)),
    "quasi-3-3-3-m3": (lambda s: gen_quasi_m_ary(3, 3, 3, 3, s)),
    "quasi-2-4-2-m4": (lambda s: gen_quasi_m_ary(2, 4, 2, 4, s)),
    "oddsupp-3-4-2": (lambda s: gen_oddsupp_determined(3, 4, 2, s)),
    "oddsupp-2-5-3": (lambda s: gen_oddsupp_determined(2, 5, 3, s)),
    "oddsupp-4-4-2": (lambda s: gen_oddsupp_determined(4, 4, 2, s)),
    "ternary-3-all-patterns": (
        lambda s: gen_ternary_pattern(3, ((s >> 2) & 1, (s >> 1) & 1, s & 1), s)
    ),
    "ternary-4-011-b2": (lambda s: gen_ternary_pattern(4, (0, 1, 1), s, b=2)),
    "ternary-2-100": (lambda s: gen_ternary_pattern(2, (1, 0, 0), s)),
    "semiprojection-3-3-t1": (lambda s: gen_semiprojection(3, 3, 1, s)),
    "semiprojection-4-4-t3": (lambda s: gen_semiprojection(4, 4, 3, s)),
    "semiprojection-4-2-t2": (lambda s: gen_semiprojection(4, 2, 2, s)),
}
GENERATOR_DIGESTS = {
    "essentially-3-4-2-m2": "0fd0297819c360f63de2f73ab6939efdd95fdbc9bc5682b4cd1216144b15692e",
    "oddsupp-2-5-3": "94057fd26e00892dfc8d02fc8cc8de316fcce17b1692dc5659ed2b0605999c1d",
    "oddsupp-3-4-2": "feb4a2da9520b41692c4998894d6d06712ea7add31bb30800c04fe50da67b177",
    "oddsupp-4-4-2": "52d88ee4737fd5d57ab9b530f254c47ed00670b714972216f6213aabdc7d3e07",
    "quasi-2-4-2-m4": "1551e99b546245289d9d67b7d21378402b9e786e3a57f1810f63870113f704d5",
    "quasi-3-3-2-m0": "b256c2aeaaba4f2f6edb93af00e0fb0510e2135c3a751a94289d8f6f8a738f41",
    "quasi-3-3-2-m1": "3c10f00807a6ce650ebd9c60f19ad762f165300936ed63673861179f4cad4353",
    "quasi-3-3-3-m3": "9067548c93b6c15e180b803427f30088098cd59374a4de2a6672f49c3e52aea2",
    "quasi-4-4-3-m2": "1452f56efdfc0d11f9227d3096f4ff48276e8928958d8ab9f2849f799b287c67",
    "semiprojection-3-3-t1": "dc8b768626e61325dd0157d39de92f43fae6f2dfc5a35df6c4aeb73cfe3cd201",
    "semiprojection-4-2-t2": "8785e0f5e525cfbdac76947d39a2467714a74c79b00618373364b8e5e5b353ce",
    "semiprojection-4-4-t3": "a9e94cf5f109e3ff061d329c1e285c2e439080684c961b27047d44867c7cca37",
    "ternary-2-100": "20d06d8f03642c8e89316072203a81a6791c75a4d747e1f9f5780259602e99bd",
    "ternary-3-all-patterns": "688635f11532fad82011d07874665d23d3e77d38009c52957084af2be4f3f646",
    "ternary-4-011-b2": "103cd99af1495557542d3ab1f03ec0094f6062f74b087cde6301339e2b98e906",
}


@pytest.mark.parametrize("name", sorted(GENERATOR_CASES))
def test_generator_outputs_are_pinned(name):
    # The benchmark's inputs come from these generators, so a change in the
    # order of their random draws changes its digests.
    out = []
    for seed in range(10):
        try:
            out.append(render(GENERATOR_CASES[name](seed)))
        except ValueError as exc:
            out.append(f"error: {exc}\n")
    assert hashlib.sha256("".join(out).encode()).hexdigest() == GENERATOR_DIGESTS[name]


# --- verification sweeps -------------------------------------------------------


def test_function_by_id_roundtrip():
    assert function_by_id(2, 2, 2, 6).table == (0, 1, 1, 0)
    ids = [function_by_id(2, 2, 2, i).table for i in range(16)]
    assert len(set(ids)) == 16
    with pytest.raises(ValueError):
        function_by_id(2, 2, 2, 16)
    with pytest.raises(ValueError, match="table would need 2\\^64 entries"):
        function_by_id(2, 64, 2, 0)


def test_verify_exhaustive_wide_arity_bound():
    report = verify(SweepSpec("T4.1", 2, 3, 2, "exhaustive"))
    assert report.checked == 218  # functions depending on all three slots
    assert report.failures == ()
    assert report.seed is None


def test_verify_exhaustive_pseudo_boolean():
    report = verify(SweepSpec("T5.1", 2, 2, 3, "exhaustive"))
    assert report.checked == 81
    assert report.failures == ()


@pytest.mark.parametrize(
    "theorem", ["T3.5i", "T3.5ii", "L3.4", "P4.2", "T4.4", "T6.4ii"]
)
def test_verify_small_exhaustive_spaces(theorem):
    report = verify(SweepSpec(theorem, 2, 2, 2, "exhaustive"))
    assert report.failures == ()


def test_verify_sampled_is_reproducible():
    spec = SweepSpec("T6.3", 3, 4, 2, "sampled", samples=40, seed=5)
    first = verify(spec)
    second = verify(spec)
    assert first.checked == second.checked
    assert first.failures == second.failures
    assert render_report(first).splitlines()[0] == render_report(second).splitlines()[0]


def test_verify_jobs_do_not_change_output():
    spec = SweepSpec("T4.4", 3, 3, 2, "sampled", samples=60, seed=11)
    assert verify(spec, jobs=1).checked == verify(spec, jobs=2).checked


def test_verify_budget(monkeypatch):
    monkeypatch.setenv("ARITYGAP_BUDGET", "1000")
    with pytest.raises(OracleInfeasibleError):
        verify(SweepSpec("T4.1", 3, 3, 3, "exhaustive"))


def test_function_count_against_the_budget(monkeypatch):
    monkeypatch.setenv("ARITYGAP_BUDGET", "16")
    assert function_count(2, 2, 2) == 16
    monkeypatch.setenv("ARITYGAP_BUDGET", "512")
    assert function_count(3, 2, 2) == 512
    # 3^4 = 81 > 80, decided by computing a count that stays small
    monkeypatch.setenv("ARITYGAP_BUDGET", "80")
    with pytest.raises(OracleInfeasibleError, match="^81 tables exceed the budget 80$"):
        function_count(2, 2, 3)
    # 2^4 > 10 once k^n = 4 reaches the bit length of 10: named, not computed
    monkeypatch.setenv("ARITYGAP_BUDGET", "10")
    with pytest.raises(OracleInfeasibleError, match=r"^2\^4 tables exceed the budget 10$"):
        function_count(2, 2, 2)
    monkeypatch.delenv("ARITYGAP_BUDGET")
    with pytest.raises(OracleInfeasibleError, match=r"^2\^1048576 tables"):
        function_count(2, 20, 2)
    with pytest.raises(ValueError, match="codomain size"):
        function_count(2, 26, -3)


def test_verify_validates_parameters():
    with pytest.raises(ValueError):
        verify(SweepSpec("NOPE", 2, 2, 2, "exhaustive"))
    with pytest.raises(UnsupportedCodomainError):
        verify(SweepSpec("SWIER", 3, 4, 2, "exhaustive"))
    with pytest.raises(ValueError):
        SweepSpec("T4.1", 2, 2, 2, "sampled")


def test_verify_swierczkowski_with_witnesses():
    report = verify(SweepSpec("SWIER", 3, 4, 3, "sampled", samples=60, seed=2))
    assert report.failures == ()
    assert report.checked >= 60


def test_swierczkowski_builds_the_projections_once_per_shape(monkeypatch):
    # The projection tables depend on the shape alone: two sweeps at each
    # of two shapes build them once per shape.
    real = oracle.projection
    built = []

    def counting(k, n, t):
        built.append((k, n, t))
        return real(k, n, t)

    monkeypatch.setattr(oracle, "projection", counting)
    oracle._projection_tables.cache_clear()
    for n in (4, 5):
        for seed in (0, 1):
            report = verify(SweepSpec("SWIER", 2, n, 2, "sampled", samples=100, seed=seed))
            assert report.failures == () and report.checked >= 100
    assert built == [(2, n, t) for n in (4, 5) for t in range(1, n + 1)]


def test_quasi_full_sweeps_scan_the_repeat_set_once_per_function(monkeypatch):
    # The quasi_full hypothesis is decided by one repeat-set scan, and the
    # T4.3 predicate reads only the gap, so it makes no second scan.  The
    # battery is built first, so that only the sweep's own calls count.
    battery = constructed_witnesses(3, 4, 3, 0)
    monkeypatch.setattr(oracle, "constructed_witnesses", lambda k, n, b, seed: battery)
    real_ids, real_quasi_arity = aritygap.gap._essential_ids, oracle.quasi_arity
    scans, decided = [], []

    def counting_ids(*args, **kwargs):
        scans.append(kwargs.get("on_repeat", False))
        return real_ids(*args, **kwargs)

    def counting_quasi_arity(f):
        decided.append(f)
        return real_quasi_arity(f)

    monkeypatch.setattr(aritygap.gap, "_essential_ids", counting_ids)
    monkeypatch.setattr(oracle, "quasi_arity", counting_quasi_arity)
    report = verify(SweepSpec("T4.3", 3, 4, 3, "sampled", samples=500, seed=0))
    assert report.failures == () and report.checked == 502
    assert scans.count(True) == len(decided) == 502


@pytest.mark.parametrize(
    "theorem,k,n,b",
    [
        ("T3.5i", 3, 4, 2),
        ("T3.5ii", 3, 4, 2),
        ("SWIER", 4, 4, 4),
        ("L3.4", 3, 3, 2),
        ("P4.2", 3, 3, 2),
        ("T4.1", 3, 4, 2),
        ("T4.3", 3, 4, 2),
        ("T4.4", 3, 4, 2),
        ("T5.1", 2, 4, 3),
        ("L5.2", 3, 4, 5),
        ("T6.1", 3, 4, 2),
        ("T6.3", 3, 4, 2),
        ("T6.4ii", 3, 4, 2),
        ("T6.4iii", 3, 3, 3),
    ],
)
def test_verify_every_registered_check_sampled(theorem, k, n, b):
    report = verify(SweepSpec(theorem, k, n, b, "sampled", samples=40, seed=3))
    assert report.failures == ()
    assert report.theorem == theorem


def test_related_statements_share_a_predicate():
    assert THEOREMS["T4.1"].predicate is THEOREMS["T4.3"].predicate
    assert THEOREMS["T6.3"].predicate is THEOREMS["T6.4ii"].predicate


def test_declared_hypotheses_decide_what_is_checked(monkeypatch):
    # The predicate fails any function with an inessential slot, so a
    # function that slips past all_essential shows up as a failure.
    shapes = []

    def arity(k, n):
        shapes.append((k, n))
        return n >= 2

    doctored = TheoremCheck(
        "DOCTORED",
        "every slot essential",
        lambda f: len(essential_slots(f)) == f.n,
        arity=arity,
        all_essential=True,
    )
    monkeypatch.setitem(THEOREMS, "DOCTORED", doctored)
    # 10 of the 16 binary and 218 of the 256 ternary Boolean functions
    # depend on every slot; no unary shape meets the arity hypothesis.
    for n, checked in ((1, 0), (2, 10), (3, 218)):
        report = verify(SweepSpec("DOCTORED", 2, n, 2, "exhaustive"))
        assert (report.checked, report.failures) == (checked, ())
    # Decided once for the sweep and once for the (empty) witness battery.
    assert shapes == [(2, 1)] * 2 + [(2, 2)] * 2 + [(2, 3)] * 2

    full = TheoremCheck("FULL", "quasi-arity n", lambda f: quasi_arity(f) == f.n, quasi_full=True)
    monkeypatch.setitem(THEOREMS, "FULL", full)
    report = verify(SweepSpec("FULL", 3, 3, 2, "sampled", samples=200, seed=4))
    functions = [sampled_function(3, 3, 2, 4, i) for i in range(200)]
    functions += constructed_witnesses(3, 3, 2, 4)
    assert report.failures == ()
    assert 0 < report.checked == sum(quasi_arity(f) == 3 for f in functions) < len(functions)


@pytest.mark.parametrize("k,n,b", [(2, 4, 2), (2, 5, 2), (3, 4, 2), (4, 4, 3), (5, 5, 2)])
def test_symmetry_of_gap_two_checks_every_gap_two_input(monkeypatch, k, n, b):
    # Random tables are almost never gap-2 quasi-n-ary, so sweeps seldom
    # reach the T6.1 predicate; parity and oddsupp-determined tables do.
    parity = from_function(k, n, b, lambda t: t.count(1) % 2)
    inputs = [parity] + [gen_oddsupp_determined(k, n, b, seed) for seed in range(9)]
    spec = SweepSpec("T6.1", k, n, b, "sampled", samples=0)
    assert oracle._check_each(spec, inputs) == (len(inputs), [])
    every_input_fails = (len(inputs), [f.table for f in inputs])
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "is_restriction_totally_symmetric", lambda f: False)
        assert oracle._check_each(spec, inputs) == every_input_fails
    # With the symmetry test passing, a minor that keeps every slot must
    # fail the (n-2)-ary minor check.
    pairs = lambda f: itertools.permutations(range(1, f.n + 1), 2)
    monkeypatch.setattr(oracle, "_id_minors", lambda f: ((i, j, f.table) for i, j in pairs(f)))
    assert oracle._check_each(spec, inputs) == every_input_fails


@pytest.mark.parametrize("k,n", [(2, 5), (3, 4), (4, 3), (2, 11), (3, 7)])
def test_id_minors_are_the_identification_minors(k, n):
    # The T3.5, SWIER and T6.1 sweeps read their minors from the oracle's
    # own maps, kept below the table limit and built per call above it.
    # Each entry of the table names its own index, so every minor is its
    # map itself.
    f = FiniteFunction(k, n, k**n, tuple(range(k**n)))
    pairs = itertools.permutations(range(1, n + 1), 2)
    want = [(i, j, identification_minor(f, i, j).table) for i, j in pairs]
    assert list(oracle._id_minors(f)) == want


@pytest.mark.parametrize(
    "theorem, checked", [("T3.5i", 65536), ("T3.5ii", 65536), ("SWIER", 65536), ("T6.1", 2)]
)
def test_identification_sweeps_keep_one_map_per_ordered_pair(theorem, checked):
    # The functions an exhaustive (2,4,2) sweep checks share the maps of the
    # 12 ordered pairs of slots.
    oracle._id_gather.cache_clear()
    report = verify(SweepSpec(theorem, 2, 4, 2, "exhaustive"))
    assert (report.checked, report.failures) == (checked, ())
    assert oracle._id_gather.cache_info().currsize == 12


def _support_at_next_slot(f):
    # unique_unary_support reading the slot after the one essential on the
    # repeat set.
    u = _unary_support(f)
    slots = tuple(s % f.n + 1 for s in u.slots)
    supports = tuple(simple_minor(diagonal(f), MinorMap(1, f.n, (s,))) for s in slots)
    return replace(u, supports=supports or u.supports, slots=slots)


def _extension_at_next_slot(f):
    # support_extension naming the slot after each of its slots.
    ext = _support_extension(f)
    return replace(ext, slots=tuple(s % f.n + 1 for s in ext.slots))


def _support_of_next_value(f):
    # unique_unary_support with every value moved to the next one.
    u = _unary_support(f)
    moved = tuple(replace(g, table=tuple((v + 1) % g.b for v in g.table)) for g in u.supports)
    return replace(u, supports=moved)


_unary_support, _support_extension = oracle.unique_unary_support, oracle.support_extension


@pytest.mark.parametrize(
    "theorem, name, fault, failures",
    [
        # The 8 essentially unary and the 2 constant (2,4,2) functions.
        ("T3.5ii", "unique_unary_support", _support_at_next_slot, 8),
        ("T3.5ii", "support_extension", _extension_at_next_slot, 8),
        ("T3.5i", "unique_unary_support", _support_of_next_value, 2),
    ],
    ids=["support-at-next-slot", "extension-at-next-slot", "support-of-next-value"],
)
def test_t35_sweeps_check_the_supports(monkeypatch, capsys, theorem, name, fault, failures):
    # At quasi-arity 0 or 1 the T3.5 sweeps also hold the Section 3 supports
    # to their definitions, so a support that reads the wrong slot or value
    # fails there.
    argv = ["verify", "--theorem", theorem, "--k", "2", "--n", "4", "--b", "2", "--exhaustive"]
    monkeypatch.setattr(oracle, name, fault)
    assert main(argv) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"theorem={theorem} checked=65536 failures={failures} seed=-"
    assert {quasi_arity(parse(line)) for line in lines[1:]} == {0 if theorem == "T3.5i" else 1}


def test_failures_replay(monkeypatch):
    # doctor a check so some functions fail, then replay each failure
    flaky = TheoremCheck("FLAKY", "table starts with zero", lambda f: f.table[0] == 0)
    monkeypatch.setitem(THEOREMS, "FLAKY", flaky)
    report = verify(SweepSpec("FLAKY", 2, 2, 2, "exhaustive"))
    assert len(report.failures) == 8
    for f in report.failures:
        assert flaky.predicate(f) is False
    rendered = render_report(report)
    assert rendered.splitlines()[0] == "theorem=FLAKY checked=16 failures=8 seed=-"
    assert "2 2 2;" in rendered


@pytest.mark.parametrize(
    "k, n, b, message",
    [
        (1, 2, 2, "domain size k must be >= 2"),
        (2, 0, 2, "arity n must be >= 1"),
        (2, 2, 1, "codomain size b must be >= 2"),
    ],
)
def test_generated_tables_check_their_shape(k, n, b, message):
    # Both build their tables without the constructor's checks.
    with pytest.raises(ValueError, match=message):
        function_by_id(k, n, b, 0)
    with pytest.raises(ValueError, match=message):
        sampled_function(k, n, b, 0, 0)
    with pytest.raises(ValueError, match=message):
        functions_in_order(k, n, b, 0, 1)


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_essentially_m_ary(3, 3, 1, 1, seed=0),
        lambda: gen_quasi_m_ary(3, 3, 1, 1, seed=0),
        lambda: gen_oddsupp_determined(3, 4, 1, seed=0),
    ],
    ids=["essentially-m-ary", "quasi-m-ary", "oddsupp-determined"],
)
def test_generators_check_the_codomain_before_drawing(make):
    with pytest.raises(ValueError, match=r"^codomain size b must be >= 2, got 1$"):
        make()


def test_sampled_function_determinism():
    a = sampled_function(3, 3, 2, 7, 4)
    b = sampled_function(3, 3, 2, 7, 4)
    c = sampled_function(3, 3, 2, 7, 5)
    assert a == b
    assert a != c


def randrange_table(seed, size, b):
    # The sampling contract, one randrange(b) draw per entry.
    rng = random.Random(seed)
    return tuple(rng.randrange(b) for _ in range(size))


class CountingRandom(random.Random):
    def getrandbits(self, k):
        self.calls = getattr(self, "calls", 0) + 1
        return super().getrandbits(k)


def test_sampled_tables_are_randrange_draws():
    for b in range(2, 301):
        for size in (1, 2, 5, 81, 243, 1000):
            for seed in range(3):
                key = f"{seed}:{b}:{size}"
                got, packed = _sampled_table(random.Random(key), size, b)
                assert got == randrange_table(key, size, b), (b, size, seed)
                assert packed == (bytes(got) if b <= 255 else None)
    # b = 129 rejects 127 of every 256 top bytes, so a batch sized for the
    # expected rate often comes up short and a second one is drawn
    batches = []
    for seed in range(10):
        rng = CountingRandom(seed)
        assert _sampled_table(rng, 1000, 129)[0] == randrange_table(seed, 1000, 129)
        batches.append(rng.calls)
    assert max(batches) >= 2
    # A sampled function keeps the drawn bytes as _packed below 256 values.
    shapes = ((3, 5, 2), (3, 3, 3), (2, 4, 2), (2, 2, 300), (2, 8, 129), (2, 3, 255), (2, 3, 256))
    for k, n, b in shapes:
        for seed in (0, 7, None):
            for i in range(5):
                want = randrange_table(f"{seed}:{i}", k**n, b)
                f = sampled_function(k, n, b, seed, i)
                assert f.table == want
                assert f._packed == (bytes(want) if b <= 255 else None)


@pytest.mark.parametrize("k, n, b", [(2, 2, 2), (2, 2, 3), (3, 1, 3), (2, 3, 2)])
def test_functions_in_order_walks_the_ids(k, n, b):
    total = function_count(k, n, b)
    for lo, hi in ((0, total), (1, 2), (5, 40), (total - 3, total), (17, 17), (3, total + 9)):
        got = [f.table for f in functions_in_order(k, n, b, lo, hi)]
        want = [function_by_id(k, n, b, i).table for i in range(lo, min(hi, total))]
        assert got == want, (lo, hi)


def test_constructed_witnesses_exercise_positive_side():
    batch = constructed_witnesses(3, 3, 3, seed=1)
    assert any(quasi_arity(f) == 0 and len(essential_slots(f)) == 3 for f in batch)
    gaps = {arity_gap(f).gap for f in batch if len(essential_slots(f)) >= 2}
    assert 2 in gaps or 3 in gaps
