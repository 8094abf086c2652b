import itertools
import random

import pytest

from aritygap import (
    FiniteFunction,
    GapUndefinedError,
    MinorMap,
    OracleInfeasibleError,
    SweepSpec,
    THEOREMS,
    UnsupportedCodomainError,
    arity_gap,
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
    quasi_arity,
    render_report,
    simple_minor,
    verify,
)
from aritygap.oracle import (
    TheoremCheck,
    constructed_witnesses,
    function_count,
    sampled_function,
    table_entries,
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
# to certify the partition-based shortcut inside oracle_gap.
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


@pytest.mark.parametrize("k,n,b", [(2, 2, 2), (2, 3, 2), (3, 2, 2)])
def test_oracle_gap_agrees_with_arity_gap_exhaustive(k, n, b):
    for f in all_functions(k, n, b):
        if len(essential_slots(f)) < 2:
            continue
        assert oracle_gap(f) == arity_gap(f).gap


def test_oracle_quasi_arity_examples():
    f = from_function(3, 2, 2, lambda t: 0 if t[0] == t[1] else (t[0] + t[1]) % 2)
    assert oracle_quasi_arity(f) == 0
    semi = from_function(3, 3, 3, lambda t: 2 if t == (0, 1, 2) else t[0])
    assert oracle_quasi_arity(semi) == 1
    rng = random.Random(0)
    wide = random_function(rng, 2, 3, 2)  # n > k: the function is its only support
    assert oracle_quasi_arity(wide) == len(essential_slots(wide))


def test_oracle_quasi_arity_budget():
    f = from_function(3, 3, 3, lambda t: t[0])
    with pytest.raises(OracleInfeasibleError):
        oracle_quasi_arity(f, budget=10)


@pytest.mark.parametrize("k,n,b", [(2, 2, 2), (3, 2, 2), (3, 2, 3)])
def test_oracle_quasi_arity_agrees_exhaustive(k, n, b):
    for f in all_functions(k, n, b):
        assert oracle_quasi_arity(f) == quasi_arity(f)


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


def test_gen_ternary_pattern_rejects_unrealizable():
    with pytest.raises(ValueError):
        gen_ternary_pattern(2, (1, 0, 0), seed=0)  # a two-element semiprojection is a projection


def test_generators_are_deterministic():
    assert gen_quasi_m_ary(3, 3, 2, 1, seed=9) == gen_quasi_m_ary(3, 3, 2, 1, seed=9)
    assert gen_oddsupp_determined(3, 4, 2, seed=9) == gen_oddsupp_determined(3, 4, 2, seed=9)
    assert gen_ternary_pattern(3, (0, 1, 1), seed=9) == gen_ternary_pattern(3, (0, 1, 1), seed=9)


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


def test_verify_budget():
    with pytest.raises(OracleInfeasibleError):
        verify(SweepSpec("T4.1", 3, 3, 3, "exhaustive"), budget=1000)


def test_function_count_against_the_budget():
    assert function_count(2, 2, 2, budget=16) == 16
    assert function_count(3, 2, 2, budget=512) == 512
    # 3^4 = 81 > 80, decided by computing a count that stays small
    with pytest.raises(OracleInfeasibleError, match="^81 tables exceed the budget 80$"):
        function_count(2, 2, 3, budget=80)
    # 2^4 > 10 once k^n = 4 reaches the bit length of 10: named, not computed
    with pytest.raises(OracleInfeasibleError, match=r"^2\^4 tables exceed the budget 10$"):
        function_count(2, 2, 2, budget=10)
    with pytest.raises(OracleInfeasibleError, match=r"^2\^1048576 tables"):
        function_count(2, 20, 2)
    with pytest.raises(ValueError, match="codomain size"):
        function_count(2, 26, -3)


def test_table_entries_limit():
    assert table_entries(10, 8) == 10**8
    for k, n in ((10, 9), (2, 27), (2, 10**18)):
        with pytest.raises(ValueError, match=f"^table would need {k}\\^{n} entries"):
            table_entries(k, n)
    with pytest.raises(ValueError, match="domain size"):
        table_entries(1, 3)
    with pytest.raises(ValueError, match="arity"):
        table_entries(2, 0)


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


def test_verify_instance_filter():
    narrowed = verify(SweepSpec("T6.4ii", 2, 2, 2, "exhaustive", filter="qa=0"))
    everything = verify(SweepSpec("T6.4ii", 2, 2, 2, "exhaustive"))
    assert narrowed.failures == ()
    assert 0 < narrowed.checked < everything.checked
    with pytest.raises(ValueError):
        SweepSpec("T6.4ii", 2, 2, 2, "exhaustive", filter="range=3")


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


def test_sampled_function_determinism():
    a = sampled_function(3, 3, 2, 7, 4)
    b = sampled_function(3, 3, 2, 7, 4)
    c = sampled_function(3, 3, 2, 7, 5)
    assert a == b
    assert a != c


def test_constructed_witnesses_exercise_positive_side():
    batch = constructed_witnesses(3, 3, 3, seed=1)
    assert any(quasi_arity(f) == 0 and len(essential_slots(f)) == 3 for f in batch)
    gaps = {arity_gap(f).gap for f in batch if len(essential_slots(f)) >= 2}
    assert 2 in gaps or 3 in gaps
