"""Definitional oracles, seeded witness generators, and property-sweep verification.

The oracles recompute gap and quasi-arity from their definitions (maximum
essential arity over all strict substitution minors; least number of slots
that f's values on the repeat set can be a function of) so the fast
implementations can be checked against them.  They build on `core` alone:
their essentiality check (`_is_essential`, counted by `_essential_count`) and
their partition-minor maps (`_lead_gather`) share no code with `analysis` or
`minors`, so a fault there shows up as failures of the T5.1 and L3.4 sweeps
instead of being repeated by the oracles.  ``verify`` runs a named property
over an exhaustive or sampled function space and reports failures.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import re
import time
from dataclasses import KW_ONLY, dataclass
from functools import lru_cache, partial
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from .core import (
    FiniteFunction,
    GapUndefinedError,
    OracleInfeasibleError,
    UnsupportedCodomainError,
    UnsupportedDomainError,
    _check_shape,
    all_tuples,
    constant,
    projection,
    tuple_to_index,
)
from .analysis import _repeat_set, is_restriction_totally_symmetric
from .classify import classify_pseudo_boolean, ternary_pattern
from .gap import arity_gap, is_semiprojection, quasi_arity
from .minors import _substitute, identification_minor
from .oddsupp import (
    _oddsupp_masks,
    is_restriction_determined_by_oddsupp,
    reachable_oddsupp_masks,
)

DEFAULT_BUDGET = 10**7
GENERATOR_ATTEMPTS = 1000


def _resolve_budget(budget: int | None) -> int:
    # The budget given, else ARITYGAP_BUDGET (ASCII digits), else the default.
    if budget is not None:
        return budget
    env = os.environ.get("ARITYGAP_BUDGET")
    if env and not re.fullmatch(r"[0-9]+", env):
        raise ValueError(f"ARITYGAP_BUDGET must be a non-negative integer, got {env!r}")
    return int(env) if env else DEFAULT_BUDGET


def function_count(k: int, n: int, b: int, budget: int | None = None) -> int:
    """b^(k^n), the number of tables over k, n and b; OracleInfeasibleError
    over the budget.

    The count exceeds the budget once k^n reaches the budget's bit length,
    so a count that large is named as a power, not computed.
    """
    size = _check_shape(k, n, b)
    budget = _resolve_budget(budget)
    if size >= budget.bit_length():
        raise OracleInfeasibleError(f"{b}^{size} tables exceed the budget {budget}")
    total = b**size
    if total > budget:
        raise OracleInfeasibleError(f"{total} tables exceed the budget {budget}")
    return total


def _is_essential(k: int, n: int, table: Sequence[int], slot: int) -> bool:
    # With s = k^(n - slot), each block of k*s entries holds k runs of s
    # entries that differ only in the digit at the slot; the slot is
    # essential iff in some block a run differs from the run before it.
    s = k ** (n - slot)
    width = k * s
    for q in range(0, len(table), width):
        if table[q + s : q + width] != table[q : q + width - s]:
            return True
    return False


def _essential_count(k: int, n: int, table: Sequence[int]) -> int:
    # The number of essential slots, decided from the definition alone.
    return sum([_is_essential(k, n, table, slot) for slot in range(1, n + 1)])


@lru_cache(maxsize=16)
def _partitions(n: int) -> tuple[tuple[int, ...], ...]:
    # Every partition of {1..n} except the finest, as its lead sigma (slot s
    # is fed from the least slot of its block), the most blocks first.  Slot
    # by slot, a slot either joins the block of an earlier lead or opens a
    # block of its own.
    leads = [()]
    for s in range(1, n + 1):
        leads = [p + (t,) for p in leads for t in (*sorted(set(p)), s)]
    leads.remove(tuple(range(1, n + 1)))
    return tuple(sorted(leads, key=lambda p: -len(set(p))))


@lru_cache(maxsize=8192)
def _lead_gather(k: int, n: int, sigma: tuple[int, ...]) -> itemgetter:
    # Entry t of the minor reads f at (t_sigma(1), ..., t_sigma(n)), of index
    # sum_l t_sigma(l) * k^(n-l); expanding t's digits from slot 1 on keeps
    # table order.  oracle_gap caches only maps of up to 1,024 entries.
    index = [0]
    for s in range(1, n + 1):
        w = sum(k ** (n - l) for l, lead in enumerate(sigma, start=1) if lead == s)
        index = [x + a * w for x in index for a in range(k)]
    return itemgetter(*index)


def oracle_gap(f: FiniteFunction) -> int:
    """Gap recomputed as ess f minus the maximum essential arity over all
    strict substitution minors.

    Every substitution minor arises, up to slot permutation and inessential
    slots (neither of which changes essential arity), from identifying the
    blocks of some partition of the slot set, so partitions are enumerated
    with duplicate tables skipped; minors with the full essential arity are
    equivalent to f and excluded.  Partitions come finest first, and the
    walk stops once a minor keeps ess - 1 slots (no strict minor keeps more)
    or once the partitions left have no more blocks than the best minor has
    essential slots (a minor over b blocks depends on at most b slots).
    """
    ess = _essential_count(f.k, f.n, f.table)
    if ess < 2:
        raise GapUndefinedError(f"arity gap needs >= 2 essential slots, got {ess}")
    best = -1
    seen = set()
    gather = _lead_gather if f.size <= 1024 else _lead_gather.__wrapped__
    for sigma in _partitions(f.n):
        if best == ess - 1 or len(set(sigma)) <= best:
            break
        table = gather(f.k, f.n, sigma)(f.table)
        if table in seen:
            continue
        seen.add(table)
        e = _essential_count(f.k, f.n, table)
        if best < e < ess:
            best = e
    assert best >= 0
    return ess - best


def _repeat_rows_within_budget(k: int, n: int, budget: int | None = None) -> int:
    # The repeat-set rows oracle_quasi_arity searches at shape (k, n), 0 when
    # every tuple is in the repeat set (n > k, or n = 1);
    # OracleInfeasibleError when 2^n slot sets over them exceed the budget.
    free = 0 if n == 1 else math.perm(k, n)  # repeat-free tuples
    if not free:
        return 0
    rows = k**n - free
    if 2**n * rows > _resolve_budget(budget):
        raise OracleInfeasibleError(
            f"2^{n} slot sets over {rows} repeat-set rows exceed the budget"
        )
    return rows


def oracle_quasi_arity(f: FiniteFunction, budget: int | None = None) -> int:
    """Quasi-arity recomputed as the least essential arity of a total
    function that agrees with f on the repeat set.

    Such a function depending on no slot outside S exists iff f's values on
    the repeat set are a function of the S-coordinates (fill every other
    entry through that function), so the answer is the least such |S|,
    found by trying slot sets in order of size.  With no repeat-free entries
    (n > k, or n = 1) f is its only completion, and the answer is its
    essential arity.  The budget bounds the search: 2^n slot sets times the
    repeat-set rows.
    """
    k, n = f.k, f.n
    if not _repeat_rows_within_budget(k, n, budget):
        return _essential_count(k, n, f.table)
    # The repeat set read off the tuples, not from the kernel's flags.
    repeat = [(t, v) for t, v in zip(all_tuples(k, n), f.table) if len(set(t)) < n]
    for m in range(n):
        for slots in itertools.combinations(range(n), m):
            by_key: dict[tuple[int, ...], int] = {}
            if all(
                by_key.setdefault(tuple(t[i] for i in slots), v) == v for t, v in repeat
            ):
                return m
    return n


# ---------------------------------------------------------------------------
# Generators.  All take an integer seed and are deterministic for a fixed one;
# each makes up to GENERATOR_ATTEMPTS attempts before giving up.


def _random_table(rng: random.Random, size: int, b: int) -> tuple[int, ...]:
    return tuple(rng.randrange(b) for _ in range(size))


def _first_found(
    what: str, attempt: Callable[[], FiniteFunction | None], retry: bool = True
) -> FiniteFunction:
    # The first result of attempt() that is not None.  Without retry,
    # attempt() draws nothing at random, so its one result stands for all
    # GENERATOR_ATTEMPTS of them.
    for _ in range(GENERATOR_ATTEMPTS):
        f = attempt()
        if f is not None:
            return f
        if not retry:
            break
    raise ValueError(f"no {what} found in {GENERATOR_ATTEMPTS} attempts")


def _all_essential(f: FiniteFunction) -> bool:
    return _essential_count(f.k, f.n, f.table) == f.n


def _fill_repeat_free(
    rng: random.Random, k: int, n: int, b: int, base: Sequence[int]
) -> FiniteFunction | None:
    # base with each repeat-free entry drawn from rng in index order, if every
    # slot of the result is essential.
    table = list(base)
    for idx in _repeat_set(k, n, range(k**n), off=True):
        table[idx] = rng.randrange(b)
    f = FiniteFunction(k, n, b, tuple(table))
    return f if _all_essential(f) else None


def gen_salomaa(k: int) -> FiniteFunction:
    """The k-ary operation that is 1 on (0, 1, ..., k-1) and 0 elsewhere.

    All k slots are essential, while identifying any two of them yields a
    constant, so the gap is the full domain size k.
    """
    table = [0] * _check_shape(k, k, k)
    table[tuple_to_index(k, tuple(range(k)))] = 1
    return FiniteFunction(k, k, k, tuple(table))


def gen_essentially_m_ary(k: int, n: int, b: int, m: int, seed: int) -> FiniteFunction:
    """A random n-ary function depending on exactly m (random) slots.

    For n > k the repeat set is the whole domain, so this is also the general
    form of a quasi-m-ary function there.
    """
    _check_shape(k, n, b)
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    rng = random.Random(seed)
    if m == 0:
        return constant(k, n, b, rng.randrange(b))

    def attempt() -> FiniteFunction | None:
        slots = sorted(rng.sample(range(1, n + 1), m))
        core = _random_table(rng, k**m, b)
        if _essential_count(k, m, core) != m:
            return None
        return _substitute(FiniteFunction(k, m, b, core), n, tuple(slots))

    return _first_found(f"essentially {m}-ary table", attempt)


def gen_quasi_m_ary(k: int, n: int, b: int, m: int, seed: int) -> FiniteFunction:
    """A quasi-m-ary function of arity n depending on all of its slots.

    Works by fixing an essentially m-ary function on the repeat set and
    randomizing the remaining (repeat-free) entries until every slot is
    essential.  For m < n this needs repeat-free tuples to exist (n <= k),
    and a binary function can never be quasi-binary; both impossibilities are
    rejected up front.
    """
    _check_shape(k, n, b)
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    if m < n and n > k:
        raise ValueError(
            f"arity {n} over a {k}-element domain leaves no repeat-free tuples, "
            f"so quasi-{m}-ary functions there depend on at most {m} slots"
        )
    if n == 2 and m == 2:
        raise ValueError("binary functions have quasi-arity at most 1")
    rng = random.Random(seed)

    def attempt() -> FiniteFunction | None:
        # An essentially n-ary g already depends on every slot; the fill
        # leaves the repeat set, and so the quasi-arity, as it is.
        g = gen_essentially_m_ary(k, n, b, m, rng.getrandbits(32))
        if quasi_arity(g) != m:
            return None
        return g if m == n else _fill_repeat_free(rng, k, n, b, g.table)

    return _first_found(f"quasi-{m}-ary witness", attempt)


def gen_oddsupp_determined(k: int, n: int, b: int, seed: int) -> FiniteFunction:
    """A function whose restriction to the repeat set factors through oddsupp
    via a nonconstant map, with quasi-arity n; repeat-free entries are random."""
    _check_shape(k, n, b)
    if n < 4:
        raise ValueError(f"need arity >= 4, got {n}")
    # At n >= 4 the tuples 0...0 and 1 0...0 both repeat and differ in
    # oddsupp, so at least two masks are reachable.
    reach = reachable_oddsupp_masks(k, n, restricted=True)
    rng = random.Random(seed)
    masks = _oddsupp_masks(k, n)

    def attempt() -> FiniteFunction | None:
        star = {mask: rng.randrange(b) for mask in reach}
        if len(set(star.values())) < 2:
            return None
        # Masks off the repeat set are not in star; the fill overwrites them.
        f = _fill_repeat_free(rng, k, n, b, [star.get(mask) for mask in masks])
        return f if f is not None and quasi_arity(f) == n else None

    return _first_found("oddsupp-determined witness", attempt)


def gen_ternary_pattern(
    k: int,
    pattern: tuple[int, int, int],
    seed: int,
    b: int | None = None,
    h_table: Sequence[int] | None = None,
) -> FiniteFunction:
    """A ternary function realizing the selector pattern (i1, i2, i3) with a
    nonconstant unary h, all three slots essential.

    With b = k and h the identity, (0,0,0) is a majority operation, (1,1,1) a
    minority operation, a one-hot pattern a semiprojection (needs k >= 3) and
    a two-hot pattern a 2/3-minority operation.  Repeat-free entries are
    random.
    """
    if any(i not in (0, 1) for i in pattern):
        raise ValueError(f"pattern bits must be 0 or 1, got {pattern}")
    rng = random.Random(seed)
    if b is None:
        b = k
    _check_shape(k, 3, b)
    if h_table is None:
        if b == k:
            h_table = tuple(range(k))
        else:
            h_table = tuple(rng.randrange(b) for _ in range(k))
    h_table = tuple(h_table)
    if len(set(h_table)) < 2:
        raise ValueError("h must be nonconstant")
    i1, i2, i3 = pattern
    base = [0] * k**3
    for idx, (a1, a2, a3) in enumerate(all_tuples(k, 3)):
        if a2 == a3:
            base[idx] = h_table[a1 if i1 else a2]
        elif a1 == a3:
            base[idx] = h_table[a2 if i2 else a1]
        elif a1 == a2:
            base[idx] = h_table[a3 if i3 else a1]
    # At k = 2 every ternary tuple has a repeat, so there is nothing to
    # draw and every attempt would build the same table.
    return _first_found(
        f"essentially ternary function with pattern {pattern}",
        lambda: _fill_repeat_free(rng, k, 3, b, base),
        retry=k > 2,
    )


def gen_semiprojection(k: int, n: int, t: int, seed: int) -> FiniteFunction:
    """An n-ary operation equal to the projection on slot t over the repeat
    set, depending on all slots (needs repeat-free tuples, so n <= k)."""
    if not 1 <= t <= n:
        raise ValueError(f"slot {t} not in 1..{n}")
    if n > k:
        raise ValueError(f"arity {n} over a {k}-element domain only admits projections")
    rng = random.Random(seed)
    base = projection(k, n, t).table
    return _first_found(
        f"essentially {n}-ary semiprojection",
        lambda: _fill_repeat_free(rng, k, n, k, base),
    )


# ---------------------------------------------------------------------------
# Verification sweeps.


@dataclass(frozen=True)
class SweepSpec:
    """What to verify and over which function space.

    `filter` optionally narrows the space to functions matching `gap=G`,
    `qa=M` or `ess=E` before the check runs.
    """

    theorem: str
    k: int
    n: int
    b: int
    mode: str = "exhaustive"  # or "sampled"
    samples: int | None = None
    seed: int | None = None
    filter: str | None = None

    def __post_init__(self):
        if self.mode not in ("exhaustive", "sampled"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "sampled" and (self.samples is None or self.samples < 0):
            raise ValueError("sampled mode needs a sample count")
        if self.filter is not None:
            parse_instance_filter(self.filter)


def parse_instance_filter(text: str) -> Callable[[FiniteFunction], bool]:
    """Predicate for `gap=G`, `qa=M` or `ess=E` filter expressions."""
    key, _, value = text.partition("=")
    if key not in ("gap", "qa", "ess") or not re.fullmatch(r"-?[0-9]+", value):
        raise ValueError(f"unknown filter {text!r}, expected gap=G, qa=M or ess=E")
    want = int(value)
    if key == "qa":
        return lambda f: quasi_arity(f) == want
    if key == "ess":
        return lambda f: _essential_count(f.k, f.n, f.table) == want

    def by_gap(f: FiniteFunction) -> bool:
        try:
            return arity_gap(f).gap == want
        except GapUndefinedError:
            return False

    return by_gap


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    checked: int
    failures: tuple[FiniteFunction, ...]
    seed: int | None
    elapsed: float


def render_report(report: VerificationReport) -> str:
    from .core import render_line

    seed = report.seed if report.seed is not None else "-"
    lines = [
        f"theorem={report.theorem} checked={report.checked} "
        f"failures={len(report.failures)} seed={seed}"
    ]
    lines.extend(render_line(f) for f in report.failures)
    return "\n".join(lines) + "\n"


def _all_id_minor_tables(f: FiniteFunction) -> list[tuple[int, ...]]:
    return [
        identification_minor(f, i, j).table
        for i in range(1, f.n + 1)
        for j in range(1, f.n + 1)
        if i != j
    ]


def _gap_of(f: FiniteFunction) -> int:
    return arity_gap(f).gap


def _check_minors_constant_iff_quasi_nullary(f: FiniteFunction) -> bool | None:
    left = all(len(set(t)) == 1 for t in _all_id_minor_tables(f))
    return left == (quasi_arity(f) == 0)


def _check_minors_unary_iff_quasi_unary(f: FiniteFunction) -> bool | None:
    left = all(_essential_count(f.k, f.n, t) == 1 for t in _all_id_minor_tables(f))
    return left == (quasi_arity(f) == 1)


def _check_swierczkowski(f: FiniteFunction) -> bool | None:
    projections = [projection(f.k, f.n, t).table for t in range(1, f.n + 1)]
    left = all(t in projections for t in _all_id_minor_tables(f))
    return left == (is_semiprojection(f) is not None)


def _check_quasi_arity_oracle(f: FiniteFunction) -> bool | None:
    return quasi_arity(f) == oracle_quasi_arity(f)


def _check_gap_low_quasi_arity(f: FiniteFunction) -> bool | None:
    m = quasi_arity(f)
    if m >= f.n:
        return None
    return _gap_of(f) == f.n - m


def _check_gap_at_most_two(f: FiniteFunction) -> bool | None:
    return _gap_of(f) <= 2


def _check_gap_iff_quasi_arity(f: FiniteFunction) -> bool | None:
    gap = _gap_of(f)
    m_actual = quasi_arity(f)
    return all((gap == f.n - m) == (m_actual == m) for m in range(f.n - 2))


def _check_pseudo_boolean_classifier(f: FiniteFunction) -> bool | None:
    try:
        want = oracle_gap(f)
    except GapUndefinedError:
        return True  # fewer than two essential slots: both sides reject f
    try:
        return classify_pseudo_boolean(f).gap == want
    except GapUndefinedError:
        return False  # the classifier missed an essential slot


def _check_large_range_gap_one(f: FiniteFunction) -> bool | None:
    if len(set(f.table)) <= 2 ** (f.k - 1):
        return None
    return _gap_of(f) == 1


def _check_symmetry_of_gap_two(f: FiniteFunction) -> bool | None:
    if _gap_of(f) != 2:
        return None
    if not is_restriction_totally_symmetric(f):
        return False
    expect = set(range(1, f.n + 1))
    for i in range(1, f.n + 1):
        for j in range(1, f.n + 1):
            if i == j:
                continue
            table = identification_minor(f, i, j).table
            essential = {s for s in expect if _is_essential(f.k, f.n, table, s)}
            if essential != expect - {i, j}:
                return False
    return True


def _check_gap_two_criterion(f: FiniteFunction) -> bool | None:
    m = quasi_arity(f)
    criterion = m == f.n - 2 or (
        m == f.n and is_restriction_determined_by_oddsupp(f).determined
    )
    return (_gap_of(f) == 2) == criterion


def _check_gap_two_ternary(f: FiniteFunction) -> bool | None:
    return (_gap_of(f) == 2) == (ternary_pattern(f) is not None)


@dataclass(frozen=True)
class TheoremCheck:
    """A registered statement: its predicate and its hypotheses.

    A sweep runs the predicate only on functions that meet the hypotheses:
    `arity(k, n)` holds for the sweep's shape, every slot is essential when
    `all_essential` is set, and the quasi-arity is n when `quasi_full` is
    set.  `within_budget(k, n, budget)` raises OracleInfeasibleError when
    the predicate's own search would exceed the budget at that shape.  The
    predicate returns None for any further case the statement leaves out.
    """

    id: str
    summary: str
    predicate: Callable[[FiniteFunction], bool | None]
    needs_operation: bool = False  # b = k required
    needs_two_element_domain: bool = False  # k = 2 required
    _: KW_ONLY
    arity: Callable[[int, int], bool] = lambda k, n: True
    within_budget: Callable[[int, int, int | None], object] = lambda k, n, budget: None
    all_essential: bool = False
    quasi_full: bool = False


THEOREMS: dict[str, TheoremCheck] = {
    t.id: t
    for t in (
        TheoremCheck(
            "T3.5i",
            "identification minors all constant iff quasi-arity 0",
            _check_minors_constant_iff_quasi_nullary,
            arity=lambda k, n: n >= 2,
        ),
        TheoremCheck(
            "T3.5ii",
            "identification minors all essentially unary iff quasi-arity 1 "
            "(arity 2 or at least 4)",
            _check_minors_unary_iff_quasi_unary,
            arity=lambda k, n: n == 2 or n >= 4,
        ),
        TheoremCheck(
            "SWIER",
            "semiprojection iff every identification minor is a projection "
            "(arity at least 4)",
            _check_swierczkowski,
            needs_operation=True,
            arity=lambda k, n: n >= 4,
        ),
        TheoremCheck(
            "L3.4",
            "quasi-arity equals the support-enumeration minimum",
            _check_quasi_arity_oracle,
            within_budget=_repeat_rows_within_budget,
        ),
        TheoremCheck(
            "P4.2",
            "gap is n - m for quasi-m-ary functions with m < n <= k",
            _check_gap_low_quasi_arity,
            arity=lambda k, n: 2 <= n <= k,
            all_essential=True,
        ),
        TheoremCheck(
            "T4.1",
            "gap at most 2 once the arity exceeds the domain size",
            _check_gap_at_most_two,
            arity=lambda k, n: n > k,
            all_essential=True,
        ),
        TheoremCheck(
            "T4.3",
            "gap at most 2 for quasi-n-ary functions of arity above 3",
            _check_gap_at_most_two,
            arity=lambda k, n: n > 3,
            all_essential=True,
            quasi_full=True,
        ),
        TheoremCheck(
            "T4.4",
            "gap n - m iff quasi-arity m, for every m <= n - 3",
            _check_gap_iff_quasi_arity,
            arity=lambda k, n: n >= 2,
            all_essential=True,
        ),
        TheoremCheck(
            "T5.1",
            "two-element-domain classifier agrees with the minor-enumeration oracle",
            _check_pseudo_boolean_classifier,
            needs_two_element_domain=True,
        ),
        TheoremCheck(
            "L5.2",
            "range larger than 2^(k-1) forces gap 1 at arity above max(k, 3)",
            _check_large_range_gap_one,
            arity=lambda k, n: n > max(k, 3),
            all_essential=True,
        ),
        TheoremCheck(
            "T6.1",
            "gap-2 quasi-n-ary functions are symmetric on the repeat set with "
            "(n-2)-ary identification minors",
            _check_symmetry_of_gap_two,
            arity=lambda k, n: n > 3,
            all_essential=True,
            quasi_full=True,
        ),
        TheoremCheck(
            "T6.3",
            "gap 2 iff quasi-arity n - 2, or n with oddsupp-determined restriction "
            "(arity above 3)",
            _check_gap_two_criterion,
            arity=lambda k, n: n > 3,
            all_essential=True,
        ),
        TheoremCheck(
            "T6.4ii",
            "general gap-2 criterion for arity other than 3",
            _check_gap_two_criterion,
            arity=lambda k, n: n == 2 or n >= 4,
            all_essential=True,
        ),
        TheoremCheck(
            "T6.4iii",
            "ternary gap-2 criterion via the unary selector pattern",
            _check_gap_two_ternary,
            arity=lambda k, n: n == 3,
            all_essential=True,
        ),
    )
}


def function_by_id(k: int, n: int, b: int, ident: int) -> FiniteFunction:
    """The ident-th function in the canonical enumeration: the table read as a
    big-endian base-b numeral.  `functions_in_order` walks a range of ids."""
    size = _check_shape(k, n, b)
    table = [0] * size
    for pos in range(size - 1, -1, -1):
        ident, table[pos] = divmod(ident, b)
    if ident:
        raise ValueError("function id out of range")
    return FiniteFunction._valid(k, n, b, tuple(table))


def functions_in_order(k: int, n: int, b: int, lo: int, hi: int) -> Iterator[FiniteFunction]:
    """function_by_id(k, n, b, i) for i in range(lo, hi), in that order.

    itertools.product over range(b) counts through the big-endian base-b
    numerals, so its i-th tuple is the table of id i.
    """
    size = _check_shape(k, n, b)
    tables = itertools.islice(itertools.product(range(b), repeat=size), lo, hi)
    return map(partial(FiniteFunction._valid, k, n, b), tables)


@lru_cache(maxsize=256)
def _top_bits(b: int) -> tuple[bytes, bytes]:
    # For 2 <= b <= 255: randrange(b) keeps the top b.bit_length() bits of a
    # 32-bit Mersenne Twister word and draws again while they are >= b.  As
    # translate arguments over the top byte of a word: the table that keeps
    # those bits, and the bytes whose kept bits are >= b.
    shift = 8 - b.bit_length()
    top = bytes(x >> shift for x in range(256))
    return top, bytes(x for x in range(256) if x >> shift >= b)


def _sampled_table(rng: random.Random, size: int, b: int) -> tuple[int, ...]:
    # The first `size` values of randrange(b) on rng, which may be drawn
    # past them.  getrandbits(32 * m) holds the next m words, the first one
    # least significant, so the little-endian bytes 3, 7, ... are the top
    # bytes of the words in draw order.
    if b > 255:
        return _random_table(rng, size, b)
    top, delete = _top_bits(b)
    bits = b.bit_length()
    values = b""
    while len(values) < size:
        words = ((size - len(values)) << bits) // b + 1
        drawn = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
        values += drawn.translate(top, delete)
    return tuple(values[:size])


def sampled_function(k: int, n: int, b: int, seed: int | None, index: int) -> FiniteFunction:
    """Sample `index` at `seed`: its k^n entries are successive
    randrange(b) draws from random.Random(f"{seed}:{index}")."""
    size = _check_shape(k, n, b)
    rng = random.Random(f"{seed}:{index}")
    return FiniteFunction._valid(k, n, b, _sampled_table(rng, size, b))


def constructed_witnesses(k: int, n: int, b: int, seed: int | None) -> list[FiniteFunction]:
    """Deterministic battery of constructed functions so that sampled sweeps
    exercise both directions of each equivalence, not just the generic case."""
    out: list[FiniteFunction] = []
    base = random.Random(f"{seed}:battery")

    def attempt(fn, *args):
        try:
            out.append(fn(*args))
        except ValueError:
            pass

    if n == k and b == k:
        out.append(gen_salomaa(k))
    for m in range(0, n + 1):
        attempt(gen_quasi_m_ary, k, n, b, m, base.getrandbits(32))
    for m in range(0, min(n, 3)):
        attempt(gen_essentially_m_ary, k, n, b, m, base.getrandbits(32))
    attempt(gen_oddsupp_determined, k, n, b, base.getrandbits(32))
    if n == 3:
        for pattern in itertools.product((0, 1), repeat=3):
            attempt(gen_ternary_pattern, k, pattern, base.getrandbits(32), b)
    if b == k and n <= k:
        attempt(gen_semiprojection, k, n, 1, base.getrandbits(32))
    return out


def _check_each(spec: SweepSpec, functions) -> tuple[int, list[tuple[int, ...]]]:
    # How many of the functions the check applied to, and the failing tables.
    # Every function of a sweep has the spec's k and n, so the arity
    # hypothesis is decided once, and when it fails no function is checked.
    check = THEOREMS[spec.theorem]
    if not check.arity(spec.k, spec.n):
        return 0, []
    keep = parse_instance_filter(spec.filter) if spec.filter else None
    checked = 0
    failures = []
    for f in functions:
        if keep is not None and not keep(f):
            continue
        if check.all_essential and not _all_essential(f):
            continue
        if check.quasi_full and quasi_arity(f) != f.n:
            continue
        verdict = check.predicate(f)
        if verdict is None:
            continue
        checked += 1
        if not verdict:
            failures.append(f.table)
    return checked, failures


def _sweep_range(spec: SweepSpec, bounds: tuple[int, int]) -> tuple[int, list[tuple[int, ...]]]:
    if spec.mode == "exhaustive":
        functions = functions_in_order(spec.k, spec.n, spec.b, *bounds)
    else:
        make = partial(sampled_function, spec.k, spec.n, spec.b, spec.seed)
        functions = map(make, range(*bounds))
    return _check_each(spec, functions)


def verify(spec: SweepSpec, budget: int | None = None, jobs: int = 1) -> VerificationReport:
    """Run one named check over the requested function space.

    checked counts the functions that meet the hypotheses declared on the
    TheoremCheck and get a verdict from its predicate; failures are reported
    sorted by table and must reproduce when replayed.  `jobs` must be at
    least 1 and is capped at the CPU count.

    `budget` bounds the exhaustive enumeration and the check's
    `within_budget` refusal.  The predicate's own search (L3.4's
    `oracle_quasi_arity(f)`) still resolves ARITYGAP_BUDGET or the default,
    so a budget above that one still ends in the oracle's refusal.
    """
    if spec.theorem not in THEOREMS:
        raise ValueError(f"unknown theorem id {spec.theorem!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    check = THEOREMS[spec.theorem]
    _check_shape(spec.k, spec.n, spec.b)
    if check.needs_operation and spec.b != spec.k:
        raise UnsupportedCodomainError(f"{spec.theorem} needs b = k")
    if check.needs_two_element_domain and spec.k != 2:
        raise UnsupportedDomainError(f"{spec.theorem} is about two-element domains")
    start = time.perf_counter()
    if spec.mode == "exhaustive":
        try:
            total = function_count(spec.k, spec.n, spec.b, budget)
        except OracleInfeasibleError as exc:
            raise OracleInfeasibleError(f"{exc}; use sampling") from None
        extras: list[FiniteFunction] = []
    else:
        total = spec.samples
        # Whether the check's own search fits its budget depends on the
        # shape alone, so an over-budget shape is refused before the
        # samples and the witness battery are built.
        check.within_budget(spec.k, spec.n, budget)
        extras = constructed_witnesses(spec.k, spec.n, spec.b, spec.seed)

    sweep = partial(_sweep_range, spec)
    if jobs > 1 and total > 0:
        chunk = max(1, total // (jobs * 4))
        bounds = [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
        from multiprocessing import Pool  # only here: the import is slow

        with Pool(jobs) as pool:
            parts = pool.map(sweep, bounds)
    else:
        parts = [sweep((0, total))]
    parts.append(_check_each(spec, extras))
    checked = sum(part_checked for part_checked, _ in parts)
    failure_tables = [t for _, part_failures in parts for t in part_failures]

    failures = tuple(
        FiniteFunction(spec.k, spec.n, spec.b, t) for t in sorted(set(failure_tables))
    )
    return VerificationReport(
        theorem=spec.theorem,
        checked=checked,
        failures=failures,
        seed=spec.seed if spec.mode == "sampled" else None,
        elapsed=time.perf_counter() - start,
    )
