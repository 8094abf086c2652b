import ast
import builtins
import importlib
import itertools
import pkgutil
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import aritygap
from aritygap import oracle
from aritygap.core import _check_shape
from aritygap.oracle import THEOREMS
from aritygap import (
    DiagonalRestriction,
    FiniteFunction,
    FunctionFormatError,
    MinorMap,
    SweepSpec,
    UnarySupport,
    VariablePartition,
    all_tuples,
    constant,
    gen_essentially_m_ary,
    gen_semiprojection,
    gen_ternary_pattern,
    index_to_tuple,
    parse,
    parse_stream,
    projection,
    render,
    render_line,
    tuple_to_index,
    unique_unary_support,
)

AND2 = FiniteFunction(2, 2, 2, (0, 0, 0, 1))
XOR2 = FiniteFunction(2, 2, 2, (0, 1, 1, 0))


def salomaa3():
    table = [0] * 27
    table[tuple_to_index(3, (0, 1, 2))] = 1
    return FiniteFunction(3, 3, 3, tuple(table))


def test_eval_and2():
    assert AND2.eval((1, 1)) == 1
    assert AND2.eval((1, 0)) == 0
    assert AND2(0, 1) == 0


def test_eval_salomaa3():
    f = salomaa3()
    assert f(0, 1, 2) == 1
    assert f(0, 0, 0) == 0
    assert f(2, 1, 0) == 0


def test_eval_rejects_bad_arguments():
    with pytest.raises(ValueError):
        AND2.eval((1,))
    with pytest.raises(ValueError):
        AND2.eval((2, 0))
    with pytest.raises(ValueError):
        AND2.eval((0, -1))


def test_constructor_invariants():
    with pytest.raises(ValueError):
        FiniteFunction(1, 2, 2, (0, 0))
    with pytest.raises(ValueError):
        FiniteFunction(2, 0, 2, ())
    with pytest.raises(ValueError):
        FiniteFunction(2, 2, 1, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        FiniteFunction(2, 2, 2, (0, 0, 0))
    with pytest.raises(ValueError):
        FiniteFunction(2, 2, 2, (0, 0, 0, 2))


NOT1 = FiniteFunction(2, 1, 2, (1, 0))
CONST1 = constant(3, 1, 2, 1)


def _outcome(call):
    # What call() returns, or the type and message of what it raises.
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: MinorMap(0, 2, ()), (ValueError, "arities must be >= 1")),
        (lambda: MinorMap(2, 0, (1, 1)), (ValueError, "arities must be >= 1")),
        (lambda: MinorMap(2, 2, [2, 1]).sigma, (2, 1)),
        (lambda: VariablePartition(2, ((1, 2), ())), (ValueError, "empty block")),
        (lambda: projection(2, 2, 3), (ValueError, "projection slot 3 not in 1..2")),
        (lambda: projection(2, 2, 0), (ValueError, "projection slot 0 not in 1..2")),
        (lambda: FiniteFunction(2, 1, 2, [1, 0]).table, (1, 0)),
        (
            lambda: gen_essentially_m_ary(2, 2, 2, 3, seed=0),
            (ValueError, "need 0 <= m <= n, got m=3, n=2"),
        ),
        (
            lambda: gen_essentially_m_ary(2, 2, 2, -1, seed=0),
            (ValueError, "need 0 <= m <= n, got m=-1, n=2"),
        ),
        (
            lambda: gen_ternary_pattern(3, (0, 2, 0), seed=0),
            (ValueError, "pattern bits must be 0 or 1, got (0, 2, 0)"),
        ),
        (lambda: gen_semiprojection(3, 3, 4, seed=0), (ValueError, "slot 4 not in 1..3")),
        (lambda: gen_semiprojection(3, 3, 0, seed=0), (ValueError, "slot 0 not in 1..3")),
        (
            lambda: SweepSpec("T4.1", 2, 2, 2, "random"),
            (ValueError, "unknown mode 'random'"),
        ),
        (lambda: unique_unary_support(NOT1), UnarySupport((NOT1,), (1,), False)),
        (lambda: unique_unary_support(CONST1), UnarySupport((CONST1,), (), False)),
        (lambda: [DiagonalRestriction(NOT1).contains(t) for t in ((0,), (1,))], [True, True]),
    ],
    ids=[
        "minor-map-source-arity",
        "minor-map-target-arity",
        "minor-map-list-sigma",
        "partition-empty-block",
        "projection-slot-high",
        "projection-slot-low",
        "function-list-table",
        "essentially-m-ary-m-high",
        "essentially-m-ary-m-low",
        "ternary-pattern-bits",
        "semiprojection-slot-high",
        "semiprojection-slot-low",
        "sweep-mode",
        "unary-support-unary",
        "unary-support-constant",
        "diagonal-restriction-unary",
    ],
)
def test_argument_checks(call, expected):
    assert _outcome(call) == expected


def test_constructor_refuses_a_huge_arity_at_once():
    # In a child process with a timeout: computing 3^(10^8) would hang.
    code = (
        "from aritygap import FiniteFunction\n"
        "try:\n"
        "    FiniteFunction(3, 10**8, 2, ())\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    assert done.stdout == "table would need 3^100000000 entries, over the 100000000 limit\n"


def test_check_shape_limit():
    # k^n below n = 27 is written out; from there on 2^n alone is over the
    # limit, so k^n is named as a power and never computed.
    assert _check_shape(10, 8, 2) == 10**8
    assert _check_shape(2, 26, 2) == 2**26
    limit = "entries, over the 100000000 limit$"
    for k, n, entries in ((10, 9, "1000000000"), (2, 27, r"2\^27"), (2, 10**18, rf"2\^{10**18}")):
        with pytest.raises(ValueError, match=f"^table would need {entries} {limit}"):
            _check_shape(k, n, 2)
    # k, then n, then b, then the limit: the first bad value is the one named.
    for k, n, b, message in (
        (1, 3, 2, "domain size k must be >= 2, got 1"),
        (2, 0, 2, "arity n must be >= 1, got 0"),
        (2, 2, 1, "codomain size b must be >= 2, got 1"),
        (1, 0, 1, "domain size k must be >= 2, got 1"),
        (2, 0, 1, "arity n must be >= 1, got 0"),
        (10, 9, 1, "codomain size b must be >= 2, got 1"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            _check_shape(k, n, b)


def test_immutable():
    with pytest.raises(AttributeError):
        AND2.table = (1, 1, 1, 1)


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_codec_bijective_and_monotone(k, n):
    indices = [tuple_to_index(k, t) for t in all_tuples(k, n)]
    assert indices == list(range(k**n))
    for idx in range(k**n):
        assert tuple_to_index(k, index_to_tuple(k, n, idx)) == idx


def test_parse_xor2():
    assert parse("2 2 2\n0 1 1 0") == XOR2


def test_parse_wrong_count():
    with pytest.raises(FunctionFormatError, match="expected 4 values, got 3"):
        parse("2 2 2\n0 1 1")


def test_parse_value_out_of_range():
    with pytest.raises(FunctionFormatError, match="value 2 not in 0..1") as err:
        parse("2 2 2\n0 1 2 0")
    assert err.value.line == 2
    assert err.value.column == 5


def test_parse_bad_header():
    with pytest.raises(FunctionFormatError, match="not an integer"):
        parse("x 2 2\n0 1 1 0")
    with pytest.raises(FunctionFormatError, match="invalid header"):
        parse("1 2 2\n0 1 1 0")
    with pytest.raises(FunctionFormatError, match="incomplete header"):
        parse("2 2")


def test_parse_comments_and_multiline():
    text = "# conjunction\n2 2 2\n0 0\n0 1\n"
    assert parse(text) == AND2
    # A '#' opening a line or a ';'-part ends the line; elsewhere it is a token.
    assert parse("2 2 2;  # rest of the line; 1 1 1 1\n0 0 0 1") == AND2
    with pytest.raises(FunctionFormatError, match=r"^line 1, col 7: table value: '#'"):
        parse("2 1 2 # x\n0 1\n")


def test_parse_single_line_variant():
    assert parse(render_line(AND2)) == AND2
    assert render_line(AND2) == "2 2 2;0 0 0 1"


def test_render_and2():
    assert render(AND2) == "2 2 2\n0 0 0 1\n"


def test_parse_stream_multiple():
    text = render(AND2) + render(XOR2)
    assert parse_stream(text) == [AND2, XOR2]
    with pytest.raises(FunctionFormatError, match="exactly one"):
        parse(text)


@pytest.mark.parametrize("seed", range(5))
def test_round_trip_random(seed):
    rng = random.Random(seed)
    k = rng.randint(2, 4)
    n = rng.randint(1, 4)
    b = rng.randint(2, 5)
    f = FiniteFunction(k, n, b, tuple(rng.randrange(b) for _ in range(k**n)))
    assert parse(render(f)) == f
    assert parse(render_line(f)) == f


def test_rerender_is_canonical():
    messy = "# c\n 2 2   2\n0  0\n0 1"
    assert render(parse(messy)) == "2 2 2\n0 0 0 1\n"


def test_tuples_iteration_order():
    assert list(all_tuples(2, 2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert list(itertools.islice(all_tuples(3, 3), 4)) == [
        (0, 0, 0),
        (0, 0, 1),
        (0, 0, 2),
        (0, 1, 0),
    ]


def _caches():
    # Every lru_cache wrapper at module or class level in the package.
    for info in pkgutil.iter_modules(aritygap.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"aritygap.{info.name}")
        for name, obj in vars(module).items():
            members = vars(obj).items() if isinstance(obj, type) else ()
            for label, fn in ((name, obj), *((f"{name}.{a}", v) for a, v in members)):
                if callable(getattr(fn, "cache_info", None)):
                    yield f"{info.name}.{label}", fn


def test_every_cache_is_bounded():
    # A cache keyed by shape or pair that never evicts grows with every k
    # and n a process meets.
    caches = dict(_caches())
    assert {"oracle._lead_gather", "analysis._plan", "oracle._partitions"} <= set(caches)
    assert [name for name, fn in caches.items() if fn.cache_info().maxsize is None] == []
    # Caches out of reach of the walk above (nested or decorated later).
    unbounded = re.compile(r"maxsize=None|lru_cache\(\s*None|functools\.cache\b|@cache\b|import[^\n]*\bcache\b")
    src = Path(__file__).resolve().parents[1] / "src" / "aritygap"
    assert [p.name for p in sorted(src.glob("*.py")) if unbounded.search(p.read_text())] == []


def test_hypotheses_retries_and_repeat_flags_live_in_one_place():
    # Theorem hypotheses are declared on TheoremCheck, the generators share
    # one retry loop, and only analysis reads the repeat-set flags.
    src = Path(__file__).resolve().parents[1] / "src" / "aritygap"
    oracle = (src / "oracle.py").read_text()
    predicates = {
        node.name: node
        for node in ast.parse(oracle).body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_check_")
        and node.name != "_check_each"
    }
    assert set(predicates) == {t.predicate.__name__ for t in THEOREMS.values()}
    for name, node in predicates.items():
        assert "!= f.n" not in ast.get_source_segment(oracle, node), name
        first = node.body[0]
        if isinstance(first, ast.If):
            test = ast.unparse(first.test)
            assert "f.n" not in test and "_essential_" not in test, name
    sources = {p.name: p.read_text() for p in sorted(src.glob("*.py"))}
    assert sum(text.count("range(GENERATOR_ATTEMPTS)") for text in sources.values()) == 1
    assert [name for name, text in sources.items() if "_repeat_flags" in text] == ["analysis.py"]


def test_table_shape_rule_lives_in_core():
    # core._check_shape is the one check of k, n, b and the table limit:
    # MAX_TABLE_ENTRIES is named only where it is defined and in that check,
    # and no other helper computes or words the limit.
    src = Path(__file__).resolve().parents[1] / "src" / "aritygap"
    sources = {p.name: p.read_text() for p in sorted(src.glob("*.py"))}
    for name in ("over_table_limit", "_over_limit_message", "table_entries", "_checked_size"):
        assert [f for f, text in sources.items() if re.search(rf"\b{name}\b", text)] == [], name
    limit = re.compile(r"\bMAX_TABLE_ENTRIES\b")
    assert [f for f, text in sources.items() if limit.search(text)] == ["core.py"]
    core = sources["core.py"]
    check = next(
        node
        for node in ast.parse(core).body
        if isinstance(node, ast.FunctionDef) and node.name == "_check_shape"
    )
    outside = core.replace(ast.get_source_segment(core, check), "")
    assert [line for line in outside.splitlines() if limit.search(line)] == [
        "MAX_TABLE_ENTRIES = 10**8"
    ]


def test_oracle_decides_essentiality_on_its_own():
    # The oracles check the fast paths, so they must share nothing with them.
    # Every name the definitional oracles load is a builtin, a stdlib name, a
    # name imported from .core, a literal constant of oracle.py, or another
    # function of oracle.py, which is then held to the same rule.
    src = Path(__file__).resolve().parents[1] / "src" / "aritygap"
    tree = ast.parse((src / "oracle.py").read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    allowed = set(dir(builtins))
    for node in tree.body:
        if isinstance(node, ast.Import):
            allowed |= {
                a.asname or a.name.split(".")[0]
                for a in node.names
                if a.name.split(".")[0] in sys.stdlib_module_names
            }
        elif isinstance(node, ast.ImportFrom):
            if (node.level, node.module) == (1, "core") or (
                node.level == 0 and node.module.split(".")[0] in sys.stdlib_module_names
            ):
                allowed |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Assign) and not any(
            isinstance(x, ast.Name) for x in ast.walk(node.value)
        ):
            allowed |= {target.id for target in node.targets}
    todo = ["_is_essential", "_essential_count", "_partitions", "_lead_gather"]
    todo += ["oracle_gap", "oracle_quasi_arity"]
    own = set()
    while todo:
        name = todo.pop()
        if name in own:
            continue
        own.add(name)
        nodes = list(ast.walk(defs[name]))
        bound = {x.arg for x in nodes if isinstance(x, ast.arg)}
        bound |= {x.id for x in nodes if isinstance(x, ast.Name) and isinstance(x.ctx, ast.Store)}
        loaded = {x.id for x in nodes if isinstance(x, ast.Name) and isinstance(x.ctx, ast.Load)}
        for other in sorted(loaded - bound - allowed):
            assert other in defs, f"{name} loads {other}"
            todo.append(other)
    checks = {name: ast.unparse(defs[name]) for name in ("_essential_count", "_is_essential")}
    assert [name for name, text in checks.items() if "lru_cache" in text] == []


def test_two_valued_classifiers_share_one_core():
    # The pseudo-Boolean classifier runs the Boolean classification once on
    # its relabelled table, not through the public classifier.
    src = Path(__file__).resolve().parents[1] / "src" / "aritygap"
    tree = ast.parse((src / "classify.py").read_text())
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    assert "replace" not in imported
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_family_tag" not in defs
    called = {
        node.func.id
        for node in ast.walk(defs["classify_pseudo_boolean"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert "classify_boolean" not in called


def test_large_index_maps_are_not_kept():
    # oracle_gap keeps the partition maps of tables of up to 1,024 entries
    # only; keeping one map per partition of every wide table would let a
    # stream of them fill memory.  minors builds each map for its call and
    # keeps none.
    assert [name for name, _ in _caches() if name.startswith("minors.")] == []
    cached = oracle._lead_gather
    # Parity of every slot: identifying two slots drops both, so the walk
    # gathers the C(n, 2) minors with one pair identified.
    small, large = (
        FiniteFunction(2, n, 2, tuple(bin(x).count("1") % 2 for x in range(2**n)))
        for n in (5, 12)
    )
    for f, kept in ((small, 10), (large, 0)):
        cached.cache_clear()
        assert oracle.oracle_gap(f) == 2
        assert cached.cache_info().currsize == kept
