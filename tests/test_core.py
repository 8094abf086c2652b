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
from aritygap.oracle import THEOREMS
from aritygap import (
    FiniteFunction,
    FunctionFormatError,
    all_tuples,
    index_to_tuple,
    parse,
    parse_stream,
    render,
    render_line,
    tuple_to_index,
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
