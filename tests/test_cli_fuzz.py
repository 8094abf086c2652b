"""The whole command line under one property, run in-process through `main`.

Argument vectors follow the parser's grammar: every subcommand, with each
flag valid, missing, repeated, zero, negative, huge or not an integer.  Stdin
is a rendered stream, a token soup or text over the parse fuzz's alphabet,
and ARITYGAP_BUDGET is unset, empty, a small number or not a number.  Whatever
the draw, `main` exits 0, 1, 2 or 3.  On exits 1 and 2 it writes exactly one
`aritygap: ` line to stderr, and to stdout only what the functions before
the failing one of a stream wrote; on exits 0 and 3 stderr stays empty.
Valid shapes keep k^n <= 64; a draw that would enumerate more than 4,096
tables without the budget refusing them, or sweep more than 50 samples or
start more than 2 workers, is set aside before `main` runs.  Runs are
derandomized, so the suite stays deterministic.
"""

import contextlib
import io
import os
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from aritygap import THEOREMS, FiniteFunction, FunctionFormatError, cli, parse_stream
from aritygap import render, render_line
from aritygap.core import _check_shape
from test_parse import ALPHABET, token_soups

FUZZ = settings(
    derandomize=True,
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)

# Shapes with k^n <= 64, and those of them with b^(k^n) <= 4,096 tables.
SHAPES = [(k, n, b) for k in (2, 3, 4, 8) for n in range(1, 7) for b in (2, 3) if k**n <= 64]
SMALL_SPACES = [(k, n, b) for k, n, b in SHAPES if b ** (k**n) <= 4096]
HUGE = str(10**30)
NOT_INTEGERS = ("x", "", "1.5", "1e3", "0x10", "٣x", "--k")
FAULTS = ("missing", "repeated", "zero", "negative", "huge", "text")
BUDGETS = (None,) * 4 + ("", "0", "10", "319", "320", "4096", "-1", "1e3", "٣", " 5")
THEOREM_IDS = sorted(THEOREMS)
STDIN_COMMANDS = ("analyze", "classify", "minor", "oddsupp-check")


def pick(draw, clean, good, bad=()):
    # One of the words lists in good, or in a faulty draw of good or bad.
    return list(draw(st.sampled_from(good if clean else good + bad)))


@st.composite
def int_flag(draw, flag, valid, clean):
    # A clean draw gives the flag a valid value; a faulty one gives it a
    # valid value, or leaves it missing, repeated, zero, negative, huge or
    # not an integer.
    kind = "valid" if clean else draw(st.sampled_from(("valid", "valid") + FAULTS))
    if kind == "missing":
        return []
    if kind == "repeated":
        return [flag, str(draw(valid)), flag, str(draw(valid))]
    value = {
        "valid": lambda: str(draw(valid)),
        "zero": lambda: "0",
        "negative": lambda: str(-draw(st.integers(1, 3))),
        "huge": lambda: HUGE,
        "text": lambda: draw(st.sampled_from(NOT_INTEGERS)),
    }[kind]()
    return [flag, value]


@st.composite
def shape_flags(draw, shapes, clean):
    # The words of --k, --n and --b, and the shape they hold when valid.
    shape = draw(st.sampled_from(shapes))
    words = []
    for name, value in zip(("--k", "--n", "--b"), shape):
        words += draw(int_flag(name, st.just(value), clean))
    return words, shape


@st.composite
def argvs(draw, clean):
    command = draw(st.sampled_from((*STDIN_COMMANDS, "gen", "enumerate", "verify")))
    words = [command]
    if command == "classify":
        both = ["--boolean", "--pseudo-boolean"]
        words += pick(draw, clean, ([], both[:1], both[1:]), (both,))
    elif command == "oddsupp-check":
        words += pick(draw, clean, ([], ["--restricted"]), (["--restricted", "--restricted"],))
    elif command == "minor":
        slots = ("1,2", "2,1", "1,1")
        bad_slots = ("0,1", "1,9", "a,b", "1", "1,2,3", "-1,2", f"1,{HUGE}")
        good = [[flag, draw(st.sampled_from(slots))] for flag in ("--identify", "--sigma")]
        bad = [[flag, draw(st.sampled_from(bad_slots))] for flag in ("--identify", "--sigma")]
        words += pick(draw, clean, (*good, ["--diagonal"]), (*bad, [], ["--diagonal", *good[0]]))
        if words[-2:-1] == ["--sigma"] or not clean:
            words += draw(int_flag("--target-arity", st.integers(2, 3), clean))
    elif command == "gen":
        generator = pick(draw, clean, (["salomaa"], ["quasi"], ["oddsupp"]), (["nope"],))[0]
        words.append(generator)
        if generator == "salomaa":
            words += draw(int_flag("--k", st.integers(2, 3), clean))
        elif generator == "quasi":
            # Below arity n, quasi-m-ary needs repeat-free tuples: 1 < n <= k.
            shape_words, (k, n, _) = draw(shape_flags(SHAPES, clean))
            m = st.integers(0, n) if 1 < n <= k else st.just(n)
            words += shape_words + draw(int_flag("--m", m, clean))
        elif generator == "oddsupp":
            words += draw(shape_flags([(2, 4, 2), (2, 5, 2), (2, 6, 3), (3, 3, 2)], clean))[0]
        if generator in ("quasi", "oddsupp"):
            words += draw(int_flag("--seed", st.integers(0, 99), clean))
    elif command == "enumerate":
        words += draw(shape_flags(SMALL_SPACES, clean))[0]
        good = draw(st.sampled_from(("gap=1", "gap=2", "qa=1", "ess=0", "gap=-1")))
        bad = draw(st.sampled_from(("gap=x", "arity=1", "", f"gap={HUGE}")))
        words += pick(draw, clean, ([], ["--filter", good]), (["--filter", bad],))
    elif command == "verify":
        theorem = ["--theorem", draw(st.sampled_from(THEOREM_IDS))]
        words += pick(draw, clean, (theorem,), (["--theorem", "NOPE"], [], theorem * 2))
        exhaustive = draw(st.booleans())
        words += draw(shape_flags(SMALL_SPACES if exhaustive else SHAPES, clean))[0]
        samples = draw(int_flag("--samples", st.integers(0, 50), clean))
        if exhaustive:
            words += pick(draw, clean, (["--exhaustive"],), (["--exhaustive"] + samples,))
        else:
            words += samples
        words += draw(int_flag("--seed", st.integers(0, 99), clean))
        words += draw(st.sampled_from(([],) * 12 + (["--jobs", "1"], ["--jobs", "2"])))
        words += [] if clean else draw(int_flag("--jobs", st.integers(1, 2), clean))
    if command in STDIN_COMMANDS:
        words += pick(draw, clean, ([],) * 6, (["--in", "{tmp}/missing.fn"],))
    out = ([],) * 6 + (["--out", "{tmp}/out.fn"],)
    words += pick(draw, clean, out, (["--out", "{tmp}"], ["--out", "{tmp}/no/out.fn"]))
    words += pick(draw, clean, ([],), (["--bogus"], ["extra"], ["--help"]))
    return words


@st.composite
def rendered_functions(draw):
    k, n, b = draw(st.sampled_from(SHAPES))
    table = draw(st.lists(st.integers(0, b - 1), min_size=k**n, max_size=k**n))
    f = FiniteFunction(k, n, b, tuple(table))
    return draw(st.sampled_from((render(f), render_line(f) + "\n")))


@st.composite
def cases(draw):
    # An argument vector, stdin and ARITYGAP_BUDGET; two in three draws are
    # clean, with valid flags, a rendered stream and a valid budget.
    clean = draw(st.sampled_from((True, True, False)))
    streams = st.lists(rendered_functions(), min_size=1, max_size=3).map("".join)
    if not clean:
        streams = st.one_of(streams, token_soups(), st.text(alphabet=ALPHABET, max_size=80))
    budgets = [env for env in BUDGETS if not clean or _budget(env) is not None]
    return draw(argvs(clean)), draw(streams), draw(st.sampled_from(budgets))


def _budget(env):
    # The budget a run reads, None when the variable is not one.
    if not env:
        return 10**7
    return int(env) if env.isascii() and env.isdigit() else None


def affordable(argv, env):
    """Whether `main(argv)` does at most a little work: the parse fails, or
    the shape is refused, or it holds k^n <= 64 entries, sweeps at most 50
    samples on at most 2 workers, and enumerates at most 4,096 tables or
    has them refused by the budget."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            ns = cli.build_parser().parse_args(argv)
        except SystemExit:
            return True
    if ns.command in STDIN_COMMANDS:
        return True
    if getattr(ns, "generator", None) == "salomaa":
        k = n = b = ns.k
    else:
        k, n, b = ns.k, ns.n, ns.b
    try:
        size = _check_shape(k, n, b)
    except ValueError:
        return True
    if getattr(ns, "jobs", 1) > 2 or (getattr(ns, "samples", None) or 0) > 50:
        return False
    if ns.command == "enumerate" or getattr(ns, "exhaustive", False):
        budget = _budget(env)
        return budget is None or size >= budget.bit_length() or not 4096 < b**size <= budget
    return size <= 64


def run_main(main, argv, stdin, env):
    environ = {k: v for k, v in os.environ.items() if k != "ARITYGAP_BUDGET"}
    if env is not None:
        environ["ARITYGAP_BUDGET"] = env
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, environ, clear=True):
        with mock.patch.object(sys, "stdin", io.StringIO(stdin)):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
    return code, out.getvalue(), err.getvalue()


def written_before_failure(main, argv, stdin, env):
    # A stream stops at its first function that fails, after the output of
    # the functions before it: that of the longest prefix that succeeds.
    try:
        fns = parse_stream(stdin)
    except FunctionFormatError:
        return ""
    out = ""
    for end in range(1, len(fns)):
        code, prefix_out, _ = run_main(main, argv, "".join(map(render, fns[:end])), env)
        if code:
            break
        out = prefix_out
    return out


def check_cli(main):
    @FUZZ
    @given(cases())
    def check(case):
        argv, stdin, env = case
        argv = [word.replace("{tmp}", tmp) for word in argv]
        assume(affordable(argv, env))
        code, out, err = run_main(main, argv, stdin, env)
        assert code in (0, 1, 2, 3), (argv, code)
        if code in (1, 2):
            assert out == written_before_failure(main, argv, stdin, env), (argv, out)
            assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
            assert err.startswith("aritygap: "), (argv, err)
        else:
            assert err == "", (argv, err)

    with tempfile.TemporaryDirectory() as tmp:
        check()


def test_cli_exit_codes_and_streams_hold_on_any_input():
    check_cli(cli.main)


def test_cli_check_fails_an_uncaught_error(monkeypatch):
    # A twin of main in which one command raises a KeyError it does not catch.
    def broken(args, out):
        raise KeyError("slot")

    monkeypatch.setitem(cli._COMMANDS, "analyze", broken)
    with pytest.raises(KeyError):
        check_cli(cli.main)
