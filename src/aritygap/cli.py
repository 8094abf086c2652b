"""Command line front end.

Every command reads and writes the dense-table text format on stdin/stdout
(or via --in/--out) and processes each function in the input stream in turn.
Exit codes: 0 success, 1 domain error, 2 usage, parse or file error, 3 when
``verify`` finds failures.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from functools import lru_cache

from . import core, minors
from .classify import (
    classify as classify_general,
    classify_boolean,
    classify_pseudo_boolean,
    render_classification,
)
from .core import FiniteFunction, FunctionFormatError, parse_stream, render
from .gap import arity_gap
from .oddsupp import is_determined_by_oddsupp, is_restriction_determined_by_oddsupp
from .oracle import (
    SweepSpec,
    THEOREMS,
    function_count,
    functions_in_order,
    gen_oddsupp_determined,
    gen_quasi_m_ary,
    gen_salomaa,
    parse_instance_filter,
    render_report,
    verify,
)


def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once for each set of registered
    theorems (the `verify --theorem` choices)."""
    return _parser(tuple(sorted(THEOREMS)))


class _Parser(argparse.ArgumentParser):  # the subcommand parsers' class too
    def error(self, message):  # one line, like every other error
        self.exit(2, f"aritygap: {message}\n")


@lru_cache(maxsize=1)
def _parser(theorems: tuple[str, ...]) -> argparse.ArgumentParser:
    parser = _Parser(
        prog="aritygap",
        description="Essential variables, minors, quasi-arity and arity gap "
        "of finite functions given as dense tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def io_options(p):
        p.add_argument("--in", dest="infile", help="input path (default: stdin)")
        p.add_argument("--out", dest="outfile", help="output path (default: stdout)")

    p = sub.add_parser("analyze", help="essential arity, quasi-arity, essl and gap")
    io_options(p)

    p = sub.add_parser("classify", help="gap with its structural rationale")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--boolean", action="store_true", help="k = b = 2 family recognizer")
    group.add_argument(
        "--pseudo-boolean", action="store_true", help="k = 2, arbitrary codomain"
    )
    io_options(p)

    p = sub.add_parser("minor", help="apply a variable substitution")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--identify", metavar="I,J", help="feed slot I from slot J")
    group.add_argument("--sigma", metavar="S1,S2,...", help="target slot fed to each source slot")
    group.add_argument("--diagonal", action="store_true", help="unary a -> f(a,...,a)")
    p.add_argument("--target-arity", type=int, help="arity of the --sigma minor")
    io_options(p)

    p = sub.add_parser("oddsupp-check", help="is the function determined by oddsupp")
    p.add_argument(
        "--restricted",
        action="store_true",
        help="test the restriction to tuples with a repeated coordinate",
    )
    io_options(p)

    p = sub.add_parser("gen", help="construct a witness function")
    gen_sub = p.add_subparsers(dest="generator", required=True)
    g = gen_sub.add_parser("salomaa", help="gap equals the domain size")
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--out", dest="outfile")
    g = gen_sub.add_parser("quasi", help="quasi-m-ary, all slots essential")
    for flag in ("--k", "--n", "--b", "--m", "--seed"):
        g.add_argument(flag, type=int, required=flag != "--seed", default=0)
    g.add_argument("--out", dest="outfile")
    g = gen_sub.add_parser("oddsupp", help="oddsupp-determined restriction, quasi-arity n")
    for flag in ("--k", "--n", "--b", "--seed"):
        g.add_argument(flag, type=int, required=flag != "--seed", default=0)
    g.add_argument("--out", dest="outfile")

    p = sub.add_parser("enumerate", help="stream every function over k, n, b")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--filter", help="gap=G, qa=M or ess=E")
    p.add_argument("--out", dest="outfile")

    p = sub.add_parser("verify", help="run a named property sweep")
    p.add_argument("--theorem", required=True, choices=theorems)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", dest="outfile")

    return parser


def _read_functions(args) -> list[FiniteFunction]:
    if getattr(args, "infile", None):
        with open(args.infile, encoding="utf-8", errors="surrogateescape") as fh:
            text = fh.read()
    elif hasattr(sys.stdin, "buffer"):
        text = sys.stdin.buffer.read().decode("utf-8", "surrogateescape")
    else:
        text = sys.stdin.read()  # an in-process caller's StringIO
    fns = parse_stream(text)
    if not fns:
        raise FunctionFormatError("no function in input")
    return fns


class _Output:
    """Stdout, or the --out file opened at the first write, so a command that
    fails before writing leaves an existing file as it was.  The file is not
    truncated at open: the output is written over the old bytes, and close()
    cuts a regular file that is longer than what was written to that length
    (a device or FIFO is never cut)."""

    def __init__(self, args):
        self.path = getattr(args, "outfile", None)
        self.fh = None if self.path else sys.stdout
        self.fd = None

    def write(self, text: str):
        if self.fh is None:
            self.fd = os.open(self.path, os.O_WRONLY | os.O_CREAT, 0o666)
            self.fh = open(self.fd, "w", encoding="utf-8", closefd=False)
        self.fh.write(text)

    def close(self):
        fd, self.fd = self.fd, None
        if fd is not None:
            try:
                if self.fh is not None:  # None only if wrapping the new fd failed
                    self.fh.close()  # a failed flush is raised after the cut below
            finally:
                try:  # the offset counts only the bytes the kernel took
                    st = os.fstat(fd)
                    if stat.S_ISREG(st.st_mode) and st.st_size > (end := os.lseek(fd, 0, os.SEEK_CUR)):
                        os.ftruncate(fd, end)
                finally:
                    os.close(fd)


def _parse_slots(text: str, count: int | None = None) -> tuple[int, ...]:
    try:
        slots = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None
    if count is not None and len(slots) != count:
        raise ValueError(f"expected {count} comma-separated integers, got {text!r}")
    return slots


def _cmd_analyze(args, out: _Output) -> int:
    for f in _read_functions(args):
        r = arity_gap(f)
        out.write(
            f"ess={r.ess} qa={r.qa} essl={r.essl} gap={r.gap} "
            f"pair={r.pair[0]},{r.pair[1]}\n"
        )
    return 0


def _cmd_classify(args, out: _Output) -> int:
    for f in _read_functions(args):
        if args.boolean:
            c = classify_boolean(f)
        elif args.pseudo_boolean:
            c = classify_pseudo_boolean(f)
        else:
            c = classify_general(f)
        out.write(render_classification(c) + "\n")
    return 0


def _cmd_minor(args, out: _Output) -> int:
    # The slot list is parsed and checked once, before any input is read.
    if args.diagonal:
        make = minors.diagonal
    elif args.identify:
        i, j = _parse_slots(args.identify, 2)
        make = lambda f: minors.identification_minor(f, i, j)
    else:
        if args.target_arity is None:
            raise ValueError("--sigma needs --target-arity")
        sigma = _parse_slots(args.sigma)
        mapping = minors.MinorMap(len(sigma), args.target_arity, sigma)
        make = lambda f: minors.simple_minor(f, mapping)
    for f in _read_functions(args):
        out.write(render(make(f)))
    return 0


def _render_tuple(t: tuple[int, ...]) -> str:
    return "-".join(str(v) for v in t)


def _cmd_oddsupp_check(args, out: _Output) -> int:
    for f in _read_functions(args):
        if args.restricted:
            profile = is_restriction_determined_by_oddsupp(f)
        else:
            profile = is_determined_by_oddsupp(f)
        parts = [f"determined={int(profile.determined)}"]
        if profile.witness is not None:
            parts.append(
                f"witness={_render_tuple(profile.witness[0])},{_render_tuple(profile.witness[1])}"
            )
        else:
            parts.append(f"star_constant={int(profile.star_constant)}")
            parts.append("star=" + ",".join(f"{m}:{v}" for m, v in profile.star.items()))
        out.write(" ".join(parts) + "\n")
    return 0


def _cmd_gen(args, out: _Output) -> int:
    if args.generator == "salomaa":
        f = gen_salomaa(args.k)
    elif args.generator == "quasi":
        f = gen_quasi_m_ary(args.k, args.n, args.b, args.m, args.seed)
    else:
        f = gen_oddsupp_determined(args.k, args.n, args.b, args.seed)
    out.write(render(f))
    return 0


def _cmd_enumerate(args, out: _Output) -> int:
    total = function_count(args.k, args.n, args.b)
    keep = parse_instance_filter(args.filter) if args.filter else None
    for f in functions_in_order(args.k, args.n, args.b, 0, total):
        if keep is None or keep(f):
            out.write(render(f))
    return 0


def _cmd_verify(args, out: _Output) -> int:
    spec = SweepSpec(
        theorem=args.theorem,
        k=args.k,
        n=args.n,
        b=args.b,
        mode="exhaustive" if args.exhaustive else "sampled",
        samples=None if args.exhaustive else args.samples,
        seed=None if args.exhaustive else args.seed,
    )
    report = verify(spec, jobs=args.jobs)
    out.write(render_report(report))
    return 3 if report.failures else 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "classify": _cmd_classify,
    "minor": _cmd_minor,
    "oddsupp-check": _cmd_oddsupp_check,
    "gen": _cmd_gen,
    "enumerate": _cmd_enumerate,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    out = _Output(args)
    try:
        code = _COMMANDS[args.command](args, out)
        out.write("")  # a command that wrote nothing still leaves an empty --out file
        out.close()  # a failed flush of --out is reported like any other write
        return code
    except core.ArityGapError as exc:
        print(f"aritygap: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except (ValueError, OSError) as exc:
        print(f"aritygap: {exc}", file=sys.stderr)
        return 2
    finally:
        out.close()


def run() -> None:
    sys.exit(main())
