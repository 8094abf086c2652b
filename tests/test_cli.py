import argparse
import dataclasses
import errno
import itertools
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from aritygap import FiniteFunction, parse_stream
from aritygap.cli import build_parser, main
import cli_cases
from cli_cases import BUDGET, CASES, GOLDEN, check

XOR2_TEXT = "2 2 2\n0 1 1 0\n"
AND2_TEXT = "2 2 2\n0 0 0 1\n"


def run_cli(argv, stdin_text="", monkeypatch=None, capsys=None):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_from_file(tmp_path, monkeypatch, capsys):
    path = tmp_path / "xor2.fn"
    path.write_text(XOR2_TEXT)
    code, out, _ = run_cli(["analyze", "--in", str(path)], "", monkeypatch, capsys)
    assert code == 0
    assert out.startswith("ess=2")


def test_analyze_stream(monkeypatch, capsys):
    code, out, _ = run_cli(["analyze"], XOR2_TEXT + AND2_TEXT, monkeypatch, capsys)
    assert code == 0
    assert out.splitlines() == [
        "ess=2 qa=0 essl=0 gap=2 pair=1,2",
        "ess=2 qa=1 essl=1 gap=1 pair=1,2",
    ]


def test_analyze_domain_error_exit_code(monkeypatch, capsys):
    code, _, err = run_cli(["analyze"], "2 2 2\n0 0 0 0\n", monkeypatch, capsys)
    assert code == 1
    assert "essential" in err


def test_parse_error_exit_code(monkeypatch, capsys):
    code, _, err = run_cli(["analyze"], "2 2 2\n0 1 1\n", monkeypatch, capsys)
    assert code == 2
    assert "expected 4 values" in err


def test_empty_input_is_a_parse_error(monkeypatch, capsys):
    code, _, _ = run_cli(["analyze"], "", monkeypatch, capsys)
    assert code == 2


def test_usage_error_exit_code(monkeypatch, capsys):
    assert main(["analyze", "--bogus"]) == 2
    assert main([]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
        (["verify", "--theorem", "T4.1", "--k", "x"], "argument --k: invalid int value: 'x'"),
        (["gen", "quasi", "--k", "2", "--k"], "argument --k: expected one argument"),
    ],
    ids=["unknown-flag", "no-command", "not-an-integer", "no-value"],
)
def test_usage_error_is_one_line(argv, message, monkeypatch, capsys):
    # argparse's own report is a usage block and then the error; the CLI
    # reports a usage error as one line, like every other error.
    assert run_cli(argv, "", monkeypatch, capsys) == (2, "", f"aritygap: {message}\n")


def test_classify_general_and_boolean(monkeypatch, capsys):
    code, out, _ = run_cli(["classify"], XOR2_TEXT, monkeypatch, capsys)
    assert code == 0
    assert out == "gap=2 tag=QuasiNMinus2 m=0\n"
    code, out, _ = run_cli(["classify", "--boolean"], XOR2_TEXT, monkeypatch, capsys)
    assert code == 0
    assert out == "gap=2 tag=QuasiNMinus2 m=0 family=linear c=0 perm=1,2\n"


def test_classify_pseudo_boolean(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["classify", "--pseudo-boolean"], "2 2 3\n2 0 1 2\n", monkeypatch, capsys
    )
    assert code == 0
    assert out.startswith("gap=2 tag=QuasiNMinus2")


def test_classify_boolean_rejects_wrong_domain(monkeypatch, capsys):
    code, _, err = run_cli(
        ["classify", "--boolean"], "3 2 3\n0 0 0 0 0 0 0 0 1\n", monkeypatch, capsys
    )
    assert code == 1
    assert "k = b = 2" in err


def test_minor_sigma(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["minor", "--sigma", "1,1", "--target-arity", "1"], XOR2_TEXT, monkeypatch, capsys
    )
    assert code == 0
    assert out == "2 1 2\n0 0\n"
    code, _, _ = run_cli(["minor", "--sigma", "1,1"], XOR2_TEXT, monkeypatch, capsys)
    assert code == 2


def test_minor_diagonal(monkeypatch, capsys):
    code, out, _ = run_cli(["minor", "--diagonal"], AND2_TEXT, monkeypatch, capsys)
    assert code == 0
    assert out == "2 1 2\n0 1\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--identify", "1,x"], "expected comma-separated integers, got '1,x'"),
        (["--identify", "1,2,3"], "expected 2 comma-separated integers, got '1,2,3'"),
        (["--sigma", "1,,2", "--target-arity", "2"], "expected comma-separated integers, got '1,,2'"),
        (["--sigma", "1,2"], "--sigma needs --target-arity"),
    ],
    ids=["identify-not-integer", "identify-three-slots", "sigma-empty-slot", "sigma-no-target"],
)
def test_minor_checks_its_slots_before_reading_input(monkeypatch, capsys, argv, message):
    # A bad slot list is named even when there is no input to apply it to.
    assert run_cli(["minor", *argv], "", monkeypatch, capsys) == (2, "", f"aritygap: {message}\n")


def test_closed_stdout_ends_quietly(monkeypatch, capsys):
    # A reader that closed the pipe early is not an error.
    tried = []

    class ClosedPipe:
        def write(self, text):
            tried.append(text)
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert run_cli(["analyze"], XOR2_TEXT, monkeypatch, capsys) == (0, "", "")
    assert tried == ["ess=2 qa=0 essl=0 gap=2 pair=1,2\n"]


def test_oddsupp_check(monkeypatch, capsys):
    code, out, _ = run_cli(["oddsupp-check"], "2 3 2\n0 1 1 0 1 0 0 1\n", monkeypatch, capsys)
    assert code == 0
    assert out == "determined=1 star_constant=0 star=1:0,2:1\n"
    code, out, _ = run_cli(
        ["oddsupp-check"], "2 3 2\n0 0 0 1 0 1 1 1\n", monkeypatch, capsys
    )
    assert code == 0
    assert out == "determined=0 witness=0-0-0,0-1-1\n"


def test_oddsupp_check_restricted(monkeypatch, capsys):
    salomaa3 = "3 3 3\n" + " ".join(
        "1" if i == 5 else "0" for i in range(27)
    ) + "\n"
    code, out, _ = run_cli(["oddsupp-check", "--restricted"], salomaa3, monkeypatch, capsys)
    assert code == 0
    assert out.startswith("determined=0 star_constant=1")


def test_gen_salomaa(monkeypatch, capsys):
    code, out, _ = run_cli(["gen", "salomaa", "--k", "2"], "", monkeypatch, capsys)
    assert code == 0
    assert out == "2 2 2\n0 1 0 0\n"


def test_gen_quasi_contradiction(monkeypatch, capsys):
    code, _, err = run_cli(
        ["gen", "quasi", "--k", "3", "--n", "4", "--b", "2", "--m", "1"],
        "",
        monkeypatch,
        capsys,
    )
    assert code == 2
    assert "repeat-free" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "quasi", "--k", "3", "--n", "3", "--b", "1", "--m", "1"],
        ["gen", "quasi", "--k", "3", "--n", "3", "--b", "1", "--m", "0"],
        ["gen", "oddsupp", "--k", "3", "--n", "4", "--b", "1"],
    ],
    ids=["quasi-unary", "quasi-nullary", "oddsupp"],
)
def test_gen_checks_the_codomain_first(argv, monkeypatch, capsys):
    assert run_cli(argv, "", monkeypatch, capsys) == (
        2, "", "aritygap: codomain size b must be >= 2, got 1\n"
    )


README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize(
    "pipeline, output",
    [
        ("aritygap analyze --in xor2.fn", "ess=2 qa=0 essl=0 gap=2 pair=1,2"),
        ("aritygap gen salomaa --k 3 | aritygap classify", "gap=3 tag=QuasiNullary m=0"),
        (
            "aritygap gen oddsupp --k 3 --n 4 --b 2 --seed 5 | aritygap oddsupp-check --restricted",
            "determined=1 star_constant=0 star=0:1,3:1,5:0,6:1",
        ),
        (
            "aritygap verify --theorem T4.4 --k 3 --n 5 --b 2 --samples 1000 --seed 7",
            "theorem=T4.4 checked=1002 failures=0 seed=7",
        ),
    ],
)
def test_readme_cli_outputs(pipeline, output, tmp_path, monkeypatch, capsys):
    # The README shows each command with its output on the next line.
    assert f"{pipeline}\n# {output}\n" in README.read_text()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "xor2.fn").write_text(XOR2_TEXT)
    text = ""
    for command in pipeline.split(" | "):
        code, text, err = run_cli(command.split()[1:], text, monkeypatch, capsys)
        assert (code, err) == (0, "")
    assert text == output + "\n"


def test_readme_library_outputs():
    # Each commented line of the README's library block, run as written.
    block = README.read_text().split("```python\n")[1].split("```")[0]
    scope = {}
    exec(block, scope)
    xor2, report = scope["xor2"], scope["report"]
    fields = ("ess", "qa", "essl", "gap", "pair")
    documented = {
        code.strip(): comment
        for code, _, comment in (line.partition("  # ") for line in block.splitlines())
        if comment
    }
    assert documented == {
        "report = arity_gap(xor2)": " ".join(f"{a}={getattr(report, a)}" for a in fields),
        "classify(xor2).tag": repr(scope["classify"](xor2).tag),
        "oracle_gap(xor2)": f"{scope['oracle_gap'](xor2)}, recomputed from every identification minor",
    }


def test_gen_oddsupp(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["gen", "oddsupp", "--k", "3", "--n", "4", "--b", "2", "--seed", "4"],
        "",
        monkeypatch,
        capsys,
    )
    assert code == 0
    f = parse_stream(out)[0]
    assert (f.k, f.n, f.b) == (3, 4, 2)


def test_enumerate_filter_gap(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["enumerate", "--k", "2", "--n", "2", "--b", "2", "--filter", "gap=2"],
        "",
        monkeypatch,
        capsys,
    )
    assert code == 0
    fns = parse_stream(out)
    assert len(fns) == 6
    for f in fns:
        assert f.table[0] == f.table[3]


def test_enumerate_filter_qa(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["enumerate", "--k", "2", "--n", "1", "--b", "2", "--filter", "qa=1"],
        "",
        monkeypatch,
        capsys,
    )
    assert code == 0
    assert parse_stream(out) == [
        FiniteFunction(2, 1, 2, (0, 1)),
        FiniteFunction(2, 1, 2, (1, 0)),
    ]


def test_enumerate_filter_ess(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["enumerate", "--k", "2", "--n", "2", "--b", "2", "--filter", "ess=1"],
        "",
        monkeypatch,
        capsys,
    )
    assert code == 0
    assert [f.table for f in parse_stream(out)] == [
        (0, 0, 1, 1),
        (0, 1, 0, 1),
        (1, 0, 1, 0),
        (1, 1, 0, 0),
    ]


def test_enumerate_bad_filter(monkeypatch, capsys):
    code, _, err = run_cli(
        ["enumerate", "--k", "2", "--n", "2", "--b", "2", "--filter", "range=3"],
        "",
        monkeypatch,
        capsys,
    )
    assert code == 2


@pytest.mark.parametrize("text", ["qa=--1", "gap=\u00b2", "ess=1-", "gap="])
def test_enumerate_malformed_filter_number(text, monkeypatch, capsys):
    # Each passed a looser digit test and then failed inside int().
    code, out, err = run_cli(
        ["enumerate", "--k", "2", "--n", "2", "--b", "2", "--filter", text],
        "",
        monkeypatch,
        capsys,
    )
    assert (code, out) == (2, "")
    assert err == f"aritygap: unknown filter {text!r}, expected gap=G, qa=M or ess=E\n"


def test_enumerate_has_no_jobs_flag(monkeypatch, capsys):
    assert main(["enumerate", "--k", "2", "--n", "1", "--b", "2", "--jobs", "2"]) == 2


def test_enumerate_budget_env(monkeypatch, capsys):
    argv = ["enumerate", "--k", "2", "--n", "2", "--b", "2"]
    monkeypatch.setenv("ARITYGAP_BUDGET", "10")
    code, _, err = run_cli(argv, "", monkeypatch, capsys)
    assert code == 1
    assert "budget" in err
    # Only ASCII digits are a budget; an empty value means the default.
    for value, code in (("16", 0), ("0016", 0), ("", 0), ("15", 1)):
        monkeypatch.setenv("ARITYGAP_BUDGET", value)
        assert run_cli(argv, "", monkeypatch, capsys)[0] == code, value
    for value in ("abc", "-1", "+16", " 16", "16 ", "1e3", "1_000", "\u0663"):
        monkeypatch.setenv("ARITYGAP_BUDGET", value)
        assert run_cli(argv, "", monkeypatch, capsys) == (
            2, "", f"aritygap: ARITYGAP_BUDGET must be a non-negative integer, got {value!r}\n"
        )


def test_verify_command(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["verify", "--theorem", "T4.1", "--k", "2", "--n", "3", "--b", "2", "--exhaustive"],
        "",
        monkeypatch,
        capsys,
    )
    assert code == 0
    assert out == "theorem=T4.1 checked=218 failures=0 seed=-\n"


def test_verify_sampled_with_seed(monkeypatch, capsys):
    argv = [
        "verify", "--theorem", "T4.4", "--k", "3", "--n", "4", "--b", "2",
        "--samples", "30", "--seed", "7",
    ]
    code, out, _ = run_cli(argv, "", monkeypatch, capsys)
    assert code == 0
    assert "seed=7" in out and "failures=0" in out
    code2, out2, _ = run_cli(argv, "", monkeypatch, capsys)
    assert out == out2  # byte-identical on identical inputs


def test_verify_quasi_arity_oracle_budget_bounds_its_search(monkeypatch, capsys):
    # (4,3,2) has 2^24 completions of its 24 repeat-free entries, but the
    # oracle tries 2^3 slot sets over 40 repeat-set rows.
    monkeypatch.delenv("ARITYGAP_BUDGET", raising=False)
    argv = ["verify", "--theorem", "L3.4", "--k", "4", "--n", "3", "--b", "2",
            "--samples", "50", "--seed", "1"]
    assert run_cli(argv, "", monkeypatch, capsys) == (
        0, "theorem=L3.4 checked=63 failures=0 seed=1\n", ""
    )
    monkeypatch.setenv("ARITYGAP_BUDGET", "319")
    assert run_cli(argv, "", monkeypatch, capsys) == (
        1, "", "aritygap: 2^3 slot sets over 40 repeat-set rows exceed the budget\n"
    )


def test_verify_domain_error_is_one_line(monkeypatch, capsys):
    code, out, err = run_cli(
        ["verify", "--theorem", "T5.1", "--k", "3", "--n", "2", "--b", "2", "--exhaustive"],
        "",
        monkeypatch,
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err == "aritygap: T5.1 is about two-element domains\n"


def test_verify_rejects_nonpositive_jobs(monkeypatch, capsys):
    for jobs in ("0", "-3"):
        code, out, err = run_cli(
            ["verify", "--theorem", "T4.1", "--k", "2", "--n", "2", "--b", "2",
             "--exhaustive", "--jobs", jobs],
            "",
            monkeypatch,
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == f"aritygap: jobs must be >= 1, got {jobs}\n"


class InlinePool:
    """Stands in for multiprocessing.Pool: runs the chunks in this process."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


def test_verify_jobs_clamped_to_cpu_count(monkeypatch, capsys):
    import multiprocessing

    import aritygap.oracle

    sizes = []

    def pool(processes):
        sizes.append(processes)
        return InlinePool()

    argv = ["verify", "--theorem", "T4.1", "--k", "2", "--n", "3", "--b", "2",
            "--exhaustive", "--jobs", "64"]
    monkeypatch.setattr(multiprocessing, "Pool", pool)
    monkeypatch.setattr(aritygap.oracle.os, "cpu_count", lambda: 2)
    code, out, _ = run_cli(argv, "", monkeypatch, capsys)
    assert code == 0
    assert out == "theorem=T4.1 checked=218 failures=0 seed=-\n"
    assert sizes == [2]
    # an unknown CPU count means one worker: no pool at all
    monkeypatch.setattr(aritygap.oracle.os, "cpu_count", lambda: None)
    code, out, _ = run_cli(argv, "", monkeypatch, capsys)
    assert code == 0
    assert out == "theorem=T4.1 checked=218 failures=0 seed=-\n"
    assert sizes == [2]


def test_import_leaves_multiprocessing_unloaded():
    # Only verify --jobs above 1 starts a pool, so only it imports
    # multiprocessing.
    script = "import sys, aritygap, aritygap.cli\nprint('multiprocessing' in sys.modules)\n"
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert done.stderr == ""
    assert done.stdout == "False\n"


def test_parser_is_built_once_per_registry(monkeypatch):
    from aritygap.cli import build_parser
    from aritygap.oracle import TheoremCheck, THEOREMS

    parser = build_parser()
    assert build_parser() is parser
    monkeypatch.setitem(THEOREMS, "EXTRA", TheoremCheck("EXTRA", "", lambda f: True))
    assert build_parser() is not parser
    args = build_parser().parse_args(
        ["verify", "--theorem", "EXTRA", "--k", "2", "--n", "1", "--b", "2", "--exhaustive"]
    )
    assert args.theorem == "EXTRA"


def test_verify_unknown_theorem(monkeypatch, capsys):
    assert main(["verify", "--theorem", "T9.9", "--k", "2", "--n", "2", "--b", "2",
                 "--exhaustive"]) == 2


def test_verify_failure_exit_code(monkeypatch, capsys):
    from aritygap.oracle import TheoremCheck, THEOREMS

    # cli shares the registry dict, so the doctored check is visible there too
    monkeypatch.setitem(
        THEOREMS, "FLAKY", TheoremCheck("FLAKY", "starts with 0", lambda f: f.table[0] == 0)
    )
    code = main(
        ["verify", "--theorem", "FLAKY", "--k", "2", "--n", "1", "--b", "2", "--exhaustive"]
    )
    out = capsys.readouterr().out
    assert code == 3
    assert out.splitlines()[0] == "theorem=FLAKY checked=4 failures=2 seed=-"
    assert out.splitlines()[1].startswith("2 1 2;1")


def test_out_flag(tmp_path, monkeypatch, capsys):
    target = tmp_path / "out.txt"
    code, out, _ = run_cli(
        ["gen", "salomaa", "--k", "2", "--out", str(target)], "", monkeypatch, capsys
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == "2 2 2\n0 1 0 0\n"


def test_missing_input_file(tmp_path, monkeypatch, capsys):
    missing = tmp_path / "missing.fn"
    code, out, err = run_cli(["analyze", "--in", str(missing)], "", monkeypatch, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("aritygap: ") and str(missing) in err
    assert err.count("\n") == 1


def test_output_path_is_a_directory(tmp_path, monkeypatch, capsys):
    code, out, err = run_cli(
        ["gen", "salomaa", "--k", "2", "--out", str(tmp_path)], "", monkeypatch, capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("aritygap: ") and str(tmp_path) in err
    assert err.count("\n") == 1


def test_failed_command_leaves_out_file_untouched(tmp_path, monkeypatch, capsys):
    target = tmp_path / "old.txt"
    const = tmp_path / "const.fn"
    const.write_text("2 2 2\n0 0 0 0\n")
    for argv, expected in (
        (["analyze", "--in", str(tmp_path / "missing.fn")], 2),
        (["analyze", "--in", str(const)], 1),
    ):
        target.write_text("old contents\n")
        code, out, err = run_cli(argv + ["--out", str(target)], "", monkeypatch, capsys)
        assert code == expected
        assert out == "" and err.startswith("aritygap: ")
        assert target.read_text() == "old contents\n"


def test_out_file_empty_when_nothing_written(tmp_path, monkeypatch, capsys):
    target = tmp_path / "F"
    target.write_text("old contents\n")
    code, out, _ = run_cli(
        ["enumerate", "--k", "2", "--n", "2", "--b", "2", "--filter", "gap=5",
         "--out", str(target)],
        "",
        monkeypatch,
        capsys,
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == ""


def test_out_shorter_output_leaves_no_old_tail(tmp_path, monkeypatch, capsys):
    target = tmp_path / "out.txt"
    target.write_text("x" * 499 + "\n")
    code, out, _ = run_cli(
        ["gen", "salomaa", "--k", "2", "--out", str(target)], "", monkeypatch, capsys
    )
    assert (code, out) == (0, "")
    assert target.read_text() == "2 2 2\n0 1 0 0\n"


def test_out_keeps_only_the_lines_written_before_a_domain_error(tmp_path, monkeypatch, capsys):
    # The file is written in place, so the cut at close also runs on the
    # exit-1 path: the old bytes after the first line are gone.
    target = tmp_path / "out.txt"
    target.write_text("x" * 499 + "\n")
    code, out, err = run_cli(
        ["analyze", "--out", str(target)], XOR2_TEXT + "2 2 2\n0 0 0 0\n", monkeypatch, capsys
    )
    assert (code, out) == (1, "")
    assert err == "aritygap: arity gap needs >= 2 essential slots, got 0\n"
    assert target.read_text() == "ess=2 qa=0 essl=0 gap=2 pair=1,2\n"


def test_out_may_be_the_input_file(tmp_path, monkeypatch, capsys):
    # The input is read in full before the first write, and the 160-byte
    # output replaces the 224-byte input.
    path = tmp_path / "fns.fn"
    assert main(["enumerate", "--k", "2", "--n", "2", "--b", "2", "--out", str(path)]) == 0
    code, expected, _ = run_cli(["minor", "--diagonal", "--in", str(path)], "", monkeypatch, capsys)
    assert code == 0 and len(expected) < path.stat().st_size
    code, out, _ = run_cli(
        ["minor", "--diagonal", "--in", str(path), "--out", str(path)], "", monkeypatch, capsys
    )
    assert (code, out) == (0, "")
    assert path.read_text() == expected


def test_out_to_a_device_or_fifo_is_never_cut(tmp_path, monkeypatch, capsys):
    import threading

    cut = []
    ftruncate = os.ftruncate
    monkeypatch.setattr(os, "ftruncate", lambda *a: cut.append(a) or ftruncate(*a))
    argv = ["gen", "salomaa", "--k", "2", "--out"]
    assert run_cli(argv + [os.devnull], "", monkeypatch, capsys) == (0, "", "")
    if hasattr(os, "mkfifo"):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert run_cli(argv + [str(fifo)], "", monkeypatch, capsys) == (0, "", "")
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert got == [b"2 2 2\n0 1 0 0\n"]
    assert cut == []


def test_out_opens_an_existing_file_without_truncating(tmp_path, monkeypatch, capsys):
    target = tmp_path / "out.txt"
    target.write_text("old contents\n")
    flags = []
    os_open = os.open

    def spy(path, flag, *rest, **kw):
        if os.fspath(path) == str(target):
            flags.append(flag)
        return os_open(path, flag, *rest, **kw)

    monkeypatch.setattr(os, "open", spy)
    code, out, _ = run_cli(
        ["gen", "salomaa", "--k", "2", "--out", str(target)], "", monkeypatch, capsys
    )
    assert (code, out) == (0, "")
    assert len(flags) == 1 and not flags[0] & os.O_TRUNC
    assert target.read_text() == "2 2 2\n0 1 0 0\n"


def _limited_address_space():
    import resource

    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


# The one over-limit message, with k^n written out below n = 27.
TEN_TO_THE_NINE = "table would need 1000000000 entries, over the 100000000 limit"


@pytest.mark.parametrize(
    "argv, expected, message",
    [
        (["enumerate", "--k", "2", "--n", "64", "--b", "2"], 2,
         "table would need 2^64 entries, over the 100000000 limit"),
        (["enumerate", "--k", "2", "--n", "20", "--b", "2"], 1,
         "2^1048576 tables exceed the budget 10000000"),
        (["verify", "--theorem", "T4.4", "--k", "10", "--n", "12", "--b", "2",
          "--samples", "1"], 2,
         "table would need 1000000000000 entries, over the 100000000 limit"),
        (["verify", "--theorem", "T4.1", "--k", "2", "--n", "64", "--b", "2",
          "--exhaustive"], 2,
         "table would need 2^64 entries, over the 100000000 limit"),
        (["verify", "--theorem", "T4.1", "--k", "3", "--n", "12", "--b", "2",
          "--exhaustive"], 1,
         "2^531441 tables exceed the budget 10000000; use sampling"),
        (["gen", "quasi", "--k", "2", "--n", "40", "--b", "2", "--m", "40"], 2,
         "table would need 2^40 entries, over the 100000000 limit"),
        (["gen", "oddsupp", "--k", "2", "--n", "40", "--b", "2"], 2,
         "table would need 2^40 entries, over the 100000000 limit"),
        (["gen", "salomaa", "--k", "9"], 2,
         "table would need 387420489 entries, over the 100000000 limit"),
        (["gen", "salomaa", "--k", "40"], 2,
         "table would need 40^40 entries, over the 100000000 limit"),
        (["verify", "--theorem", "L3.4", "--k", "9", "--n", "7", "--b", "2",
          "--samples", "1"], 1,
         "2^7 slot sets over 4601529 repeat-set rows exceed the budget"),
        (["enumerate", "--k", "10", "--n", "9", "--b", "2"], 2, TEN_TO_THE_NINE),
        (["gen", "quasi", "--k", "10", "--n", "9", "--b", "2", "--m", "9"], 2,
         TEN_TO_THE_NINE),
        (["verify", "--theorem", "T4.4", "--k", "10", "--n", "9", "--b", "2",
          "--samples", "1"], 2, TEN_TO_THE_NINE),
        (["verify", "--theorem", "T4.1", "--k", "10", "--n", "9", "--b", "2",
          "--exhaustive"], 2, TEN_TO_THE_NINE),
        (["verify", "--theorem", "T5.1", "--k", "1", "--n", "2", "--b", "2",
          "--exhaustive"], 2, "domain size k must be >= 2, got 1"),
        (["verify", "--theorem", "SWIER", "--k", "3", "--n", "4", "--b", "1",
          "--samples", "5"], 2, "codomain size b must be >= 2, got 1"),
        (["verify", "--theorem", "SWIER", "--k", "3", "--n", "40", "--b", "2",
          "--samples", "1"], 2, "table would need 3^40 entries, over the 100000000 limit"),
        (["verify", "--theorem", "T4.1", "--k", "2", "--n", "3", "--b", "2",
          "--samples", "-1"], 2, "sample count must be >= 0, got -1"),
    ],
    ids=[
        "enumerate-wide-table",
        "enumerate-over-budget",
        "verify-sampled-wide-table",
        "verify-exhaustive-wide-table",
        "verify-exhaustive-over-budget",
        "gen-quasi-wide-table",
        "gen-oddsupp-wide-table",
        "gen-salomaa-computed",
        "gen-salomaa-power",
        "verify-l34-over-budget",
        "enumerate-computed",
        "gen-quasi-computed",
        "verify-sampled-computed",
        "verify-exhaustive-computed",
        "verify-small-domain-before-theorem-domain",
        "verify-small-codomain-before-b-equals-k",
        "verify-wide-table-before-b-equals-k",
        "verify-negative-sample-count",
    ],
)
def test_huge_function_space_is_refused_at_once(argv, expected, message):
    # A child process with 1 GiB of address space and a timeout, so that a
    # regression fails here instead of hanging or exhausting the machine.
    env = {k: v for k, v in os.environ.items() if k != "ARITYGAP_BUDGET"}
    done = subprocess.run(
        [sys.executable, "-m", "aritygap", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limited_address_space,
        env=env,
    )
    assert done.returncode == expected
    assert done.stdout == ""
    assert done.stderr == f"aritygap: {message}\n"


def test_huge_library_table_is_refused_at_once():
    # The constructors refuse an over-limit shape before building its table,
    # which would not fit in the child's 1 GiB of address space.
    script = (
        "from aritygap import constant, from_function, gen_salomaa, gen_ternary_pattern, projection\n"
        "for make in (lambda: projection(10, 9, 1), lambda: constant(2, 40, 2, 0),\n"
        "             lambda: from_function(3, 20, 2, sum), lambda: gen_salomaa(9),\n"
        "             lambda: gen_ternary_pattern(500, (0, 0, 0), 0)):\n"
        "    try:\n"
        "        make()\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limited_address_space,
    )
    assert done.stderr == ""
    limit = "entries, over the 100000000 limit"
    assert done.stdout.splitlines() == [
        f"table would need 1000000000 {limit}",
        f"table would need 2^40 {limit}",
        f"table would need 3486784401 {limit}",
        f"table would need 387420489 {limit}",
        f"table would need 125000000 {limit}",
    ]


def test_gen_salomaa_rejects_small_domain(monkeypatch, capsys):
    for k in ("1", "0", "-3"):
        assert run_cli(["gen", "salomaa", "--k", k], "", monkeypatch, capsys) == (
            2,
            "",
            f"aritygap: domain size k must be >= 2, got {k}\n",
        )


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["analyze"], "3 100000000 2\n0\n", "line 1, col 1: table would need 3^100000000 entries"),
        (["analyze"], "3 100000 2\n0\n", "line 1, col 1: table would need 3^100000 entries"),
        (["analyze"], "3 20 2\n0\n", "line 1, col 1: table would need 3486784401 entries"),
        (["minor", "--sigma", "1,1", "--target-arity", "64"], XOR2_TEXT,
         "table would need 2^64 entries"),
    ],
    ids=["header-arity-1e8", "header-arity-1e5", "header-computed", "wide-sigma-minor"],
)
def test_huge_table_is_refused_at_once(argv, text, message):
    # An over-limit k^n is named as a power once it is too large to compute.
    done = subprocess.run(
        [sys.executable, "-m", "aritygap", *argv],
        input=text,
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limited_address_space,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"aritygap: {message}, over the 100000000 limit\n"


def test_undecodable_input_byte_is_a_located_value_error():
    # In UTF-8 mode stdin decodes with surrogateescape, so the byte 0xff
    # arrives as '\udcff' and must be named as a bad value, not fail to encode.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    done = subprocess.run(
        [sys.executable, "-X", "utf8", "-m", "aritygap", "analyze"],
        input=b"2 2 2\n0 1 1 \xff\n",
        capture_output=True,
        timeout=60,
        env=env,
    )
    assert done.returncode == 2
    assert done.stdout == b""
    message = "line 2, col 7: table value: '\\udcff' is not an integer"
    assert done.stderr.decode() == f"aritygap: {message}\n"


def test_undecodable_stdin_byte_is_located_under_a_strict_stdin_encoding():
    # A strict UTF-8 stdin would fail to decode 0xff before the parser saw
    # it; stdin is read as bytes and decoded as --in is, so the byte is named.
    env = dict(os.environ, PYTHONIOENCODING="utf-8:strict")
    done = subprocess.run(
        [sys.executable, "-m", "aritygap", "analyze"],
        input=b"2 2 2\n0 1 1 \xff\n",
        capture_output=True,
        timeout=60,
        env=env,
    )
    assert done.returncode == 2
    assert done.stdout == b""
    message = "line 2, col 7: table value: '\\udcff' is not an integer"
    assert done.stderr.decode() == f"aritygap: {message}\n"


@pytest.mark.parametrize("mode", ["utf8", "utf8=0"])
def test_undecodable_file_byte_is_the_same_located_value_error(mode, tmp_path):
    # --in decodes with surrogateescape whatever the interpreter's mode, so
    # the byte 0xff gets the message it gets on stdin in UTF-8 mode.
    path = tmp_path / "bad.fn"
    path.write_bytes(b"2 2 2\n0 1 1 \xff\n")
    done = subprocess.run(
        [sys.executable, "-X", mode, "-m", "aritygap", "analyze", "--in", str(path)],
        capture_output=True,
        timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == b""
    message = "line 2, col 7: table value: '\\udcff' is not an integer"
    assert done.stderr.decode() == f"aritygap: {message}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_out_on_a_full_device_is_a_file_error():
    # The buffered write to --out fails only when the file is closed, which
    # must still be reported as one line, not as a traceback.
    done = subprocess.run(
        [sys.executable, "-m", "aritygap", "analyze", "--out", "/dev/full"],
        input=XOR2_TEXT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("aritygap: ")


def _file_size_limit_of_100_bytes():
    import resource
    import signal

    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # a write past the limit fails with EFBIG
    resource.setrlimit(resource.RLIMIT_FSIZE, (100, 100))


@pytest.mark.skipif(sys.platform == "win32", reason="needs RLIMIT_FSIZE and SIGXFSZ")
def test_out_cut_to_the_bytes_written_after_a_failed_write(tmp_path):
    # The 224-byte output is flushed at close and only its first 100 bytes
    # fit; the cut after the failed flush must still drop the old 300 bytes'
    # tail, leaving what a file truncated at open would hold.
    full = tmp_path / "full.fn"
    argv = ["enumerate", "--k", "2", "--n", "2", "--b", "2"]
    assert main(argv + ["--out", str(full)]) == 0
    assert full.stat().st_size == 224
    target = tmp_path / "out.fn"
    target.write_bytes(b"x" * 299 + b"\n")
    done = subprocess.run(
        [sys.executable, "-m", "aritygap", *argv, "--out", str(target)],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_file_size_limit_of_100_bytes,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"aritygap: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}\n"
    assert target.read_bytes() == full.read_bytes()[:100]


def test_stream_input_memory_stays_near_its_size(tmp_path):
    # oddsupp-check on the 6 MiB (3,2,4) enumeration, 262,144 functions: the
    # peak RSS the run adds to a fresh interpreter must stay within 20 times
    # the file size (ru_maxrss is in KiB on Linux and in bytes on macOS).
    path = tmp_path / "e324.fn"
    assert main(["enumerate", "--k", "3", "--n", "2", "--b", "4", "--out", str(path)]) == 0
    script = (
        "import os, resource, sys\n"
        "from aritygap.cli import main\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "code = main(['oddsupp-check', '--in', sys.argv[1], '--out', os.devnull])\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(code, (after - before) * (1 if sys.platform == 'darwin' else 1024))\n"
    )
    # ru_maxrss carries over exec, so the measuring interpreter is started
    # from a small one: started from this process, its baseline would be
    # the test process's own peak and the growth would read too small.
    launcher = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    done = subprocess.run(
        [sys.executable, "-c", launcher, sys.executable, "-c", script, str(path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.stderr == ""
    code, grown = map(int, done.stdout.split())
    assert code == 0
    assert grown <= 20 * path.stat().st_size


def test_analyze_of_a_rendered_2x22_table_stays_under_100_mib(tmp_path):
    # analyze --in on a rendered essentially 3-ary (2,22,2) table, 8.4 MB of
    # text: read line by line as bytes, the fresh interpreter's ru_maxrss
    # stays near 81 MiB, where reading one word per value took 133 MiB.  The
    # table is written by a child, so this process stays small.
    path = tmp_path / "e22.fn"
    write = (
        "import sys\n"
        "from aritygap import render\n"
        "from aritygap.oracle import gen_essentially_m_ary\n"
        "open(sys.argv[1], 'w').write(render(gen_essentially_m_ary(2, 22, 2, 3, 1)))\n"
    )
    subprocess.run([sys.executable, "-c", write, str(path)], check=True, timeout=120)
    assert path.stat().st_size == 2 * 2**22 + 7
    script = (
        "import resource, sys\n"
        "from aritygap.cli import main\n"
        "code = main(['analyze', '--in', sys.argv[1]])\n"
        "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(code, peak * (1 if sys.platform == 'darwin' else 1024))\n"
    )
    # Started from a small launcher, as above, so the peak is the child's own.
    launcher = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    done = subprocess.run(
        [sys.executable, "-c", launcher, sys.executable, "-c", script, str(path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.stderr == ""
    result, status = done.stdout.splitlines()
    assert result == "ess=3 qa=3 essl=2 gap=1 pair=3,5"
    code, peak = map(int, status.split())
    assert code == 0
    assert peak <= 100 << 20


MAXRSS = (  # the peak resident set in bytes: ru_maxrss is in KiB on Linux
    "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss"
    " * (1 if sys.platform == 'darwin' else 1024)"
)


def run_fresh(script, *args):
    # The stdout lines of script run in an interpreter started from a small
    # launcher, so that its ru_maxrss, which carries over exec, is its own.
    launcher = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    done = subprocess.run(
        [sys.executable, "-c", launcher, sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.stderr == ""
    return done.stdout.splitlines()


def test_analyze_of_a_rendered_2x22_table_stays_under_64_mib(tmp_path):
    # The parsed table stays bytes: analyze builds no tuple of its 4.2M
    # entries, and the fresh interpreter peaks near 49 MiB (81 MiB when the
    # parser built it).
    path = tmp_path / "e22.fn"
    write = (
        "import sys\n"
        "from aritygap import render\n"
        "from aritygap.oracle import gen_essentially_m_ary\n"
        "open(sys.argv[1], 'w').write(render(gen_essentially_m_ary(2, 22, 2, 3, 1)))\n"
    )
    subprocess.run([sys.executable, "-c", write, str(path)], check=True, timeout=120)
    script = (
        "import resource, sys\n"
        "from aritygap.cli import main\n"
        "code = main(['analyze', '--in', sys.argv[1]])\n"
        f"print(code, {MAXRSS})\n"
    )
    result, status = run_fresh(script, str(path))
    assert result == "ess=3 qa=3 essl=2 gap=1 pair=3,5"
    code, peak = map(int, status.split())
    assert code == 0
    assert peak <= 64 << 20


def test_render_of_a_2x22_table_stays_small():
    # render, which gen, minor and enumerate write through, fills one row of
    # bytes: the (2,22,2) table's 8.4 MB of text grows the peak by at most
    # 32 MiB, where one str per entry grew it by about 265 MiB.
    script = (
        "import resource, sys\n"
        "from aritygap import render\n"
        "from aritygap.oracle import gen_essentially_m_ary\n"
        "f = gen_essentially_m_ary(2, 22, 2, 3, 1)\n"
        f"before = {MAXRSS}\n"
        "text = render(f)\n"
        f"print(len(text), {MAXRSS} - before)\n"
    )
    [status] = run_fresh(script)
    size, grown = map(int, status.split())
    assert size == 2 * 2**22 + 7
    assert grown <= 32 << 20


def test_constant_table_scan_stays_small():
    # Deciding that no slot of a constant (2,20) table is essential must not
    # hold a structure per index pair: that needs more than 1 GiB.
    done = subprocess.run(
        [sys.executable, "-m", "aritygap", "analyze"],
        input="2 20 2\n" + "0 " * 2**20 + "\n",
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limited_address_space,
    )
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == "aritygap: arity gap needs >= 2 essential slots, got 0\n"


def test_parity_table_gap_stays_small(tmp_path):
    # No identification minor of a parity table keeps ess - 1 slots, so
    # arity_gap builds all 190 minors of this (2,20) table; no index map per
    # pair may outlive its minor, as 190 maps of 2^20 entries need more than
    # 1 GiB.
    path = tmp_path / "parity.fn"
    path.write_text("2 20 2\n" + " ".join(str(bin(x).count("1") % 2) for x in range(2**20)) + "\n")
    done = subprocess.run(
        [sys.executable, "-m", "aritygap", "analyze", "--in", str(path)],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limited_address_space,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ess=20 qa=20 essl=18 gap=2 pair=1,2\n"
    assert done.stderr == ""


def test_shell_pipeline_composes():
    gen = subprocess.run(
        [sys.executable, "-m", "aritygap", "gen", "salomaa", "--k", "3"],
        capture_output=True,
        text=True,
        check=True,
    )
    classified = subprocess.run(
        [sys.executable, "-m", "aritygap", "classify"],
        input=gen.stdout,
        capture_output=True,
        text=True,
        check=True,
    )
    assert classified.stdout == "gap=3 tag=QuasiNullary m=0\n"
    analyzed = subprocess.run(
        [sys.executable, "-m", "aritygap", "analyze"],
        input=gen.stdout,
        capture_output=True,
        text=True,
        check=True,
    )
    assert analyzed.stdout == "ess=3 qa=0 essl=0 gap=3 pair=1,2\n"


def run_in_process(case, monkeypatch, capsys):
    """The in-process executor of a cli_cases case: one (exit code, stdout,
    stderr) for each stage, each stage reading the previous one's stdout."""
    monkeypatch.delenv(BUDGET, raising=False)
    if case.budget is not None:
        monkeypatch.setenv(BUDGET, str(case.budget))
    results, stdin_text = [], case.stdin_text()
    for stage in case.stages:
        results.append(run_cli(stage, stdin_text, monkeypatch, capsys))
        stdin_text = results[-1][1]
    return results


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_golden_transcript(case, monkeypatch, capsys):
    assert check(case, run_in_process(case, monkeypatch, capsys)) == []


def _leaf_commands(parser, path=()):
    """Each command path, such as ("gen", "quasi"), with what its cases must
    use: every long option but --help, --in and --out, and every value of an
    option with a closed list of values."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for action in subparsers:
        for name, sub in action.choices.items():
            yield from _leaf_commands(sub, (*path, name))
    if not subparsers:
        uses = set()
        for action in parser._actions:
            for option in set(action.option_strings) - {"-h", "--help", "--in", "--out"}:
                uses.add(option)
                uses.update(f"{option} {choice}" for choice in action.choices or ())
        yield path, uses


def test_cases_cover_the_cli():
    used = {}
    for case in CASES:
        for stage in case.stages:
            path = tuple(itertools.takewhile(lambda word: not word.startswith("--"), stage))
            words = used.setdefault(path, set())
            for word, value in zip(stage, [*stage[1:], ""]):
                if word.startswith("--"):
                    words.update((word, f"{word} {value}"))
    missing = [
        (path, sorted(uses - used.get(path, set())))
        for path, uses in _leaf_commands(build_parser())
        if path not in used or not uses <= used[path]
    ]
    assert missing == []
    assert {case.code for case in CASES} >= {0, 1, 2}
    goldens = {GOLDEN / f"{name}.fn" for case in CASES for name in case.inputs}
    goldens |= {v for case in CASES for v in (case.out, case.err) if isinstance(v, Path)}
    assert set(GOLDEN.iterdir()) == goldens
    assert len({case.name for case in CASES}) == len(CASES)


def _doctored(name):
    """A twin of the case `name` that expects one wrong stdout line."""
    case = next(case for case in CASES if case.name == name)
    return dataclasses.replace(case, name=f"{name}-doctored", out=case.out.replace("gap=3", "gap=2"))


DOCTORED_PROBLEM = (
    "gen-salomaa-analyze-doctored: stdout line 1: "
    "got 'ess=3 qa=0 essl=0 gap=3 pair=1,2\\n', expected 'ess=3 qa=0 essl=0 gap=2 pair=1,2\\n'"
)


def test_a_wrong_expected_line_fails_in_process(monkeypatch, capsys):
    twin = _doctored("gen-salomaa-analyze")
    assert check(twin, run_in_process(twin, monkeypatch, capsys)) == [DOCTORED_PROBLEM]


@pytest.fixture
def console_script(tmp_path, monkeypatch):
    """An `aritygap` on PATH that runs `python -m aritygap` from this checkout."""
    script = tmp_path / "aritygap"
    script.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m aritygap "$@"\n')
    script.chmod(0o755)
    monkeypatch.setenv("PATH", f"{tmp_path}{os.pathsep}{os.environ.get('PATH', '')}")
    return str(script)


def test_runner_runs_cases_through_the_console_script(console_script, capsys):
    assert shutil.which("aritygap") == console_script
    cases = [c for c in CASES if c.name in ("gen-salomaa-analyze", "enumerate-over-budget")]
    assert cli_cases.run_cases([*cases, _doctored("gen-salomaa-analyze")], console_script) == 1
    assert capsys.readouterr().out == DOCTORED_PROBLEM + "\n"


@pytest.mark.parametrize(
    "cases, last_line",
    [([], "cases=0 failures=0"), ([_doctored("gen-salomaa-analyze")], "cases=1 failures=1")],
    ids=["no-case", "a-failure"],
)
def test_runner_fails_without_a_passing_case(cases, last_line, console_script, monkeypatch, capsys):
    monkeypatch.setattr(cli_cases, "CASES", cases)
    assert cli_cases.main([]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == last_line


def test_runner_without_a_console_script(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PATH", str(tmp_path))
    assert cli_cases.main([]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("cli_cases: ") and err.count("\n") == 1


def test_runner_reports_a_timeout_by_case_name(tmp_path, monkeypatch, capsys):
    slow = tmp_path / "slow"
    slow.write_text("#!/bin/sh\nexec sleep 5\n")
    slow.chmod(0o755)
    monkeypatch.setattr(cli_cases, "TIMEOUT", 0.2)
    assert cli_cases.run_cases(CASES[:1], str(slow)) == 1
    assert capsys.readouterr().out == f"{CASES[0].name}: timed out after 0.2 s\n"
