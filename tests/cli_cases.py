"""The CLI's pinned transcripts: one table of cases and the check they share.

Each case is an `aritygap` command line, or a pipeline of them, with what it
reads on stdin and the exit code, stdout and stderr it must give.  Two
executors run the table:

- `tests/test_cli.py::test_golden_transcript` runs every case in process
  through `aritygap.cli.main` (tier-1);
- this file, run as a script, runs every case through the `aritygap` on PATH,
  the installed console script:

      python -m pip install . && python tests/cli_cases.py

The script takes no arguments.  It prints one line for each failed case,
then `cases=N failures=F`, and exits 0 only when N > 0 and F = 0; with no
`aritygap` on PATH it prints one `cli_cases: ...` line and exits 2.  It uses
the standard library only, so it runs without the test dependencies.

To pin a new output, add a case whose expected output is what the parent
commit prints; an expected value is never edited to fit a change.
"""

from __future__ import annotations

import itertools
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
TIMEOUT = 60  # seconds for each case, all of its stages together
BUDGET = "ARITYGAP_BUDGET"  # unset unless a case sets its budget


def _table(k: int, n: int, b: int, values) -> str:
    return f"{k} {n} {b}\n{' '.join(map(str, values))}\n"


def parity(k: int, n: int, b: int) -> str:
    """The parity of the number of odd arguments."""
    tuples = itertools.product(range(k), repeat=n)
    return _table(k, n, b, (sum(a % 2 for a in t) % 2 for t in tuples))


def x1_x2_x3x4_parity() -> str:
    """x1 + x2 + x3 x4 + x5 + ... + x12 over GF(2): gap 1 at the pair 1,3."""
    return _table(2, 12, 2, (
        ((i >> 11) ^ (i >> 10) ^ ((i >> 9) & (i >> 8)) ^ bin(i & 255).count("1")) & 1
        for i in range(1 << 12)
    ))


def x1x2_x3(b: int, scale: int) -> str:
    """scale * (x1 x2 + x3) over 16 Boolean slots, 13 of them inessential."""
    return _table(2, 16, b, (
        scale * ((i >> 15) & (i >> 14) ^ (i >> 13) & 1) for i in range(1 << 16)
    ))


RECIPES = {"parity": parity, "x1+x2+x3x4+parity": x1_x2_x3x4_parity, "x1x2+x3": x1x2_x3}


@lru_cache(maxsize=None)
def _recipe_text(recipe: tuple) -> str:
    name, *args = recipe
    return RECIPES[name](*args)


@dataclass
class Case:
    name: str
    command: str  # aritygap's arguments; " | " separates the stages of a pipeline
    stdin: str = ""  # inline input
    inputs: tuple[str, ...] = ()  # tests/golden/<input>.fn, fed after stdin
    recipe: tuple = ()  # (RECIPES name, *arguments): a generated table as input
    repeat: int = 1  # how many times the recipe's table is fed
    budget: int | None = None  # ARITYGAP_BUDGET for every stage
    code: int = 0
    out: str | Path = ""  # inline text, or a golden file holding it
    err: str | Path = ""

    @property
    def stages(self) -> list[list[str]]:
        return [stage.split() for stage in self.command.split(" | ")]

    def stdin_text(self) -> str:
        text = self.stdin + "".join((GOLDEN / f"{i}.fn").read_text() for i in self.inputs)
        return text + (_recipe_text(self.recipe) if self.recipe else "") * self.repeat


def check(case: Case, results: list[tuple[int, str, str]]) -> list[str]:
    """What is wrong with `results`, one (exit code, stdout, stderr) for
    each stage of `case`: every stage but the last must exit 0 with empty
    stderr, and the last must give the case's exit code, stdout and stderr
    exactly.  An empty list means the case passed."""
    problems = []
    for stage, (code, _, err) in zip(case.stages, results[:-1]):
        if code or err:
            problems.append(f"stage `{' '.join(stage)}` exited {code}, stderr {err!r}")
    code, out, err = results[-1]
    if code != case.code:
        problems.append(f"exit code {code}, expected {case.code}")
    for stream, got, want in (("stdout", out, case.out), ("stderr", err, case.err)):
        if isinstance(want, Path):
            want = want.read_text()
        if got != want:
            problems.append(f"{stream} {_first_difference(got, want)}")
    return [f"{case.name}: {problem}" for problem in problems]


def _first_difference(got: str, want: str) -> str:
    lines = itertools.zip_longest(got.splitlines(True), want.splitlines(True))
    number, (g, w) = next((n, pair) for n, pair in enumerate(lines, 1) if pair[0] != pair[1])
    return f"line {number}: got {g!r}, expected {w!r}"


def run_case(case: Case, exe: str) -> list[tuple[int, str, str]]:
    """Run `case` through the executable `exe`, each stage reading the
    previous stage's stdout; raise subprocess.TimeoutExpired once the case
    has run for TIMEOUT seconds."""
    env = {key: value for key, value in os.environ.items() if key != BUDGET}
    if case.budget is not None:
        env[BUDGET] = str(case.budget)
    deadline = time.monotonic() + TIMEOUT
    data = case.stdin_text().encode()
    results = []
    for stage in case.stages:
        done = subprocess.run([exe, *stage], input=data, capture_output=True, env=env,
                              timeout=deadline - time.monotonic())
        data = done.stdout
        out, err = (s.decode("utf-8", "surrogateescape") for s in (done.stdout, done.stderr))
        results.append((done.returncode, out, err))
    return results


def run_cases(cases: list[Case], exe: str) -> int:
    """Run every case through `exe`, print one line for each problem of a
    failed case, and return the number of failed cases."""
    failures = 0
    for case in cases:
        try:
            problems = check(case, run_case(case, exe))
        except subprocess.TimeoutExpired:
            problems = [f"{case.name}: timed out after {TIMEOUT} s"]
        for problem in problems:
            print(problem, flush=True)
        failures += bool(problems)
    return failures


def golden(name: str, command: str, inputs: tuple[str, ...] = (), code: int = 0) -> Case:
    """A case that prints tests/golden/<name>.out when it exits 0, and
    otherwise tests/golden/<name>.err on stderr and nothing on stdout."""
    stream = "err" if code else "out"
    return Case(name, command, inputs=inputs, code=code, **{stream: GOLDEN / f"{name}.{stream}"})


ANALYZE_INPUTS = ("random", "parity", "padded", "quasi", "salomaa")
MALFORMED_INPUTS = (
    "bad-token",
    "bad-value",
    "short-table",
    "bad-header",
    "header-not-integer",
    "incomplete-header",
    "compact-comment",
    "compact-bad-value",
    "over-limit-header",
)
# One sampled sweep per registered theorem on a shape where its arity
# hypothesis holds, and two where it fails (so checked is 0):
# name -> (k, n, b, samples).
VERIFY_SHAPES = {
    "T3.5i": (3, 3, 2, 300),
    "T3.5ii": (2, 2, 3, 300),
    "SWIER": (3, 4, 3, 200),
    "L3.4": (3, 3, 2, 300),
    "P4.2": (2, 2, 3, 300),
    "T4.1": (2, 3, 2, 300),
    "T4.3": (4, 4, 2, 100),
    "T4.4": (2, 3, 2, 300),
    "T5.1": (2, 3, 3, 300),
    "L5.2": (2, 4, 3, 300),
    "T6.1": (4, 4, 2, 100),
    "T6.4ii": (2, 2, 3, 300),
    "T6.4iii": (2, 3, 2, 300),
    "T4.1-arity": (3, 3, 2, 300),
    "T6.4iii-arity": (3, 4, 2, 300),
}
T63 = "verify --theorem T6.3 --k 3 --n 5 --b 2 --samples 200 --seed 7"
GOLDEN_CASES = [
    *(golden(f"analyze-{name}", "analyze", inputs=(name,)) for name in ANALYZE_INPUTS),
    golden("classify-mixed", "classify", inputs=ANALYZE_INPUTS),
    golden("enumerate-gap2", "enumerate --k 2 --n 3 --b 2 --filter gap=2"),
    golden("verify-T6.3", T63),
    *(
        golden(f"verify-{name}", f"verify --theorem {name.split('-')[0]} --k {k} --n {n} "
               f"--b {b} --samples {samples} --seed 3")
        for name, (k, n, b, samples) in VERIFY_SHAPES.items()
    ),
    golden("minor-identify", "minor --identify 2,1", inputs=ANALYZE_INPUTS),
    golden("minor-sigma", "minor --sigma 3,1,3 --target-arity 4", inputs=("ternary",)),
    golden("minor-diagonal", "minor --diagonal", inputs=ANALYZE_INPUTS),
    golden("oddsupp-check", "oddsupp-check", inputs=ANALYZE_INPUTS),
    golden("oddsupp-check-restricted", "oddsupp-check --restricted", inputs=ANALYZE_INPUTS),
    golden("gen-salomaa", "gen salomaa --k 3"),
    golden("gen-quasi", "gen quasi --k 4 --n 4 --b 3 --m 2 --seed 5"),
    golden("gen-oddsupp", "gen oddsupp --k 3 --n 4 --b 2 --seed 1"),
    *(golden(f"error-{name}", "analyze", inputs=(name,), code=2) for name in MALFORMED_INPUTS),
]

XOR2 = "ess=2 qa=0 essl=0 gap=2 pair=1,2\n"
AND2 = "ess=2 qa=1 essl=1 gap=1 pair=1,2\n"
PARITY14 = "ess=14 qa=14 essl=12 gap=2 pair=1,2\n"
PARITY18_STAR = "determined=1 star_constant=0 star=0:0,3:1\n"
T35I_2X4X2 = "theorem=T3.5i checked=65536 failures=0 seed=-\n"
# Short pins with inline expectations: the console-script checks CI ran as
# shell lines, then the --jobs twins and the classifier modes.
PINS = [
    Case("analyze-xor2", "analyze", stdin="2 2 2\n0 1 1 0\n", out=XOR2),
    Case("analyze-xor2-codomain-11", "analyze", stdin="2 2 11\n10 0 0 10\n", out=XOR2),
    Case("analyze-xor2-compact", "analyze", stdin="2 2 2;+0 1 0_1 0\n", out=XOR2),
    Case("error-value-outside-codomain", "analyze", stdin="2 2 2\n0 1 1 2\n", code=2,
         err="aritygap: line 2, col 7: value 2 not in 0..1\n"),
    Case("enumerate-over-budget", "enumerate --k 2 --n 2 --b 2", budget=10,
         code=1, err="aritygap: 2^4 tables exceed the budget 10\n"),
    Case("verify-L3.4-over-budget",
         "verify --theorem L3.4 --k 4 --n 3 --b 2 --samples 50 --seed 1",
         budget=319, code=1,
         err="aritygap: 2^3 slot sets over 40 repeat-set rows exceed the budget\n"),
    Case("verify-L3.4-at-budget",
         "verify --theorem L3.4 --k 4 --n 3 --b 2 --samples 50 --seed 1",
         budget=320, out="theorem=L3.4 checked=63 failures=0 seed=1\n"),
    Case("gen-salomaa-analyze", "gen salomaa --k 3 | analyze",
         out="ess=3 qa=0 essl=0 gap=3 pair=1,2\n"),
    Case("gen-salomaa-classify", "gen salomaa --k 3 | classify",
         out="gap=3 tag=QuasiNullary m=0\n"),
    Case("minor-identify-xor3", "minor --identify 1,2", stdin="2 3 2\n0 1 1 0 1 0 0 1\n",
         out="2 3 2\n0 1 0 1 0 1 0 1\n"),
    Case("gen-oddsupp-check-restricted",
         "gen oddsupp --k 3 --n 4 --b 2 --seed 5 | oddsupp-check --restricted",
         out="determined=1 star_constant=0 star=0:1,3:1,5:0,6:1\n"),
    Case("oddsupp-check-majority-witness", "oddsupp-check",
         stdin="2 3 2\n0 0 0 1 0 1 1 1\n", out="determined=0 witness=0-0-0,0-1-1\n"),
    Case("verify-T5.1-2x13x2-sample", "verify --theorem T5.1 --k 2 --n 13 --b 2 --samples 1",
         out="theorem=T5.1 checked=6 failures=0 seed=0\n"),
    Case("enumerate-gap2-2x4x2", "enumerate --k 2 --n 4 --b 2 --filter gap=2",
         out=GOLDEN / "enumerate-gap2-2x4x2.out"),
    *(
        Case(f"verify-{theorem}-2x4x2-exhaustive",
             f"verify --theorem {theorem} --k 2 --n 4 --b 2 --exhaustive",
             out=f"theorem={theorem} checked=65536 failures=0 seed=-\n")
        for theorem in ("SWIER", "T3.5i", "T3.5ii", "T5.1")
    ),
    Case("analyze-parity-2x14x2", "analyze", recipe=("parity", 2, 14, 2), out=PARITY14),
    Case("analyze-parity-2x14x2-twice", "analyze", recipe=("parity", 2, 14, 2), repeat=2,
         out=PARITY14 * 2),
    Case("analyze-parity-3x8x3", "analyze", recipe=("parity", 3, 8, 3),
         out="ess=8 qa=8 essl=6 gap=2 pair=1,2\n"),
    Case("analyze-x1+x2+x3x4+parity-2x12x2", "analyze", recipe=("x1+x2+x3x4+parity",),
         out="ess=12 qa=12 essl=11 gap=1 pair=1,3\n"),
    Case("analyze-x1x2+x3-2x16x2", "analyze", recipe=("x1x2+x3", 2, 1),
         out="ess=3 qa=3 essl=2 gap=1 pair=1,2\n"),
    Case("analyze-x1x2+x3-2x16x12", "analyze", recipe=("x1x2+x3", 12, 10),
         out="ess=3 qa=3 essl=2 gap=1 pair=1,2\n"),
    Case("oddsupp-check-parity-2x18x2", "oddsupp-check", recipe=("parity", 2, 18, 2),
         out=PARITY18_STAR),
    Case("oddsupp-check-restricted-parity-2x18x2", "oddsupp-check --restricted",
         recipe=("parity", 2, 18, 2), out=PARITY18_STAR),
    # README promises the same report under any --jobs.
    Case("verify-T3.5i-2x4x2-exhaustive-jobs2",
         "verify --theorem T3.5i --k 2 --n 4 --b 2 --exhaustive --jobs 2", out=T35I_2X4X2),
    Case("verify-T6.3-jobs2", f"{T63} --jobs 2", out=GOLDEN / "verify-T6.3.out"),
    # Rendered input just off the layout parse_stream reads line by line:
    # each takes the word path, with the same result.
    Case("analyze-rendered-then-compact", "analyze", stdin="2 2 2\n0 1 1 0\n2 2 2;0 0 0 1\n",
         out=XOR2 + AND2),
    Case("analyze-no-final-newline", "analyze", stdin="2 2 2\n0 1 1 0", out=XOR2),
    Case("analyze-crlf", "analyze", stdin="2 2 2\r\n0 1 1 0\r\n", out=XOR2),
    Case("analyze-codomain-11-stream", "analyze", stdin="2 2 11\n10 0 0 10\n2 2 11\n0 0 0 1\n",
         out=XOR2 + AND2),
    Case("analyze-two-spaces", "analyze", stdin="2 2 2\n0 1  1 0\n", out=XOR2),
    # A run of equal headers is read a blob of rows at a time: the row before
    # a failing table is still written first, and a row's last " 2" moved to
    # the front of the next row of its run takes the word path.
    Case("analyze-run-constant-middle", "analyze",
         stdin="2 2 2\n0 1 1 0\n2 2 2\n0 0 0 0\n2 2 2\n0 0 0 1\n", code=1, out=XOR2,
         err="aritygap: arity gap needs >= 2 essential slots, got 0\n"),
    Case("classify-run-shifted-row", "classify",
         stdin="2 2 3\n0 1 1\n2 2 3\n2 0 1 1 0\n2 2 3\n2 0 0 1\n", code=2,
         err="aritygap: line 5, col 1: value 2 not in 0..1\n"),
    Case("classify-boolean", "classify --boolean",
         stdin="2 2 2\n0 1 1 0\n2 3 2\n0 0 0 1 0 1 1 1\n2 3 2\n0 1 1 0 1 0 0 1\n",
         out="gap=2 tag=QuasiNMinus2 m=0 family=linear c=0 perm=1,2\n"
         "gap=2 tag=TernaryPattern pattern=000 family=majority c=0 perm=1,2,3\n"
         "gap=2 tag=TernaryPattern pattern=111 family=linear c=0 perm=1,2,3\n"),
    Case("classify-pseudo-boolean", "classify --pseudo-boolean",
         stdin="2 2 3\n0 1 1 2\n2 2 11\n10 0 0 10\n2 3 3\n0 1 1 2 1 2 2 0\n",
         out="gap=1 tag=GapOne\n"
         "gap=2 tag=QuasiNMinus2 m=0 family=linear c=0 perm=1,2\n"
         "gap=1 tag=GapOne\n"),
]
CASES = GOLDEN_CASES + PINS


def main(argv: list[str]) -> int:
    if argv:
        print(f"cli_cases: takes no arguments, got {' '.join(argv)}", file=sys.stderr)
        return 2
    exe = shutil.which("aritygap")
    if exe is None:
        print("cli_cases: no aritygap on PATH; run `python -m pip install .` first",
              file=sys.stderr)
        return 2
    failures = run_cases(CASES, exe)
    print(f"cases={len(CASES)} failures={failures}")
    return 1 if failures or not CASES else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
