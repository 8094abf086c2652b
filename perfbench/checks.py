"""Output checks, run after the timed region.

Each check takes a request, the bytes the command wrote and a context, and
returns None when the output is right, else a one-line reason.  Where it can,
a check recomputes the answer by a route independent of the one the command
took: ``classify`` for ``analyze``, ``arity_gap`` for ``classify``, and a
definitional essential-slot and oddsupp scan written here.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 0
SUBSET = 32  # functions per stream file recomputed by the independent route


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def expected_digests(workload: str, seed: int, requests: list[dict]) -> dict[str, str]:
    """Output digests to enforce, by request id: those recorded for
    DEFAULT_SEED, and at any other seed those of the requests whose output
    does not depend on the seed (an exhaustive sweep, an enumeration)."""
    if not DIGESTS.is_file():
        return {}
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {})
    return {r["id"]: recorded[r["id"]] for r in requests
            if r["id"] in recorded and (seed == DEFAULT_SEED or r["seed_free"])}


def essential_count(k: int, n: int, table) -> int:
    """Slots i with two inputs differing only at i that get different values."""
    count = 0
    size = len(table)
    for i in range(n):
        s = k ** (n - 1 - i)
        block = k * s
        if any(table[lo + d * s: lo + (d + 1) * s] != table[lo: lo + s]
               for lo in range(0, size, block) for d in range(1, k)):
            count += 1
    return count


def _fields(line: str) -> dict:
    return dict(part.split("=", 1) for part in line.split())


def _tuple_index(k: int, t) -> int:
    idx = 0
    for a in t:
        idx = idx * k + a
    return idx


def _odd_mask(t) -> int:
    mask = 0
    for a in t:
        mask ^= 1 << a
    return mask


class Context:
    """What the checks need besides the output: the program, the inputs and the seed."""

    def __init__(self, aritygap, workdir: Path, seed: int):
        self.ag = aritygap
        self.oracle = importlib.import_module("aritygap.oracle")
        self.workdir = workdir
        self.seed = seed
        self._inputs: dict[str, list] = {}

    def functions(self, name: str) -> list:
        if name not in self._inputs:
            text = (self.workdir / name).read_text(encoding="utf-8")
            self._inputs[name] = self.ag.parse_stream(text)
        return self._inputs[name]

    def subset(self, request: dict, size: int) -> list[int]:
        rng = random.Random(f"{self.seed}:check:{request['id']}")
        return sorted(rng.sample(range(size), min(SUBSET, size)))


def _check_analyze(req, text, ctx):
    (f,) = ctx.functions(req["input"])
    lines = text.splitlines()
    if len(lines) != 1:
        return f"expected 1 line, got {len(lines)}"
    got = int(_fields(lines[0])["gap"])
    want = ctx.ag.classify(f).gap
    if got != want:
        return f"analyze gap={got}, classify gap={want}"
    if req["params"]["cls"] == "parity" and got != 2:
        return f"parity table has gap {got}, expected 2"
    return None


def _check_classify(req, text, ctx):
    fns = ctx.functions(req["input"])
    lines = text.splitlines()
    if len(lines) != len(fns):
        return f"expected {len(fns)} lines, got {len(lines)}"
    for i in ctx.subset(req, len(fns)):
        got = int(_fields(lines[i])["gap"])
        want = ctx.ag.arity_gap(fns[i]).gap
        if got != want:
            return f"function {i}: classify gap={got}, arity_gap gap={want}"
    return None


def _check_oddsupp(req, text, ctx):
    """Witnesses must be genuine; a star map must fit every repeat-set value."""
    fns = ctx.functions(req["input"])
    lines = text.splitlines()
    if len(lines) != len(fns):
        return f"expected {len(fns)} lines, got {len(lines)}"
    for i in ctx.subset(req, len(fns)):
        f, fields = fns[i], _fields(lines[i])
        if "witness" in fields:
            left, right = (tuple(int(a) for a in w.split("-")) for w in fields["witness"].split(","))
            if not (len(set(left)) < f.n and len(set(right)) < f.n and _odd_mask(left) == _odd_mask(right)
                    and f.table[_tuple_index(f.k, left)] != f.table[_tuple_index(f.k, right)]):
                return f"function {i}: witness {fields['witness']} does not separate an oddsupp fiber"
            continue
        star = dict(tuple(int(v) for v in item.split(":")) for item in fields["star"].split(",") if item)
        for idx, t in enumerate(ctx.ag.all_tuples(f.k, f.n)):
            if len(set(t)) < f.n and star.get(_odd_mask(t)) != f.table[idx]:
                return f"function {i}: star map disagrees with the table at {t}"
        if fields["determined"] != str(int(len(set(star.values())) > 1)):
            return f"function {i}: determined={fields['determined']} with star {fields['star']}"
    return None


def _applies(theorem: str, f) -> bool:
    """Whether a sweep's hypotheses cover f, from the theorem statements."""
    if theorem == "T6.3":
        return f.n > 3 and essential_count(f.k, f.n, f.table) == f.n
    return True  # T5.1 and L3.4 check every function


def expected_checked(params: dict, oracle) -> tuple[int, int]:
    """(checked, generated) that a sweep must report."""
    k, n, b, theorem = params["k"], params["n"], params["b"], params["theorem"]
    if params["samples"] is None:
        return b ** (k**n), b ** (k**n)  # exhaustive: every table, no extras
    seed = params["seed"]
    fns = [oracle.sampled_function(k, n, b, seed, i) for i in range(params["samples"])]
    fns += oracle.constructed_witnesses(k, n, b, seed)
    return sum(_applies(theorem, f) for f in fns), len(fns)


def _check_verify(req, text, ctx):
    lines = text.splitlines()
    if len(lines) != 1:
        return f"expected 1 report line, got {len(lines)}"
    fields = _fields(lines[0])
    if fields["failures"] != "0":
        return f"sweep reported failures={fields['failures']}"
    want, _ = expected_checked(req["params"], ctx.oracle)
    if int(fields["checked"]) != want:
        return f"checked={fields['checked']}, expected {want}"
    return None


def _check_enumerate(req, text, ctx):
    fns = ctx.ag.parse_stream(text)
    if not fns:
        return "no function enumerated"
    for i, f in enumerate(fns):
        if ctx.ag.classify(f).gap != 2:
            return f"enumerated function {i} has classify gap {ctx.ag.classify(f).gap}"
    return None


CHECKS = {
    "analyze": _check_analyze,
    "classify": _check_classify,
    "classify-boolean": _check_classify,
    "oddsupp": _check_oddsupp,
    "verify": _check_verify,
    "enumerate": _check_enumerate,
}


def check(req: dict, data: bytes, ctx: Context) -> str | None:
    return CHECKS[req["kind"]](req, data.decode("utf-8"), ctx)
