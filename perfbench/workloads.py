"""Workload definitions and input generation.

Each workload is a fixed list of requests; a request is one ``aritygap``
command line, run in-process through ``aritygap.cli.main``.  Inputs are
generated in a child process so that the lru caches the generators fill are
not already warm in the measured process:

    python3 perfbench/workloads.py --workload analyze-large --seed 0 --dir DIR

writes ``DIR/manifest.json`` (the request list) and the input files the
requests read.  A request's input depends only on the seed and the request
id, so any subset of the list reproduces the same files and outputs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("analyze-large", "verify-sweep", "classify-stream")

# Cold passes per run (the run process's first pass, the rest in fresh
# processes); cold_pass_s sums each request's median time over them.  A
# verify-sweep pass is long enough to average host noise by itself; a
# classify-stream one is short.
COLD_PASSES = {"analyze-large": 2, "verify-sweep": 1, "classify-stream": 5}

# analyze-large: one large function per request.  Per shape, (class, count).
# "padded" tables are essentially m-ary with inessential slots, which makes
# the essential-slot scan run through every pair; the two (2,16) ones also
# fill the largest pair cache.  For n > k a quasi-m-ary function depending on
# all slots needs m = n, so "quasi" is then a generic full-arity table.  The
# counts put the median warm latency in the middle of the cluster of (2,12)
# and (3,8) requests, away from the cheap padded and (5,5,5) ones.
ANALYZE_SHAPES = ((2, 12, 2), (2, 14, 2), (3, 8, 3), (5, 5, 5))
ANALYZE_CLASSES = (("random", 2), ("parity", 1), ("padded", 1), ("quasi", 2))
ANALYZE_EXTRA = (((2, 16, 2), "padded", 2),)

# verify-sweep: about 140k tiny functions, no parsing.  The sample counts
# make each sampled sweep cost about as much as the enumeration, so that the
# median of the four request latencies falls inside one cluster of them.
VERIFY_SAMPLES = {"T6.3": 6500, "L3.4": 4000}

# classify-stream: per shape, three stream files whose sizes are the shape's
# base size scaled by STREAM_SCALES.  Base sizes make a file cost about the
# same in every shape, so that request latencies form one continuous band
# and their median does not step between clusters.
STREAM_BASE = {(3, 3, 3): 300, (3, 4, 3): 180, (3, 5, 2): 72, (2, 8, 2): 72, (4, 4, 4): 72}
STREAM_SCALES = (0.8, 1.0, 1.25)


def shape_tag(shape) -> str:
    return "x".join(str(v) for v in shape)


def _rng(seed: int, request_id: str) -> random.Random:
    return random.Random(f"{seed}:{request_id}")


def _parity(k: int, n: int, b: int, rng: random.Random):
    """h(p(x1) + ... + p(xn) mod 2) with p: domain -> {0,1} nonconstant.

    Identifying two slots adds 2 p(x), so both slots drop out: no minor keeps
    ess - 1 essential slots and the gap is 2.
    """
    from aritygap import FiniteFunction

    p = [0, 1] + [rng.randrange(2) for _ in range(k - 2)]
    rng.shuffle(p)
    h = rng.sample(range(b), 2)
    table = tuple(h[sum(p[a] for a in t) % 2] for t in itertools.product(range(k), repeat=n))
    return FiniteFunction(k, n, b, table)


def _random_table(k: int, n: int, b: int, rng: random.Random):
    from aritygap import FiniteFunction

    return FiniteFunction(k, n, b, tuple(rng.randrange(b) for _ in range(k**n)))


def _analyze_function(shape, cls: str, index: int, rng: random.Random):
    """The index-th table of a class.  The seed draws the table's contents,
    not its structure (m), so that a pass costs about the same at every seed."""
    from aritygap.oracle import gen_essentially_m_ary, gen_quasi_m_ary

    k, n, b = shape
    if cls == "random":
        return _random_table(k, n, b, rng)
    if cls == "parity":
        return _parity(k, n, b, rng)
    if cls == "padded":
        return gen_essentially_m_ary(k, n, b, 3 + index % 2, rng.getrandbits(32))
    m = n if n > k else n - 2 - index  # (5,5,5): m = 3, 2
    return gen_quasi_m_ary(k, n, b, m, rng.getrandbits(32))


def _stream_function(shape, index: int, rng: random.Random):
    """Cycle through random tables and the three structured generators."""
    from aritygap.oracle import gen_oddsupp_determined, gen_quasi_m_ary, gen_ternary_pattern

    k, n, b = shape
    cls = index % 4
    if cls == 1:
        m = n if n > k else rng.randrange(0, n + 1)
        return gen_quasi_m_ary(k, n, b, m, rng.getrandbits(32))
    if cls == 2 and n >= 4:
        return gen_oddsupp_determined(k, n, b, rng.getrandbits(32))
    if cls == 3 and n == 3:
        pattern = tuple(rng.randrange(2) for _ in range(3))
        return gen_ternary_pattern(k, pattern, rng.getrandbits(32), b)
    return _random_table(k, n, b, rng)


def _request(rid: str, kind: str, argv, fns: int, input_file=None, seed_free=False, **params) -> dict:
    """seed_free: the request's output does not depend on the seed."""
    return {"id": rid, "kind": kind, "argv": list(argv), "fns": fns, "input": input_file,
            "seed_free": seed_free, "params": params}


def build(workload: str, seed: int, directory: Path) -> list[dict]:
    """Write the workload's input files into directory and return its requests."""
    from aritygap import essential_arity, render

    requests = []
    if workload == "analyze-large":
        plan = [(shape, cls, count) for shape in ANALYZE_SHAPES for cls, count in ANALYZE_CLASSES]
        plan += list(ANALYZE_EXTRA)
        for shape, cls, count in plan:
            for i in range(count):
                rid = f"analyze-{shape_tag(shape)}-{cls}-{i}"
                f = _analyze_function(shape, cls, i, _rng(seed, rid))
                name = rid + ".txt"
                (directory / name).write_text(render(f), encoding="utf-8")
                requests.append(_request(rid, "analyze", ["analyze"], 1, name, shape=shape, cls=cls))
    elif workload == "verify-sweep":
        requests.append(_request(
            "verify-T5.1-2x4x2-exhaustive", "verify",
            ["verify", "--theorem", "T5.1", "--k", "2", "--n", "4", "--b", "2", "--exhaustive"],
            2**16, seed_free=True, theorem="T5.1", k=2, n=4, b=2, samples=None, seed=None,
        ))
        requests.append(_request(
            "enumerate-2x4x2-gap2", "enumerate",
            ["enumerate", "--k", "2", "--n", "4", "--b", "2", "--filter", "gap=2"], 2**16,
            seed_free=True,
        ))
        for theorem, (k, n, b) in (("T6.3", (3, 5, 2)), ("L3.4", (3, 3, 3))):
            rid = f"verify-{theorem}-{shape_tag((k, n, b))}-sampled"
            samples = VERIFY_SAMPLES[theorem]
            sweep_seed = _rng(seed, rid).getrandbits(31)
            argv = ["verify", "--theorem", theorem, "--k", str(k), "--n", str(n), "--b", str(b),
                    "--samples", str(samples), "--seed", str(sweep_seed)]
            requests.append(_request(rid, "verify", argv, samples, theorem=theorem, k=k, n=n, b=b,
                                     samples=samples, seed=sweep_seed))
    elif workload == "classify-stream":
        for (shape, base), scale in itertools.product(STREAM_BASE.items(), STREAM_SCALES):
            size = round(base * scale)
            tag = f"{shape_tag(shape)}-{size}"
            stem = f"stream-{tag}"
            rng = _rng(seed, stem)
            fns = []
            while len(fns) < size:
                try:
                    f = _stream_function(shape, len(fns), rng)
                except ValueError:  # a generator gave up on this seed
                    f = _random_table(*shape, rng)
                if essential_arity(f) >= 2:
                    fns.append(f)
            name = stem + ".txt"
            (directory / name).write_text("".join(render(f) for f in fns), encoding="utf-8")
            commands = [("classify", ["classify"]), ("oddsupp", ["oddsupp-check", "--restricted"])]
            if shape[0] == shape[2] == 2:
                commands.append(("classify-boolean", ["classify", "--boolean"]))
            for kind, argv in commands:
                requests.append(_request(f"{kind}-{tag}", kind, argv, size, name, shape=shape))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return requests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, type=Path)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    args.dir.mkdir(parents=True, exist_ok=True)
    requests = build(args.workload, args.seed, args.dir)
    (args.dir / "manifest.json").write_text(json.dumps(requests, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
