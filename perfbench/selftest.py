"""Self-test of the benchmark at tiny scale.

    python3 perfbench/selftest.py                  # run the checks
    python3 perfbench/selftest.py --write-digests  # record output digests

Checks, for each workload on a few of its requests (plus a small exhaustive
sweep and enumeration): that both modes measure every metric BENCHMARK.json
names, emit exactly those, and pass every output check; that a metric the
run did not measure stops the run; that the traced run leaves
every aritygap binding as it found it; that the tracer rebinds aliased
imports; that the layer self times sum to no more than the traced wall time;
and that run.py refuses to run, printing no result, where there are no
program sources.  --write-digests runs one full pass of every workload with
the default seed and records the digest of each request's output in
digests.json, which run.py then enforces for that seed, and at every seed
for the requests whose output does not depend on it.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import LAYERS, Tracer, bindings_snapshot  # noqa: E402


def _extra(rid, kind, argv, fns, **params):
    return {"id": rid, "kind": kind, "argv": argv, "fns": fns, "input": None, "seed_free": True,
            "params": params}


TINY = {
    "analyze-large": lambda reqs: [r for r in reqs if r["params"]["shape"] == [5, 5, 5]],
    "verify-sweep": lambda reqs: [r for r in reqs if "sampled" in r["id"]] + [
        _extra("verify-T5.1-2x3x2-exhaustive", "verify",
               ["verify", "--theorem", "T5.1", "--k", "2", "--n", "3", "--b", "2", "--exhaustive"],
               256, theorem="T5.1", k=2, n=3, b=2, samples=None, seed=None),
        _extra("enumerate-2x3x2-gap2", "enumerate",
               ["enumerate", "--k", "2", "--n", "3", "--b", "2", "--filter", "gap=2"], 256),
    ],
    "classify-stream": lambda reqs: [r for r in reqs if r["params"]["shape"] in ([3, 3, 3], [2, 8, 2])],
}


def run_tiny(workload: str, trace: int, spec: dict) -> tuple[dict, dict]:
    """The run record and the printed result of a tiny-scale run."""
    args = argparse.Namespace(workload=workload, seed=checks.DEFAULT_SEED, seconds=0.01, trace=trace)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        record = run.run(args, spec, pick=TINY[workload])
    return record, json.loads(buf.getvalue().strip().splitlines()[-1])


def check_metric_names(spec: dict):
    run.import_program()
    try:
        run.emit([("no_such_metric", "s")], {})
        raise AssertionError("emit accepted a metric that was not measured")
    except run.BenchError:
        pass
    for workload in TINY:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            before = bindings_snapshot() if trace else None
            record, result = run_tiny(workload, trace, spec)
            assert result["correct"] and result["failed"] == 0, f"{workload}: {result}"
            want = [m["name"] for m in spec[key]]
            missing = set(want) - set(record["values"])
            assert not missing, f"{workload} trace={trace}: not measured: {sorted(missing)}"
            assert list(result["metrics"]) == want, f"{workload} trace={trace}: metric names differ"
            units = {m["name"]: m["unit"] for m in spec[key]}
            assert all(v["unit"] == units[k] for k, v in result["metrics"].items())
            if trace:
                assert bindings_snapshot() == before, f"{workload}: traced run left bindings changed"
        print(f"ok  {workload}: metric names, output checks, bindings restored")


def check_aliases():
    aritygap, cli = run.import_program()
    classify_mod = importlib.import_module("aritygap.classify")
    original = classify_mod.classify
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = classify_mod.classify
        assert wrapped is not original
        assert cli.classify_general is wrapped and aritygap.classify is wrapped
        assert aritygap.core.FiniteFunction.__post_init__ is not None
    finally:
        tracer.uninstall()
    assert cli.classify_general is original and aritygap.classify is original
    print("ok  tracer rebinds aliased imports and restores them")


def check_self_times():
    workload = "classify-stream"
    workdir = run.WORK / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        requests = TINY[workload](run.generate(workload, checks.DEFAULT_SEED, workdir))
        _, cli = run.import_program()
        runner = run.Runner(cli, requests, workdir)
        tracer = Tracer()
        start = perf_counter()
        runner.traced_pass(tracer)
        wall = perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    layers = tracer.summary()["layers"]
    total = sum(layers[name]["self_s"] for name in LAYERS)
    assert 0 < total <= wall, f"layer self times {total} s exceed the traced wall time {wall} s"
    assert abs(total - layers["cli"]["busy_s"]) < 1e-6, "self times do not add up to the root spans"
    print(f"ok  layer self times {total:.3f} s <= traced wall {wall:.3f} s")


def check_refuses_without_sources():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in HERE.iterdir():
            if path.is_file():
                shutil.copy(path, bare / "perfbench")
        out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "classify-stream",
                              "--seed", "0", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0 and '"metrics"' not in out.stdout, out
    print(f"ok  without program sources run.py exits {out.returncode}: {out.stderr.strip()}")


def write_digests():
    digests = {}
    for workload in TINY:
        workdir = run.WORK / "digests"
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            requests = run.generate(workload, checks.DEFAULT_SEED, workdir)
            aritygap, cli = run.import_program()
            runner = run.Runner(cli, requests, workdir)
            results = runner.run_pass()
            ctx = checks.Context(aritygap, workdir, checks.DEFAULT_SEED)
            reasons = run.judge(results, runner, ctx, expected={})
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        assert not reasons, reasons
        digests[workload] = {r["req"]["id"]: r["digest"] for r in results}
        print(f"recorded {len(results)} digests for {workload}")
    checks.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark self-test at tiny scale")
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.write_digests:
        write_digests()
        return 0
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_refuses_without_sources()
    check_metric_names(spec)
    check_aliases()
    check_self_times()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
