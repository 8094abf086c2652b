"""Benchmark for the aritygap CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see workloads.py and README.md):
analyze-large, verify-sweep and classify-stream.  Each runs closed-loop, one
request at a time, in this single-threaded process; a request is one
in-process ``aritygap.cli.main([... "--in", file, "--out", file])`` call on
inputs generated from the seed.  Whole passes over the request list are
repeated until S seconds have been measured (S defaults to run_seconds of
BENCHMARK.json).  Times are adjusted for host speed (see HostSpeed).  Outputs
are checked after the timed region.  Human-readable lines come first; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones, from a separate run with the tracer installed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import COLD_PASSES, WORKLOADS  # noqa: E402

SETUP_STARTS = 24  # fresh-process imports measured per run, after one warm-up
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import aritygap; print(time.perf_counter() - t)"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class HostSpeed:
    """Samples the host's speed by timing a fixed piece of pure-Python work,
    and scales each measured interval to the speed at which that work takes
    REF_S.

    The host runs pure-Python code up to twice as slowly in some stretches
    as in others, for seconds to minutes, with CPU time equal to wall time
    and no steal time.  The work has the two kinds the program does, an
    interpreted loop and a C-level gather over a table of 16k entries, and
    slows with the program.  The runner samples between requests, and a
    timer signal samples every EVERY_S inside a request.  The time between
    two samples counts as run at the mean of their speeds; the samples' own
    time is left out of every interval.  On the 2-CPU development host the
    adjusted time of an analyze-large pass varies a third as much as its
    wall time.  The work shares no code or data with the program, so a
    change to the program moves adjusted times as it moves wall times.
    REF_S lies inside the range of the per-run median samples on that host
    (4.2 to 6.8 ms), so adjusted times are wall times at a speed it has.
    A program that ran work on other threads during a request would slow
    the samples too and hide part of its own cost; this one runs a single
    thread."""

    LOOPS = 30_000
    REF_S = 0.005
    EVERY_S = 0.25  # between requests, the least time between samples

    def __init__(self, timer: bool = True):
        rng = random.Random(0)
        self.table = tuple(rng.randrange(2) for _ in range(1 << 14))
        self.gather = tuple(rng.randrange(1 << 14) for _ in range(1 << 14))
        self.timer = timer
        self.samples: list[float] = []  # seconds the work took
        self.marks: list[tuple[float, float, float]] = []  # (start, end, seconds)

    def sample(self, *_signal) -> float:
        """The fastest time of three runs of the work, in seconds.  Also the
        timer signal's handler."""
        start = perf_counter()
        best = float("inf")
        for _ in range(3):
            t = perf_counter()
            acc = 0
            for i in range(self.LOOPS):
                acc += i * i % 7
            gathered = tuple(map(self.table.__getitem__, self.gather))
            all(0 <= v < 2 for v in gathered)
            best = min(best, perf_counter() - t)
        self.samples.append(best)
        self.marks.append((start, perf_counter(), best))
        return best

    @contextlib.contextmanager
    def watch(self):
        """Samples every EVERY_S while the block runs, if the timer is on."""
        if not self.timer:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_S, self.EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def adjust(self, seconds: float, before: float, after: float) -> float:
        return seconds * self.REF_S * 2 / (before + after)

    def measure(self, t0: float, t1: float, first: int = 0) -> tuple[float, float]:
        """Wall and adjusted seconds of the interval t0..t1, less the samples
        taken in it; marks from index `first` on must bracket it."""
        wall = adjusted = 0.0
        marks = self.marks[first:]
        for (_, a_end, a), (b_start, _, b) in zip(marks, marks[1:]):
            lo, hi = max(t0, a_end), min(t1, b_start)
            if hi > lo:
                wall += hi - lo
                adjusted += self.adjust(hi - lo, a, b)
        return wall, adjusted

    def median_ms(self) -> float:
        return statistics.median(self.samples) * 1000


class SetupSampler:
    """Times `import aritygap` in fresh interpreters.  The starts are spread
    over the run, a few between requests, so that they sample the host at
    many moments; each is adjusted for host speed like a request, and
    setup_s is the median of the adjusted times."""

    def __init__(self, seconds: float, host: HostSpeed):
        self.code = SETUP_CODE.format(src=str(SRC))
        self.period = seconds / SETUP_STARTS
        self.host = host
        self.samples: list[float] = []  # wall seconds
        self.adjusted: list[float] = []
        self.start = perf_counter()
        self._one()  # warm-up: compiles the bytecode on a fresh checkout
        self.samples.clear()
        self.adjusted.clear()

    def _one(self):
        before = self.host.sample()
        out = subprocess.run([sys.executable, "-c", self.code], cwd=ROOT, capture_output=True,
                             text=True, timeout=120)
        after = self.host.sample()
        if out.returncode != 0:
            raise BenchError(f"import aritygap failed in a fresh process:\n{out.stderr}")
        seconds = float(out.stdout)
        self.samples.append(seconds)
        self.adjusted.append(self.host.adjust(seconds, before, after))

    def due(self):
        """Makes the starts whose time has come, one per period of the run so far."""
        want = min(SETUP_STARTS, int((perf_counter() - self.start) / self.period) + 1)
        while len(self.samples) < want:
            self._one()

    def value(self) -> float:
        while len(self.samples) < SETUP_STARTS:
            self._one()
        return statistics.median(self.adjusted)


def generate(workload: str, seed: int, workdir: Path) -> list[dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed),
         "--dir", str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise BenchError(f"input generation failed:\n{out.stderr}")
    return json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))


def import_program():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import aritygap

    if not Path(aritygap.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"aritygap imported from {aritygap.__file__}, not from {SRC}")
    return aritygap, importlib.import_module("aritygap.cli")


def source_id() -> dict:
    """Commit of the checkout when it is a git work tree, and a digest of the
    program sources either way."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=30, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        sha = out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        sha = "unknown"
    h = hashlib.sha256()
    for path in sorted((SRC / "aritygap").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": h.hexdigest()[:16]}


class Runner:
    """Runs passes over the request list and keeps what the checks need."""

    def __init__(self, cli, requests: list[dict], workdir: Path, outdir: str = "out", timer: bool = True):
        self.cli = cli
        self.host = HostSpeed(timer)
        self.requests = requests
        self.workdir = workdir
        self.outdir = workdir / outdir
        self.outdir.mkdir()
        self.first_output: dict[str, bytes] = {}
        self.tracer: Tracer | None = None
        self.between = None  # called between requests, outside their timing
        self.attempts = 0

    def run_pass(self) -> list[dict]:
        """Each result has the request's wall seconds `s` and its seconds
        adjusted for host speed, `adj`, both without the host-speed samples
        taken during it (see HostSpeed).  Between requests the host is
        sampled at least HostSpeed.EVERY_S apart, and `between` runs only
        right after such a sample."""
        first = len(self.host.marks)
        self.host.sample()
        mark = perf_counter()
        results, spans = [], []
        for n, req in enumerate(self.requests, 1):
            out = self.outdir / (req["id"] + ".out")
            argv = list(req["argv"])
            if req["input"]:
                argv += ["--in", str(self.workdir / req["input"])]
            argv += ["--out", str(out)]
            if self.tracer is not None:
                self.tracer.request = self.attempts
            self.attempts += 1
            error = None
            t = perf_counter()
            with self.host.watch():
                try:
                    rc = self.cli.main(argv)
                except Exception:  # a raising request counts as failed; the run goes on
                    rc, error = None, traceback.format_exc(limit=3)
            spans.append((t, perf_counter()))
            data = out.read_bytes() if out.is_file() else b""
            self.first_output.setdefault(req["id"], data)
            results.append({"req": req, "rc": rc, "error": error, "digest": checks.digest(data)})
            if perf_counter() - mark >= HostSpeed.EVERY_S or n == len(self.requests):
                self.host.sample()
                if self.between is not None:
                    self.between()
                mark = perf_counter()
        for r, (t0, t1) in zip(results, spans):
            r["s"], r["adj"] = self.host.measure(t0, t1, first)
        return results

    def child_pass(self) -> list[dict]:
        """One pass in a fresh process, so with every cache cold."""
        out = subprocess.run([sys.executable, str(HERE / "coldpass.py"), str(self.workdir)],
                             input=json.dumps(self.requests), cwd=ROOT, capture_output=True,
                             text=True, timeout=900)
        if out.returncode != 0:
            raise BenchError(f"cold pass in a child process failed:\n{out.stderr}")
        by_id = {r["id"]: r for r in self.requests}
        report = json.loads(out.stdout.strip().splitlines()[-1])
        self.host.samples += report["host_s"]
        return [dict(row, req=by_id[row.pop("id")]) for row in report["rows"]]

    def traced_pass(self, tracer: Tracer) -> list[dict]:
        self.tracer = tracer
        tracer.install()
        try:
            return self.run_pass()
        finally:
            tracer.uninstall()
            self.tracer = None


def judge(results: list[dict], runner: Runner, ctx, expected: dict[str, str]) -> list[str]:
    """Mark each result ok or not; return the reasons for the failures.
    expected maps request ids to the output digests to enforce."""
    by_id = {r["id"]: r for r in runner.requests}
    verdicts: dict[str, str | None] = {}
    for rid, data in runner.first_output.items():
        try:
            verdicts[rid] = checks.check(by_id[rid], data, ctx)
        except Exception:
            verdicts[rid] = "output check raised: " + traceback.format_exc(limit=2).strip().splitlines()[-1]
        if verdicts[rid] is None and rid in expected and checks.digest(data) != expected[rid]:
            verdicts[rid] = "output differs from its recorded digest"
    reasons = []
    for r in results:
        rid = r["req"]["id"]
        if r["error"] is not None:
            reason = "raised: " + r["error"].strip().splitlines()[-1]
        elif r["rc"] != 0:
            reason = f"exit code {r['rc']}"
        elif r["digest"] != checks.digest(runner.first_output[rid]):
            reason = "output differs between passes"
        else:
            reason = verdicts[rid]
        r["ok"] = reason is None
        if reason is not None:
            reasons.append(f"{rid}: {reason}")
    return reasons


def tail_latency(results: list[dict]) -> dict:
    """The highest percentile of adjusted latency with at least ten samples
    beyond it.  Below 20 samples no percentile from the median up has ten
    beyond it, and the tail is the maximum."""
    ms = sorted(r["adj"] * 1000 for r in results)
    count = len(ms)
    rank = count - 10 if count >= 20 else count
    return {"tail_ms": ms[rank - 1], "tail_pct": 100.0 * rank / count, "samples": count}


def median_times(passes: list[list[dict]]) -> list[float]:
    """Each request's median adjusted time over the passes.  (The best time
    spreads more from run to run: it picks the pass whose adjustment erred
    most toward fast.)"""
    return [statistics.median(p[i]["adj"] for p in passes) for i in range(len(passes[0]))]


def rate(requests: list[dict], times: list[float]) -> float:
    """Functions completed per second, at each request's median time."""
    return sum(r["fns"] for r in requests) / sum(times)


def flat(passes: list[list[dict]]) -> list[dict]:
    return [r for p in passes for r in p]


def measure(runner: Runner, workload: str, seconds: float, setup: SetupSampler):
    """Passes for `seconds`; analyze-large measures only the warm passes after
    its first.  The first pass is cold; COLD_PASSES - 1 more cold passes run
    in fresh processes, spaced out over the run (the clock stops meanwhile)
    so that they sample the host at different times, as do the set-up starts.
    Returns (cold passes, measured passes, all results)."""
    runner.between = setup.due
    warm_only = workload == "analyze-large"
    cold_total = COLD_PASSES[workload]
    t = perf_counter()
    first = runner.run_pass()
    colds, passes = [first], ([] if warm_only else [first])
    clock = 0.0 if warm_only else perf_counter() - t
    while not passes or clock < seconds:
        t = perf_counter()
        passes.append(runner.run_pass())
        clock += perf_counter() - t
        if len(colds) < cold_total and clock >= seconds * len(colds) / cold_total:
            colds.append(runner.child_pass())
    while len(colds) < cold_total:
        colds.append(runner.child_pass())
    runner.between = None
    rest = passes if warm_only else passes[1:]
    return colds, passes, flat(colds) + flat(rest)


def measure_traced(runner: Runner, workload: str, seconds: float, tracer: Tracer):
    """Untraced and traced passes alternate, so overhead compares like with
    like; analyze-large first gets a traced cold pass."""
    traced = runner.traced_pass(tracer) if workload == "analyze-large" else []
    untraced_s = traced_s = 0.0
    start = perf_counter()
    untraced = []
    while not untraced or perf_counter() - start < seconds:
        plain = runner.run_pass()
        with_trace = runner.traced_pass(tracer)
        untraced += plain
        traced += with_trace
        untraced_s += sum(r["s"] for r in plain)
        traced_s += sum(r["s"] for r in with_trace)
    return untraced, traced, traced_s / untraced_s - 1.0


def layer_metrics(tracer: Tracer, traced: list[dict], overhead: float, calib: float, oracle) -> dict:
    s = tracer.summary()
    layers, functions = s["layers"], s["functions"]
    m = {}
    for name in LAYERS:
        for key in ("calls", "busy_s", "self_s"):
            m[f"{name}.{key}"] = layers[name][key]
    for name, entry in functions.items():
        if not name.startswith("core"):
            m[f"{name}.calls"] = entry["calls"]
            m[f"{name}.self_s"] = entry["self_s"]

    def per(num, den):
        return num / den if den else 0.0

    def fn(name, key):
        return functions.get(name, {}).get(key, 0)

    fns = sum(r["req"]["fns"] for r in traced)
    generated = sum(checks.expected_checked(r["req"]["params"], oracle)[1]
                    for r in traced if r["req"]["kind"] == "verify")
    m["minors.per_gap_call"] = per(tracer.spans_with_parent("gap.arity_gap", "minors.identification_minor"),
                                   fn("gap.arity_gap", "calls"))
    for name in ("minors", "analysis", "oddsupp"):
        m[f"{name}.entries_per_s"] = per(layers[name]["work"], layers[name]["self_s"])
    m["core.parse.values_per_s"] = per(layers["core.parse"]["work"], layers["core.parse"]["self_s"])
    m["core.validate.per_fn"] = per(layers["core.validate"]["calls"], fns)
    m["oracle.checked_frac"] = per(fn("oracle.verify", "work"), generated)
    m["trace.overhead_frac"] = overhead
    m["host.calib_ms"] = calib
    m["trace.spans"] = s["spans"]
    return m


def emit(names_units: list[tuple[str, str]], values: dict) -> dict:
    missing = [name for name, _ in names_units if name not in values]
    if missing:
        raise BenchError(f"BENCHMARK.json names metrics the run did not measure: {', '.join(missing)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in names_units}


def run(args, spec: dict, pick=None) -> dict:
    """One benchmark run; prints the result and returns the run record.
    pick, if given, maps the request list to the one to run (the self-test
    uses it to run at tiny scale)."""
    if not (SRC / "aritygap" / "__init__.py").is_file():
        raise BenchError(f"no aritygap sources under {SRC}")
    os.environ.pop("ARITYGAP_BUDGET", None)
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        requests = generate(args.workload, args.seed, workdir)
        if pick is not None:
            requests = pick(requests)
        aritygap, cli = import_program()
        runner = Runner(cli, requests, workdir, timer=not args.trace)  # no signals in traced spans
        if args.trace:
            tracer = Tracer()
            untraced, traced, overhead = measure_traced(runner, args.workload, args.seconds, tracer)
            results = untraced + traced
        else:
            setup = SetupSampler(args.seconds, runner.host)
            colds, passes, results = measure(runner, args.workload, args.seconds, setup)
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ctx = checks.Context(aritygap, workdir, args.seed)
        reasons = judge(results, runner, ctx, checks.expected_digests(args.workload, args.seed, requests))
        host_calib = runner.host.median_ms()
        if args.trace:
            values = layer_metrics(tracer, traced, overhead, host_calib, ctx.oracle)
            tracer.write(WORK / f"trace-{args.workload}")
            listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        else:
            lat = tail_latency(flat(passes))
            typical = median_times(passes)
            values = {
                "setup_s": setup.value(),
                "fn_per_s": rate(requests, typical),
                "cold_pass_s": sum(median_times(colds)),
                "lat_p50_ms": statistics.median(typical) * 1000,
                "lat_tail_ms": lat["tail_ms"],
                "peak_rss_mib": peak_rss_mib,
            }
            listed = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not r["ok"] for r in results)
    result = {"correct": failed == 0, "attempted": len(results), "failed": failed,
              "metrics": emit(listed, values)}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        **source_id(), "nproc": os.cpu_count(), "python": platform.python_version(),
        "host_calib_ms": host_calib, "host_ref_ms": HostSpeed.REF_S * 1000,
        "requests": [{k: r[k] for k in ("id", "argv", "fns", "params")} for r in requests],
        "attempted": len(results), "failed": failed, "failed_frac": failed / len(results),
        "values": values,
    }
    if not args.trace:
        record["latency"] = lat
        record["setup_samples_s"] = {"wall": setup.samples, "adjusted": setup.adjusted}
        record["pass_latencies_s"] = {
            key: {"wall": [[r["s"] for r in p] for p in ps], "adjusted": [[r["adj"] for r in p] for p in ps]}
            for key, ps in (("cold", colds), ("measured", passes))}
    with open(WORK / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"git={record['git_sha'][:12]} src={record['src_sha256']} nproc={record['nproc']} "
          f"python={record['python']} host.calib_ms={host_calib:.2f}")
    for reason in reasons[:20]:
        print(f"# FAILED {reason}")
    print(f"# attempted={len(results)} failed={failed} failed_frac={failed / len(results):.4f}")
    if not args.trace:
        print(f"# latency: p50 of {len(requests)} requests at their median of {len(passes)} passes; "
              f"tail is p{lat['tail_pct']:.1f} of all {lat['samples']}")
    units = dict(listed)
    for name, value in values.items():
        print(f"# {name} = {value:.6g} {units.get(name, '')}".rstrip())
    print(json.dumps(result))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="aritygap CLI benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        run(args, spec)
        return 0
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
