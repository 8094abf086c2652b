"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10]

Runs run.py once per seed (0 to runs - 1) and every workload of
BENCHMARK.json, rotating the workload order from seed to seed so that host
drift spreads over every workload, and prints per workload and metric the median, the quartiles (statistics.quantiles, n=4)
and the quartile distance as a share of the median, beside the metric's
bound from BENCHMARK.json.  Every result line is also appended to
.perfbench/spread.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int) -> dict:
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    calib = next(line for line in out.stdout.splitlines() if "host.calib_ms=" in line)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["calib_ms"] = float(calib.rsplit("host.calib_ms=", 1)[1])
    result["wall_s"] = time.perf_counter() - start
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="run-to-run spread of the end-to-end metrics")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    calib: dict[str, list[float]] = {w: [] for w in workloads}
    log = ROOT / ".perfbench" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    for seed in range(args.runs):
        for j in range(len(workloads)):
            workload = workloads[(seed + j) % len(workloads)]
            result = one_run(workload, seed)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
            calib[workload].append(result["calib_ms"])
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            print(f"# {workload} seed={seed} wall_s={result['wall_s']:.1f} " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("\n| workload | metric | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for workload in workloads:
        for name, vals in values[workload].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            print(f"| {workload} | {name} | {med:.5g} | {q1:.5g} | {q3:.5g} | {spread:.3f} | {bounds[name]} |")
        c = calib[workload]
        print(f"| {workload} | host.calib_ms | {statistics.median(c):.4g} | {min(c):.4g} (min) | "
              f"{max(c):.4g} (max) | | |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
