"""One pass over a request list in a fresh process, where every cache is cold.

    python3 perfbench/coldpass.py WORKDIR < requests.json

run.py starts it for the extra cold passes of a run.  The last line of
stdout is a JSON object: "rows", a list with each request's id, wall and
adjusted seconds, exit code, error and output digest, and "host_s", the
host-speed loop times.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def main() -> int:
    workdir = Path(sys.argv[1])
    requests = json.load(sys.stdin)
    _, cli = run.import_program()
    runner = run.Runner(cli, requests, workdir, outdir=f"out-{os.getpid()}")
    rows = [{"id": r.pop("req")["id"], **r} for r in runner.run_pass()]
    print(json.dumps({"rows": rows, "host_s": runner.host.samples}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
