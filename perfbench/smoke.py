"""Self-test of the harness, and the one command that prints every metric.

    python3 perfbench/smoke.py

For each workload, oracle_default included, it makes a short untraced run
and a traced run at the reference seed, prints every metric by name, value
and unit, and checks that every metric BENCHMARK.json names is in the
result line.  Then it
truncates one op's output on purpose and checks that the op is counted in
`failed_ops_frac`.  Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# Length of each short untraced run.
SMOKE_SECONDS = 3.0


def bench_run(workload: str, seconds: float, trace: int, *extra: str) -> tuple[list, dict]:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", "0",
            "--seconds", str(seconds),
            "--trace", str(trace),
            "--out", str(HERE / "results" / "smoke"),
            *extra,
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
        check=False,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    return [line for line in lines if line.startswith("# ")], json.loads(lines[-1])


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            printed, result = bench_run(workload, SMOKE_SECONDS, trace)
            print(f"== {workload} trace {trace}: attempted {result['attempted']}, "
                  f"failed {result['failed']}")
            for line in printed:
                print("  " + line[2:])
            missing = [m["name"] for m in bench[key] if m["name"] not in result["metrics"]]
            if missing:
                problems.append(f"{workload} trace {trace}: missing {missing}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: {result['failed']} failed ops")
    printed, result = bench_run("enum_wide", 0.1, 0, "--corrupt")
    frac = [line for line in printed if line.startswith("# failed_ops_frac ")]
    if result["correct"] or result["failed"] < 1 or not frac or frac[0].split()[2] == "0":
        problems.append("a corrupted output was not counted as a failed op")
    else:
        print(f"== corrupted output counted: {frac[0][2:]}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
