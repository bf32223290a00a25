"""Write the reference digests: sha256 of the CLI stdout of every input of
every workload at the reference seed.

    python3 perfbench/digests.py

run.py compares each op's stdout with these digests when it runs at the
reference seed, so the benchmark doubles as a check that the CLI JSON stays
byte-identical.  Regenerate only when the output is meant to change, or when
the workload inputs change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def main() -> int:
    digests = {}
    workdir = wl.ROOT / "perfbench" / "work" / "digests"
    for workload in wl.WORKLOADS:
        _, inputs = run.setup(workload, wl.REFERENCE_SEED, workdir, 1)
        caches = spans.find_caches()
        records = [run.run_checked(inputs, k, caches, None) for k in range(len(inputs))]
        bad = [r["reason"] for r in records if not r["ok"]]
        if bad:
            print(f"{workload}: outputs fail their checks: {bad[:3]}", file=sys.stderr)
            return 1
        digests[workload] = [r["digest"] for r in records]
        shutil.rmtree(workdir, ignore_errors=True)
        print(f"{workload}: {len(records)} digests")
    with open(wl.REFERENCE_FILE, "w", encoding="utf-8") as handle:
        json.dump({"seed": wl.REFERENCE_SEED, "digests": digests}, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
