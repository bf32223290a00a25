"""Compare benchmark results of a parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR \
        [--bench-json BENCH_<pr>.json --parent-sha SHA --change-sha SHA]

Each directory holds the result files `run.py --out DIR` wrote, one per run.
Runs are paired by seed (run the two sides alternately with the same
seeds); a seed that only one side has is left out, with a note.  For every workload and metric it prints each side's median and
quartiles, the fraction of pairs the change wins, and a verdict:

- `gain`: the change wins at least 9/10 of the pairs and the medians differ
  by more than the parent's quartile spread;
- `regression`: the change's median is worse by more than the bound;
- `unresolved`: the parent's own spread is wider than the bound, unless every
  change run beats every parent run;
- `same`: none of these.

Per-layer metrics have no bound; they get `gain` or `same` only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory: Path) -> dict:
    """{(workload, trace): {seed: metrics dict}}."""
    runs: dict = {}
    for path in sorted(directory.glob("*-trace[01].json")):
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
        key = (result["workload"], result["trace"])
        runs.setdefault(key, {})[result["seed"]] = result["metrics"]
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare_metric(spec: dict, parent: list[float], change: list[float]) -> dict:
    lower = spec["better"] == "lower"
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)

    def beats(a: float, b: float) -> bool:
        return a < b if lower else a > b

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if beats(c, p))
    win_frac = wins / len(pairs) if pairs else 0.0
    worse_by = (cm - pm) / pm if lower else (pm - cm) / pm
    spread = (p3 - p1) / pm if pm else 0.0
    bound = spec.get("bound")
    if win_frac >= 0.9 and abs(cm - pm) > p3 - p1:
        verdict = "gain"
    elif bound is None:
        verdict = "same"
    elif worse_by > bound:
        verdict = "regression"
    elif spread > bound and not all(beats(c, p) for c in change for p in parent):
        verdict = "unresolved"
    else:
        verdict = "same"
    return {
        "parent": {"median": pm, "q1": p1, "q3": p3, "runs": len(parent)},
        "change": {"median": cm, "q1": c1, "q3": c3, "runs": len(change)},
        "win_fraction": win_frac,
        "parent_spread": spread,
        "verdict": verdict,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--bench-json", type=Path, help="write rows here")
    parser.add_argument("--parent-sha", default="")
    parser.add_argument("--change-sha", default="")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    parent, change = load_runs(args.parent), load_runs(args.change)
    rows = []
    for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
        for workload in sorted({w for w, t in parent if t == trace}):
            key = (workload, trace)
            if key not in change:
                continue
            seeds = sorted(parent[key].keys() & change[key].keys())
            unpaired = sorted(parent[key].keys() ^ change[key].keys())
            if unpaired:
                print(f"{workload} trace {trace}: seeds {unpaired} are on one side "
                      "only and left out", file=sys.stderr)
            for spec in specs:
                name = spec["name"]
                paired = [
                    (parent[key][s], change[key][s])
                    for s in seeds
                    if name in parent[key][s] and name in change[key][s]
                ]
                p = [pm[name]["value"] for pm, _ in paired]
                c = [cm[name]["value"] for _, cm in paired]
                if not p or not c:
                    continue
                row = compare_metric(spec, p, c)
                row.update(
                    {
                        "workload": workload,
                        "metric": name,
                        "layer": name.split(".", 1)[0] if trace else "end_to_end",
                        "unit": spec["unit"],
                        "bound": spec.get("bound"),
                    }
                )
                row["parent"]["sha"] = args.parent_sha
                row["change"]["sha"] = args.change_sha
                rows.append(row)
                print(
                    f"{workload:15s} {name:32s} "
                    f"parent {row['parent']['median']:.5g} "
                    f"[{row['parent']['q1']:.5g}, {row['parent']['q3']:.5g}]  "
                    f"change {row['change']['median']:.5g} "
                    f"[{row['change']['q1']:.5g}, {row['change']['q3']:.5g}] "
                    f"{spec['unit']}  wins {row['win_fraction']:.2f}  "
                    f"{row['verdict']}"
                )
    if not rows:
        print("no matching result files", file=sys.stderr)
        return 2
    if args.bench_json:
        with open(args.bench_json, "w", encoding="utf-8") as handle:
            json.dump({"rows": rows}, handle, indent=1)
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
