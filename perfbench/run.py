"""Benchmark of the cyclicblocks CLI: one workload per process, one client
in a closed loop (the next op starts when the previous one has returned).

    python3 perfbench/run.py --workload enum_deep --seed 1 --seconds 40 --trace 0

With --trace 0 it times ops for --seconds and reports the end-to-end
metrics; with --trace 1 it runs a fixed sample of ops twice, untraced and
traced, and reports per-layer metrics.  Every metric is printed as a
`# name value unit` line; the last line of stdout is one JSON object with
the metrics BENCHMARK.json names.  Per-op records go to --out.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import sys
import time
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
import workloads as wl  # noqa: E402

# Set-up runs this many times before the ops, and once more at the first
# round boundary after each SETUP_EVERY_S seconds of ops.  The machine's
# speed drifts over a run; spread out like this, the set-up median samples
# the same stretch of it as the op median does.
SETUP_REPS = 3
SETUP_EVERY_S = 5.0
# Traced sample: whole rounds, fixed per workload, so that the counts
# repeat exactly for a given seed.
TRACE_OPS = {"enum_deep": 10, "enum_wide": 20, "oracle_default": 2}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=wl.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out",
        default=str(wl.ROOT / "perfbench" / "results"),
        help="directory for the per-op result file and the span dump",
    )
    parser.add_argument(
        "--corrupt",
        action="store_true",
        help="truncate the first op's output before checking it (self-test)",
    )
    return parser.parse_args(argv)


def setup(workload: str, seed: int, workdir: Path, reps: int) -> tuple[list, list]:
    """Import the package afresh and generate the inputs, `reps` times.
    Returns the CPU time of each repetition and the inputs."""
    package = wl.ROOT / "src" / "cyclicblocks"
    if not (package / "__init__.py").is_file():
        raise FileNotFoundError(f"no cyclicblocks sources at {package}")
    times = []
    for _ in range(reps):
        gc.collect()
        start = time.process_time()
        cli, _ = wl.import_package()
        inputs = wl.make_inputs(workload, seed, workdir)
        times.append(time.process_time() - start)
    if not Path(cli.__file__).resolve().is_relative_to(package):
        raise ImportError(f"imported cyclicblocks from {cli.__file__}")
    return times, inputs


def timed_ops(workload, seed, workdir, inputs, seconds, reference, corrupt) -> tuple[list, list]:
    """Ops in whole rounds until `seconds` have passed, with set-up repeated
    along the way; returns the op records and the set-up times."""
    records, setup_times = [], []
    caches = spans.find_caches()
    per_round = wl.round_length(workload)
    start = time.perf_counter()
    last_setup = start
    while True:
        k = len(records)
        records.append(run_checked(inputs, k, caches, reference, corrupt and k == 0))
        if len(records) % per_round:
            continue
        now = time.perf_counter()
        if now >= start + seconds:
            return records, setup_times
        if now >= last_setup + SETUP_EVERY_S:
            times, inputs = setup(workload, seed, workdir, 1)
            setup_times += times
            caches = spans.find_caches()  # the re-import made new caches
            last_setup = time.perf_counter()


def run_checked(inputs, k, caches, reference, corrupt=False) -> dict:
    inp = inputs[k % len(inputs)]
    wl.reset_caches(caches)
    latency, cpu, code, text, error = wl.call_cli(inp.argv)
    if corrupt:
        text = text[: len(text) // 2]
    expected = reference[k % len(reference)] if reference else None
    verdict = wl.check_op(inp, code, text, expected)
    return {
        "input": k % len(inputs),
        "argv": inp.argv[0],
        "latency_s": latency,
        "cpu_s": cpu,
        "ok": verdict["ok"],
        "reason": verdict["reason"] or error,
        "digest": verdict.get("digest", ""),
        "output_bytes": len(text.encode("utf-8")),
        "units": verdict.get("units", 0),
    }


def end_to_end(workload: str, setup_s: float, records: list) -> dict:
    """End-to-end metrics.  Latency and throughput come twice: as wall time,
    which a user sees, and as the op's CPU time, which leaves out the time a
    shared machine hands to other processes; the gated ones are CPU-based."""
    ok = [r for r in records if r["ok"]]
    wall = sorted(r["latency_s"] for r in ok)
    cpu = sorted(r["cpu_s"] for r in ok)
    busy = sum(r["latency_s"] for r in records)
    busy_cpu = sum(r["cpu_s"] for r in records)
    metrics = {"setup_s": (setup_s, "s")}
    if ok:
        metrics["op_p50_ms"] = (statistics.median(wall) * 1e3, "ms")
        metrics["op_cpu_p50_ms"] = (statistics.median(cpu) * 1e3, "ms")
        for pct in TAIL_PERCENTILES:
            if len(ok) * (1 - pct / 100) >= 10:
                rank = math.ceil(pct / 100 * len(ok)) - 1
                metrics["op_tail_ms"] = (wall[rank] * 1e3, "ms")
                metrics["op_tail_percentile"] = (pct, "%")
                break
    metrics["ops_per_s"] = (len(ok) / busy, "1/s")
    metrics["ops_per_cpu_s"] = (len(ok) / busy_cpu, "1/s")
    units = sum(r["units"] for r in ok)
    name = "checks_per_s" if workload == "oracle_default" else "modules_per_s"
    metrics[name] = (units / busy, "1/s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "MB",
    )
    metrics["failed_ops_frac"] = ((len(records) - len(ok)) / len(records), "ratio")
    metrics["ops"] = (len(records), "count")
    return metrics


def oracle_grid():
    for p in wl.ORACLE_PRIMES:
        for n in range(1, wl.ORACLE_NMAX + 1):
            yield p, n


def warm_fixed_points() -> None:
    """Cold perm_character_by_fixed_points over the oracle grid: the
    decompose cost, taken before the suite runs."""
    oracle = sys.modules["cyclicblocks.oracle"]
    for p, n in oracle_grid():
        for i in range(n + 1):
            oracle.perm_character_by_fixed_points(p, n, i)


def closed_forms_probe() -> int:
    """Closed forms of the local layer over the oracle grid; returns the
    number of calls."""
    local = sys.modules["cyclicblocks.local_reps"]
    calls = 0
    for p, n in oracle_grid():
        g = local.CyclicGroupData(p, n)
        for size in range(n):
            for combo in combinations(range(1, n), size):
                w = local.EndoPermParams(combo)
                local.char_det1_endoperm(w, g)
                calls += 1
                for i in range(1, n + 1):
                    local.cap_dim(w, g, i)
                    local.morita_correspondent_character(w, g, i)
                    calls += 2
    return calls


def traced_op(tracer, inputs, k, caches, reference, op_id) -> tuple[int, dict]:
    """One op with every layer instrumented; oracle ops warm the
    fixed-point cache inside the op span first."""
    inp = inputs[k % len(inputs)]
    wl.reset_caches(caches)
    tracer.op = op_id
    tracer.instrument()
    try:
        root = tracer.start("op")
        if inp.argv[0] == "oracle":
            warm_fixed_points()
        _, _, code, text, error = wl.call_cli(inp.argv)
        tracer.end(root)
    finally:
        tracer.restore()
    expected = reference[k % len(reference)] if reference else None
    verdict = wl.check_op(inp, code, text, expected)
    verdict["reason"] = verdict["reason"] or error
    return root, verdict


def traced(workload, seed, inputs, caches, reference, out_dir) -> tuple[dict, list]:
    tracer = spans.Tracer()
    records, ops, probes = [], [], []
    for k in range(TRACE_OPS[workload]):
        plain = run_checked(inputs, k, caches, reference)
        root, verdict = traced_op(tracer, inputs, k, caches, reference, k)
        records += [plain, {"ok": verdict["ok"], "reason": verdict["reason"]}]
        ops.append((plain, root, verdict))
        tracer.instrument()
        try:
            tracer.op = -1 - k
            probe = tracer.start("probe.closed_forms")
            calls = closed_forms_probe()
            tracer.end(probe)
        finally:
            tracer.restore()
        probes.append((probe, calls))
    if workload == "oracle_default":
        grid_ops = [(root, verdict) for _, root, verdict in ops]
    else:
        # cyclotomic and oracle are off the enumerate path: measure them on
        # one oracle op of this seed, so every layer has a value here too
        root, verdict = traced_op(
            tracer, wl.oracle_inputs(seed, 1), 0, caches, None, len(ops)
        )
        records.append({"ok": verdict["ok"], "reason": verdict["reason"]})
        grid_ops = [(root, verdict)]
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.dump(out_dir / f"spans-{workload}-seed{seed}.json")
    return per_layer(tracer, ops, grid_ops, probes), records


def per_layer(tracer, ops, grid_ops, probes) -> dict:
    sp = tracer.spans
    summaries = [spans.op_summary(sp, root) for _, root, _ in ops]
    grid = [spans.op_summary(sp, root) for root, _ in grid_ops]

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values)

    def total(rows, *names) -> float:
        return mean(sum(s["totals"].get(n, 0.0) for n in names) for s in rows)

    def calls(rows, name) -> float:
        return mean(s["calls"].get(name, 0) for s in rows)

    def count(name) -> float:
        return mean(tracer.counts.get(k, {}).get(name, 0) for k in range(len(ops)))

    candidates = count("classification.candidates")
    admitted = count("classification.admitted")
    untraced = [plain["latency_s"] for plain, _, _ in ops]
    traced_s = [s["total_s"] for s in summaries]
    metrics = {
        "cli.parse_s": (total(summaries, *spans.PARSE_SPANS), "s"),
        # taken inside the traced op: the stage spans carry the tracing
        # overhead, so untraced time minus stages can go below zero
        "cli.self_s": (mean(s["total_s"] - s["stage_sum"] for s in summaries), "s"),
        "cli.output_bytes": (mean(plain["output_bytes"] for plain, _, _ in ops), "bytes"),
        "brauer_tree.validate_s": (total(summaries, "brauer_tree.validate"), "s"),
        "characters.orbits_s": (total(summaries, "characters.exceptional_orbits"), "s"),
        "characters.xi_s": (total(summaries, "characters.xi"), "s"),
        "characters.xi_calls": (calls(summaries, "characters.xi"), "count"),
        "characters.character_of_s": (total(summaries, "characters.character_of"), "s"),
        "characters.character_of_calls": (calls(summaries, "characters.character_of"), "count"),
        "classification.candidates_s": (total(summaries, "classification.candidate_paths"), "s"),
        "classification.enumerate_s": (
            total(summaries, "classification.enumerate_trivial_source"),
            "s",
        ),
        "classification.candidates": (candidates, "count"),
        "classification.admitted": (admitted, "count"),
        "classification.admit_ratio": (admitted / candidates if candidates else 0.0, "ratio"),
        "cyclotomic.decompose_s": (total(grid, "cyclotomic.decompose"), "s"),
        "cyclotomic.decompose_calls": (calls(grid, "cyclotomic.decompose"), "count"),
        "oracle.corpus_s": (total(grid, "oracle.random_corpus"), "s"),
        "oracle.suite_warm_s": (total(grid, "oracle.consistency_suite"), "s"),
        "oracle.checks_run": (mean(v["units"] for _, v in grid_ops), "count"),
        "local_reps.closed_forms_s": (
            mean((sp[root][2] - sp[root][1]) / 1e9 for root, _ in probes),
            "s",
        ),
        "local_reps.closed_forms_calls": (mean(c for _, c in probes), "count"),
        "trace.overhead_frac": (sum(traced_s) / sum(untraced) - 1, "ratio"),
    }
    for layer in spans.LAYERS:
        metrics[f"{layer}.layer_self_s"] = (
            mean(s["layer_self"].get(layer, 0.0) for s in summaries),
            "s",
        )
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = wl.ROOT / "perfbench" / "work" / f"{args.workload}-{args.seed}"
    try:
        with open(wl.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            bench = json.load(handle)
        setup_times, inputs = setup(args.workload, args.seed, workdir, SETUP_REPS)
        reference = wl.load_reference(args.workload, args.seed)
    except (OSError, ImportError, ValueError) as err:
        print(f"cannot set up the benchmark: {err}", file=sys.stderr)
        return 2
    if reference is not None and len(reference) != len(inputs):
        print("reference digests are stale: run perfbench/digests.py", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    try:
        if args.trace:
            metrics, records = traced(
                args.workload, args.seed, inputs, spans.find_caches(), reference, out_dir
            )
            wanted = [m["name"] for m in bench["per_layer"]]
        else:
            records, more_setups = timed_ops(
                args.workload, args.seed, workdir, inputs, args.seconds, reference,
                args.corrupt,
            )
            setup_times += more_setups
            metrics = end_to_end(args.workload, statistics.median(setup_times), records)
            wanted = [m["name"] for m in bench["end_to_end"]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    result_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(result_file, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "seconds": args.seconds,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                "ops": records,
            },
            handle,
            indent=1,
        )
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value:.6g} {unit}")
    for record in records:
        if not record["ok"]:
            print(f"# failed op: {record['reason']}", file=sys.stderr)
    failed = sum(1 for r in records if not r["ok"])
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(records),
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted
                    if name in metrics  # latencies are missing when every op failed
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
