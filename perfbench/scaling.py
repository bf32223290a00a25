"""Untimed scaling report: per-layer time across a size grid, with the
fitted growth exponent in e, in p^n and in the order of `decompose`.

    python3 perfbench/scaling.py [--out perfbench/results]

It is not one of the gated workloads: each point runs once, traced, with
cold caches.  A perf change quotes the exponents before and after to say
which growth it changed.  The largest points (3^12 enumerate, decompose at
order 729) take several seconds each.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

# e at n = 2 (p = e + 1 is prime), then p^n at e = 2, then decompose orders.
E_GRID = ((13, 2, 12), (31, 2, 30), (61, 2, 60), (101, 2, 100))
PN_GRID = ((3, 9, 2), (3, 10, 2), (3, 12, 2), (7, 6, 2))
DECOMPOSE_GRID = ((3, 5), (7, 3), (3, 6))
# One fixed seed, so a change and its parent time the same trees.
SEED = 0


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    return num / sum((a - mx) ** 2 for a in lx)


def enumerate_points(grid, seed: int, workdir: Path) -> list[dict]:
    cli, oracle = sys.modules["cyclicblocks.cli"], sys.modules["cyclicblocks.oracle"]
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"scaling/{seed}")
    caches = spans.find_caches()
    points = []
    for p, n, e in grid:
        desc = oracle.random_block_descriptor(rng, p, n, e)
        path = workdir / f"{p}-{n}-{e}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(cli.descriptor_to_obj(desc), handle)
        inp = wl.OpInput(["enumerate", str(path)], p, n, e)
        tracer = spans.Tracer()
        root, verdict = run.traced_op(tracer, [inp], 0, caches, None, 0)
        summary = spans.op_summary(tracer.spans, root)
        points.append(
            {
                "point": f"{p}^{n} e={e}",
                "p^n": p**n,
                "e": e,
                "ok": verdict["ok"],
                "total_s": summary["total_s"],
                "layer_self_s": summary["layer_self"],
            }
        )
    return points


def decompose_points() -> list[dict]:
    oracle = sys.modules["cyclicblocks.oracle"]
    caches = spans.find_caches()
    points = []
    for p, n in DECOMPOSE_GRID:
        wl.reset_caches(caches)
        tracer = spans.Tracer()
        tracer.instrument()
        try:
            root = tracer.start("op")
            oracle.perm_character_by_fixed_points(p, n, 1)
            tracer.end(root)
        finally:
            tracer.restore()
        summary = spans.op_summary(tracer.spans, root)
        points.append(
            {
                "point": f"decompose order {p**n}",
                "order": p**n,
                "total_s": summary["totals"]["cyclotomic.decompose"],
                "layer_self_s": summary["layer_self"],
            }
        )
    return points


def exponents(points: list[dict], key: str) -> dict:
    xs = [pt[key] for pt in points]
    out = {"total": slope(xs, [pt["total_s"] for pt in points])}
    for layer in spans.LAYERS:
        ys = [pt["layer_self_s"].get(layer, 0.0) for pt in points]
        if all(y > 0 for y in ys):
            out[layer] = slope(xs, ys)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(wl.ROOT / "perfbench" / "results"))
    args = parser.parse_args(argv)
    wl.import_package()
    workdir = wl.ROOT / "perfbench" / "work" / "scaling"
    report = {
        "e": enumerate_points(E_GRID, SEED, workdir),
        "p^n": enumerate_points(PN_GRID, SEED, workdir),
        "order": decompose_points(),
    }
    shutil.rmtree(workdir, ignore_errors=True)
    fits = {key: exponents(points, key) for key, points in report.items()}
    for key, points in report.items():
        for pt in points:
            layers = "  ".join(
                f"{layer} {pt['layer_self_s'].get(layer, 0.0):.4f}"
                for layer in spans.LAYERS
                if pt["layer_self_s"].get(layer)
            )
            print(f"{pt['point']:22s} total {pt['total_s']:8.4f} s  self: {layers}")
        print(
            f"growth exponent in {key}: "
            + "  ".join(f"{name} {value:.2f}" for name, value in fits[key].items())
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "scaling.json", "w", encoding="utf-8") as handle:
        json.dump({"points": report, "exponents": fits}, handle, indent=1)
    failed = [pt["point"] for pt in report["e"] + report["p^n"] if not pt["ok"]]
    if failed:
        print(f"output checks failed at {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
