"""Workload inputs, the op each workload runs, and the checks on its output.

Every op is one in-process call of `cyclicblocks.cli.main`, made after every
functools cache in the package has been cleared, so an op costs what a fresh
`cyclicblocks` process pays.  Inputs come from `oracle.random_block_descriptor`
driven by the benchmark seed; the library only ever sees the descriptor files.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import shutil
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (p, n, e) per round; every round runs each triple once per sign orientation,
# in a seeded order.  An odd number of sizes keeps the median op inside one
# size class rather than on the gap between two.
SIZES = {
    # p^n from 1.5e4 to 5e4 at small e: the cost grows with p^n, through xi,
    # its complement and the long exceptional lists in the JSON output.
    # 37^3 stands in for 3^10, whose ops cost 3-4 times the others and
    # left too few ops per run for a steady median.
    "enum_deep": ((3, 9, 2), (5, 6, 4), (7, 5, 6), (13, 4, 12), (37, 3, 12)),
    # n = 2 at large e: the cost grows with e, through candidate generation
    # (one spine walk per vertex) and many short character additions.
    "enum_wide": ((41, 2, 40), (61, 2, 60), (67, 2, 66), (71, 2, 70), (101, 2, 100)),
}
WORKLOADS = ("enum_deep", "enum_wide", "oracle_default")

# Rounds of inputs generated in set-up; ops cycle through them.  A run of
# the default length repeats few inputs, if any.
ROUNDS = {"enum_deep": 14, "enum_wide": 32, "oracle_default": 8}

# The CLI's default oracle grid: primes 3, 5, 7 with n <= 3, corpus of 30.
ORACLE_PRIMES = (3, 5, 7)
ORACLE_NMAX = 3

REFERENCE_SEED = 0
REFERENCE_FILE = Path(__file__).resolve().parent / "reference_digests.json"


@dataclass
class OpInput:
    argv: list[str]
    p: int = 0
    n: int = 0
    e: int = 0


def round_length(workload: str) -> int:
    """Ops per round: each size in both sign orientations."""
    return 2 * len(SIZES[workload]) if workload in SIZES else 1


def import_package():
    """Import cyclicblocks from the checkout's source tree, afresh."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n.split(".")[0] == "cyclicblocks"]:
        del sys.modules[name]
    importlib.import_module("cyclicblocks")
    return (
        importlib.import_module("cyclicblocks.cli"),
        importlib.import_module("cyclicblocks.oracle"),
    )


def oracle_inputs(seed: int, count: int) -> list[OpInput]:
    rng = random.Random(f"oracle_default/{seed}")
    return [
        OpInput(["oracle", "--seed", str(rng.randrange(2**31))])
        for _ in range(count)
    ]


def make_inputs(workload: str, seed: int, workdir: Path) -> list[OpInput]:
    """Generate the workload's inputs and write its descriptor files."""
    if workload == "oracle_default":
        return oracle_inputs(seed, ROUNDS[workload])
    cli, oracle = (sys.modules["cyclicblocks.cli"], sys.modules["cyclicblocks.oracle"])
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    rng = random.Random(f"{workload}/{seed}")
    inputs = []
    for r in range(ROUNDS[workload]):
        order = list(SIZES[workload])
        rng.shuffle(order)
        for p, n, e in order:
            desc = _twinnable_descriptor(oracle, rng, p, n, e)
            twin = replace(desc, signs={v: -s for v, s in desc.signs.items()})
            for k, block in enumerate((desc, twin)):
                path = workdir / f"r{r:03d}-{p}-{n}-{e}-{k}.json"
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(json.dumps(cli.descriptor_to_obj(block)))
                inputs.append(OpInput(["enumerate", str(path)], p, n, e))
    return inputs


def _twinnable_descriptor(oracle, rng, p, n, e):
    """A random descriptor whose sign-flipped twin is a block too.

    Whether a module carries xi or its complement, and so the size of the
    output, follows the sign orientation; running every tree in both
    orientations keeps that coin flip from setting a run's median.  The
    generator's one excluded case (a negative exceptional leaf when the cap
    dimension at the full group is e) is drawn again.
    """
    local = sys.modules["cyclicblocks.local_reps"]
    while True:
        desc = oracle.random_block_descriptor(rng, p, n, e)
        g = local.CyclicGroupData(p, n)
        if not (desc.is_leaf(desc.exceptional) and local.cap_dim(desc.w, g, n) == e):
            return desc


def reset_caches(caches: list) -> None:
    for cache in caches:
        cache.cache_clear()
    gc.collect()


def call_cli(argv: list[str]) -> tuple[float, float, int | None, str, str]:
    """One op: `cyclicblocks.cli.main(argv)` with stdout and stderr captured.
    Returns wall and CPU seconds, exit code (None when it raised), stdout and
    an error message."""
    main = sys.modules["cyclicblocks.cli"].main
    out, err = io.StringIO(), io.StringIO()
    error = ""
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except (Exception, SystemExit) as exc:  # an op that raises is a failed op
        code, error = None, repr(exc)
    latency = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    return latency, cpu, code, out.getvalue(), error or err.getvalue()[-500:]


def load_reference(workload: str, seed: int) -> list[str] | None:
    if seed != REFERENCE_SEED or not REFERENCE_FILE.exists():
        return None
    with open(REFERENCE_FILE, encoding="utf-8") as handle:
        return json.load(handle)["digests"].get(workload)


def check_op(
    inp: OpInput, code: int | None, text: str, expected_digest: str | None
) -> dict:
    """Check one op's output in a forked child, so that parsing a large
    output does not count towards the benchmark process's peak memory."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: write a verdict, exit without running parent code
        status = 1
        try:
            os.close(read_fd)
            verdict = _verdict(inp, code, text, expected_digest)
            with os.fdopen(write_fd, "w", encoding="utf-8") as handle:
                json.dump(verdict, handle)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as handle:
        data = handle.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        return {"ok": False, "reason": "output checker crashed"}
    return json.loads(data)


def _verdict(inp: OpInput, code, text: str, expected_digest) -> dict:
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    verdict = {"ok": False, "digest": digest, "units": 0, "reason": ""}
    if code != 0:
        verdict["reason"] = f"exit code {code}"
        return verdict
    try:
        payload = json.loads(text)
        if inp.argv[0] == "oracle":
            reason = _oracle_problem(payload)
            verdict["units"] = payload.get("checks_run", 0)
        else:
            reason = _enumerate_problem(inp, payload)
            verdict["units"] = inp.e * inp.n
    except Exception as exc:  # unreadable output, or the re-check raised
        reason = f"check failed: {exc!r}"
    if not reason and expected_digest is not None and digest != expected_digest:
        reason = "stdout differs from the reference digest"
    verdict["ok"] = not reason
    verdict["reason"] = reason
    return verdict


def _oracle_problem(payload: dict) -> str:
    if payload["failures"] != []:
        return f"{len(payload['failures'])} oracle failures"
    if not isinstance(payload["checks_run"], int) or payload["checks_run"] < 1:
        return "no oracle checks ran"
    return ""


def _enumerate_problem(inp: OpInput, payload: dict) -> str:
    """Checks the printed modules against characters computed afresh.

    The JSON lists only the coordinates that are non-zero, so a coordinate
    of 2 would print like a 1: the 0/1 property is checked on the
    `character_of` values of the re-enumerated modules, and the printed
    lists must be exactly their non-zero coordinates."""
    cli = sys.modules["cyclicblocks.cli"]
    classification = sys.modules["cyclicblocks.classification"]
    characters = sys.modules["cyclicblocks.characters"]
    q = inp.p**inp.n
    if (payload["p"], payload["n"], payload["e"]) != (inp.p, inp.n, inp.e):
        return "block invariants differ from the input"
    if payload["m"] != (q - 1) // inp.e:
        return "wrong exceptional multiplicity"
    if [entry["vertex"] for entry in payload["results"]] != list(
        range(1, inp.n + 1)
    ):
        return "vertex indices are not 1..n"
    with open(inp.argv[1], encoding="utf-8") as handle:
        desc = cli.descriptor_from_obj(json.load(handle))
    plain = desc.nonexceptional_vertices
    reps = characters.exceptional_orbits(desc.p, desc.n, desc.e).representatives
    for entry in payload["results"]:
        i = entry["vertex"]
        if "error" in entry or len(entry["modules"]) != inp.e:
            return f"vertex {i}: {len(entry['modules'])} modules, expected {inp.e}"
        paths = classification.enumerate_trivial_source(desc, i)
        shared = set()
        for module, path in zip(entry["modules"], paths):
            char = characters.character_of(desc, i, path)
            if not char.is_zero_one:
                return f"vertex {i}: a character is not 0/1"
            nonzero = {
                "nonexceptional": [v for v, c in zip(plain, char.nonexceptional) if c],
                "exceptional": [r for r, c in zip(reps, char.exceptional) if c],
            }
            if module["character"] != nonzero:
                return f"vertex {i}: printed character differs from character_of"
            if module["type"] != 1:
                shared.add(tuple(nonzero["exceptional"]))
        if len(shared) > 1:
            return f"vertex {i}: non-hook modules disagree on the exceptional part"
    return ""
