"""Command-line front end and the stable JSON file formats.

Descriptor files look like::

    {"p": 3, "n": 2, "e": 2,
     "tree": {"vertices": [{"id": "v1", "sign": "+"}, ...],
              "exceptional": "exc",
              "edges": [{"id": "E1", "ends": ["v1", "exc"]}, ...],
              "cyclic_order": {"v1": ["E1"], ...}},
     "W": {"indices": [1]}}

m is always derived from (p, n, e), never read from the file.  Exit codes:
0 success, 1 semantic violation or consistency failure, 2 unreadable or
ill-formed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import compress
from json.encoder import encode_basestring_ascii as _quote

from .brauer_tree import (
    BlockDescriptor,
    Edge,
    sign_alternation_violations,
    validate,
)
from .characters import character_of, exceptional_orbits
from .classification import (
    ClassificationError,
    PathDescriptor,
    enumerate_trivial_source,
    m1_enumerate,
)
from .cyclotomic import is_odd_prime
from .local_reps import (
    CyclicGroupData,
    EndoPermParams,
    cap_dim,
    char_det1_endoperm,
    morita_correspondent_character,
)
from .oracle import GridSpec, consistency_suite

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_PARSE = 2


def descriptor_to_obj(desc: BlockDescriptor) -> dict:
    return {
        "p": desc.p,
        "n": desc.n,
        "e": desc.e,
        "tree": {
            "vertices": [
                {"id": v, "sign": "+" if desc.signs[v] > 0 else "-"}
                for v in desc.vertices
            ],
            "exceptional": desc.exceptional,
            "edges": [
                {"id": edge.id, "ends": list(edge.ends)} for edge in desc.edges
            ],
            "cyclic_order": {v: list(desc.cyclic_order[v]) for v in desc.vertices},
        },
        "W": {"indices": list(desc.w.indices)},
    }


def descriptor_from_obj(obj: dict) -> BlockDescriptor:
    """Read a descriptor object.  An id that is not a string, a number that
    is not an integer (a bool included), an edge without exactly two ends
    or a cyclic order at an unknown vertex raises ValueError naming the
    field."""
    tree = obj["tree"]
    signs = {}
    vertices = []
    for k, entry in enumerate(tree["vertices"]):
        vertex = _id(entry["id"], f"tree.vertices[{k}].id")
        vertices.append(vertex)
        if entry["sign"] not in ("+", "-"):
            raise ValueError(f"sign must be '+' or '-', got {entry['sign']!r}")
        signs[vertex] = 1 if entry["sign"] == "+" else -1
    edges = []
    for k, entry in enumerate(tree["edges"]):
        ends = entry["ends"]
        if not isinstance(ends, list) or len(ends) != 2:
            raise ValueError(
                f"tree.edges[{k}].ends must list two vertices, got {ends!r}"
            )
        edges.append(
            Edge(
                _id(entry["id"], f"tree.edges[{k}].id"),
                tuple(_id(end, f"tree.edges[{k}].ends") for end in ends),
            )
        )
    cyclic_order = {}
    for v, order in tree["cyclic_order"].items():
        if v not in signs:
            raise ValueError(f"tree.cyclic_order.{v} names no vertex")
        cyclic_order[v] = tuple(
            _id(eid, f"tree.cyclic_order.{v}") for eid in order
        )
    exceptional = tree.get("exceptional")
    if exceptional is not None:
        exceptional = _id(exceptional, "tree.exceptional")
    return BlockDescriptor(
        p=_integer(obj["p"], "p"),
        n=_integer(obj["n"], "n"),
        e=_integer(obj["e"], "e"),
        vertices=tuple(vertices),
        signs=signs,
        edges=tuple(edges),
        cyclic_order=cyclic_order,
        exceptional=exceptional,
        w=EndoPermParams(
            tuple(_integer(a, "W.indices") for a in obj["W"]["indices"])
        ),
    )


def _id(value, field: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{field} must be a string, got {value!r}")
    return value


def _integer(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def _load_descriptor(path: str) -> BlockDescriptor | None:
    """The descriptor in the file, or None after saying on stderr why it
    cannot be read."""
    try:
        with open(path, encoding="utf-8") as handle:
            return descriptor_from_obj(json.load(handle))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as err:
        print(f"cannot read descriptor: {err}", file=sys.stderr)
        return None


class _Exceptional:
    """The exceptional coordinates of one character in an enumerate payload.
    The writer prints the orbit representatives where they are nonzero."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[int, ...]):
        self.coords = coords


def _character_obj(desc: BlockDescriptor, char) -> dict:
    plain = desc.nonexceptional_vertices
    return {
        "nonexceptional": [
            v for v, c in zip(plain, char.nonexceptional) if c
        ],
        "exceptional": _Exceptional(char.exceptional),
    }


def _path_obj(desc: BlockDescriptor, i: int, path: PathDescriptor) -> dict:
    return {
        "type": path.type_tag,
        "case": path.case_tag,
        "multiplicity": path.multiplicity,
        "path": {
            "spine_vertices": list(path.spine_vertices),
            "spine_edges": list(path.spine_edges),
            "extra_edges": list(path.extra_edges),
            "direction": list(path.direction),
        },
        "character": _character_obj(desc, character_of(desc, i, path)),
    }


def cmd_validate(args: argparse.Namespace) -> int:
    desc = _load_descriptor(args.file)
    if desc is None:
        return EXIT_PARSE
    problems = validate(desc, strict=args.strict)
    for problem in problems:
        print(problem)
    if not args.strict:
        for warning in sign_alternation_violations(desc):
            print(f"warning: {warning}", file=sys.stderr)
    return EXIT_SEMANTIC if problems else EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    desc = _load_descriptor(args.file)
    if desc is None:
        return EXIT_PARSE
    problems = validate(desc)
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return EXIT_SEMANTIC

    if args.vertex is not None and not 1 <= args.vertex <= desc.n:
        raise ValueError(f"vertex index {args.vertex} outside 1..{desc.n}")
    # fetched before any per-vertex work, so that a p^n too large to index
    # is refused at once
    reps = (
        exceptional_orbits(desc.p, desc.n, desc.e).representatives
        if desc.exceptional is not None
        else ()
    )
    status = EXIT_OK
    if desc.m == 1:
        result = m1_enumerate(desc)
        payload = {
            "p": desc.p,
            "n": desc.n,
            "e": desc.e,
            "m": 1,
            "pims": [
                {
                    "edge": pim.edge_id,
                    "character": _character_obj(desc, pim.character),
                }
                for pim in result.pims
            ],
            "hooks": [
                {
                    "edge": hook.edge_id,
                    "vertex": hook.vertex,
                    "conditional": True,
                    "character": _character_obj(desc, hook.character),
                }
                for hook in result.hooks
            ],
        }
    else:
        indices = (
            range(1, desc.n + 1) if args.vertex is None else (args.vertex,)
        )
        results = []
        for i in indices:
            entry: dict = {"vertex": i}
            try:
                modules = enumerate_trivial_source(desc, i)
                entry["modules"] = [_path_obj(desc, i, m) for m in modules]
            except ClassificationError as err:
                entry["modules"] = [_path_obj(desc, i, m) for m in err.paths]
                entry["error"] = str(err)
                status = EXIT_SEMANTIC
            results.append(entry)
        payload = {
            "p": desc.p,
            "n": desc.n,
            "e": desc.e,
            "m": desc.m,
            "results": results,
        }
    sys.stdout.write(_enumerate_text(payload, reps, args.format))
    return status


def _enumerate_text(payload: dict, reps: tuple[int, ...], fmt: str) -> str:
    """The enumerate payload as printed: the text of json.dumps(payload,
    indent=2) plus a newline, or the flattened CSV view.

    A payload holds few distinct exceptional parts (xi, its complement, the
    bundle), so each distinct coordinate tuple is rendered once per call and
    its text pasted into every module that carries it.  Every exceptional
    list of a payload sits at the same depth, so the tuple alone keys it.
    """
    rendered: dict[tuple[int, ...], str] = {}

    def exceptional(value: _Exceptional, depth: int) -> str:
        text = rendered.get(value.coords)
        if text is None:
            listed = map(str, compress(reps, value.coords))
            if fmt == "json":
                text = _json_list(list(listed), depth)
            else:
                text = ";".join(listed)
            rendered[value.coords] = text
        return text

    if fmt == "json":
        out = []
        _emit_json(payload, 0, out, exceptional)
        out.append("\n")
        return "".join(out)
    return "".join(line + "\n" for line in _csv_lines(payload, exceptional))


def _emit_json(obj, depth: int, out: list[str], exceptional) -> None:
    """Append the indent-2 JSON text of obj at nesting depth `depth`, as
    json.dumps writes it; an _Exceptional goes through `exceptional`."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, _Exceptional):
        out.append(exceptional(obj, depth))
    elif isinstance(obj, (list, dict)):
        if not obj:
            out.append("[]" if isinstance(obj, list) else "{}")
            return
        inner = "\n" + "  " * (depth + 1)
        if isinstance(obj, list):
            out.append("[")
            for k, item in enumerate(obj):
                out.append(inner if k == 0 else "," + inner)
                _emit_json(item, depth + 1, out, exceptional)
            close = "]"
        else:
            out.append("{")
            for k, (key, value) in enumerate(obj.items()):
                out.append(inner if k == 0 else "," + inner)
                out.append(_quote(key))
                out.append(": ")
                _emit_json(value, depth + 1, out, exceptional)
            close = "}"
        out.append("\n" + "  " * depth + close)
    else:
        raise TypeError(f"cannot write {type(obj).__name__} as JSON")


def _json_list(items: list[str], depth: int) -> str:
    """A list of already encoded items, laid out as _emit_json lays out a
    list at nesting depth `depth`."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return f"[{inner}{(',' + inner).join(items)}\n{'  ' * depth}]"


def _csv_lines(payload: dict, exceptional):
    # flattened view for human inspection; JSON is the canonical format
    def columns(char: dict) -> str:
        return (
            f"{';'.join(char['nonexceptional'])},"
            f"{exceptional(char['exceptional'], 0)}"
        )

    if payload.get("m") == 1:
        yield "kind,edge,vertex,conditional,nonexceptional,exceptional"
        for pim in payload["pims"]:
            yield f"pim,{pim['edge']},,,{columns(pim['character'])}"
        for hook in payload["hooks"]:
            yield (
                f"hook,{hook['edge']},{hook['vertex']},true,"
                f"{columns(hook['character'])}"
            )
        return
    yield "vertex,type,case,multiplicity,nonexceptional,exceptional"
    for entry in payload["results"]:
        for module in entry["modules"]:
            mult = "" if module["multiplicity"] is None else module["multiplicity"]
            case = "" if module["case"] is None else module["case"]
            yield (
                f"{entry['vertex']},{module['type']},{case},{mult},"
                f"{columns(module['character'])}"
            )


def _parse_w(raw: str) -> EndoPermParams:
    text = raw.strip()
    if not text:
        return EndoPermParams(())
    return EndoPermParams(tuple(int(part) for part in text.split(",")))


def cmd_local(args: argparse.Namespace) -> int:
    try:
        g = CyclicGroupData(args.p, args.n)
        w = _parse_w(args.w)
        if args.operation == "det1-char":
            result = list(char_det1_endoperm(w, g).mults)
        else:
            if args.vertex is None:
                raise ValueError(f"{args.operation} needs --vertex")
            if args.operation == "cap-dim":
                result = cap_dim(w, g, args.vertex)
            else:
                result = list(
                    morita_correspondent_character(w, g, args.vertex).mults
                )
    except ValueError as err:
        print(f"invalid parameters: {err}", file=sys.stderr)
        return EXIT_SEMANTIC
    except (OverflowError, MemoryError):
        print(
            f"invalid parameters: p^n = {args.p}^{args.n} is too large to "
            "hold in memory",
            file=sys.stderr,
        )
        return EXIT_SEMANTIC
    print(json.dumps(result))
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    problem = _oracle_argument_problem(args)
    if problem is not None:
        print(f"invalid argument: {problem}", file=sys.stderr)
        return EXIT_PARSE
    grid = GridSpec(
        primes=tuple(args.primes), n_max=args.nmax, seed=args.seed
    )
    cap_impl = None
    if args.inject_fault:
        cap_impl = lambda w, g, i: cap_dim(w, g, i) + 1  # noqa: E731
    report = consistency_suite(
        grid, corpus_size=args.corpus_size, cap_dim_impl=cap_impl
    )
    print(
        json.dumps(
            {
                "checks_run": report.checks_run,
                "failures": [
                    {
                        "check": f.check,
                        "params": f.params,
                        "expected": f.expected,
                        "actual": f.actual,
                    }
                    for f in report.failures
                ],
            },
            indent=2,
        )
    )
    return EXIT_OK if report.passed else EXIT_SEMANTIC


def _oracle_argument_problem(args: argparse.Namespace) -> str | None:
    if args.nmax < 1:
        return f"--nmax must be at least 1, got {args.nmax}"
    if args.corpus_size < 0:
        return f"--corpus-size must be at least 0, got {args.corpus_size}"
    for p in args.primes:
        try:
            prime = is_odd_prime(p)
        except ValueError as err:
            return f"--primes: {err}"
        if not prime:
            return f"--primes: {p} is not an odd prime"
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclicblocks",
        description=(
            "enumerate trivial source modules of a cyclic-defect block "
            "descriptor and compute their ordinary characters"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a descriptor file")
    p_val.add_argument("file")
    p_val.add_argument(
        "--strict",
        action="store_true",
        help="also demand opposite signs across every edge",
    )
    p_val.set_defaults(func=cmd_validate)

    p_enum = sub.add_parser(
        "enumerate", help="list trivial source modules and their characters"
    )
    p_enum.add_argument("file")
    group = p_enum.add_mutually_exclusive_group()
    group.add_argument("--vertex", type=int, help="single vertex index")
    group.add_argument(
        "--all", action="store_true", help="all vertex indices (default)"
    )
    p_enum.add_argument("--format", choices=("json", "csv"), default="json")
    p_enum.set_defaults(func=cmd_enumerate)

    p_local = sub.add_parser(
        "local", help="closed-form data of the local block (no tree needed)"
    )
    p_local.add_argument(
        "operation", choices=("cap-dim", "det1-char", "morita-char")
    )
    p_local.add_argument("--p", type=int, required=True)
    p_local.add_argument("--n", type=int, required=True)
    p_local.add_argument(
        "--w",
        default="",
        help="comma-separated increasing subgroup indices; empty for trivial",
    )
    p_local.add_argument("--vertex", type=int)
    p_local.set_defaults(func=cmd_local)

    p_oracle = sub.add_parser(
        "oracle", help="run the brute-force consistency suite"
    )
    p_oracle.add_argument("--primes", type=int, nargs="+", default=[3, 5, 7])
    p_oracle.add_argument("--nmax", type=int, default=3)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--corpus-size", type=int, default=30)
    p_oracle.add_argument(
        "--inject-fault", action="store_true", help=argparse.SUPPRESS
    )
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SEMANTIC
    except (OverflowError, MemoryError) as err:
        print(
            f"error: input too large to hold in memory ({type(err).__name__})",
            file=sys.stderr,
        )
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
