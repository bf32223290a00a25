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
from functools import partial
from itertools import compress, repeat
from json.encoder import encode_basestring_ascii as _quote

from .brauer_tree import (
    BlockDescriptor,
    Edge,
    sign_alternation_violations,
    validate,
)
from .characters import BlockCharacter, character_of, orbits_from_level
from .classification import (
    ClassificationError,
    M1Enumeration,
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
    is not an integer (a bool included), a descriptor, tree, vertex, edge,
    cyclic order map or W that is not an object, a vertex, edge, cyclic
    order or index collection that is not a list, a sign other than '+' or
    '-', an edge without exactly two ends, a cyclic order at an unknown
    vertex, a missing required key or W indices that are negative or not
    strictly increasing raises ValueError naming the field.

    Vertices, edges and cyclic orders are read in one walk, each field's
    checks inline and in a fixed order; a field's name is spelled out only
    in the error that names it."""
    obj = _object(obj, "descriptor")
    tree = _object(_key(obj, "tree"), "tree")
    signs = {}
    vertices = []
    listed = _list(_key(tree, "vertices", "tree"), "tree.vertices")
    for k, entry in enumerate(listed):
        if not isinstance(entry, dict):
            raise ValueError(f"tree.vertices[{k}] must be an object, got {entry!r}")
        if "id" not in entry:
            raise ValueError(f"tree.vertices[{k}].id is missing")
        vertex = entry["id"]
        if not isinstance(vertex, str):
            raise ValueError(f"tree.vertices[{k}].id must be a string, got {vertex!r}")
        if "sign" not in entry:
            raise ValueError(f"tree.vertices[{k}].sign is missing")
        sign = entry["sign"]
        if sign not in ("+", "-"):
            raise ValueError(
                f"tree.vertices[{k}].sign must be '+' or '-', got {sign!r}"
            )
        vertices.append(vertex)
        signs[vertex] = 1 if sign == "+" else -1
    edges = []
    listed = _list(_key(tree, "edges", "tree"), "tree.edges")
    for k, entry in enumerate(listed):
        if not isinstance(entry, dict):
            raise ValueError(f"tree.edges[{k}] must be an object, got {entry!r}")
        if "ends" not in entry:
            raise ValueError(f"tree.edges[{k}].ends is missing")
        ends = entry["ends"]
        if not isinstance(ends, list) or len(ends) != 2:
            raise ValueError(
                f"tree.edges[{k}].ends must list two vertices, got {ends!r}"
            )
        if "id" not in entry:
            raise ValueError(f"tree.edges[{k}].id is missing")
        eid = entry["id"]
        if not isinstance(eid, str):
            raise ValueError(f"tree.edges[{k}].id must be a string, got {eid!r}")
        a, b = ends
        if not isinstance(a, str) or not isinstance(b, str):
            bad = b if isinstance(a, str) else a
            raise ValueError(f"tree.edges[{k}].ends must be a string, got {bad!r}")
        edges.append(Edge(eid, (a, b)))
    cyclic_order = {}
    orders = _key(tree, "cyclic_order", "tree")
    for v, order in _object(orders, "tree.cyclic_order").items():
        if v not in signs:
            raise ValueError(f"tree.cyclic_order.{v} names no vertex")
        if not isinstance(order, list):
            raise ValueError(f"tree.cyclic_order.{v} must be a list, got {order!r}")
        if not all(map(isinstance, order, repeat(str))):
            bad = next(eid for eid in order if not isinstance(eid, str))
            raise ValueError(f"tree.cyclic_order.{v} must be a string, got {bad!r}")
        cyclic_order[v] = tuple(order)
    exceptional = tree.get("exceptional")
    if exceptional is not None:
        exceptional = _id(exceptional, "tree.exceptional")
    p, n, e = (_integer(_key(obj, key), key) for key in ("p", "n", "e"))
    w = _object(_key(obj, "W"), "W")
    indices = _list(_key(w, "indices", "W"), "W.indices")
    try:
        w = EndoPermParams(tuple(_integer(a, "W.indices") for a in indices))
    except ValueError as err:
        raise ValueError(f"W.indices: {err}") from err
    return BlockDescriptor(
        p=p,
        n=n,
        e=e,
        vertices=tuple(vertices),
        signs=signs,
        edges=tuple(edges),
        cyclic_order=cyclic_order,
        exceptional=exceptional,
        w=w,
    )


def _key(obj: dict, key: str, parent: str = ""):
    """obj[key]; a missing key raises ValueError naming its path below the
    descriptor (`parent.key`, or `key` at the top)."""
    if key not in obj:
        raise ValueError(f"{parent + '.' if parent else ''}{key} is missing")
    return obj[key]


def _list(value, field: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{field} must be a list, got {value!r}")
    return value


def _object(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{field} must be an object, got {value!r}")
    return value


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


def _character_obj(desc: BlockDescriptor, char) -> dict:
    """A character of an m = 1 block, which has no exceptional part."""
    return {
        "nonexceptional": list(
            compress(desc.nonexceptional_vertices, char.nonexceptional)
        ),
        "exceptional": [],
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
    if desc.exceptional is not None:
        # the allocation that opens `exceptional_orbits`, made before any
        # per-vertex work, so that a p^n too large to index is refused at
        # once; the orbit table is built after the characters, from the
        # lowest level they print
        bytearray(desc.p ** desc.n)
    status = EXIT_OK
    if desc.m == 1:
        sys.stdout.write(_m1_text(desc, m1_enumerate(desc), args.format))
    else:
        indices = (
            range(1, desc.n + 1) if args.vertex is None else (args.vertex,)
        )
        results = []
        for i in indices:
            error = None
            try:
                modules = enumerate_trivial_source(desc, i)
            except ClassificationError as err:
                modules, error = err.paths, str(err)
                status = EXIT_SEMANTIC
            characters = [(path, character_of(desc, i, path)) for path in modules]
            results.append((i, characters, error))
        # the lowest level at which a printed exceptional part is non-zero:
        # the orbits of valuation at least `low` come from the table of
        # (p, n - low, e), and no table is built when every part is zero
        parts = {char.levels for _, modules, _ in results for _, char in modules}
        low = min(
            (len(part) - len(part.lstrip(b"\0")) for part in parts if any(part)),
            default=None,
        )
        if low is None:
            reps, orbit_levels, low = (), b"", 0
        else:
            reps, orbit_levels = orbits_from_level(desc.p, desc.n, desc.e, low)
        # every character and the orbit table are built before the first
        # write, so a failure leaves stdout empty
        sys.stdout.writelines(
            _enumerate_text(desc, results, reps, orbit_levels, low, args.format)
        )
        if args.format == "csv":
            # CSV has no field for the error a vertex index ends with
            for _, _, error in results:
                if error is not None:
                    print(f"error: {error}", file=sys.stderr)
    return status


# One module of `enumerate --format json` as json.dumps(payload, indent=2)
# lays it out, up to its exceptional list; the module object sits at depth
# 4 and each of its lists at depth 6.
_MODULE_JSON = """{
          "type": %d,
          "case": %s,
          "multiplicity": %s,
          "path": {
            "spine_vertices": %s,
            "spine_edges": %s,
            "extra_edges": %s,
            "direction": %s
          },
          "character": {
            "nonexceptional": %s,
            "exceptional": """
_MODULE_JSON_END = "\n          }\n        }"
_HEAD_JSON = '{\n  "p": %d,\n  "n": %d,\n  "e": %d,\n  "m": %d,\n  "results": ['
_ENTRY_JSON = '{\n      "vertex": %d,\n      "modules": ['


def _enumerate_text(
    desc: BlockDescriptor,
    results: list[tuple[int, list[tuple[PathDescriptor, BlockCharacter]], str | None]],
    reps: tuple[int, ...],
    orbit_levels: bytes,
    low: int,
    fmt: str,
) -> list[str]:
    """What `enumerate` prints for an m > 1 block, given per vertex index
    its modules with their characters and its error, if any: the pieces
    whose concatenation is the text of json.dumps(payload, indent=2) plus a
    newline, or the flattened CSV view.

    `reps` are the orbit representatives of valuation at least `low` in
    ascending order, and `orbit_levels` the valuation of each less `low`.
    Every exceptional part printed is zero below `low`, so its list is
    read off these alone.

    The modules of a call share most of their lists: the exceptional parts
    (xi or its complement per vertex index, the bundle), the spine lists
    and the non-exceptional part of each anchor, and the four directions.
    So each list's text is rendered once per call, in one table per kind
    of list: a short list is kept under its tuple, an exceptional part
    under its level values.  The pieces are never joined: a long list's
    text is one piece, listed once per module that prints it, and the
    caller writes the pieces out as they are.
    """
    as_json = fmt == "json"
    if as_json:
        names = tuple(map(_quote, desc.nonexceptional_vertices))
        listed = _json_list
    else:
        names = desc.nonexceptional_vertices
        listed = ";".join
    rep_text = tuple(map(str, reps))
    plain = _Rendered(partial(compress, names), listed)
    rendered: dict[bytes, str] = {}

    def exceptional(char: BlockCharacter) -> str:
        text = rendered.get(char.levels)
        if text is None:
            # the 0/1 mask over the representatives, one byte each, read
            # from the levels at and above `low`
            table = char.levels[low:] + bytes(256 - len(char.levels) + low)
            text = rendered[char.levels] = listed(
                compress(rep_text, orbit_levels.translate(table))
            )
        return text

    if not as_json:
        out = ["vertex,type,case,multiplicity,nonexceptional,exceptional\n"]
        for i, modules, _ in results:
            for path, char in modules:
                case = "" if path.case_tag is None else path.case_tag
                mult = "" if path.multiplicity is None else path.multiplicity
                out += (
                    f"{i},{path.type_tag},{case},{mult},",
                    plain[char.nonexceptional],
                    ",",
                    exceptional(char),
                    "\n",
                )
        return out
    ids = _Rendered(partial(map, _quote), listed)
    direction = _Rendered(partial(map, str), listed)
    out = [_HEAD_JSON % (desc.p, desc.n, desc.e, desc.m)]
    entry_sep = "\n    "
    for i, modules, error in results:
        out.append(entry_sep + _ENTRY_JSON % i)
        module_sep = "\n        "
        for path, char in modules:
            case = "null" if path.case_tag is None else _quote(path.case_tag)
            mult = "null" if path.multiplicity is None else path.multiplicity
            text = _MODULE_JSON % (
                path.type_tag,
                case,
                mult,
                ids[path.spine_vertices],
                ids[path.spine_edges],
                ids[path.extra_edges],
                direction[path.direction],
                plain[char.nonexceptional],
            )
            out += (module_sep, text, exceptional(char), _MODULE_JSON_END)
            module_sep = ",\n        "
        out.append("\n      ]" if modules else "]")
        if error is not None:
            out.append(',\n      "error": ' + _quote(error))
        out.append("\n    }")
        entry_sep = ",\n    "
    out.append("\n  ]\n}\n" if results else "]\n}\n")
    return out


class _Rendered(dict):
    """The text listed(encode(items)) of each short tuple, rendered on first
    lookup and kept under the tuple itself; it depends on the tuple's value
    alone."""

    def __init__(self, encode, listed) -> None:
        super().__init__()
        self.encode = encode
        self.listed = listed

    def __missing__(self, items: tuple) -> str:
        text = self[items] = self.listed(self.encode(items))
        return text


def _json_list(items) -> str:
    """A list of already encoded items, none of them empty, laid out as
    json.dumps(..., indent=2) lays out a list at depth 6, the depth of
    every list in an enumerate module."""
    body = ",\n              ".join(items)
    return f"[\n              {body}\n            ]" if body else "[]"


def _m1_text(desc: BlockDescriptor, found: M1Enumeration, fmt: str) -> str:
    """What `enumerate` prints for an m = 1 block: its projectives and
    conditional hooks, as indent-2 JSON plus a newline or as CSV."""
    pims = [
        {"edge": pim.edge_id, "character": _character_obj(desc, pim.character)}
        for pim in found.pims
    ]
    hooks = [
        {
            "edge": hook.edge_id,
            "vertex": hook.vertex,
            "conditional": True,
            "character": _character_obj(desc, hook.character),
        }
        for hook in found.hooks
    ]
    if fmt == "json":
        payload = {"p": desc.p, "n": desc.n, "e": desc.e, "m": 1}
        return json.dumps({**payload, "pims": pims, "hooks": hooks}, indent=2) + "\n"
    lines = ["kind,edge,vertex,conditional,nonexceptional,exceptional\n"]
    for pim in pims:
        plain = ";".join(pim["character"]["nonexceptional"])
        lines.append(f"pim,{pim['edge']},,,{plain},\n")
    for hook in hooks:
        plain = ";".join(hook["character"]["nonexceptional"])
        lines.append(f"hook,{hook['edge']},{hook['vertex']},true,{plain},\n")
    return "".join(lines)


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


def _validate_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also demand opposite signs across every edge",
    )
    parser.set_defaults(func=cmd_validate)


def _enumerate_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--vertex", type=int, help="single vertex index")
    group.add_argument(
        "--all", action="store_true", help="all vertex indices (default)"
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.set_defaults(func=cmd_enumerate)


def _local_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "operation", choices=("cap-dim", "det1-char", "morita-char")
    )
    parser.add_argument("--p", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument(
        "--w",
        default="",
        help="comma-separated increasing subgroup indices; empty for trivial",
    )
    parser.add_argument("--vertex", type=int)
    parser.set_defaults(func=cmd_local)


def _oracle_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--primes", type=int, nargs="+", default=[3, 5, 7])
    parser.add_argument("--nmax", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--corpus-size", type=int, default=30)
    parser.add_argument(
        "--inject-fault", action="store_true", help=argparse.SUPPRESS
    )
    parser.set_defaults(func=cmd_oracle)


# Each command's help text and the function that adds its arguments.
COMMANDS = {
    "validate": ("check a descriptor file", _validate_arguments),
    "enumerate": (
        "list trivial source modules and their characters",
        _enumerate_arguments,
    ),
    "local": (
        "closed-form data of the local block (no tree needed)",
        _local_arguments,
    ),
    "oracle": ("run the brute-force consistency suite", _oracle_arguments),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of the whole command tree, or, given a command, that
    command's parser alone: the one the tree hands its arguments to, with
    the same prog, arguments and messages."""
    if command is not None:
        parser = argparse.ArgumentParser(prog=f"cyclicblocks {command}")
        COMMANDS[command][1](parser)
        return parser
    parser = argparse.ArgumentParser(
        prog="cyclicblocks",
        description=(
            "enumerate trivial source modules of a cyclic-defect block "
            "descriptor and compute their ordinary characters"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a call that names a command is parsed by that command's parser alone;
    # the whole tree is built only when no command is named or arguments
    # are left over, so that top-level help and every usage error read as
    # the tree writes them
    args, extra = None, ()
    if argv and argv[0] in COMMANDS:
        args, extra = build_parser(argv[0]).parse_known_args(argv[1:])
    if args is None or extra:
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
