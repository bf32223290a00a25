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
    PathFields,
    Verdict,
    admitted_anchors,
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
            compress(desc.nonexceptional_vertices, char.plain)
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
            groups = admitted_anchors(desc, i)
            count = sum(len(paths) for _, paths in groups)
            error = None
            if count != desc.e:
                error = ClassificationError.message(desc, i, count)
                status = EXIT_SEMANTIC
            # the paths of a group share one character, assembled from the
            # group's first path
            characters = [
                (
                    (case, mu),
                    paths,
                    character_of(desc, i, PathDescriptor(*paths[0], mu, case)),
                )
                for (case, mu), paths in groups
            ]
            results.append((i, characters, error))
        # the lowest level at which a printed exceptional part is non-zero:
        # the orbits of valuation at least `low` come from the table of
        # (p, n - low, e), and no table is built when every part is zero
        parts = {char.levels for _, groups, _ in results for *_, char in groups}
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


# The head of `enumerate --format json`, the head of each vertex index's
# entry and the end of each module, as json.dumps(payload, indent=2) lays
# them out; the module object sits at depth 4 and each of its lists at
# depth 6.
_HEAD_JSON = '{\n  "p": %d,\n  "n": %d,\n  "e": %d,\n  "m": %d,\n  "results": ['
_ENTRY_JSON = '{\n      "vertex": %d,\n      "modules": ['
_MODULE_JSON_END = "\n          }\n        }"
# A non-empty list at depth 6 is its items, joined by the separator,
# between the opening and the closing text.
_JSON_LIST_OPEN = "[\n              "
_JSON_ITEM_SEP = ",\n              "
_JSON_LIST_CLOSE = "\n            ]"

# The modules of one admitted anchor: their verdict, their paths, at least
# one, and the character they share.
_Group = tuple[Verdict, tuple[PathFields, ...], BlockCharacter]


def _enumerate_text(
    desc: BlockDescriptor,
    results: list[tuple[int, list[_Group], str | None]],
    reps: tuple[int, ...],
    orbit_levels: bytes,
    low: int,
    fmt: str,
) -> list[str]:
    """What `enumerate` prints for an m > 1 block, given per vertex index
    its admitted anchor groups with their characters and its error, if
    any: the pieces whose concatenation is the text of
    json.dumps(payload, indent=2) plus a newline, or the flattened CSV
    view, one module per path of each group.

    `reps` are the orbit representatives of valuation at least `low` in
    ascending order, and `orbit_levels` the valuation of each less `low`.
    Every exceptional part printed is zero below `low`, so its list is
    read off these alone.

    The paths of a group share their spine lists, verdict and character,
    so the case, multiplicity and spine text, the non-exceptional list and
    the exceptional list are rendered once per group; a module adds only
    its type, extra edges and direction.  Across groups the lists repeat
    too (an anchor's spine and non-exceptional part at every vertex index,
    xi or its complement in most groups, the four directions), so each
    list's text is rendered on first sight and kept for the call, in one
    table per kind of list: an id or direction list under its tuple, a
    non-exceptional part under its bytes (`plain`), an exceptional part
    under its level values.  An exceptional list is kept as its body
    alone, the items joined by their separator, and its JSON brackets go
    in the pieces on either side, so a long list is joined once and never
    copied.  The pieces are never joined: a long list's body is one piece,
    listed once per module that prints it, and the caller writes the
    pieces out as they are.
    """
    as_json = fmt == "json"
    if as_json:
        names = tuple(map(_quote, desc.nonexceptional_vertices))
        listed = _json_list
        joined = _JSON_ITEM_SEP.join
    else:
        names = desc.nonexceptional_vertices
        listed = joined = ";".join
    rep_text = tuple(map(str, reps))
    ids: dict[tuple, str] = {}
    directions: dict[tuple, str] = {}
    plains: dict[bytes, str] = {}
    exceptionals: dict[bytes, str] = {}

    # each renderer keeps the text it makes in its table; the JSON writer
    # looks a short list up as `table.get(key) or render(key)`, since no
    # JSON list is empty text, and an exceptional body, which may be
    # empty, against None
    def quoted(items: tuple) -> str:
        text = ids[items] = listed(map(_quote, items))
        return text

    def direction_text(direction: tuple) -> str:
        text = directions[direction] = listed(map(str, direction))
        return text

    def plain(counts: bytes) -> str:
        text = plains[counts] = listed(compress(names, counts))
        return text

    def exceptional(levels: bytes) -> str:
        # the 0/1 mask over the representatives, one byte each, read from
        # the levels at and above `low`; the list's body only, without its
        # brackets
        table = levels[low:] + bytes(256 - len(levels) + low)
        text = exceptionals[levels] = joined(
            compress(rep_text, orbit_levels.translate(table))
        )
        return text

    if not as_json:
        out = ["vertex,type,case,multiplicity,nonexceptional,exceptional\n"]
        for i, groups, _ in results:
            for (case, mult), paths, char in groups:
                case = "" if case is None else case
                mult = "" if mult is None else mult
                nonexceptional = plains.get(char.plain)
                if nonexceptional is None:
                    nonexceptional = plain(char.plain)
                shared = f"{case},{mult},{nonexceptional},"
                text = exceptionals.get(char.levels)
                if text is None:
                    text = exceptional(char.levels)
                for path in paths:
                    out += (f"{i},{path[0]},{shared}", text, "\n")
        return out
    out = [_HEAD_JSON % (desc.p, desc.n, desc.e, desc.m)]
    entry_sep = "\n    "
    for i, groups, error in results:
        out.append(entry_sep + _ENTRY_JSON % i)
        module_sep = "\n        "
        for (case, mult), paths, char in groups:
            # the module's fields from its case to its extra edges, and
            # from the end of its path to its exceptional list, as
            # json.dumps(payload, indent=2) lays them out at depth 4
            _, spine_vertices, spine_edges, _, _ = paths[0]
            case = "null" if case is None else _quote(case)
            mult = "null" if mult is None else mult
            spine_vertices = ids.get(spine_vertices) or quoted(spine_vertices)
            spine_edges = ids.get(spine_edges) or quoted(spine_edges)
            counts, levels = char.plain, char.levels
            nonexceptional = plains.get(counts) or plain(counts)
            head = (
                f'"case": {case},\n'
                f'          "multiplicity": {mult},\n'
                '          "path": {\n'
                f'            "spine_vertices": {spine_vertices},\n'
                f'            "spine_edges": {spine_edges},\n'
                '            "extra_edges": '
            )
            tail = (
                "\n          },\n"
                '          "character": {\n'
                f'            "nonexceptional": {nonexceptional},\n'
                '            "exceptional": '
            )
            text = exceptionals.get(levels)
            if text is None:
                text = exceptional(levels)
            # the exceptional list's brackets go in the pieces around its
            # body, so that a long body is never copied
            if text:
                tail += _JSON_LIST_OPEN
                end = _JSON_LIST_CLOSE + _MODULE_JSON_END
            else:
                tail += "[]"
                end = _MODULE_JSON_END
            for type_tag, _, _, extra_edges, direction in paths:
                extra_edges = ids.get(extra_edges) or quoted(extra_edges)
                direction = directions.get(direction) or direction_text(direction)
                out += (
                    f'{module_sep}{{\n          "type": {type_tag},\n          '
                    f'{head}{extra_edges},\n            "direction": {direction}',
                    tail,
                    text,
                    end,
                )
                module_sep = ",\n        "
        out.append("\n      ]" if groups else "]")
        if error is not None:
            out.append(',\n      "error": ' + _quote(error))
        out.append("\n    }")
        entry_sep = ",\n    "
    out.append("\n  ]\n}\n" if results else "]\n}\n")
    return out


def _json_list(items) -> str:
    """A list of already encoded items, none of them empty, laid out as
    json.dumps(..., indent=2) lays out a list at depth 6, the depth of
    every list in an enumerate module."""
    body = _JSON_ITEM_SEP.join(items)
    return f"{_JSON_LIST_OPEN}{body}{_JSON_LIST_CLOSE}" if body else "[]"


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
