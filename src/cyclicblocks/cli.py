"""Command-line front end and the stable JSON file formats.

Descriptor files look like::

    {"p": 3, "n": 2, "e": 2,
     "tree": {"vertices": [{"id": "v1", "sign": "+"}, ...],
              "exceptional": "exc",
              "edges": [{"id": "E1", "ends": ["v1", "exc"]}, ...],
              "cyclic_order": {"v1": ["E1"], ...}},
     "W": {"indices": [1]}}

m is always derived from (p, n, e), never read from the file.  Exit codes:
0 success, 1 semantic violation or consistency failure, or a reader that
closed stdout before the output ended (nothing on stderr), 2 unreadable or
ill-formed input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import compress, repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, NamedTuple

from .brauer_tree import (
    BlockDescriptor,
    Edge,
    sign_alternation_violations,
    validate,
)
from .characters import orbits_from_level
from .classification import (
    M1Enumeration,
    VertexEnumeration,
    enumerate_block,
    m1_enumerate,
)
from .cyclotomic import is_odd_prime
from .local_reps import (
    CyclicGroupData,
    EndoPermParams,
    cap_dim,
    char_det1_endoperm,
    morita_correspondent_character,
    restricted_cap_params,
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
    except (
        OSError,
        ValueError,
        KeyError,
        TypeError,
        AttributeError,
        RecursionError,
    ) as err:
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


def _refuse_unindexable(p: int, n: int) -> None:
    """Raise the OverflowError of an allocation of p^n items when p^n is
    past sys.maxsize, without forming p^n, which takes minutes at
    n = 10^8: p^n is at least 2^(n (bits of p - 1))."""
    if n * (p.bit_length() - 1) >= sys.maxsize.bit_length():
        raise OverflowError("p^n exceeds sys.maxsize")


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
    if args.format == "csv":
        _refuse_csv_ids(desc)
    if desc.exceptional is not None:
        # the allocation that opens `exceptional_orbits`, made before any
        # per-vertex work, so that a p^n too large to index is refused at
        # once; the orbit table is built after the characters, from the
        # lowest level they print
        _refuse_unindexable(desc.p, desc.n)
        bytearray(desc.p ** desc.n)
    if desc.m == 1:
        sys.stdout.write(_m1_text(desc, m1_enumerate(desc), args.format))
        return EXIT_OK
    indices = range(1, desc.n + 1) if args.vertex is None else (args.vertex,)
    results = enumerate_block(desc, indices)
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
    errors = [error for _, _, error in results if error is not None]
    if args.format == "csv":
        # CSV has no field for the error a vertex index ends with
        for error in errors:
            print(f"error: {error}", file=sys.stderr)
    return EXIT_SEMANTIC if errors else EXIT_OK


def _refuse_csv_ids(desc: BlockDescriptor) -> None:
    """Raise ValueError naming the first id the CSV view prints that a CSV
    reader would not read back: one holding ',', ';' or a line break, led
    by a quote, or empty, which reads as no id.  The view prints the
    non-exceptional vertices, and the edges too of an m = 1 block, which
    has no exceptional vertex."""
    named = [("vertex", v) for v in desc.nonexceptional_vertices]
    if desc.exceptional is None:
        named += [("edge", edge.id) for edge in desc.edges]
    for kind, name in named:
        if not name:
            reason = "it is empty"
        elif name.startswith('"') or any(c in name for c in ",;\r\n"):
            reason = "it holds ',', ';' or a line break, or starts with '\"'"
        else:
            continue
        raise ValueError(f"{kind} id {name!r} cannot be written as CSV ({reason})")


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


def _enumerate_text(
    desc: BlockDescriptor,
    results: list[VertexEnumeration],
    reps: tuple[int, ...],
    orbit_levels: bytes,
    low: int,
    fmt: str,
) -> list[str]:
    """What `enumerate` prints for an m > 1 block, given the enumeration
    at each vertex index it prints: the pieces whose concatenation is the
    text of json.dumps(payload, indent=2) plus a newline, or the flattened
    CSV view, one module per path of each group.

    `reps` are the orbit representatives of valuation at least `low` in
    ascending order, and `orbit_levels` the valuation of each less `low`.
    Every exceptional part printed is zero below `low`, so its list is
    read off these alone.

    The paths of a group share their spine lists, verdict and character,
    so the case, multiplicity and spine text and the non-exceptional list
    are rendered once per group, where they are printed; a module adds
    only its type, extra edges and direction.  The one list that repeats
    across groups at a cost is the exceptional part (xi or its complement
    in most groups, the whole bundle at every hook), so its text is kept
    for the call in one table, under its level values.  It is kept as its
    body alone, the items joined by their separator, and its JSON brackets
    go in the pieces on either side, so a long list is joined once and
    never copied.  The pieces are never joined: a long list's body is one
    piece, listed once per module that prints it, and the caller writes
    the pieces out as they are.
    """
    as_json = fmt == "json"
    if as_json:
        names = tuple(map(_quote, desc.nonexceptional_vertices))
        joined = _JSON_ITEM_SEP.join
    else:
        names = desc.nonexceptional_vertices
        joined = ";".join
    rep_text = tuple(map(str, reps))
    exceptionals: dict[bytes, str] = {}

    def exceptional(levels: bytes) -> str:
        # the list's body only, without its brackets, rendered on first
        # sight from the 0/1 mask over the representatives, one byte
        # each, read from the levels at and above `low`
        text = exceptionals.get(levels)
        if text is None:
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
                nonexceptional = joined(compress(names, char.plain))
                shared = f"{case},{mult},{nonexceptional},"
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
            spine_vertices = _json_list(map(_quote, spine_vertices))
            spine_edges = _json_list(map(_quote, spine_edges))
            nonexceptional = _json_list(compress(names, char.plain))
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
            text = exceptional(char.levels)
            # the exceptional list's brackets go in the pieces around its
            # body, so that a long body is never copied
            if text:
                tail += _JSON_LIST_OPEN
                end = _JSON_LIST_CLOSE + _MODULE_JSON_END
            else:
                tail += "[]"
                end = _MODULE_JSON_END
            # `head` is a piece of its own, so a group holds one copy of it
            for type_tag, _, _, extra_edges, (x, y) in paths:
                extra_edges = _json_list(map(_quote, extra_edges))
                out += (
                    f'{module_sep}{{\n          "type": {type_tag},\n          ',
                    head,
                    f'{extra_edges},\n            "direction": {_JSON_LIST_OPEN}'
                    f"{x}{_JSON_ITEM_SEP}{y}{_JSON_LIST_CLOSE}",
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


def _parse_w(raw: str) -> tuple[int, ...] | None:
    """The integers of a comma-separated list, or None if one is not."""
    text = raw.strip()
    try:
        return tuple(int(part) for part in text.split(",")) if text else ()
    except ValueError:
        return None


def cmd_local(args: argparse.Namespace) -> int:
    indices = _parse_w(args.w)
    if indices is None:
        print(
            f"invalid argument: --w must be comma-separated integers, got {args.w!r}",
            file=sys.stderr,
        )
        return EXIT_PARSE
    try:
        g = CyclicGroupData(args.p, args.n)
        w = EndoPermParams(indices)
        if args.operation != "cap-dim":
            # both characters print p^n entries
            _refuse_unindexable(g.p, g.n)
        if args.operation == "det1-char":
            text = json.dumps(list(char_det1_endoperm(w, g).mults))
        else:
            if args.vertex is None:
                raise ValueError(f"{args.operation} needs --vertex")
            if args.operation == "cap-dim":
                text = _cap_dim_text(w, g, args.vertex)
            else:
                text = json.dumps(
                    list(morita_correspondent_character(w, g, args.vertex).mults)
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
    print(text)
    return EXIT_OK


# The most decimal digits `local cap-dim` prints: writing an integer in
# decimal costs time quadratic in its length, seconds at 477 000 digits.
_MAX_CAP_DIGITS = 100_000


def _cap_dim_text(w: EndoPermParams, g: CyclicGroupData, i: int) -> str:
    """The cap dimension at D_i in decimal, or ValueError naming its digit
    count past `_MAX_CAP_DIGITS`, estimated before any power of p is formed
    from its leading term p^(i - a), a the least parameter index below i:
    the other terms take off less than a p-th of it."""
    below = restricted_cap_params(w, g, i).indices
    digits = int((i - below[0]) * math.log10(g.p)) + 1 if below else 1
    if digits > _MAX_CAP_DIGITS:
        raise ValueError(
            f"the cap dimension has about {digits} decimal digits, more than "
            f"the {_MAX_CAP_DIGITS} that are printed"
        )
    # the interpreter's limit on decimal conversion is lifted for this one
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(cap_dim(w, g, i))
    finally:
        sys.set_int_max_str_digits(limit)


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


class Command(NamedTuple):
    """A command's grammar, the one source of both its argparse parser and
    `_read_call`: its help text, the function it runs, and its arguments,
    each name (an option when led by "--", else a positional) with the
    keywords `add_argument` takes.  The options named in `exclusive` form
    one mutually exclusive group.  argparse passes a string default
    through `type` and `_read_call` does not, so a string default goes
    with no `type`."""

    help: str
    func: Callable[[argparse.Namespace], int]
    arguments: dict[str, dict]
    exclusive: tuple[str, ...] = ()


COMMANDS = {
    "validate": Command(
        "check a descriptor file",
        cmd_validate,
        {
            "file": {},
            "--strict": {
                "action": "store_true",
                "help": "also demand opposite signs across every edge",
            },
        },
    ),
    "enumerate": Command(
        "list trivial source modules and their characters",
        cmd_enumerate,
        {
            "file": {},
            "--vertex": {"type": int, "help": "single vertex index"},
            "--all": {
                "action": "store_true",
                "help": "all vertex indices (default)",
            },
            "--format": {"choices": ("json", "csv"), "default": "json"},
        },
        exclusive=("--vertex", "--all"),
    ),
    "local": Command(
        "closed-form data of the local block (no tree needed)",
        cmd_local,
        {
            "operation": {"choices": ("cap-dim", "det1-char", "morita-char")},
            "--p": {"type": int, "required": True},
            "--n": {"type": int, "required": True},
            "--w": {
                "default": "",
                "help": (
                    "comma-separated increasing subgroup indices; empty for "
                    "trivial"
                ),
            },
            "--vertex": {"type": int},
        },
    ),
    "oracle": Command(
        "run the brute-force consistency suite",
        cmd_oracle,
        {
            "--primes": {"type": int, "nargs": "+", "default": (3, 5, 7)},
            "--nmax": {"type": int, "default": 3},
            "--seed": {"type": int, "default": 0},
            "--corpus-size": {"type": int, "default": 30},
            "--inject-fault": {"action": "store_true", "help": argparse.SUPPRESS},
        },
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of the whole command tree, one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="cyclicblocks",
        description=(
            "enumerate trivial source modules of a cyclic-defect block "
            "descriptor and compute their ordinary characters"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=command.help), command)
    return parser


def _add_arguments(parser: argparse.ArgumentParser, command: Command) -> None:
    group = parser.add_mutually_exclusive_group() if command.exclusive else None
    for name, keywords in command.arguments.items():
        (group if name in command.exclusive else parser).add_argument(
            name, **keywords
        )
    parser.set_defaults(func=command.func)


def _read_call(argv: list[str]) -> argparse.Namespace | None:
    """The namespace the command tree returns for argv, less its `command`
    field, read from the named command's declaration with no parser built;
    None unless every token is exact.  Exact means a known command, then
    declared options spelled in full, each at most once, and exactly the
    declared positionals.  An option's value is the next token, or for
    `nargs="+"` the tokens up to the next one led by "-".  Every value and
    positional is non-empty, not led by "-", of the declared type and
    among the declared choices.  At most one option of the exclusive group
    is given, and every required one is.  Help, "--", abbreviations,
    `--option=value`, negative values and every usage error are left to
    argparse."""
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    declared = command.arguments
    given = {}
    positionals = []
    k, end = 1, len(argv)
    while k < end:
        token = argv[k]
        k += 1
        if not token.startswith("-"):
            positionals.append(token)
            continue
        keywords = declared.get(token)
        if keywords is None or token in given:
            return None
        if keywords.get("action") == "store_true":
            given[token] = True
            continue
        nargs = keywords.get("nargs")
        if nargs not in (None, "+"):
            return None
        values = []
        while k < end and not argv[k].startswith("-"):
            values.append(_exact_value(argv[k], keywords))
            k += 1
            if nargs is None:
                break
        if not values or None in values:
            return None
        given[token] = values if nargs else values[0]
    names = [name for name in declared if not name.startswith("-")]
    if len(positionals) != len(names):
        return None
    for name, token in zip(names, positionals):
        given[name] = _exact_value(token, declared[name])
        if given[name] is None:
            return None
    if sum(name in given for name in command.exclusive) > 1:
        return None
    args = argparse.Namespace()
    for name, keywords in declared.items():
        if name in given:
            value = given[name]
        elif keywords.get("required"):
            return None
        elif "default" in keywords:
            value = keywords["default"]
        else:
            value = False if keywords.get("action") == "store_true" else None
        setattr(args, name.lstrip("-").replace("-", "_"), value)
    args.func = command.func
    return args


def _exact_value(token: str, keywords: dict):
    """The token read as the argument with these keywords reads it, or
    None when it is empty or led by "-", not of the declared type or not
    among the declared choices."""
    if not token or token.startswith("-"):
        return None
    try:
        value = keywords.get("type", str)(token)
    except (TypeError, ValueError):
        return None
    if "choices" in keywords and value not in keywords["choices"]:
        return None
    return value


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace main runs: `_read_call`'s when it reads argv, else the
    whole tree's, so that help and every usage error read as the tree
    writes them."""
    args = _read_call(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the flush
        # at shutdown stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_SEMANTIC
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
