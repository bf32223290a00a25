import copy
import csv
import hashlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from datetime import timedelta
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import GOLDEN, fixtures

import cyclicblocks.cli
from cyclicblocks.brauer_tree import (
    BlockDescriptor,
    Edge,
    group_algebra_block,
    star_tree,
    validate,
)
from cyclicblocks.characters import (
    BlockCharacter,
    character_of,
    exceptional_orbits,
    orbits_from_level,
    vertex_character,
)
from cyclicblocks.classification import (
    ClassificationError,
    PathDescriptor,
    enumerate_block,
    enumerate_trivial_source,
    m1_enumerate,
)
from cyclicblocks.cli import (
    _enumerate_text,
    descriptor_from_obj,
    descriptor_to_obj,
    main,
)
from cyclicblocks.local_reps import CyclicGroupData, EndoPermParams, cap_dim
from cyclicblocks.oracle import random_block_descriptor, random_corpus

W = EndoPermParams


@pytest.fixture
def star_file(tmp_path):
    star = star_tree(2, 3, 2, W(()), -1)
    path = tmp_path / "star.json"
    path.write_text(json.dumps(descriptor_to_obj(star)))
    return str(path)


def write_obj(tmp_path, obj, name="desc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_descriptor_round_trip():
    for desc in (
        star_tree(2, 3, 2, W(()), -1),
        star_tree(4, 5, 2, W((1,)), 1),
    ):
        assert descriptor_from_obj(descriptor_to_obj(desc)) == desc


def test_validate_ok(star_file, capsys):
    assert main(["validate", star_file, "--strict"]) == 0
    assert capsys.readouterr().out == ""


def test_validate_semantic_failure(tmp_path, capsys):
    star = star_tree(2, 3, 2, W(()), -1)
    obj = descriptor_to_obj(star)
    obj["e"] = 4
    obj["tree"]["edges"] = obj["tree"]["edges"]  # still 2 edges
    path = write_obj(tmp_path, obj)
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "e does not divide p-1" in out


def test_validate_parse_failure(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2
    assert main(["validate", str(tmp_path / "missing.json")]) == 2


def _set(*keys_and_value):
    *keys, last, value = keys_and_value

    def mutate(obj):
        for key in keys:
            obj = obj[key]
        obj[last] = value

    return mutate


@pytest.mark.parametrize(
    "mutate, field",
    [
        (_set("tree", "edges", 0, "ends", ["v1"]), "tree.edges[0].ends"),
        (_set("tree", "exceptional", ["exc"]), "tree.exceptional"),
        (_set("p", True), "p"),
        (_set("p", 3.9), "p"),
        (_set("W", "indices", [True]), "W.indices"),
        (_set("tree", "cyclic_order", "ghost", []), "tree.cyclic_order.ghost"),
        (_set("tree", "edges", 0, "id", ["E1"]), "tree.edges[0].id"),
        (_set("tree", "cyclic_order", []), "cannot read descriptor"),
        (_set("tree", "vertices", {"id": "v1", "sign": "+"}), "tree.vertices"),
        (_set("tree", "edges", "E1"), "tree.edges"),
        (_set("tree", "cyclic_order", "exc", "E1E2"), "tree.cyclic_order.exc"),
        (_set("W", "indices", 5), "W.indices"),
        (_set("tree", "vertices", 0, "v1"), "tree.vertices[0] must be an object"),
        (
            _set("tree", "cyclic_order", [["exc", ["E1", "E2"]]]),
            "tree.cyclic_order must be an object",
        ),
        (_set("W", []), "W must be an object"),
        (_set("tree", "vertices", 0, "sign", 1), "tree.vertices[0].sign"),
        (_set("tree", "edges", 0, "E1"), "tree.edges[0] must be an object"),
        (_set("tree", []), "tree must be an object"),
        (_set("W", "indices", [-1]), "W.indices: negative subgroup index"),
        (_set("W", "indices", [1, 1]), "W.indices: indices (1, 1) are not"),
        (
            _set("tree", "edges", 0, "ends", ["v1", 3]),
            "tree.edges[0].ends must be a string, got 3",
        ),
    ],
    ids=[
        "one-end", "exceptional-list", "p-bool", "p-float", "index-bool",
        "unknown-cyclic-order-key", "edge-id-list", "cyclic-order-list",
        "vertices-object", "edges-string", "cyclic-order-string",
        "indices-int", "vertex-string", "cyclic-order-pairs", "W-list",
        "sign-int", "edge-string", "tree-list", "index-negative",
        "indices-repeated", "end-int",
    ],
)
def test_malformed_descriptor_exits_2_naming_the_field(
    tmp_path, capsys, mutate, field
):
    obj = descriptor_to_obj(star_tree(2, 3, 2, W((1,)), -1))
    mutate(obj)
    path = write_obj(tmp_path, obj)
    for command in ("validate", "enumerate"):
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert field in captured.err


def _drop(*keys):
    *keys, last = keys

    def mutate(obj):
        for key in keys:
            obj = obj[key]
        del obj[last]

    return mutate


@pytest.mark.parametrize(
    "mutate, field",
    [
        (_drop("tree", "vertices", 1, "sign"), "tree.vertices[1].sign"),
        (_drop("tree", "vertices", 0, "id"), "tree.vertices[0].id"),
        (_drop("W", "indices"), "W.indices"),
        (_drop("tree", "edges", 0, "id"), "tree.edges[0].id"),
        (_drop("tree", "edges", 1, "ends"), "tree.edges[1].ends"),
        (_drop("tree", "vertices"), "tree.vertices"),
        (_drop("tree", "edges"), "tree.edges"),
        (_drop("tree", "cyclic_order"), "tree.cyclic_order"),
        (_drop("tree"), "tree"),
        (_drop("p"), "p"),
        (_drop("n"), "n"),
        (_drop("e"), "e"),
        (_drop("W"), "W"),
    ],
    ids=[
        "sign", "vertex-id", "indices", "edge-id", "ends", "vertices",
        "edges", "cyclic_order", "tree", "p", "n", "e", "W",
    ],
)
def test_missing_descriptor_key_exits_2_naming_its_path(
    tmp_path, capsys, mutate, field
):
    obj = descriptor_to_obj(star_tree(2, 3, 2, W((1,)), -1))
    mutate(obj)
    path = write_obj(tmp_path, obj)
    for command in ("validate", "enumerate"):
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cannot read descriptor: {field} is missing\n"


def test_descriptor_that_is_not_an_object_exits_2(tmp_path, capsys):
    path = write_obj(tmp_path, [descriptor_to_obj(star_tree(2, 3, 2, W(()), -1))])
    for command in ("validate", "enumerate"):
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "descriptor must be an object" in captured.err


@pytest.mark.parametrize("command", ["validate", "enumerate"])
def test_deeply_nested_descriptor_exits_2_without_traceback(
    tmp_path, capsys, command
):
    path = tmp_path / "nested.json"
    path.write_text("[" * 200000 + "]" * 200000)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("cannot read descriptor: ")
    assert "Traceback" not in captured.err


def test_string_cyclic_order_is_refused_not_spelled_out(tmp_path, capsys):
    # with one-letter edge ids, "ab" read one letter at a time would be the
    # valid order ["a", "b"]
    obj = descriptor_to_obj(star_tree(2, 3, 2, W(()), -1))
    tree = obj["tree"]
    for edge, name in zip(tree["edges"], "ab"):
        edge["id"] = name
    tree["cyclic_order"] = {"v1": ["a"], "v2": ["b"], "exc": "ab"}
    path = write_obj(tmp_path, obj)
    for command in ("validate", "enumerate"):
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tree.cyclic_order.exc must be a list" in captured.err
    tree["cyclic_order"]["exc"] = ["a", "b"]
    assert main(["validate", write_obj(tmp_path, obj, "listed.json")]) == 0


# Valid descriptors that the fuzz test below mutates, one per tree shape.
_FUZZ_BASES = tuple(
    descriptor_to_obj(desc)
    for desc in (
        star_tree(2, 3, 2, W((1,)), -1),
        star_tree(3, 7, 2, W((1,)), 1),
        group_algebra_block(3, 2),
    )
)
# Replacement values: ints stay in -1..5, so that p^n <= 7^5.
_FUZZ_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.just(1.5),
    st.integers(-1, 5),
    st.text(max_size=3),
    st.just([]),
    st.just({}),
)


@st.composite
def _mutated_descriptors(draw):
    """A copy of a valid descriptor with up to three mutations, each of
    which sets a value, deletes a key or list entry, or repeats a list
    entry.  Where to mutate is drawn uniformly at each level, walking down
    from the top, so that p, n, e, tree and W are each hit as often."""
    rng = draw(st.randoms(use_true_random=False))
    obj = copy.deepcopy(rng.choice(_FUZZ_BASES))
    for _ in range(rng.randint(0, 3)):
        parent, value = None, obj
        while isinstance(value, (dict, list)) and value and (
            parent is None or rng.random() < 2 / 3
        ):
            parent = value
            keys = list(value) if isinstance(value, dict) else range(len(value))
            last = rng.choice(keys)
            value = parent[last]
        if parent is None:
            break
        kind = rng.choice(("set", "delete", "repeat"))
        if kind == "delete":
            del parent[last]
        elif kind == "repeat" and isinstance(parent, list):
            parent.insert(last, copy.deepcopy(value))
        else:
            parent[last] = draw(_FUZZ_VALUES)
    return obj


def _outcome(call, argv):
    """Exit code, stdout and stderr of call(argv), a SystemExit included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


_FIELD_MESSAGE = re.compile(r"^cannot read descriptor: (descriptor|tree|W|p|n|e)\b")


@settings(max_examples=150, derandomize=True, deadline=timedelta(seconds=2))
@given(_mutated_descriptors())
def test_mutated_descriptors_exit_0_1_or_2_naming_the_field(
    tmp_path_factory, obj
):
    path = write_obj(tmp_path_factory.mktemp("fuzz"), obj)
    for command in ("validate", "enumerate"):
        code, _, message = _outcome(main, [command, path])
        assert code in (0, 1, 2), (command, obj, message)
        if code == 2:
            assert _FIELD_MESSAGE.match(message), (command, obj, message)


def test_validate_lax_warns_on_signs(tmp_path, capsys):
    star = star_tree(2, 3, 2, W(()), -1)
    obj = descriptor_to_obj(star)
    obj["tree"]["vertices"][0]["sign"] = "-"
    path = write_obj(tmp_path, obj)
    assert main(["validate", path]) == 0
    assert "warning: sign alternation" in capsys.readouterr().err
    assert main(["validate", path, "--strict"]) == 1


def test_enumerate_single_vertex(star_file, capsys):
    assert main(["enumerate", star_file, "--vertex", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m"] == 4
    (entry,) = payload["results"]
    assert entry["vertex"] == 1
    assert len(entry["modules"]) == 2
    for module, leaf in zip(entry["modules"], ("v1", "v2")):
        assert module["type"] == 2
        assert module["character"] == {
            "nonexceptional": [leaf],
            "exceptional": [3],
        }


def test_enumerate_all_vertices_self_block(tmp_path, capsys):
    path = write_obj(tmp_path, descriptor_to_obj(group_algebra_block(3, 2)))
    assert main(["enumerate", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [entry["vertex"] for entry in payload["results"]] == [1, 2]
    first = payload["results"][0]["modules"][0]
    assert first["character"]["nonexceptional"] == ["chi1"]
    assert first["character"]["exceptional"] == [3, 6]


def _short_count_obj():
    """A descriptor whose vertex index 2 admits one module, not e = 2."""
    return {
        "p": 3,
        "n": 2,
        "e": 2,
        "tree": {
            "vertices": [
                {"id": "A", "sign": "-"},
                {"id": "B", "sign": "+"},
                {"id": "exc", "sign": "-"},
            ],
            "exceptional": "exc",
            "edges": [
                {"id": "E1", "ends": ["A", "B"]},
                {"id": "E2", "ends": ["B", "exc"]},
            ],
            "cyclic_order": {"A": ["E1"], "B": ["E1", "E2"], "exc": ["E2"]},
        },
        "W": {"indices": [1]},
    }


def test_enumerate_surfaces_count_error(tmp_path, capsys):
    path = write_obj(tmp_path, _short_count_obj())
    assert main(["enumerate", path]) == 1
    payload = json.loads(capsys.readouterr().out)
    with_error = [entry for entry in payload["results"] if "error" in entry]
    assert len(with_error) == 1
    assert with_error[0]["vertex"] == 2
    assert len(with_error[0]["modules"]) == 1  # partial results still emitted


def test_enumerate_csv_surfaces_count_error(tmp_path, capsys):
    # CSV has no field for the error, so each failing vertex index says so
    # on stderr; stdout lists the partial results as before, and the JSON
    # form, which carries "error", writes nothing to stderr
    path = write_obj(tmp_path, _short_count_obj())
    assert main(["enumerate", path, "--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "vertex,type,case,multiplicity,nonexceptional,exceptional\n"
        "1,4,ii,2,B,3\n"
        "1,5,ii,2,B,3\n"
        "2,2,iii,2,A;B,3\n"
    )
    assert captured.err == (
        "error: enumeration at vertex index 2 returned 1 modules, "
        "expected e = 2\n"
    )
    assert main(["enumerate", path]) == 1
    assert capsys.readouterr().err == ""


def test_enumerate_m1_block(tmp_path, capsys):
    obj = {
        "p": 3,
        "n": 1,
        "e": 2,
        "tree": {
            "vertices": [
                {"id": "A", "sign": "+"},
                {"id": "B", "sign": "-"},
                {"id": "C", "sign": "+"},
            ],
            "exceptional": None,
            "edges": [
                {"id": "E1", "ends": ["A", "B"]},
                {"id": "E2", "ends": ["B", "C"]},
            ],
            "cyclic_order": {"A": ["E1"], "B": ["E1", "E2"], "C": ["E2"]},
        },
        "W": {"indices": []},
    }
    path = write_obj(tmp_path, obj)
    assert main(["enumerate", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m"] == 1
    assert len(payload["pims"]) == 2
    assert len(payload["hooks"]) == 4
    assert all(hook["conditional"] for hook in payload["hooks"])


def _m1_star(p: int) -> BlockDescriptor:
    """A star of e = p - 1 leaves around a plain centre, n = 1: m = 1."""
    leaves = tuple(f"v{x}" for x in range(1, p))
    edge_ids = tuple(f"E{x}" for x in range(1, p))
    return BlockDescriptor(
        p=p,
        n=1,
        e=p - 1,
        vertices=("c",) + leaves,
        signs={"c": -1, **{v: 1 for v in leaves}},
        edges=tuple(Edge(eid, ("c", v)) for eid, v in zip(edge_ids, leaves)),
        cyclic_order={
            "c": edge_ids,
            **{v: (eid,) for v, eid in zip(leaves, edge_ids)},
        },
        exceptional=None,
        w=W(()),
    )


def _m1_trees() -> dict[str, BlockDescriptor]:
    """m = 1 trees (n = 1, e = p - 1): a fixture, a star, and random trees
    at p = 5, 7 and 11 with their exceptional vertex made plain."""
    rng = random.Random(0)
    trees = {"m1-3-1-2": fixtures()["m1-3-1-2"], "star-5": _m1_star(5)}
    for p in (5, 7, 11):
        desc = random_block_descriptor(rng, p, 2, p - 1)
        trees[f"random-{p}"] = replace(desc, n=1, exceptional=None, w=W(()))
    return trees


@pytest.mark.parametrize(
    "desc", [pytest.param(desc, id=name) for name, desc in _m1_trees().items()]
)
def test_enumerate_m1_names_what_the_tree_says(tmp_path, capsys, desc):
    # read off the descriptor alone: one projective per edge naming both
    # ends in descriptor vertex order, one conditional hook per edge end
    # naming that end, and no exceptional part anywhere
    assert validate(desc, strict=True) == [] and desc.m == 1
    pims = [
        {
            "edge": edge.id,
            "character": {
                "nonexceptional": [v for v in desc.vertices if v in edge.ends],
                "exceptional": [],
            },
        }
        for edge in desc.edges
    ]
    hooks = [
        {
            "edge": edge.id,
            "vertex": v,
            "conditional": True,
            "character": {"nonexceptional": [v], "exceptional": []},
        }
        for edge in desc.edges
        for v in edge.ends
    ]
    path = write_obj(tmp_path, descriptor_to_obj(desc))
    assert main(["enumerate", path]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "p": desc.p,
        "n": 1,
        "e": desc.e,
        "m": 1,
        "pims": pims,
        "hooks": hooks,
    }
    found = m1_enumerate(desc)
    assert [pim.edge_id for pim in found.pims] == [edge.id for edge in desc.edges]
    assert [(hook.edge_id, hook.vertex) for hook in found.hooks] == [
        (edge.id, v) for edge in desc.edges for v in edge.ends
    ]
    for hook in found.hooks:
        assert hook.character == vertex_character(desc, hook.vertex)


def test_enumerate_csv(star_file, capsys):
    assert main(["enumerate", star_file, "--vertex", "1", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "vertex,type,case,multiplicity,nonexceptional,exceptional"
    assert lines[1] == "1,2,ii,2,v1,3"


def _relabelled(obj: dict, old: str, new: str) -> dict:
    """A descriptor object with the vertex or edge id `old` renamed `new`
    wherever it appears."""
    obj = copy.deepcopy(obj)
    tree = obj["tree"]
    for entry in tree["vertices"] + tree["edges"]:
        if entry["id"] == old:
            entry["id"] = new
    for edge in tree["edges"]:
        edge["ends"] = [new if v == old else v for v in edge["ends"]]
    if tree["exceptional"] == old:
        tree["exceptional"] = new
    tree["cyclic_order"] = {
        new if v == old else v: [new if x == old else x for x in order]
        for v, order in tree["cyclic_order"].items()
    }
    return obj


@pytest.mark.parametrize(
    "name", ["a,1", "a;1", "a\n1", "a\r1", '"a', "", "a\ud800"]
)
@pytest.mark.parametrize(
    "kind, old, m1",
    [("vertex", "v1", False), ("edge", "E1", True), ("vertex", "a", True)],
)
def test_enumerate_csv_refuses_an_id_it_cannot_hold(
    tmp_path, capsys, name, kind, old, m1
):
    # the ids the CSV view prints: the non-exceptional vertices of an m > 1
    # block, the edges and vertices of an m = 1 block; JSON still prints
    # them all
    desc = fixtures()["m1-3-1-2"] if m1 else star_tree(2, 3, 2, W(()), -1)
    path = write_obj(tmp_path, _relabelled(descriptor_to_obj(desc), old, name))
    assert main(["enumerate", path, "--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {kind} id {name!r} cannot be written")
    assert len(captured.err.splitlines()) == 1
    assert main(["enumerate", path]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("encoding", ["ascii", "ascii:backslashreplace"])
def test_enumerate_csv_refuses_an_id_stdout_cannot_encode(tmp_path, encoding):
    # the ids are encoded as stdout encodes, strictly, whatever its error
    # handler: else the run fails after the rows before the id were written,
    # or prints an escape that a CSV reader reads back as another id
    obj = descriptor_to_obj(star_tree(2, 3, 2, W(()), -1))
    path = write_obj(tmp_path, _relabelled(obj, "v2", "v\u00e9"))
    src = Path(cyclicblocks.cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONIOENCODING": encoding}
    argv = [sys.executable, "-m", "cyclicblocks.cli", "enumerate", path]
    run = subprocess.run(
        argv + ["--format", "csv"], capture_output=True, env=env, timeout=10
    )
    assert run.returncode == 1
    assert run.stdout == b""
    # stderr is ASCII too, and escapes the id's e-acute
    assert run.stderr == (
        b"error: vertex id 'v\\xe9' cannot be written as CSV "
        b"(ascii cannot encode it)\n"
    )
    env["PYTHONIOENCODING"] = "utf-8"
    run = subprocess.run(
        argv + ["--format", "csv"], capture_output=True, env=env, timeout=10
    )
    assert run.returncode == 0
    assert run.stdout.decode("utf-8").splitlines()[-1] == "2,1,,,v\u00e9,"


def test_enumerate_csv_prints_an_id_quoted_inside(tmp_path, capsys):
    # a quote inside an id is read back as it is; the exceptional vertex,
    # which the CSV view never names, may hold anything
    obj = _relabelled(descriptor_to_obj(star_tree(2, 3, 2, W(()), -1)), "v1", 'v"1')
    path = write_obj(tmp_path, _relabelled(obj, "exc", '"e,x;c\n'))
    assert main(["enumerate", path, "--vertex", "1", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == '1,2,ii,2,v"1,3'


def _field(value) -> str:
    """A JSON scalar as the CSV view prints it."""
    return "" if value is None else str(value)


def _listed(field: str) -> list[str]:
    return field.split(";") if field else []


def test_enumerate_csv_reads_back_as_its_json(tmp_path, capsys):
    # six fields a row, one row per JSON module in the same order, and the
    # character columns split at ';' are the JSON lists
    for name, desc in fixtures().items():
        path = write_obj(tmp_path, descriptor_to_obj(desc))
        code = GOLDEN[name][0]
        assert main(["enumerate", path]) == code
        payload = json.loads(capsys.readouterr().out)
        assert main(["enumerate", path, "--format", "csv"]) == code
        header, *rows = csv.reader(io.StringIO(capsys.readouterr().out, newline=""))
        if desc.m == 1:
            expected = [
                ("pim", pim["edge"], "", "", pim["character"])
                for pim in payload["pims"]
            ] + [
                ("hook", hook["edge"], hook["vertex"], "true", hook["character"])
                for hook in payload["hooks"]
            ]
        else:
            expected = [
                (
                    *map(_field, (entry["vertex"], module["type"])),
                    *map(_field, (module["case"], module["multiplicity"])),
                    module["character"],
                )
                for entry in payload["results"]
                for module in entry["modules"]
            ]
        assert len(header) == 6, name
        assert len(rows) == len(expected), name
        for row, (*fields, char) in zip(rows, expected):
            assert len(row) == 6, (name, row)
            assert row[:4] == fields, name
            assert _listed(row[4]) == char["nonexceptional"], name
            assert _listed(row[5]) == list(map(str, char["exceptional"])), name


def test_enumerate_output_is_deterministic(star_file, capsys):
    assert main(["enumerate", star_file]) == 0
    first = capsys.readouterr().out
    assert main(["enumerate", star_file]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert json.loads(json.dumps(payload)) == payload


def test_local_det1(capsys):
    assert main(["local", "det1-char", "--p", "3", "--n", "2", "--w", "1"]) == 0
    assert json.loads(capsys.readouterr().out) == [0, 0, 0, 1, 0, 0, 1, 0, 0]


def test_local_cap_dim(capsys):
    assert (
        main(["local", "cap-dim", "--p", "3", "--n", "3", "--w", "1,2", "--vertex", "3"])
        == 0
    )
    assert json.loads(capsys.readouterr().out) == 7


def test_local_morita_trivial_parameter(capsys):
    assert (
        main(["local", "morita-char", "--p", "3", "--n", "2", "--w", "", "--vertex", "1"])
        == 0
    )
    assert json.loads(capsys.readouterr().out) == [1, 0, 0, 1, 0, 0, 1, 0, 0]


@pytest.mark.parametrize("value", ["1,", ",1", "x"])
def test_local_w_that_lists_no_integers_is_an_argument_error(value):
    argv = ["local", "det1-char", "--p", "3", "--n", "2", "--w", value]
    message = f"invalid argument: --w must be comma-separated integers, got {value!r}\n"
    assert _outcome(main, argv) == (2, "", message)


def test_local_rejects_bad_w(capsys):
    # lists of integers that the closed forms refuse are semantic violations
    assert main(["local", "cap-dim", "--p", "3", "--n", "2", "--w", "2,1", "--vertex", "1"]) == 1
    assert main(["local", "det1-char", "--p", "3", "--n", "2", "--w", "5"]) == 1
    assert main(["local", "cap-dim", "--p", "3", "--n", "2", "--w", "1"]) == 1  # no vertex
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    assert all(line.startswith("invalid parameters: ") for line in err)


@pytest.mark.parametrize(
    "argv",
    [
        ["local", "det1-char", "--p", "3", "--n", "40"],
        ["local", "morita-char", "--p", "3", "--n", "40", "--vertex", "3"],
    ],
)
def test_local_too_large_is_refused_without_traceback(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid parameters: ")
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


def test_enumerate_too_large_is_refused_without_traceback(tmp_path, capsys):
    path = write_obj(tmp_path, descriptor_to_obj(star_tree(2, 3, 40, W(()), -1)))
    assert main(["enumerate", path]) == 1
    captured = capsys.readouterr()
    # the whole line, so that a resized buffer cannot turn the refusal
    # into a MemoryError unnoticed
    assert captured.err == (
        "error: input too large to hold in memory (OverflowError)\n"
    )


def test_enumerate_at_large_n_is_refused_at_once(tmp_path, capsys):
    path = write_obj(tmp_path, descriptor_to_obj(star_tree(2, 3, 10**4, W(()), -1)))
    start = time.process_time()
    assert main(["enumerate", path]) == 1
    cpu = time.process_time() - start
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "too large" in captured.err
    assert cpu < 1.0


@pytest.mark.parametrize("n", [40, 10**4])
def test_enumerate_too_large_is_refused_on_the_lattice_path(tmp_path, capsys, n):
    # at e = 6 > 2 the orbits would be marked along lattice lines, so the
    # refusal has to come before any reduction or line buffer
    path = write_obj(tmp_path, descriptor_to_obj(star_tree(6, 7, n, W(()), -1)))
    start = time.process_time()
    assert main(["enumerate", path]) == 1
    cpu = time.process_time() - start
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: input too large to hold in memory (OverflowError)\n"
    )
    assert cpu < 1.0


def test_huge_n_is_decided_without_forming_p_to_the_n(tmp_path):
    # p^n at n = 10^8 takes minutes to form: validate decides m > 1 from
    # (p, n, e) alone, and enumerate refuses p^n beyond sys.maxsize from
    # its bit length
    obj = descriptor_to_obj(star_tree(2, 3, 2, W(()), -1))
    obj["n"] = 10**8
    path = write_obj(tmp_path, obj)
    src = Path(cyclicblocks.cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    runs = {
        command: subprocess.run(
            [sys.executable, "-m", "cyclicblocks.cli", command, path],
            capture_output=True,
            env=env,
            timeout=10,
        )
        for command in ("validate", "enumerate")
    }
    assert runs["validate"].returncode == 0
    assert runs["validate"].stdout == b""
    assert runs["enumerate"].returncode == 1
    assert runs["enumerate"].stdout == b""
    assert runs["enumerate"].stderr == (
        b"error: input too large to hold in memory (OverflowError)\n"
    )


def _cli_process(*argv):
    src = Path(cyclicblocks.cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, "-m", "cyclicblocks.cli", *argv],
        capture_output=True,
        env=env,
        timeout=10,
    )


@pytest.mark.parametrize("command", ["enumerate", "local"])
def test_a_reader_that_closes_stdout_early_ends_the_run_quietly(tmp_path, command):
    # each prints far more than a pipe holds, so the write after the close
    # fails: exit 1 with nothing on stderr, neither from the command nor
    # from the flush at shutdown
    desc = random_block_descriptor(random.Random(0), 41, 2, 40)
    argv = {
        "enumerate": ["enumerate", write_obj(tmp_path, descriptor_to_obj(desc))],
        "local": ["local", "det1-char", "--p", "3", "--n", "12"],
    }[command]
    src = Path(cyclicblocks.cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    with subprocess.Popen(
        [sys.executable, "-m", "cyclicblocks.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert len(proc.stdout.read(1024)) == 1024
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""


@pytest.mark.parametrize(
    "operation", [["det1-char"], ["morita-char", "--vertex", "1"]]
)
def test_local_characters_at_huge_n_are_refused_at_once(operation):
    # both print p^n entries: refused from the bit length of p^n, before
    # any closed form runs over the n + 1 levels
    done = _cli_process("local", *operation, "--p", "3", "--n", str(10**8))
    assert done.returncode == 1
    assert done.stdout == b""
    assert done.stderr == (
        b"invalid parameters: p^n = 3^100000000 is too large to hold in memory\n"
    )


def test_local_cap_dim_at_huge_n_is_answered():
    # the cap dimension is read off the cut indices, so neither the n + 1
    # levels nor a power of p up to p^n is formed
    done = _cli_process(
        "local", "cap-dim", "--p", "3", "--n", str(10**6), "--vertex", "1"
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, b"1\n", b"")


def test_local_cap_dim_builds_no_levels(monkeypatch, capsys):
    # at n = 10^7 the n + 1 levels took seconds and a quarter gigabyte
    def no_levels(n, cuts):
        raise AssertionError("levels built")

    monkeypatch.setattr(cyclicblocks.local_reps, "_perm_sum_levels", no_levels)
    argv = ["local", "cap-dim", "--p", "3", "--n", str(10**7), "--vertex", "1"]
    assert main(argv) == 0
    assert capsys.readouterr() == ("1\n", "")
    w, g = EndoPermParams((1, 5)), CyclicGroupData(3, 10**7)
    assert cap_dim(w, g, 10**4) == 1 + 3**9999 - 3**9995


def test_local_cap_dim_prints_past_the_decimal_conversion_limit(capsys):
    limit = sys.get_int_max_str_digits()
    argv = ["local", "cap-dim", "--p", "3", "--n", "10000", "--vertex", "10000"]
    assert main([*argv, "--w", "1,5"]) == 0
    assert sys.get_int_max_str_digits() == limit
    out = capsys.readouterr().out
    sys.set_int_max_str_digits(0)
    try:
        assert out == f"{1 + 3**9999 - 3**9995}\n"
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(out) == 4771 + 1  # past the default limit of 4300 digits


def test_local_cap_dim_refuses_a_huge_answer_at_once(capsys):
    # 3^999999 has 477 121 digits: refused from p and the cut indices, at
    # once, with the digit count named
    start = time.process_time()
    argv = ["local", "cap-dim", "--p", "3", "--n", str(10**6), "--vertex", str(10**6)]
    assert main([*argv, "--w", "1,5,999999"]) == 1
    assert time.process_time() - start < 0.5
    assert capsys.readouterr() == (
        "",
        "invalid parameters: the cap dimension has about 477121 decimal "
        "digits, more than the 100000 that are printed\n",
    )


def test_local_cap_dim_at_a_large_prime(capsys):
    argv = ["local", "cap-dim", "--p", str(2**61 - 1), "--n", "1", "--vertex", "1"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "1\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("vertex", ["7", "0"])
def test_enumerate_m1_rejects_vertex_outside_range(tmp_path, capsys, vertex, fmt):
    m1 = BlockDescriptor(
        p=3,
        n=1,
        e=2,
        vertices=("A", "B", "C"),
        signs={"A": 1, "B": -1, "C": 1},
        edges=(Edge("E1", ("A", "B")), Edge("E2", ("B", "C"))),
        cyclic_order={"A": ("E1",), "B": ("E1", "E2"), "C": ("E2",)},
        exceptional=None,
        w=W(()),
    )
    path = write_obj(tmp_path, descriptor_to_obj(m1))
    assert main(["enumerate", path, "--vertex", vertex, "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: vertex index {vertex} outside 1..1\n"
    assert main(["enumerate", path, "--vertex", "1", "--format", fmt]) == 0


# Strings JSON must escape, among arbitrary text.
_IDS = st.text(max_size=6) | st.sampled_from(['q"uote', "back\\slash", "\u00fc\u03bb"])
_INTS = st.integers() | st.integers(min_value=10**20)


@st.composite
def _enumerate_results(draw):
    """A descriptor stand-in, per vertex index results and the orbit table
    as `cmd_enumerate` hands them to the writer: admitted anchor groups of
    the real schema with arbitrary ids and numbers, each a verdict, one to
    three paths sharing the group's spine objects and a character;
    exceptional level vectors that vanish below a lowest level `low`,
    representatives with their levels less `low`, and level vectors and
    spines drawn from small pools so that one exceptional part, and one
    spine object, is printed by several groups of a call.  The characters
    name no orbit table: the writer reads the one it is handed."""
    names = tuple(draw(st.lists(_IDS, max_size=4)))
    reps = tuple(sorted(draw(st.sets(_INTS, max_size=6))))
    n = draw(st.integers(1, 3))
    low = draw(st.integers(0, n - 1))
    orbit_levels = bytes(
        draw(
            st.lists(
                st.integers(0, n - 1 - low), min_size=len(reps), max_size=len(reps)
            )
        )
    )
    vectors = st.lists(
        st.sampled_from((0, 1)), min_size=n - low, max_size=n - low
    ).map(lambda upper: bytes(low) + bytes(upper))
    pool = draw(st.lists(vectors, min_size=1, max_size=3))
    ids = st.lists(_IDS, max_size=3).map(tuple)
    # spine tuples from a small pool of shared objects, so that groups with
    # one spine object and different verdicts or characters meet in one
    # call, and a spine object can stand for a group's edges too
    spines = st.sampled_from(draw(st.lists(ids, min_size=1, max_size=3)))
    directions = st.sampled_from(((0, 0), (1, -1))) | st.tuples(_INTS, _INTS)

    def group():
        verdict = (draw(st.none() | _IDS), draw(st.none() | _INTS))
        spine_vertices, spine_edges = draw(spines), draw(spines | ids)
        paths = tuple(
            (draw(_INTS), spine_vertices, spine_edges, draw(ids), draw(directions))
            for _ in range(draw(st.integers(1, 3)))
        )
        plain = draw(
            st.lists(st.sampled_from((0, 1)), min_size=len(names), max_size=len(names))
        )
        levels = draw(st.sampled_from(pool))
        return verdict, paths, BlockCharacter(tuple(plain), levels, ())

    results = [
        (
            draw(_INTS),
            [group() for _ in range(draw(st.integers(0, 3)))],
            draw(st.none() | _IDS),
        )
        for _ in range(draw(st.integers(0, 3)))
    ]
    head = {key: draw(_INTS) for key in ("p", "n", "e", "m")}
    desc = SimpleNamespace(**head, nonexceptional_vertices=names)
    return desc, results, reps, orbit_levels, low


def _payload(desc, results, reps, orbit_levels, low):
    """The data the writer prints, as the dicts json.dumps would take: one
    module per path of each group, with the group's verdict and character;
    a representative at level `low + v` is printed where the character's
    value at that level is non-zero."""

    def listed(values, selectors):
        return list(itertools.compress(values, selectors))

    def exceptional(char):
        return listed(reps, [char.levels[low + v] for v in orbit_levels])

    def module(verdict, path, char):
        type_tag, spine_vertices, spine_edges, extra_edges, direction = path
        return {
            "type": type_tag,
            "case": verdict[0],
            "multiplicity": verdict[1],
            "path": {
                "spine_vertices": list(spine_vertices),
                "spine_edges": list(spine_edges),
                "extra_edges": list(extra_edges),
                "direction": list(direction),
            },
            "character": {
                "nonexceptional": listed(
                    desc.nonexceptional_vertices, char.nonexceptional
                ),
                "exceptional": exceptional(char),
            },
        }

    def entry(i, groups, error):
        out = {
            "vertex": i,
            "modules": [
                module(verdict, path, char)
                for verdict, paths, char in groups
                for path in paths
            ],
        }
        if error is not None:
            out["error"] = error
        return out

    head = {key: getattr(desc, key) for key in ("p", "n", "e", "m")}
    return {**head, "results": [entry(*result) for result in results]}


@settings(max_examples=100, deadline=None)
@given(_enumerate_results())
def test_enumerate_writer_matches_json_dumps(drawn):
    desc, results, reps, orbit_levels, low = drawn
    expected = json.dumps(_payload(*drawn), indent=2) + "\n"
    text = _enumerate_text(desc, results, reps, orbit_levels, low, "json")
    assert "".join(text) == expected


def test_enumerate_writer_renders_each_field_of_a_shared_spine():
    # one spine object, and the one empty tuple, carried by groups whose
    # verdicts and characters differ and by paths whose extra edges and
    # directions differ; the spine object also stands for a group's edges:
    # each list is rendered from its own tuple
    desc = SimpleNamespace(p=3, n=1, e=2, m=2, nonexceptional_vertices=("v1", "v2"))
    spine = ("v1",)
    # reps 5 and 6 sit at levels 0 and 1
    chars = [
        BlockCharacter((1, 0), b"\x01\x00", ()),
        BlockCharacter((0, 0), b"\x00\x01", ()),
    ]
    groups = [
        (("ii", 2), ((3, (), ("E1",), (), (-1, 1)),), chars[0]),
        (("i", 1), ((7, (), (), ("E1", "E2"), (0, 0)),), chars[1]),
        (("ii", 2), ((2, spine, ("E1",), (), (1, -1)),), chars[0]),
        (
            ("iv", 2),
            (
                (4, spine, spine, ("E2",), (1, 1)),
                (5, spine, spine, ("E3",), (0, 0)),
                (6, spine, spine, ("E2", "E3"), (-1, 1)),
            ),
            chars[1],
        ),
    ]
    results = [(1, groups, None)]
    table = (5, 6), b"\x00\x01", 0
    expected = json.dumps(_payload(desc, results, *table), indent=2) + "\n"
    assert "".join(_enumerate_text(desc, results, *table, "json")) == expected


def test_enumerate_writer_cache_lasts_one_call():
    desc = SimpleNamespace(p=3, n=1, e=2, m=2, nonexceptional_vertices=())
    group = (
        ("ii", 2),
        ((2, (), ("E1",), (), (1, -1)), (4, (), ("E1",), ("E2",), (1, 1))),
        BlockCharacter((), b"\x01\x00", ()),
    )
    results = [(1, [group], None)]
    for reps in ((5, 6), (7, 8)):
        table = reps, b"\x00\x01", 0
        as_json = json.loads("".join(_enumerate_text(desc, results, *table, "json")))
        for module in as_json["results"][0]["modules"]:
            assert module["character"]["exceptional"] == [reps[0]]
        as_csv = "".join(_enumerate_text(desc, results, *table, "csv"))
        assert as_csv.endswith(f"1,2,ii,2,,{reps[0]}\n1,4,ii,2,,{reps[0]}\n")


def test_enumerate_writer_holds_one_head_piece_per_group():
    # a group's case, multiplicity and spine text is one piece, which its
    # modules share rather than each holding a copy
    desc = SimpleNamespace(p=3, n=1, e=2, m=2, nonexceptional_vertices=("v1",))
    group = (
        ("ii", 2),
        ((2, ("v1",), ("E1",), (), (1, -1)), (4, ("v1",), ("E1",), ("E2",), (1, 1))),
        BlockCharacter((1,), b"\x01\x00", ()),
    )
    pieces = _enumerate_text(desc, [(1, [group], None)], (5, 6), b"\x00\x01", 0, "json")
    heads = [piece for piece in pieces if '"spine_vertices"' in piece]
    assert len(heads) == 2
    assert heads[0] is heads[1]


def test_enumerate_renders_the_bundle_once(monkeypatch):
    # at the full vertex a trivial parameter gives a hook per edge; with a
    # positive exceptional centre every one of them affords the bundle
    star = star_tree(4, 5, 2, W(()), 1)
    [(_, groups, _)] = enumerate_block(star, (2,))
    bundle = vertex_character(star, star.exceptional)
    hooks = [char for _, paths, char in groups if paths[0][0] == 1]
    assert len(hooks) == 4
    assert all(char.levels == bundle.levels for char in hooks)
    selectors = []
    real = itertools.compress

    def spy(data, chosen):
        selectors.append((data, chosen))
        return real(data, chosen)

    monkeypatch.setattr(cyclicblocks.cli, "compress", spy)
    orbits = exceptional_orbits(5, 2, 4)
    table = orbits.representatives, orbits.levels, 0
    _enumerate_text(star, [(2, groups, None)], *table, "json")
    # one exceptional mask per distinct level vector, the bundle's among
    # them: the masks passed alongside the representatives' text
    rep_text = tuple(map(str, orbits.representatives))
    masks = [chosen for data, chosen in selectors if data == rep_text]
    assert len(masks) == len({char.levels for *_, char in groups})
    assert masks.count(bytes(bundle.exceptional)) == 1


def _enumerate_pieces(desc, fmt):
    """The pieces `cmd_enumerate` hands the writer for every vertex index,
    with the orbit table from the lowest printed level."""
    results = enumerate_block(desc, range(1, desc.n + 1))
    parts = [char.levels for _, groups, _ in results for *_, char in groups]
    low = min(len(part) - len(part.lstrip(b"\0")) for part in parts if any(part))
    reps, orbit_levels = orbits_from_level(desc.p, desc.n, desc.e, low)
    return results, _enumerate_text(desc, results, reps, orbit_levels, low, fmt)


def test_enumerate_writer_copies_no_exceptional_list():
    # every module that prints one non-empty exceptional part holds the
    # same body object, joined once, and no piece holds a bracketed copy
    # of it; the pieces are the golden text
    for name in ("random-3-9-2", "random-3-9-2-flipped", "random-13-4-12"):
        desc = fixtures()[name]
        orbits = exceptional_orbits(desc.p, desc.n, desc.e)
        for fmt, column, sep in (("json", 1, ",\n              "), ("csv", 2, ";")):
            results, pieces = _enumerate_pieces(desc, fmt)
            text = "".join(pieces)
            assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name][column]
            printed = {}
            for _, groups, _ in results:
                for _, paths, char in groups:
                    printed[char.levels] = printed.get(char.levels, 0) + len(paths)
            assert any(map(any, printed)), name
            for levels, modules in printed.items():
                if not any(levels):
                    continue
                body = sep.join(
                    str(r)
                    for r, v in zip(orbits.representatives, orbits.levels)
                    if levels[v]
                )
                held = [piece for piece in pieces if piece == body]
                assert len(held) == modules, (name, fmt)
                assert all(piece is held[0] for piece in held), (name, fmt)
                bracketed = f"[\n              {body}\n            ]"
                assert not any(bracketed in piece for piece in pieces), name


class _RecordingStream(io.StringIO):
    """A text stream that keeps the length of every write."""

    def __init__(self) -> None:
        super().__init__()
        self.writes: list[int] = []

    def write(self, text: str) -> int:
        self.writes.append(len(text))
        return super().write(text)


def test_enumerate_streams_its_output(tmp_path, monkeypatch):
    # the pieces go to stdout as they are: no write holds the whole output,
    # and together they are the golden text
    desc = fixtures()["random-3-9-2"]
    path = write_obj(tmp_path, descriptor_to_obj(desc))
    for argv, digest in (
        (["enumerate", path], GOLDEN["random-3-9-2"][1]),
        (["enumerate", path, "--format", "csv"], GOLDEN["random-3-9-2"][2]),
    ):
        stream = _RecordingStream()
        monkeypatch.setattr(sys, "stdout", stream)
        assert main(argv) == 0
        monkeypatch.undo()
        text = stream.getvalue()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
        assert len(stream.writes) > 1
        assert max(stream.writes) < len(text)


def test_enumerate_failing_at_the_last_vertex_index_prints_nothing(tmp_path):
    # a character that fails at the last vertex index fails the process
    # before its first write: exit code 1, stdout empty
    desc = fixtures()["random-3-9-2"]
    path = write_obj(tmp_path, descriptor_to_obj(desc))
    script = f"""
import sys
import cyclicblocks.classification as classification
import cyclicblocks.cli as cli
from cyclicblocks.local_reps import CharacterConsistencyError

real = classification.character_of

def failing(desc, i, path):
    if i == desc.n:
        raise CharacterConsistencyError("injected at the last vertex index")
    return real(desc, i, path)

classification.character_of = failing
sys.exit(cli.main(["enumerate", {path!r}]))
"""
    src = Path(cyclicblocks.cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, env=env, timeout=120
    )
    assert done.returncode == 1
    assert done.stdout == b""
    assert b"injected at the last vertex index" in done.stderr


def test_enumerate_prints_the_golden_text_in_optimised_mode(tmp_path):
    # python -O strips assert statements; the sharing of one character per
    # admitted anchor, the per-descriptor sweep's 0/1 and count-law checks
    # and the bracket pieces around each exceptional list rest on none of
    # them, so both formats still print the golden text: hooks at index n
    # in JSON, shape 3 in CSV, the deepest n in JSON with parts non-zero at
    # level 0, and e = 12 at n = 4 in CSV with parts zero there
    script = (
        "import sys, cyclicblocks.cli as cli; print(__debug__); "
        "sys.exit(cli.main(sys.argv[1:]))"
    )
    src = Path(cyclicblocks.cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    for name, fmt, column in (
        ("random-67-2-66", "json", 1),
        ("random-101-2-100", "csv", 2),
        ("random-3-9-2", "json", 1),
        ("random-13-4-12-flipped", "csv", 2),
    ):
        obj = descriptor_to_obj(fixtures()[name])
        path = write_obj(tmp_path, obj, f"{name}.json")
        done = subprocess.run(
            [sys.executable, "-O", "-c", script, "enumerate", path, "--format", fmt],
            capture_output=True,
            env=env,
            timeout=120,
        )
        assert done.returncode == GOLDEN[name][0], done.stderr
        debug, _, text = done.stdout.partition(b"\n")
        assert debug == b"False"
        assert hashlib.sha256(text).hexdigest() == GOLDEN[name][column], name


def _round_trip_descriptors():
    yield from fixtures().items()
    corpus = random_corpus(primes=(3, 5, 7, 11), n_max=3, seed=23, count=20)
    yield from ((f"corpus{k:02d}", desc) for k, desc in enumerate(corpus))


def test_enumerate_json_is_what_json_dumps_writes(tmp_path):
    # independent of the payload: whatever enumerate prints, it is laid out
    # exactly as json.dumps(..., indent=2) lays out the same data
    for name, desc in _round_trip_descriptors():
        path = write_obj(tmp_path, descriptor_to_obj(desc), f"{name}.json")
        out = io.StringIO()
        with redirect_stdout(out):
            main(["enumerate", path])
        text = out.getvalue()
        assert text == json.dumps(json.loads(text), indent=2) + "\n", name


def _printed_path(module):
    """The path descriptor a printed enumerate module describes."""
    path = module["path"]
    return PathDescriptor(
        module["type"],
        tuple(path["spine_vertices"]),
        tuple(path["spine_edges"]),
        tuple(path["extra_edges"]),
        tuple(path["direction"]),
        module["multiplicity"],
        module["case"],
    )


def test_enumerate_shares_one_character_per_anchor_rightly(tmp_path):
    # enumerate assembles one character per admitted anchor; every printed
    # module must still carry the character of its own path: its lists are
    # the non-zero coordinates of character_of on the path it prints, and
    # the paths are enumerate_trivial_source's, partial lists included
    descriptors = [
        *_round_trip_descriptors(),
        ("short-count", descriptor_from_obj(_short_count_obj())),
    ]
    seen = set()
    for name, desc in descriptors:
        if desc.m == 1:
            continue
        path = write_obj(tmp_path, descriptor_to_obj(desc), f"{name}.json")
        out = io.StringIO()
        with redirect_stdout(out):
            main(["enumerate", path])
        plain = desc.nonexceptional_vertices
        reps = exceptional_orbits(desc.p, desc.n, desc.e).representatives
        for entry in json.loads(out.getvalue())["results"]:
            i = entry["vertex"]
            try:
                expected = enumerate_trivial_source(desc, i)
            except ClassificationError as err:
                expected = err.paths
                assert entry["error"] == str(err), name
            printed = [_printed_path(module) for module in entry["modules"]]
            assert printed == expected, (name, i)
            for module, own in zip(entry["modules"], printed):
                char = character_of(desc, i, own)
                assert module["character"] == {
                    "nonexceptional": list(
                        itertools.compress(plain, char.nonexceptional)
                    ),
                    "exceptional": list(itertools.compress(reps, char.exceptional)),
                }, (name, i, own)
                seen.add("e = 1" if desc.e == 1 else own.type_tag)
            if "error" in entry:
                seen.add("count error")
    # one-edge blocks, hooks, both exceptional shapes, the spine shapes with
    # several paths per anchor and the count error all came by
    assert {"e = 1", 1, 3, 4, 5, 6, 7, "count error"} <= seen


def test_oracle_small_grid(capsys):
    assert main(["oracle", "--primes", "3", "--nmax", "1", "--seed", "1", "--corpus-size", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks_run"] > 0
    assert payload["failures"] == []


def test_oracle_fault_injection(capsys):
    code = main(
        [
            "oracle",
            "--primes",
            "3",
            "--nmax",
            "2",
            "--seed",
            "1",
            "--corpus-size",
            "0",
            "--inject-fault",
        ]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert any(f["check"] == "cap_dim vs recursive" for f in payload["failures"])


@pytest.mark.parametrize(
    "argv, argument",
    [
        (["--nmax", "0"], "--nmax"),
        (["--nmax", "-1"], "--nmax"),
        (["--primes", "4"], "--primes"),
        (["--primes", "2"], "--primes"),
        (["--corpus-size", "-3"], "--corpus-size"),
        (
            ["--primes", "3317044064679887385961981"],
            "--primes: p = 3317044064679887385961981 is not below ",
        ),
    ],
)
def test_oracle_rejects_bad_arguments(capsys, argv, argument):
    assert main(["oracle", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert argument in captured.err
    assert "Traceback" not in captured.err


def _through_the_tree(argv):
    args = cyclicblocks.cli.build_parser().parse_args(argv)
    return args.func(args)


# Help, usage errors, abbreviations and "--" for every command; FILE stands
# for a valid descriptor file.
_PARSE_CASES = {
    "no-args": [],
    "help": ["-h"],
    "help-long": ["--help"],
    "unknown-command": ["frobnicate"],
    "help-before-command": ["-h", "enumerate"],
    "dashes-before-command": ["--", "enumerate", "FILE"],
    "validate-help": ["validate", "-h"],
    "validate-no-file": ["validate"],
    "validate-missing-file": ["validate", "missing.json"],
    "validate-unknown-flag": ["validate", "FILE", "--foo"],
    "validate-abbreviation": ["validate", "FILE", "--str"],
    "validate-dashes": ["validate", "--", "FILE"],
    "enumerate-help": ["enumerate", "--help"],
    "enumerate-missing-file": ["enumerate", "missing.json"],
    "enumerate-unknown-flag": ["enumerate", "FILE", "--foo"],
    "enumerate-extra-positional": ["enumerate", "FILE", "extra"],
    "enumerate-vertex-not-int": ["enumerate", "FILE", "--vertex", "x"],
    "enumerate-vertex-and-all": ["enumerate", "FILE", "--vertex", "1", "--all"],
    "enumerate-bad-format": ["enumerate", "FILE", "--format", "xml"],
    "enumerate-abbreviation": ["enumerate", "FILE", "--vert", "1"],
    "enumerate-dashes": ["enumerate", "--", "FILE"],
    "enumerate-trailing-dashes": ["enumerate", "FILE", "--"],
    "local-help": ["local", "-h"],
    "local-no-args": ["local"],
    "local-bad-operation": ["local", "bogus", "--p", "3", "--n", "2"],
    "local-n-not-int": ["local", "cap-dim", "--p", "3", "--n", "x"],
    "local-bad-w": ["local", "cap-dim", "--p", "3", "--n", "2", "--w", "2,1", "--vertex", "1"],
    "local-abbreviation": ["local", "cap-dim", "--p", "3", "--n", "2", "--vert", "1"],
    "local-extra-positional": ["local", "det1-char", "--p", "3", "--n", "2", "extra"],
    "local-dashes": ["local", "det1-char", "--p", "3", "--n", "2", "--"],
    "oracle-help": ["oracle", "-h"],
    "oracle-nmax-no-value": ["oracle", "--nmax"],
    "oracle-primes-no-value": ["oracle", "--primes"],
    "oracle-nmax-zero": ["oracle", "--nmax", "0"],
    "oracle-unknown-flag": ["oracle", "--primes", "3", "--nmax", "1", "--bogus"],
    "oracle-abbreviation": ["oracle", "--prim", "3", "--nm", "1", "--corpus", "1"],
    "oracle-dashes": ["oracle", "--primes", "3", "--", "--nmax", "1"],
}


@pytest.mark.parametrize("argv", _PARSE_CASES.values(), ids=_PARSE_CASES.keys())
def test_main_parses_as_the_command_tree_does(star_file, argv):
    argv = [star_file if arg == "FILE" else arg for arg in argv]
    assert _outcome(main, argv) == _outcome(_through_the_tree, argv)


_WELL_FORMED_CALLS = {
    "validate": ["validate", "FILE", "--strict"],
    "enumerate": ["enumerate", "FILE", "--vertex", "1", "--format", "csv"],
    "enumerate-file": ["enumerate", "FILE"],
    "local": ["local", "morita-char", "--p", "3", "--n", "2", "--vertex", "1"],
    "oracle": ["oracle", "--primes", "3", "--nmax", "1", "--corpus-size", "1"],
}


@pytest.mark.parametrize(
    "argv", _WELL_FORMED_CALLS.values(), ids=_WELL_FORMED_CALLS.keys()
)
def test_well_formed_call_builds_no_parser(monkeypatch, star_file, argv):
    built = []
    build = cyclicblocks.cli.build_parser

    def counted():
        built.append(True)
        return build()

    monkeypatch.setattr(cyclicblocks.cli, "build_parser", counted)
    argv = [star_file if arg == "FILE" else arg for arg in argv]
    code, _, err = _outcome(main, argv)
    assert (code, err) == (0, "")
    assert built == []


# Valid calls of every command that the fuzz test below mutates; FILE stands
# for a valid descriptor file.
_ARGV_BASES = (
    ("validate", "FILE", "--strict"),
    ("enumerate", "FILE", "--vertex", "1", "--format", "csv"),
    ("local", "morita-char", "--p", "3", "--n", "2", "--w", "1", "--vertex", "2"),
    ("oracle", "--primes", "3", "--nmax", "1", "--seed", "2", "--corpus-size", "1"),
)
# What an insertion adds: a token (a flag of any command, an unknown flag,
# "--", an empty string, a negative, non-integer or small value) or a flag
# with its value, so that some calls stay well formed and reach the
# command.  A value that lands after --nmax, --n or --corpus-size is at most
# 2, 3 and 3, and the only primes are small, so that no example starts a
# large grid.
_ARGV_TOKENS = st.sampled_from(
    [
        *cyclicblocks.cli.COMMANDS,
        "FILE", "-h", "--strict", "--vertex", "--all", "--format", "json",
        "csv", "cap-dim", "det1-char", "morita-char", "--p", "--n", "--w",
        "--primes", "--nmax", "--seed", "--corpus-size", "--inject-fault",
        "--foo", "-x", "--vert", "--", "", "-1", "0", "1", "2", "x", "1.5",
        "1,", "2,1", ",",
    ]
).map(lambda token: (token,)) | st.sampled_from(
    [
        ("--primes", "3", "5"), ("--primes", "-3"), ("--primes", "1"),
        ("--p", "7"), ("--p", "1"), ("--p", "-3"), ("--n", "3"), ("--n", "0"),
        ("--n", "-1"), ("--w", "1,"), ("--w", "2,1"), ("--w", "-1"),
        ("--w", "5"), ("--vertex", "0"), ("--vertex", "-1"), ("--vertex", "3"),
        ("--nmax", "2"), ("--nmax", "0"), ("--corpus-size", "3"),
        ("--corpus-size", "-1"), ("--seed", "-1"), ("--format", "json"),
    ]
)


@st.composite
def _mutated_argv(draw):
    """A valid call with one to three mutations, each of which drops,
    repeats, swaps or inserts tokens."""
    rng = draw(st.randoms(use_true_random=False))
    argv = list(rng.choice(_ARGV_BASES))
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(("drop", "repeat", "swap", "insert"))
        if kind == "insert" or not argv:
            k = rng.randint(0, len(argv))
            argv[k:k] = draw(_ARGV_TOKENS)
            continue
        k = rng.randrange(len(argv))
        if kind == "drop":
            del argv[k]
        elif kind == "repeat":
            argv.insert(k, argv[k])
        else:
            j = rng.randrange(len(argv))
            argv[j], argv[k] = argv[k], argv[j]
    return argv


@pytest.mark.parametrize(
    "argv",
    [
        *_ARGV_BASES,
        ("enumerate", "FILE"),
        ("enumerate", "FILE", "--all", "--format", "json"),
        ("oracle",),
    ],
    ids=" ".join,
)
def test_read_call_returns_what_the_commands_parser_does(argv):
    args = cyclicblocks.cli._read_call(list(argv))
    assert args is not None
    tree = _fields(cyclicblocks.cli.build_parser().parse_args)
    assert vars(args) == tree(list(argv))


# Calls the reader leaves to argparse: each is a valid call but for one
# token that is not exact.
_INEXACT_CALLS = {
    "no-command": [],
    "unknown-command": ["frobnicate", "FILE"],
    "help": ["enumerate", "FILE", "-h"],
    "dashes": ["enumerate", "--", "FILE"],
    "abbreviation": ["enumerate", "FILE", "--vert", "1"],
    "option-equals-value": ["enumerate", "FILE", "--format=csv"],
    "repeat": ["enumerate", "FILE", "--all", "--all"],
    "negative-value": ["enumerate", "FILE", "--vertex", "-1"],
    "empty-value": ["local", "det1-char", "--p", "3", "--n", "2", "--w", ""],
    "no-value": ["enumerate", "FILE", "--vertex"],
    "not-an-int": ["enumerate", "FILE", "--vertex", "x"],
    "not-a-choice": ["enumerate", "FILE", "--format", "xml"],
    "positional-not-a-choice": ["local", "bogus", "--p", "3", "--n", "2"],
    "exclusive-pair": ["enumerate", "FILE", "--vertex", "1", "--all"],
    "required-missing": ["local", "det1-char", "--p", "3"],
    "no-positional": ["enumerate", "--all"],
    "empty-positional": ["validate", ""],
    "extra-positional": ["validate", "FILE", "FILE"],
    "dash-positional": ["validate", "-"],
    "nargs-not-an-int": ["oracle", "--primes", "3", "x"],
    "nargs-no-value": ["oracle", "--primes", "--nmax", "1"],
}


@pytest.mark.parametrize(
    "argv", _INEXACT_CALLS.values(), ids=_INEXACT_CALLS.keys()
)
def test_read_call_leaves_inexact_calls_to_argparse(argv):
    assert cyclicblocks.cli._read_call(argv) is None


def _fields(parse):
    """A call for `_outcome` that returns the fields parse(argv) reads,
    less the tree's `command`."""

    def fields(argv):
        read = vars(parse(argv))
        read.pop("command", None)
        return read

    return fields


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    obj = descriptor_to_obj(star_tree(2, 3, 2, W((1,)), -1))
    return write_obj(tmp_path_factory.mktemp("argv"), obj)


@settings(max_examples=150, derandomize=True, deadline=timedelta(seconds=2))
@given(_mutated_argv())
def test_mutated_argv_exit_0_1_or_2_without_traceback(fuzz_file, argv):
    argv = [fuzz_file if arg == "FILE" else arg for arg in argv]
    code, _, err = _outcome(main, argv)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err, argv


@settings(max_examples=300, derandomize=True, deadline=timedelta(seconds=2))
@given(_mutated_argv())
def test_main_reads_mutated_argv_as_the_command_tree_does(fuzz_file, argv):
    # main's parse: the exact reader, else the tree
    argv = [fuzz_file if arg == "FILE" else arg for arg in argv]
    main_parse = _fields(cyclicblocks.cli._parse)
    tree = _fields(cyclicblocks.cli.build_parser().parse_args)
    assert _outcome(main_parse, argv) == _outcome(tree, argv), argv
