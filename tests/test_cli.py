import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclicblocks.brauer_tree import star_tree
from cyclicblocks.cli import (
    _enumerate_text,
    _Exceptional,
    descriptor_from_obj,
    descriptor_to_obj,
    main,
)
from cyclicblocks.local_reps import EndoPermParams

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
    ],
    ids=[
        "one-end", "exceptional-list", "p-bool", "p-float", "index-bool",
        "unknown-cyclic-order-key", "edge-id-list", "cyclic-order-list",
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
    from cyclicblocks.brauer_tree import group_algebra_block

    path = write_obj(tmp_path, descriptor_to_obj(group_algebra_block(3, 2)))
    assert main(["enumerate", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [entry["vertex"] for entry in payload["results"]] == [1, 2]
    first = payload["results"][0]["modules"][0]
    assert first["character"]["nonexceptional"] == ["chi1"]
    assert first["character"]["exceptional"] == [3, 6]


def test_enumerate_surfaces_count_error(tmp_path, capsys):
    obj = {
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
    path = write_obj(tmp_path, obj)
    assert main(["enumerate", path]) == 1
    payload = json.loads(capsys.readouterr().out)
    with_error = [entry for entry in payload["results"] if "error" in entry]
    assert len(with_error) == 1
    assert with_error[0]["vertex"] == 2
    assert len(with_error[0]["modules"]) == 1  # partial results still emitted


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


def test_enumerate_csv(star_file, capsys):
    assert main(["enumerate", star_file, "--vertex", "1", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "vertex,type,case,multiplicity,nonexceptional,exceptional"
    assert lines[1] == "1,2,ii,2,v1,3"


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


def test_local_rejects_bad_w(capsys):
    assert main(["local", "cap-dim", "--p", "3", "--n", "2", "--w", "2,1", "--vertex", "1"]) == 1
    assert main(["local", "det1-char", "--p", "3", "--n", "2", "--w", "5"]) == 1
    assert main(["local", "cap-dim", "--p", "3", "--n", "2", "--w", "1"]) == 1  # no vertex


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
    assert captured.err.startswith("error: input too large to hold in memory")
    assert "Traceback" not in captured.err


# Strings JSON must escape, among arbitrary text.
_IDS = st.text(max_size=6) | st.sampled_from(['q"uote', "back\\slash", "\u00fc\u03bb"])
_INTS = st.integers() | st.integers(min_value=10**20)


@st.composite
def _enumerate_payloads(draw):
    """Payloads of both enumerate shapes, with exceptional parts drawn from a
    small pool so that the writer's cache is hit."""
    reps = tuple(sorted(draw(st.sets(_INTS, max_size=6))))
    coords = st.lists(st.sampled_from((0, 1)), min_size=len(reps), max_size=len(reps))
    pool = draw(st.lists(coords.map(tuple), min_size=1, max_size=3))

    def character():
        return {
            "nonexceptional": draw(st.lists(_IDS, max_size=3)),
            "exceptional": _Exceptional(draw(st.sampled_from(pool))),
        }

    def some(make):
        return [make() for _ in range(draw(st.integers(0, 3)))]

    head = {key: draw(_INTS) for key in ("p", "n", "e", "m")}
    if draw(st.booleans()):
        pims = some(lambda: {"edge": draw(_IDS), "character": character()})
        hooks = some(
            lambda: {
                "edge": draw(_IDS),
                "vertex": draw(_IDS),
                "conditional": True,
                "character": character(),
            }
        )
        return {**head, "m": 1, "pims": pims, "hooks": hooks}, reps
    path = st.dictionaries(_IDS, st.lists(_IDS | _INTS, max_size=3), max_size=4)

    def entry():
        modules = some(
            lambda: {
                "type": draw(_INTS),
                "case": draw(st.none() | _IDS),
                "multiplicity": draw(st.none() | _INTS),
                "path": draw(path),
                "character": character(),
            }
        )
        out = {"vertex": draw(_INTS), "modules": modules}
        if draw(st.booleans()):
            out["error"] = draw(_IDS)
        return out

    return {**head, "results": some(entry)}, reps


def _listed(obj, reps):
    """The payload as plain JSON data, each exceptional part written out."""
    if isinstance(obj, _Exceptional):
        return [rep for rep, c in zip(reps, obj.coords) if c]
    if isinstance(obj, dict):
        return {key: _listed(value, reps) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_listed(item, reps) for item in obj]
    return obj


@settings(max_examples=100, deadline=None)
@given(_enumerate_payloads())
def test_enumerate_writer_matches_json_dumps(payload_and_reps):
    payload, reps = payload_and_reps
    expected = json.dumps(_listed(payload, reps), indent=2) + "\n"
    assert _enumerate_text(payload, reps, "json") == expected


def test_enumerate_writer_cache_lasts_one_call():
    char = {"nonexceptional": [], "exceptional": _Exceptional((1, 0))}
    payload = {"m": 1, "pims": [{"edge": "E1", "character": char}], "hooks": []}
    for reps in ((5, 6), (7, 8)):
        as_json = json.loads(_enumerate_text(payload, reps, "json"))
        assert as_json["pims"][0]["character"]["exceptional"] == [reps[0]]
        as_csv = _enumerate_text(payload, reps, "csv")
        assert as_csv.endswith(f"pim,E1,,,,{reps[0]}\n")


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
