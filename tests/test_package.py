import ast
import dataclasses
import importlib
import inspect
import pkgutil
import sys
import tomllib
from pathlib import Path

import pytest

import cyclicblocks
from cyclicblocks.brauer_tree import BlockDescriptor, Edge, star_tree
from cyclicblocks.characters import (
    character_of,
    exceptional_orbits,
    vertex_character,
)
from cyclicblocks.classification import (
    enumerate_block,
    enumerate_trivial_source,
    m1_enumerate,
)
from cyclicblocks.local_reps import CyclicGroupData, EndoPermParams
from cyclicblocks.oracle import (
    ConsistencyReport,
    Failure,
    GridSpec,
    IndecomposableModule,
    random_corpus,
)

PACKAGE = Path(cyclicblocks.__file__).parent
MODULES = [name for _, name, _ in pkgutil.iter_modules([str(PACKAGE)])]


def test_exports_are_sorted_unique_and_resolve():
    names = cyclicblocks.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(cyclicblocks, name), name


def test_the_only_dataclasses_are_the_descriptor_and_cyclic_characters():
    # each dataclass generates its methods at every import of the package
    found = set()
    for name in MODULES:
        module = importlib.import_module(f"cyclicblocks.{name}")
        for cls_name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                found.add(cls_name)
    assert found == {"BlockDescriptor", "CyclicCharacter"}


def test_only_the_cli_and_the_package_import_the_oracle():
    # the oracle checks the closed forms, so no closed form may lean on it
    importers = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                # `from .oracle import x` and `from . import oracle` alike
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "oracle" for name in names):
                importers.add(path.stem)
    assert importers == {"__init__", "cli"}


# The module stack, lowest first.
STACK = (
    "cyclotomic",
    "local_reps",
    "brauer_tree",
    "characters",
    "classification",
    "oracle",
    "cli",
)


def _relative_imports(tree: ast.Module) -> set[str]:
    """The package modules a module's relative imports name, wherever they
    stand, but for those under `if TYPE_CHECKING:`, which never run."""
    unrun = {
        id(node)
        for block in ast.walk(tree)
        if isinstance(block, ast.If) and ast.unparse(block.test) == "TYPE_CHECKING"
        for stmt in block.body
        for node in ast.walk(stmt)
    }
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and id(node) not in unrun:
            # `from .x import f` names x, `from . import x` names x
            names = [node.module] if node.module else [a.name for a in node.names]
            named.update(name.split(".")[0] for name in names)
    return named


def test_each_module_imports_only_modules_below_it_in_the_stack():
    assert sorted(STACK) == sorted(MODULES)
    for rank, name in enumerate(STACK):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        assert _relative_imports(tree) <= set(STACK[:rank]), name


def test_the_library_states_no_invariant_as_an_assert():
    # python -O strips assert statements, so an invariant must raise
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], path.name


def test_the_library_imports_only_the_standard_library():
    # numpy, orjson and the like stay out: the package has no dependencies
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
    pyproject = PACKAGE.parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        assert tomllib.load(f)["project"]["dependencies"] == []


def _imported_names(module: str) -> set[str]:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


# The reference constructions only the oracle's checks use, which live in
# the oracle, and two definitions that were deleted outright.
ORACLE_OWN = {
    "IndecomposableModule",
    "b_level_character",
    "cap_dim_recursive",
    "heller_relative",
    "induce_character",
    "perm_module_character",
    "xi_complement",
}
DELETED = {"subgroup_order", "u_module_dimension"}


def test_the_oracles_own_constructions_live_in_the_oracle_alone():
    defined = {}
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, set()).add(path.stem)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.setdefault(node.id, set()).add(path.stem)
    for name in ORACLE_OWN:
        assert defined.get(name) == {"oracle"}, name
    assert not DELETED & defined.keys()
    assert not (ORACLE_OWN | DELETED) & set(cyclicblocks.__all__)
    # the oracle rebuilds xi's complement from public reads
    oracle = ast.parse((PACKAGE / "oracle.py").read_text(encoding="utf-8"))
    assert not [
        alias.name
        for node in ast.walk(oracle)
        if isinstance(node, ast.ImportFrom) and node.module == "characters"
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_enumeration_is_assembled_in_the_classification_alone():
    # `enumerate` prints and the oracle checks one result,
    # `classification.enumerate_block`: neither assembles its own
    assert not {"admitted_anchors", "character_of"} & _imported_names("cli")
    forbidden = {"enumerate_trivial_source", "ClassificationError"}
    assert not forbidden & _imported_names("oracle")


# What a descriptor may cache: each is determined by its own fields.
DESCRIPTOR_CACHES = {
    "nonexceptional_vertices",
    "_edges_by_id",
    "spines",
    "nonexceptional_positions",
    "index_table",
}


def test_a_descriptor_holds_only_what_its_fields_determine():
    # enumeration, module characters and vertex characters leave nothing in
    # the descriptor but its fields and its own caches, each equal to what
    # a fresh copy of the descriptor computes
    fields = {field.name for field in dataclasses.fields(BlockDescriptor)}
    for desc in random_corpus(primes=(3, 5, 7, 13), n_max=3, seed=5, count=12):
        indices = range(1, desc.n + 1)
        enumerate_block(desc, indices)
        for i in indices:
            for path in enumerate_trivial_source(desc, i):
                character_of(desc, i, path)
        for vertex in desc.vertices:
            vertex_character(desc, vertex)
        held = vars(desc)
        assert held.keys() - fields == DESCRIPTOR_CACHES
        fresh = dataclasses.replace(desc)
        for name in DESCRIPTOR_CACHES:
            assert held[name] == getattr(fresh, name), name


def _m1_block() -> BlockDescriptor:
    return BlockDescriptor(
        p=3,
        n=1,
        e=2,
        vertices=("A", "B", "C"),
        signs={"A": 1, "B": -1, "C": 1},
        edges=(Edge("E1", ("A", "B")), Edge("E2", ("B", "C"))),
        cyclic_order={"A": ("E1",), "B": ("E1", "E2"), "C": ("E2",)},
        exceptional=None,
        w=EndoPermParams(()),
    )


def _records() -> list:
    found = m1_enumerate(_m1_block())
    g = CyclicGroupData(3, 2)
    failure = Failure("check", "params", "expected", "actual")
    return [
        Edge("E1", ("a", "b")),
        exceptional_orbits(3, 2, 2),
        found.pims[0],
        found.hooks[0],
        found,
        GridSpec(),
        failure,
        ConsistencyReport(1, (failure,)),
        g,
        EndoPermParams((1, 2)),
        IndecomposableModule(g, 4),
        enumerate_block(star_tree(2, 3, 2, EndoPermParams(()), -1), (1,))[0],
    ]


@pytest.mark.parametrize(
    "cls, valid, bad, message",
    [
        (CyclicGroupData, {"p": 3, "n": 2}, {"p": 4}, "p = 4 is not an odd prime"),
        (CyclicGroupData, {"p": 3, "n": 2}, {"n": 0}, "n = 0 must be at least 1"),
        (
            EndoPermParams,
            {"indices": (1, 2)},
            {"indices": (2, 1)},
            "indices (2, 1) are not strictly increasing",
        ),
        (
            EndoPermParams,
            {"indices": (1, 2)},
            {"indices": (-1, 2)},
            "negative subgroup index in (-1, 2)",
        ),
        (
            IndecomposableModule,
            {"group": CyclicGroupData(3, 2), "dim": 4},
            {"dim": 0},
            "dimension 0 outside 1..9",
        ),
        (
            IndecomposableModule,
            {"group": CyclicGroupData(3, 2), "dim": 4},
            {"dim": 10},
            "dimension 10 outside 1..9",
        ),
    ],
)
def test_validated_records_check_on_construction_and_on_replace(
    cls, valid, bad, message
):
    fields = {**valid, **bad}
    good = cls(**valid)
    builds = [
        lambda: cls(**fields),
        lambda: cls(*fields.values()),
        lambda: cls._make(fields.values()),
        lambda: good._replace(**bad),
    ]
    for build in builds:
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_frozen_hashable_tuples_of_their_fields(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.unknown = None
    copy = type(record)(*record)
    assert copy == record
    assert hash(copy) == hash(record)
    assert record == tuple(getattr(record, name) for name in record._fields)
    assert record._replace() == record


def test_record_reprs_name_their_fields():
    g = CyclicGroupData(3, 2)
    assert repr(Edge("E1", ("a", "b"))) == "Edge(id='E1', ends=('a', 'b'))"
    assert repr(g) == "CyclicGroupData(p=3, n=2)"
    assert repr(EndoPermParams((1, 2))) == "EndoPermParams(indices=(1, 2))"
    assert (
        repr(IndecomposableModule(g, 4))
        == "IndecomposableModule(group=CyclicGroupData(p=3, n=2), dim=4)"
    )
    assert repr(GridSpec()) == "GridSpec(primes=(3, 5, 7), n_max=3, seed=0)"
    assert (
        repr(ConsistencyReport(0, ()))
        == "ConsistencyReport(checks_run=0, failures=())"
    )
