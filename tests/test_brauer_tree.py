import random
import time
from dataclasses import replace

import pytest

from cyclicblocks.brauer_tree import (
    BlockDescriptor,
    Edge,
    group_algebra_block,
    predecessor,
    sign_alternation_violations,
    star_tree,
    successor,
    validate,
)
from cyclicblocks.characters import hook_characters, pim_character, vertex_character
from cyclicblocks.local_reps import CyclicGroupData, EndoPermParams
from cyclicblocks.oracle import random_block_descriptor, random_corpus

W = EndoPermParams


def path_tree(p=3, n=2, e=2, signs=(1, -1, 1), w=()):
    # A - B - exc
    return BlockDescriptor(
        p=p,
        n=n,
        e=e,
        vertices=("A", "B", "exc"),
        signs={"A": signs[0], "B": signs[1], "exc": signs[2]},
        edges=(Edge("E1", ("A", "B")), Edge("E2", ("B", "exc"))),
        cyclic_order={"A": ("E1",), "B": ("E1", "E2"), "exc": ("E2",)},
        exceptional="exc",
        w=W(w),
    )


def test_validate_star_is_clean():
    star = star_tree(2, 3, 2, W(()), -1)
    assert validate(star, strict=True) == []


def test_validate_catches_bad_inertial_index():
    star = star_tree(2, 3, 2, W(()), -1)
    broken = BlockDescriptor(
        p=3,
        n=2,
        e=4,
        vertices=star.vertices,
        signs=star.signs,
        edges=star.edges,
        cyclic_order=star.cyclic_order,
        exceptional=star.exceptional,
        w=star.w,
    )
    problems = validate(broken)
    assert "e does not divide p-1" in problems


def test_validate_sign_alternation_strict_vs_lax():
    desc = path_tree(signs=(1, 1, -1))
    assert validate(desc) == []
    strict = validate(desc, strict=True)
    assert strict == ["sign alternation violated at edge E1"]
    assert sign_alternation_violations(desc) == strict


def test_validate_structure_violations():
    desc = path_tree()
    disconnected = BlockDescriptor(
        p=3,
        n=2,
        e=2,
        vertices=("A", "B", "exc"),
        signs=desc.signs,
        edges=(Edge("E1", ("A", "B")), Edge("E2", ("A", "B"))),
        cyclic_order={"A": ("E1", "E2"), "B": ("E1", "E2"), "exc": ()},
        exceptional="exc",
        w=W(()),
    )
    problems = validate(disconnected)
    assert "tree is not connected" in problems

    missing_exc = BlockDescriptor(
        p=3,
        n=2,
        e=2,
        vertices=desc.vertices,
        signs=desc.signs,
        edges=desc.edges,
        cyclic_order=desc.cyclic_order,
        exceptional=None,
        w=W(()),
    )
    assert "m > 1 requires an exceptional vertex" in validate(missing_exc)

    bad_w = path_tree(w=(0,))
    assert any("W indices" in msg for msg in validate(bad_w))


def test_validate_at_a_large_prime_is_quick():
    star = star_tree(2, 2**61 - 1, 1, W(()), -1)
    start = time.process_time()
    assert validate(star, strict=True) == []
    assert time.process_time() - start < 1.0


def test_primes_past_the_primality_bound_are_refused():
    bound = 3317044064679887385961981
    star = star_tree(2, 5, 1, W(()), -1)
    problems = validate(replace(star, p=bound))
    assert len(problems) == 1
    assert str(bound) in problems[0]
    with pytest.raises(ValueError, match=str(bound)):
        CyclicGroupData(bound, 1)


def test_successor_and_predecessor():
    desc = path_tree()
    assert successor(desc, "A", "E1") == "E1"  # single edge wraps to itself
    assert successor(desc, "B", "E1") == "E2"
    assert successor(desc, "B", "E2") == "E1"
    assert predecessor(desc, "B", "E2") == "E1"
    with pytest.raises(ValueError):
        successor(desc, "A", "E2")


def test_successor_iterates_to_identity():
    star = star_tree(5, 11, 1, W(()), -1)
    order = star.cyclic_order["exc"]
    for eid in order:
        current = eid
        for _ in range(len(order)):
            current = successor(star, "exc", current)
        assert current == eid


def test_predecessor_undoes_successor_on_random_trees():
    for desc in random_corpus((3, 5, 7, 13), 2, seed=11, count=25):
        for v in desc.vertices:
            for eid in desc.cyclic_order[v]:
                assert predecessor(desc, v, successor(desc, v, eid)) == eid
                assert successor(desc, v, predecessor(desc, v, eid)) == eid


def _malformed(vertices, edges, cyclic_order, exceptional="exc"):
    return BlockDescriptor(
        p=3,
        n=2,
        e=2,
        vertices=vertices,
        signs={v: 1 if k % 2 == 0 else -1 for k, v in enumerate(vertices)},
        edges=tuple(Edge(eid, ends) for eid, ends in edges),
        cyclic_order=cyclic_order,
        exceptional=exceptional,
        w=W(()),
    )


@pytest.mark.parametrize(
    "desc, problems",
    [
        (
            _malformed(
                ("A", "B", "exc"),
                [("E1", ("A", "A")), ("E2", ("B", "exc"))],
                {"A": ("E1",), "B": ("E2",), "exc": ("E2",)},
            ),
            [
                "edge E1 is a loop",
                "tree is not connected",
                "cyclic order at A is not a permutation of its edges",
            ],
        ),
        (
            _malformed(
                ("A", "B", "exc"),
                [("E1", ("A", "Z")), ("E2", ("B", "exc"))],
                {"A": ("E1",), "B": ("E2",), "exc": ("E2",)},
            ),
            [
                "edge E1 has unknown endpoint",
                "tree is not connected",
                "cyclic order at A is not a permutation of its edges",
            ],
        ),
        (
            _malformed(
                ("A", "A", "exc"),
                [("E1", ("A", "exc")), ("E2", ("A", "exc"))],
                {"A": ("E1", "E2"), "exc": ("E1", "E2")},
            ),
            ["duplicate vertex ids"],
        ),
        (
            _malformed(
                ("A", "B", "exc"),
                [("E1", ("A", "B")), ("E2", ("A", "B"))],
                {"A": ("E1", "E2"), "B": ("E1", "E2"), "exc": ()},
            ),
            ["tree is not connected"],
        ),
        (
            _malformed((), [], {}, exceptional=None),
            [
                "tree has 0 edges, expected e = 2",
                "tree has 0 vertices, expected e + 1 = 3",
                "tree is not connected",
                "m > 1 requires an exceptional vertex",
            ],
        ),
        (
            replace(path_tree(), p=4),
            ["p = 4 is not an odd prime", "e does not divide p-1"],
        ),
        (
            _malformed(
                ("A", "B", "exc"),
                [("E1", ("A", "B")), ("E1", ("B", "exc"))],
                {"A": ("E1",), "B": ("E1",), "exc": ("E1",)},
            ),
            ["duplicate edge ids"],
        ),
        (
            replace(path_tree(), cyclic_order={"B": ("E1", "E2"), "exc": ("E2",)}),
            ["no cyclic order at vertex A"],
        ),
        (replace(path_tree(), exceptional="X"), ["exceptional vertex X unknown"]),
        (replace(path_tree(), w=W((2,))), ["W index 2 outside 1..1"]),
    ],
    ids=[
        "loop", "unknown-endpoint", "duplicate-vertex", "disconnected", "empty",
        "even-p", "duplicate-edge", "no-cyclic-order", "unknown-exceptional",
        "w-index-too-large",
    ],
)
def test_validate_problem_lists_on_malformed_trees(desc, problems):
    assert validate(desc) == problems


def test_pim_character_examples():
    desc = path_tree()
    plain_edge = pim_character(desc, "E1")
    assert plain_edge.nonexceptional == (1, 1)
    assert plain_edge.exceptional == (0, 0, 0, 0)
    into_exc = pim_character(desc, "E2")
    assert into_exc.nonexceptional == (0, 1)
    assert into_exc.exceptional == (1, 1, 1, 1)

    kd = group_algebra_block(3, 2)
    pim = pim_character(kd, "E1")
    assert pim.nonexceptional == (1,)
    assert pim.exceptional == (1,) * 8
    assert sum(pim.nonexceptional) + sum(pim.exceptional) == 9


def test_pim_sum_counts_vertex_degrees():
    star = star_tree(3, 7, 1, W(()), -1)
    total = pim_character(star, "E1")
    for eid in ("E2", "E3"):
        total = total + pim_character(star, eid)
    assert total.nonexceptional == (1, 1, 1)
    assert total.exceptional == (3,) * star.m


def test_hook_characters():
    desc = path_tree()
    a, b = hook_characters(desc, "E2")
    assert a == vertex_character(desc, "B")
    assert b.exceptional == (1, 1, 1, 1)
    kd = group_algebra_block(3, 2)
    ha, hb = hook_characters(kd, "E1")
    assert ha.nonexceptional == (1,)
    assert hb.exceptional == (1,) * 8


def test_star_tree_parameters():
    star = star_tree(2, 3, 2, W(()), -1)
    assert star.signs["exc"] == -1
    assert all(star.signs[v] == 1 for v in star.nonexceptional_vertices)
    assert star.cyclic_order["exc"] == ("E1", "E2")
    with pytest.raises(ValueError):
        star_tree(2, 3, 1, W(()), -1)  # m = 1
    with pytest.raises(ValueError):
        star_tree(6, 7, 1, W(()), -1)  # m = 1
    with pytest.raises(ValueError):
        star_tree(4, 3, 2, W(()), -1)  # e does not divide p-1
    assert star_tree(1, 3, 1, W(()), -1).m == 2


def test_group_algebra_block_shape():
    kd = group_algebra_block(5, 2)
    assert kd.e == 1
    assert kd.m == 24
    assert validate(kd, strict=True) == []


def test_star_tree_rejects_bad_sign():
    with pytest.raises(ValueError):
        star_tree(2, 3, 2, W(()), 0)


def test_descriptor_lookup_errors():
    desc = path_tree()
    with pytest.raises(KeyError):
        desc.edge_by_id("E9")
    with pytest.raises(KeyError):
        vertex_character(desc, "nope")


def _spine_by_walk(desc, start):
    """The unique tree path from start to the exceptional vertex, found by
    a search from start over desc.edges alone: the non-exceptional vertices
    visited and the edges walked.  The reference for desc.spines."""
    neighbours = {v: [] for v in desc.vertices}
    for edge in desc.edges:
        a, b = edge.ends
        neighbours[a].append((edge.id, b))
        neighbours[b].append((edge.id, a))
    back = {start: None}
    reached = [start]
    for v in reached:
        for eid, w in neighbours[v]:
            if w not in back:
                back[w] = (eid, v)
                reached.append(w)
    vertices, edges = [], []
    v = desc.exceptional
    while v != start:
        eid, v = back[v]
        vertices.append(v)
        edges.append(eid)
    return tuple(reversed(vertices)), tuple(reversed(edges))


def _long_path(e):
    """v0 - v1 - ... - v_e with the exceptional vertex at the end, so that
    the spines have every length from 1 to e."""
    names = [f"v{k}" for k in range(e + 1)]
    edges = tuple(Edge(f"E{k + 1}", (names[k], names[k + 1])) for k in range(e))
    order = {v: () for v in names}
    for edge in edges:
        for v in edge.ends:
            order[v] += (edge.id,)
    return BlockDescriptor(
        p=101,
        n=2,
        e=e,
        vertices=tuple(names),
        signs={v: (-1) ** k for k, v in enumerate(names)},
        edges=edges,
        cyclic_order=order,
        exceptional=names[-1],
        w=W(()),
    )


def _random_trees():
    rng = random.Random(29)
    sizes = ((3, 2), (5, 4), (13, 12), (41, 40), (61, 60), (71, 70), (101, 100))
    for _ in range(40):
        p, e = rng.choice(sizes)
        yield random_block_descriptor(rng, p, 2, e)
    yield _long_path(100)


def test_spines_match_a_walk_toward_the_exceptional_vertex():
    for desc in _random_trees():
        assert validate(desc) == []
        position = {v: k for k, v in enumerate(desc.spines)}
        assert position.keys() == set(desc.nonexceptional_vertices)
        for v in desc.nonexceptional_vertices:
            vertices, edges = desc.spines[v]
            assert (vertices, edges) == _spine_by_walk(desc, v)
            # each vertex comes after its neighbour toward the exceptional one
            assert all(position[toward] < position[v] for toward in vertices[1:2])
    assert len(_long_path(100).spines["v0"][0]) == 100


def test_vertex_characters_by_position_match_the_indicator():
    for desc in _random_trees():
        plain = desc.nonexceptional_vertices
        assert [desc.nonexceptional_positions[v] for v in plain] == list(
            range(len(plain))
        )
        zeros = (0,) * desc.m
        for vertex in plain:
            char = vertex_character(desc, vertex)
            assert char.nonexceptional == tuple(1 if v == vertex else 0 for v in plain)
            assert char.exceptional == zeros


def test_spines_name_a_bad_edge_in_the_cyclic_order():
    # the walk reads the descriptor's one edge index; an edge id it does
    # not hold, or an edge that misses the vertex it is listed at, raises
    order = {"A": ("E1",), "B": ("E1", "E2")}
    unknown = replace(path_tree(), cyclic_order={**order, "exc": ("E9",)})
    with pytest.raises(KeyError, match="no edge 'E9'"):
        unknown.spines
    missing = replace(path_tree(), cyclic_order={**order, "exc": ("E1",)})
    with pytest.raises(ValueError, match="edge 'E1' is not incident to 'exc'"):
        missing.spines
