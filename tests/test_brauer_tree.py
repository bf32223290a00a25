import time
from dataclasses import replace

import pytest

from cyclicblocks.brauer_tree import (
    BlockDescriptor,
    Edge,
    group_algebra_block,
    hook_characters,
    pim_character,
    predecessor,
    sign_alternation_violations,
    star_tree,
    successor,
    validate,
    vertex_character,
)
from cyclicblocks.local_reps import CyclicGroupData, EndoPermParams
from cyclicblocks.oracle import random_corpus

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
    order = star.incident("exc")
    for eid in order:
        current = eid
        for _ in range(len(order)):
            current = successor(star, "exc", current)
        assert current == eid


def test_predecessor_undoes_successor_on_random_trees():
    for desc in random_corpus((3, 5, 7, 13), 2, seed=11, count=25):
        for v in desc.vertices:
            for eid in desc.incident(v):
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
    ],
    ids=["loop", "unknown-endpoint", "duplicate-vertex", "disconnected", "empty"],
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
    assert star.sign("exc") == -1
    assert all(star.sign(v) == 1 for v in star.nonexceptional_vertices)
    assert star.incident("exc") == ("E1", "E2")
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
    with pytest.raises(ValueError):
        desc.other_end("E1", "exc")
    with pytest.raises(KeyError):
        vertex_character(desc, "nope")
