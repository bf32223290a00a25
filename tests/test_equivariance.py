"""Equivariance laws: the classification does not depend on the names of
vertices and edges, on the order in which they are listed, or on which
edge a cyclic order starts at, and a mirror image of the planar embedding
trades shapes 4 and 5 and reverses the edge pairs of shapes 6 and 7.

Multisets of modules are compared as tuples sorted by their repr, which
is deterministic for tuples of strings, integers, bytes and None."""

import random
from dataclasses import replace
from itertools import compress

from hypothesis import given, settings
from hypothesis import strategies as st

from cyclicblocks import classification
from cyclicblocks.brauer_tree import BlockDescriptor, Edge, successor
from cyclicblocks.classification import enumerate_block
from cyclicblocks.oracle import random_block_descriptor

# every (p, n, e) with e | p - 1, e <= 12, n <= 3 and m > 1
BLOCKS = [
    (p, n, e)
    for p in (3, 5, 7, 11, 13, 37)
    for n in (1, 2, 3)
    for e in range(1, 13)
    if (p - 1) % e == 0 and (p**n - 1) // e > 1
]


def _modules(desc: BlockDescriptor) -> list:
    """Per vertex index, its count error and its modules, each as (verdict,
    path fields, named non-exceptional support, exceptional levels)."""
    out = []
    for _, groups, error in enumerate_block(desc, range(1, desc.n + 1)):
        found = []
        for verdict, paths, char in groups:
            support = compress(desc.nonexceptional_vertices, char.plain)
            support = frozenset(support)
            found += ((verdict, path, support, char.levels) for path in paths)
        out.append((error, found))
    return out


def _sorted(per_index: list, module=lambda module: module) -> list:
    """Each index's modules mapped through `module`, then sorted; a
    support is sorted into a tuple first, so that its repr is its names."""
    return [
        (
            error,
            tuple(
                sorted(
                    (
                        (verdict, path, tuple(sorted(support)), levels)
                        for verdict, path, support, levels in map(module, found)
                    ),
                    key=repr,
                )
            ),
        )
        for error, found in per_index
    ]


def _relabelled(desc: BlockDescriptor, rng: random.Random):
    """The descriptor with its vertices and edges renamed, both lists
    shuffled and some edges' ends swapped, and the two renamings."""
    vertices = rng.sample(desc.vertices, len(desc.vertices))
    vname = {v: f"x{k}" for k, v in enumerate(vertices)}
    ename = {
        edge.id: f"F{k}" for k, edge in enumerate(rng.sample(desc.edges, desc.e))
    }
    edges = [
        Edge(ename[edge.id], tuple(map(vname.get, edge.ends[:: rng.choice((1, -1))])))
        for edge in desc.edges
    ]
    rng.shuffle(edges)
    rng.shuffle(vertices)
    twin = replace(
        desc,
        vertices=tuple(vname[v] for v in vertices),
        signs={vname[v]: sign for v, sign in desc.signs.items()},
        edges=tuple(edges),
        cyclic_order={
            vname[v]: tuple(map(ename.get, order))
            for v, order in desc.cyclic_order.items()
        },
        exceptional=vname[desc.exceptional],
    )
    return twin, vname, ename


def _relabelling_holds(desc: BlockDescriptor, rng: random.Random) -> bool:
    twin, vname, ename = _relabelled(desc, rng)

    def renamed(module):
        verdict, path, support, levels = module
        shape, spine_v, spine_e, extra, direction = path
        path = (
            shape,
            tuple(map(vname.get, spine_v)),
            tuple(map(ename.get, spine_e)),
            tuple(map(ename.get, extra)),
            direction,
        )
        return verdict, path, frozenset(map(vname.get, support)), levels

    return _sorted(_modules(twin)) == _sorted(_modules(desc), renamed)


def _mirrored(module):
    """A module of the mirror image as the module of the descriptor it
    matches: shapes 4 and 5 trade places, with their directions, and the
    edge pairs of shapes 6 and 7 reverse."""
    verdict, path, support, levels = module
    shape, spine_v, spine_e, extra, direction = path
    if shape in (4, 5):
        shape, direction = 9 - shape, (-direction[0], -direction[1])
    elif shape in (6, 7):
        extra = extra[::-1]
    return verdict, (shape, spine_v, spine_e, extra, direction), support, levels


def _mirror_holds(desc: BlockDescriptor) -> bool:
    mirror = {v: order[::-1] for v, order in desc.cyclic_order.items()}
    twin = replace(desc, cyclic_order=mirror)
    return _sorted(_modules(twin), _mirrored) == _sorted(_modules(desc))


def _rotation_holds(desc: BlockDescriptor, rng: random.Random) -> bool:
    rotated = {}
    for v, order in desc.cyclic_order.items():
        k = rng.randrange(len(order))
        rotated[v] = order[k:] + order[:k]
    twin = replace(desc, cyclic_order=rotated)
    return _sorted(_modules(twin)) == _sorted(_modules(desc))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(BLOCKS), st.integers(0, 2**32 - 1))
def test_enumeration_is_equivariant(block, seed):
    rng = random.Random(seed)
    desc = random_block_descriptor(rng, *block)
    assert _relabelling_holds(desc, rng)
    assert _mirror_holds(desc)
    assert _rotation_holds(desc, rng)


def test_relabelling_sees_positions_in_sorted_name_order(monkeypatch):
    # the non-exceptional part filed in sorted-name order, not descriptor
    # order, names the wrong vertices once the names are shuffled
    monkeypatch.setattr(
        BlockDescriptor,
        "nonexceptional_positions",
        property(
            lambda desc: {
                v: k for k, v in enumerate(sorted(desc.nonexceptional_vertices))
            }
        ),
    )
    rng = random.Random(1)
    held = [
        _relabelling_holds(random_block_descriptor(rng, 13, 2, 12), rng)
        for _ in range(10)
    ]
    assert not all(held)


def test_mirror_sees_shape_5_built_like_shape_4(monkeypatch):
    # shape 5 takes the planar predecessor; with the successor instead,
    # its mirror image no longer matches shape 4
    monkeypatch.setattr(classification, "predecessor", successor)
    rng = random.Random(2)
    held = [
        _mirror_holds(random_block_descriptor(rng, 13, 2, 12)) for _ in range(10)
    ]
    assert not all(held)
