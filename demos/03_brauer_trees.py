"""Building and validating block descriptors.

A descriptor is the full input: the numerical invariants, the tree with a
planar embedding (cyclic edge order at every vertex), vertex signs, the
exceptional vertex, and the endo-permutation parameter.
"""

from cyclicblocks.brauer_tree import (
    BlockDescriptor,
    Edge,
    group_algebra_block,
    star_tree,
    successor,
    validate,
)
from cyclicblocks.characters import hook_characters, pim_character
from cyclicblocks.local_reps import EndoPermParams

# a star: e = 2 leaves around a negative exceptional centre, p = 3, n = 2
star = star_tree(2, 3, 2, EndoPermParams(()), -1)
print("star validates cleanly:", validate(star, strict=True) == [])
print("exceptional multiplicity m =", star.m)
print("cyclic order at the centre:", star.cyclic_order["exc"])
print("successor of E2 at the centre wraps to:", successor(star, "exc", "E2"))

# projective characters are sums of the two endpoint characters; an
# exceptional endpoint contributes the whole bundle of m characters
pim = pim_character(star, "E1")
print("\nprojective character at E1:")
print("  non-exceptional coordinates:", pim.nonexceptional)
print("  exceptional coordinates:    ", pim.exceptional)

# hooks afford single vertex characters
ha, hb = hook_characters(star, "E1")
print("hook characters at E1:", ha.nonexceptional, "and bundle", hb.exceptional)

# a hand-built path tree A - B - exceptional
path = BlockDescriptor(
    p=3,
    n=2,
    e=2,
    vertices=("A", "B", "exc"),
    signs={"A": 1, "B": -1, "exc": 1},
    edges=(Edge("E1", ("A", "B")), Edge("E2", ("B", "exc"))),
    cyclic_order={"A": ("E1",), "B": ("E1", "E2"), "exc": ("E2",)},
    exceptional="exc",
    w=EndoPermParams((1,)),
)
print("\npath tree validates:", validate(path, strict=True) == [])

# invalid data comes back as messages, not exceptions
broken = BlockDescriptor(
    p=3, n=2, e=4,
    vertices=path.vertices, signs=path.signs, edges=path.edges,
    cyclic_order=path.cyclic_order, exceptional="exc", w=EndoPermParams(()),
)
print("violations for e = 4:", validate(broken))

# the one-edge descriptor of the group algebra of the cyclic group itself
kd = group_algebra_block(3, 2)
print("\ngroup algebra block: e =", kd.e, " m =", kd.m)
