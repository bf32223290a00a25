"""Trivial source characters in p-blocks with cyclic defect groups.

Given a block descriptor (odd prime p, defect exponent n, inertial index e,
Brauer tree with planar embedding and vertex signs, endo-permutation
parameter of the source algebra), this package enumerates the trivial
source modules of the block per vertex and computes the ordinary character
of each module's trivial source lift, with independent brute-force oracles
for every closed form it uses.
"""

from .brauer_tree import (
    BlockDescriptor,
    Edge,
    group_algebra_block,
    star_tree,
    successor,
    validate,
)
from .characters import (
    BlockCharacter,
    OrbitStructure,
    character_of,
    exceptional_orbits,
    hook_characters,
    pim_character,
    t_and_d0,
    xi,
)
from .classification import (
    ClassificationError,
    PathDescriptor,
    VertexEnumeration,
    admitted_anchors,
    enumerate_block,
    enumerate_projective,
    enumerate_trivial_source,
    m1_enumerate,
)
from .cyclotomic import CyclicCharacter, decompose
from .local_reps import (
    CyclicGroupData,
    EndoPermParams,
    cap_dim,
    char_det1_endoperm,
    morita_correspondent_character,
    restricted_cap_params,
)
from .oracle import (
    ConsistencyReport,
    GridSpec,
    consistency_suite,
    det1_char_by_recursion,
    perm_character_by_fixed_points,
    random_corpus,
)

__all__ = [
    "BlockCharacter",
    "BlockDescriptor",
    "ClassificationError",
    "ConsistencyReport",
    "CyclicCharacter",
    "CyclicGroupData",
    "Edge",
    "EndoPermParams",
    "GridSpec",
    "OrbitStructure",
    "PathDescriptor",
    "VertexEnumeration",
    "admitted_anchors",
    "cap_dim",
    "char_det1_endoperm",
    "character_of",
    "consistency_suite",
    "decompose",
    "det1_char_by_recursion",
    "enumerate_block",
    "enumerate_projective",
    "enumerate_trivial_source",
    "exceptional_orbits",
    "group_algebra_block",
    "hook_characters",
    "m1_enumerate",
    "morita_correspondent_character",
    "perm_character_by_fixed_points",
    "pim_character",
    "random_corpus",
    "restricted_cap_params",
    "star_tree",
    "successor",
    "t_and_d0",
    "validate",
    "xi",
]
