"""Path descriptors and enumeration of trivial source modules by vertex.

An indecomposable non-projective module of the block is encoded by a path
on the Brauer tree together with a direction and a multiplicity.  The
trivial source modules with a fixed non-trivial vertex fall into seven
shapes, generated here and then filtered by the admissibility conditions
(sign of the anchoring vertex, a divisibility tied to the parity datum of
the endo-permutation parameter, and the multiplicity range):

  1  a single hook affording a positive vertex character
     (full-order vertex and trivial parameter only);
  2  a spine from a non-exceptional leaf to the exceptional vertex,
     direction (1, -1);
  3  the single edge at a leaf exceptional vertex, direction (-1, 1);
  4  a spine from a non-leaf vertex x0, plus the planar successor of the
     first spine edge at x0 as an extra edge, direction (1, 1);
  5  like 4 but the extra edge is the planar predecessor (the edge whose
     successor at x0 is the first spine edge), direction (-1, -1);
  6  like 4/5 with two extra edges at x0, consecutive in the planar order
     and both off the spine, direction (-1, 1);
  7  an ordered pair of consecutive edges around a non-leaf exceptional
     vertex, direction (-1, 1).

Enumeration is generate-and-filter; the classification guarantees exactly
e modules per vertex, so any other count is surfaced as a
ClassificationError carrying the partial list, never suppressed.

One-edge blocks (e = 1) only admit the back-and-forth path along their
single edge; they are enumerated from the same candidates with their own
two admissibility cases.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from .brauer_tree import (
    BlockCharacter,
    BlockDescriptor,
    hook_characters,
    pim_character,
    predecessor,
    successor,
)
from .local_reps import (
    CharacterConsistencyError,
    CyclicGroupData,
    EndoPermParams,
    cap_dim,
)


class ClassificationError(Exception):
    """Enumeration did not return exactly e modules for a vertex."""

    def __init__(
        self, desc: BlockDescriptor, vertex_index: int, paths: list["PathDescriptor"]
    ):
        self.vertex_index = vertex_index
        self.expected = desc.e
        self.paths = paths
        super().__init__(
            f"enumeration at vertex index {vertex_index} returned "
            f"{len(paths)} modules, expected e = {desc.e}"
        )


@dataclass(frozen=True)
class PathDescriptor:
    """Typed path on the tree; multiplicity and case are filled in by
    `admissible`.

    `spine_vertices` runs from the anchoring vertex x0 towards the
    exceptional vertex (exclusive); for single-edge hooks it holds the one
    endpoint affording the character, which may be the exceptional vertex
    itself.  `spine_edges` ends with the edge into the exceptional vertex.
    `extra_edges` carries the off-spine attachments of shapes 4-6 and the
    ordered edge pair of shape 7.
    """

    type_tag: int
    spine_vertices: tuple[str, ...]
    spine_edges: tuple[str, ...]
    extra_edges: tuple[str, ...]
    direction: tuple[int, int]
    multiplicity: int | None = None
    case_tag: str | None = None


@dataclass(frozen=True)
class ProjectiveModule:
    edge_id: str
    character: BlockCharacter


@dataclass(frozen=True)
class ConditionalHook:
    """Hook whose trivial source status cannot be decided from the
    descriptor alone (it depends on the Green correspondent being simple)."""

    edge_id: str
    vertex: str
    character: BlockCharacter


@dataclass(frozen=True)
class M1Enumeration:
    pims: tuple[ProjectiveModule, ...]
    hooks: tuple[ConditionalHook, ...]


def candidate_paths(desc: BlockDescriptor, i: int) -> list[PathDescriptor]:
    """All syntactic path shapes for vertex index i, before admissibility."""
    if desc.m == 1:
        raise ValueError("m = 1 blocks are enumerated by m1_enumerate")
    if not 1 <= i <= desc.n:
        raise ValueError(f"vertex index {i} outside 1..{desc.n}")
    exc = desc.exceptional
    if desc.e == 1:
        plain = desc.nonexceptional_vertices[0]
        edge = desc.edges[0].id
        return [
            PathDescriptor(2, (plain,), (edge,), (), (1, -1)),
            PathDescriptor(3, (), (edge,), (), (-1, 1)),
        ]
    out: list[PathDescriptor] = []
    if desc.w.is_trivial and i == desc.n:
        for edge in desc.edges:
            for v in edge.ends:
                if desc.sign(v) > 0:
                    out.append(PathDescriptor(1, (v,), (edge.id,), (), (1, 1)))
    for x0 in desc.nonexceptional_vertices:
        spine_v, spine_e = desc.spines[x0]
        if desc.is_leaf(x0):
            out.append(PathDescriptor(2, spine_v, spine_e, (), (1, -1)))
            continue
        first = spine_e[0]
        out.append(
            PathDescriptor(
                4, spine_v, spine_e, (successor(desc, x0, first),), (1, 1)
            )
        )
        out.append(
            PathDescriptor(
                5, spine_v, spine_e, (predecessor(desc, x0, first),), (-1, -1)
            )
        )
        order = desc.incident(x0)
        for e1, e2 in zip(order, order[1:] + order[:1]):
            if e1 != first and e2 != first and e1 != e2:
                out.append(
                    PathDescriptor(6, spine_v, spine_e, (e1, e2), (-1, 1))
                )
    if desc.is_leaf(exc):
        out.append(PathDescriptor(3, (), (desc.incident(exc)[0],), (), (-1, 1)))
    else:
        order = desc.incident(exc)
        for e1, e2 in zip(order, order[1:] + order[:1]):
            if e1 != e2:
                out.append(PathDescriptor(7, (), (), (e1, e2), (-1, 1)))
    return out


def admissible(
    desc: BlockDescriptor, i: int, path: PathDescriptor
) -> tuple[str | None, int | None] | None:
    """Case tag and multiplicity when the path passes its shape's
    conditions, None when it does not.

    The sign condition reads the anchoring vertex (the exceptional vertex
    for shapes 3 and 7); positive vertices pair with e | (dim - 1) and
    negative ones with e | cap_dim, where dim is the dimension
    cap_dim * p^{n-i} of the local module.  The parity of the spine length
    selects between the shared exceptional part and its complement, and the
    multiplicity must respect the shape's range.
    """
    dim, pos_ok, neg_ok = _local_dimension(desc.p, desc.n, desc.e, desc.w, i)
    m = desc.m
    e = desc.e
    if e == 1:
        if path.type_tag != 2:
            return None
        plain = desc.nonexceptional_vertices[0]
        if desc.sign(plain) > 0:
            return "i", dim
        return "ii", desc.p ** desc.n - dim
    if path.type_tag == 1:
        return None, None
    if path.type_tag in (2, 4, 5, 6):
        sign = desc.sign(path.spine_vertices[0])
        spine_parity = (len(path.spine_vertices) - 1) % 2
        if sign > 0 and pos_ok:
            count = (dim - 1) // e
            case, mu = ("i", m + 1 - count) if spine_parity else ("ii", count + 1)
        elif sign < 0 and neg_ok:
            count = dim // e
            case, mu = ("iii", count + 1) if spine_parity else ("iv", m + 1 - count)
        else:
            return None
        return (case, mu) if 2 <= mu <= m else None
    sign = desc.sign(desc.exceptional)
    if sign > 0 and pos_ok:
        case, mu = "i", m - (dim - 1) // e
    elif sign < 0 and neg_ok:
        case, mu = "ii", dim // e
    else:
        return None
    low = 2 if path.type_tag == 3 else 1
    return (case, mu) if low <= mu <= m - 1 else None


@lru_cache(maxsize=None)
def _local_dimension(
    p: int, n: int, e: int, w: EndoPermParams, i: int
) -> tuple[int, bool, bool]:
    """The dimension cap_dim * p^{n-i} of the local module, whether e
    divides dim - 1 (the positive-sign condition), and whether e divides
    cap_dim (the negative-sign condition)."""
    ell = cap_dim(w, CyclicGroupData(p, n), i)
    dim = ell * p ** (n - i)
    neg_ok = ell % e == 0
    # e | p-1 makes p = 1 mod e, so both readings of the negative-sign
    # divisibility agree
    if neg_ok != (dim % e == 0):
        raise CharacterConsistencyError(
            f"e = {e} divides cap_dim {ell} and dim {dim} differently"
        )
    return dim, (dim - 1) % e == 0, neg_ok


def enumerate_trivial_source(
    desc: BlockDescriptor, i: int
) -> list[PathDescriptor]:
    """The e trivial source modules with vertex of order p^i, as completed
    path descriptors; raises ClassificationError when the admissible set
    does not have size e."""
    found = []
    for cand in candidate_paths(desc, i):
        verdict = admissible(desc, i, cand)
        if verdict is not None:
            case, mu = verdict
            found.append(replace(cand, case_tag=case, multiplicity=mu))
    if len(found) != desc.e:
        raise ClassificationError(desc, i, found)
    return found


def enumerate_projective(desc: BlockDescriptor) -> tuple[ProjectiveModule, ...]:
    """One projective indecomposable per edge, with its character."""
    return tuple(
        ProjectiveModule(edge.id, pim_character(desc, edge.id))
        for edge in desc.edges
    )


def m1_enumerate(desc: BlockDescriptor) -> M1Enumeration:
    """Enumeration for blocks with exceptional multiplicity one: the
    projectives, plus every hook flagged conditional (which hooks are
    trivial source depends on data beyond the descriptor)."""
    if desc.m != 1:
        raise ValueError(f"m = {desc.m}, expected 1")
    hooks = []
    for edge in desc.edges:
        chars = hook_characters(desc, edge.id)
        for vertex, char in zip(edge.ends, chars):
            hooks.append(ConditionalHook(edge.id, vertex, char))
    return M1Enumeration(enumerate_projective(desc), tuple(hooks))
