"""Path descriptors and enumeration of trivial source modules by vertex.

An indecomposable non-projective module of the block is encoded by a path
on the Brauer tree together with a direction and a multiplicity.  The
trivial source modules with a fixed non-trivial vertex fall into seven
shapes:

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

The admissibility conditions (sign of the anchoring vertex, a divisibility
tied to the parity datum of the endo-permutation parameter, and the
multiplicity range) read a path only through its class: the sign of its
anchoring vertex, the parity of its spine, and whether it is a hook, a
spine shape (2, 4, 5, 6) or shape 3 or 7.  `_verdicts` decides every
class from (p, n, e, i) and the cap dimension of W at i, which the
descriptor's index table holds with xi's level values: the table keeps
data only, the same for every e, and the verdicts are decided afresh at
each enumeration of a vertex index.  `admitted_anchors` is the one place
that admits: `_anchors`, the one place that maps a path to its class, reads
each anchor's class key off the tree alone (its spines and signs), and
it looks the key up before building any path anchored there, so it
builds only the admitted modules, afresh at every vertex index that
admits the anchor.  An anchor's paths share their spine and verdict, and
so their character, and come out as one group; each hook is one group.
`enumerate_block`, the one place that assembles characters, gives each
group its character, and `enumerate_trivial_source` flattens the groups
into path descriptors.
The classification guarantees exactly e modules per vertex, so any other
count is surfaced, never suppressed: as `enumerate_block`'s error text or
as a ClassificationError carrying the partial list.

One-edge blocks (e = 1) only admit the back-and-forth path along their
single edge, the shape-2 path from the plain vertex, with its own two
admissibility cases; their table rejects every other class.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .brauer_tree import (
    NEGATIVE,
    POSITIVE,
    BlockDescriptor,
    predecessor,
    successor,
)
from .characters import BlockCharacter, character_of, pim_character, vertex_character
from .local_reps import CharacterConsistencyError

# The shape under which the verdict table files the spine shapes 2, 4, 5
# and 6, which share their conditions.
SPINE = 2

# A class key: (shape, sign of the anchoring vertex, spine parity).
ClassKey = tuple[int, int, int]
# Case tag and multiplicity of an admitted path; (None, None) for hooks.
Verdict = tuple[str | None, int | None]


class ClassificationError(Exception):
    """Enumeration did not return exactly e modules for a vertex."""

    def __init__(
        self, desc: BlockDescriptor, vertex_index: int, paths: list["PathDescriptor"]
    ):
        self.vertex_index = vertex_index
        self.expected = desc.e
        self.paths = paths
        super().__init__(self.message(desc, vertex_index, len(paths)))

    @staticmethod
    def message(desc: BlockDescriptor, vertex_index: int, count: int) -> str:
        """What the error says when `count` modules were admitted."""
        return (
            f"enumeration at vertex index {vertex_index} returned "
            f"{count} modules, expected e = {desc.e}"
        )


class PathDescriptor(NamedTuple):
    """Typed path on the tree; multiplicity and case are those of its
    class's verdict.

    `spine_vertices` runs from the anchoring vertex x0 towards the
    exceptional vertex (exclusive); for single-edge hooks it holds the one
    endpoint affording the character, which may be the exceptional vertex
    itself.  `spine_edges` ends with the edge into the exceptional vertex.
    `extra_edges` carries the off-spine attachments of shapes 4-6 and the
    ordered edge pair of shape 7.  A named tuple: immutable and hashable,
    and built at tuple cost, once per module; `_replace` gives a copy with
    some fields changed.
    """

    type_tag: int
    spine_vertices: tuple[str, ...]
    spine_edges: tuple[str, ...]
    extra_edges: tuple[str, ...]
    direction: tuple[int, int]
    multiplicity: int | None = None
    case_tag: str | None = None


class ProjectiveModule(NamedTuple):
    edge_id: str
    character: BlockCharacter


class ConditionalHook(NamedTuple):
    """Hook whose trivial source status cannot be decided from the
    descriptor alone (it depends on the Green correspondent being simple)."""

    edge_id: str
    vertex: str
    character: BlockCharacter


class M1Enumeration(NamedTuple):
    pims: tuple[ProjectiveModule, ...]
    hooks: tuple[ConditionalHook, ...]


def _verdicts(
    p: int, n: int, e: int, ell: int, i: int
) -> dict[ClassKey, Verdict | None]:
    """The admissibility verdict of every class of paths at vertex index i,
    given the cap dimension ell = cap_dim(W, i); a fresh dict on each call.

    Keys are (shape, anchor sign, spine parity): shape SPINE stands for the
    spine shapes 2, 4, 5 and 6 at both parities; shapes 3 and 7 and the
    positive hooks (shape 1) have parity 0.  A rejected class maps to None;
    hooks are admitted only at i = n with W = () and e > 1.  Positive
    anchors need e | (dim - 1) and negative ones e | cap_dim, where dim =
    cap_dim * p^{n-i} is the dimension of the local module.  The spine
    parity selects between the shared exceptional part and its complement,
    and the multiplicity must lie in the shape's range: 2..m for the spine
    shapes, 2..m-1 for shape 3 and 1..m-1 for shape 7.  When e = 1 the one
    class admitted is the even spine: case i with multiplicity dim at a
    positive plain vertex, case ii with p^n - dim at a negative one.
    """
    dim = ell * p ** (n - i)
    neg_ok = ell % e == 0
    # e | p-1 makes p = 1 mod e, so both readings of the negative-sign
    # divisibility agree
    if neg_ok != (dim % e == 0):
        raise CharacterConsistencyError(
            f"e = {e} divides cap_dim {ell} and dim {dim} differently"
        )
    q = p ** n
    m = (q - 1) // e
    table: dict[ClassKey, Verdict | None] = {}
    for sign in (POSITIVE, NEGATIVE):
        # verdicts at even and odd spine parity, and at the exceptional vertex
        even = odd = at_exceptional = None
        if e == 1:
            even = ("i", dim) if sign > 0 else ("ii", q - dim)
        elif sign > 0 and (dim - 1) % e == 0:
            count = (dim - 1) // e
            even = _within(("ii", count + 1), 2, m)
            odd = _within(("i", m + 1 - count), 2, m)
            at_exceptional = "i", m - count
        elif sign < 0 and neg_ok:
            count = dim // e
            even = _within(("iv", m + 1 - count), 2, m)
            odd = _within(("iii", count + 1), 2, m)
            at_exceptional = "ii", count
        table[SPINE, sign, 0] = even
        table[SPINE, sign, 1] = odd
        table[3, sign, 0] = _within(at_exceptional, 2, m - 1)
        table[7, sign, 0] = _within(at_exceptional, 1, m - 1)
    # at i = n, ell = cap_dim(W, n) = dim W, which is 1 exactly when W = ()
    table[1, POSITIVE, 0] = (None, None) if e > 1 and i == n and ell == 1 else None
    return table


def _within(verdict: Verdict | None, low: int, high: int) -> Verdict | None:
    if verdict is None or not low <= verdict[1] <= high:
        return None
    return verdict


# The fields of a PathDescriptor up to its multiplicity and case:
# (type_tag, spine_vertices, spine_edges, extra_edges, direction).
PathFields = tuple[
    int, tuple[str, ...], tuple[str, ...], tuple[str, ...], tuple[int, int]
]
# The paths of one admitted anchor at one vertex index with their verdict.
AnchorGroup = tuple[Verdict, tuple[PathFields, ...]]


def admitted_anchors(desc: BlockDescriptor, i: int) -> list[AnchorGroup]:
    """The admitted anchors at vertex index i in candidate order, each as
    its verdict and its paths, built as it is admitted, which share their
    spine lists and so their character; the hooks, which share one anchor,
    come one group per hook.  The count is not checked here.  Raises
    ValueError at m = 1 or i outside 1..n."""
    if desc.m == 1:
        raise ValueError("m = 1 blocks are enumerated by m1_enumerate")
    table = _verdicts(desc.p, desc.n, desc.e, desc.index_entry(i).cap_dim, i)
    groups: list[AnchorGroup] = []
    for key, anchor in _anchors(desc):
        verdict = table.get(key)
        if verdict is not None:
            paths = _anchor_paths(desc, anchor)
            if anchor is None:
                # each hook affords the character of its own endpoint
                groups += ((verdict, (path,)) for path in paths)
            else:
                groups.append((verdict, paths))
    return groups


def enumerate_trivial_source(
    desc: BlockDescriptor, i: int
) -> list[PathDescriptor]:
    """The e trivial source modules with vertex of order p^i, as completed
    path descriptors: the admitted anchors' paths in candidate order.
    Raises ClassificationError when the admitted set does not have size e,
    ValueError at m = 1 or i outside 1..n."""
    found = [
        PathDescriptor(*fields, mu, case)
        for (case, mu), paths in admitted_anchors(desc, i)
        for fields in paths
    ]
    if len(found) != desc.e:
        raise ClassificationError(desc, i, found)
    return found


# The modules of one admitted anchor: their verdict, their paths, at least
# one, and the character they share.
CharacterGroup = tuple[Verdict, tuple[PathFields, ...], BlockCharacter]


class VertexEnumeration(NamedTuple):
    """What enumeration finds at one vertex index: the admitted anchor
    groups in candidate order, each with the character its paths share,
    and the ClassificationError text when the paths do not number e, else
    None."""

    vertex: int
    groups: tuple[CharacterGroup, ...]
    error: str | None


def enumerate_block(desc: BlockDescriptor, indices) -> list[VertexEnumeration]:
    """The enumeration at each of the vertex indices, in their order: the
    groups of `admitted_anchors`, each with one character, assembled from
    its first path, and the count error returned, not raised.  Raises
    ValueError at m = 1 or an index outside 1..n."""
    results = []
    for i in indices:
        groups = admitted_anchors(desc, i)
        count = sum(len(paths) for _, paths in groups)
        error = None
        if count != desc.e:
            error = ClassificationError.message(desc, i, count)
        characters = tuple(
            (
                (case, mu),
                paths,
                character_of(desc, i, PathDescriptor(*paths[0], mu, case)),
            )
            for (case, mu), paths in groups
        )
        results.append(VertexEnumeration(i, characters, error))
    return results


def _anchors(desc: BlockDescriptor) -> Iterator[tuple[ClassKey, str | None]]:
    """The anchors in candidate order, each with its class key, the same
    at every vertex index: the hooks first as one anchor, None (each hook
    affords a positive endpoint), then the non-exceptional vertices in
    descriptor order, then the exceptional vertex."""
    yield (1, POSITIVE, 0), None
    spines, signs, exc = desc.spines, desc.signs, desc.exceptional
    for x0 in desc.nonexceptional_vertices:
        yield (SPINE, signs[x0], (len(spines[x0][0]) - 1) % 2), x0
    yield (3 if desc.is_leaf(exc) else 7, signs[exc], 0), exc


def _anchor_paths(
    desc: BlockDescriptor, anchor: str | None
) -> tuple[PathFields, ...]:
    """The candidate paths anchored at a vertex, or the hooks at None."""
    if anchor is None:
        return tuple(_hooks(desc))
    if anchor == desc.exceptional:
        return tuple(_exceptional_paths(desc, anchor))
    return tuple(_spine_paths(desc, anchor, *desc.spines[anchor]))


def _hooks(desc: BlockDescriptor) -> Iterator[PathFields]:
    for edge in desc.edges:
        for v in edge.ends:
            if desc.signs[v] > 0:
                yield 1, (v,), (edge.id,), (), (1, 1)


def _spine_paths(
    desc: BlockDescriptor,
    x0: str,
    spine_v: tuple[str, ...],
    spine_e: tuple[str, ...],
) -> Iterator[PathFields]:
    """Shape 2 at a leaf x0; shapes 4, 5 and 6 at any other x0."""
    if desc.is_leaf(x0):
        yield 2, spine_v, spine_e, (), (1, -1)
        return
    first = spine_e[0]
    yield 4, spine_v, spine_e, (successor(desc, x0, first),), (1, 1)
    yield 5, spine_v, spine_e, (predecessor(desc, x0, first),), (-1, -1)
    order = desc.cyclic_order[x0]
    for e1, e2 in zip(order, order[1:] + order[:1]):
        if e1 != first and e2 != first and e1 != e2:
            yield 6, spine_v, spine_e, (e1, e2), (-1, 1)


def _exceptional_paths(desc: BlockDescriptor, exc: str) -> Iterator[PathFields]:
    """Shape 3 at a leaf exceptional vertex; shape 7 at any other."""
    order = desc.cyclic_order[exc]
    if desc.is_leaf(exc):
        yield 3, (), (order[0],), (), (-1, 1)
        return
    for e1, e2 in zip(order, order[1:] + order[:1]):
        if e1 != e2:
            yield 7, (), (), (e1, e2), (-1, 1)


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
    hooks = tuple(
        ConditionalHook(edge.id, vertex, vertex_character(desc, vertex))
        for edge in desc.edges
        for vertex in edge.ends
    )
    return M1Enumeration(enumerate_projective(desc), hooks)
