"""Brauer tree descriptors: the combinatorial input object for a block.

A descriptor carries the numerical invariants (p, n, e), the tree itself
with opaque vertex and edge ids, a planar embedding given as a cyclic
ordering of the incident edges at every vertex (counter-clockwise; the
successor of an edge is its counter-clockwise neighbour), the exceptional
vertex when the exceptional multiplicity m = (p^n - 1)/e exceeds one, a
sign for every vertex (the sign of the vertex's character value at a fixed
generator of the subgroup of order p), and the endo-permutation parameter
of the block's source algebra.

Vertex signs are input data, never computed: the map from vertex labels to
characters of an actual group is outside this library.  Adjacent vertices
carry opposite signs in every block arising in nature (each projective
character is the sum of the two endpoint characters and vanishes on
p-singular elements); `validate` enforces that only in strict mode since
the descriptor format itself does not require it.

Characters of the block are integer vectors split into a non-exceptional
part (indexed by the non-exceptional vertices in descriptor order) and an
exceptional part (indexed by the orbit representatives kappa(1) < ... <
kappa(m) of the exceptional index set).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .cyclotomic import is_odd_prime
from .local_reps import EndoPermParams

POSITIVE = 1
NEGATIVE = -1


@dataclass(frozen=True)
class Edge:
    id: str
    ends: tuple[str, str]


@dataclass(frozen=True)
class BlockDescriptor:
    p: int
    n: int
    e: int
    vertices: tuple[str, ...]
    signs: Mapping[str, int]
    edges: tuple[Edge, ...]
    cyclic_order: Mapping[str, tuple[str, ...]]
    exceptional: str | None
    w: EndoPermParams

    @property
    def m(self) -> int:
        """Exceptional multiplicity (p^n - 1)/e."""
        return (self.p ** self.n - 1) // self.e

    @cached_property
    def nonexceptional_vertices(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if v != self.exceptional)

    @cached_property
    def _edges_by_id(self) -> dict[str, Edge]:
        return {edge.id: edge for edge in self.edges}

    @cached_property
    def toward_exceptional(self) -> dict[str, tuple[str, str]]:
        """For every vertex but the exceptional one, the edge and the
        neighbour one step closer to the exceptional vertex, from one
        traversal of the tree; each vertex comes after its neighbour."""
        if self.exceptional is None:
            raise ValueError("descriptor has no exceptional vertex (m = 1)")
        out: dict[str, tuple[str, str]] = {}
        reached = [self.exceptional]
        for v in reached:
            for eid in self.cyclic_order[v]:
                w = self.other_end(eid, v)
                if w != self.exceptional and w not in out:
                    out[w] = (eid, v)
                    reached.append(w)
        return out

    def edge_by_id(self, edge_id: str) -> Edge:
        try:
            return self._edges_by_id[edge_id]
        except KeyError:
            raise KeyError(f"no edge {edge_id!r}") from None

    def other_end(self, edge_id: str, vertex: str) -> str:
        a, b = self.edge_by_id(edge_id).ends
        if vertex == a:
            return b
        if vertex == b:
            return a
        raise ValueError(f"edge {edge_id!r} is not incident to {vertex!r}")

    def incident(self, vertex: str) -> tuple[str, ...]:
        """Incident edge ids in cyclic (counter-clockwise) order."""
        return tuple(self.cyclic_order[vertex])

    def degree(self, vertex: str) -> int:
        return len(self.cyclic_order[vertex])

    def is_leaf(self, vertex: str) -> bool:
        return self.degree(vertex) == 1

    def sign(self, vertex: str) -> int:
        return self.signs[vertex]


@dataclass(frozen=True)
class BlockCharacter:
    """Integer multiplicity vector over the ordinary characters of the block.

    `nonexceptional` follows the descriptor's non-exceptional vertex order;
    `exceptional` follows the ascending orbit representatives (empty when
    m = 1).  Characters of trivial source lifts are 0/1-valued throughout.
    """

    nonexceptional: tuple[int, ...]
    exceptional: tuple[int, ...]

    def __add__(self, other: "BlockCharacter") -> "BlockCharacter":
        self._check_shape(other)
        return BlockCharacter(
            tuple(a + b for a, b in zip(self.nonexceptional, other.nonexceptional)),
            tuple(a + b for a, b in zip(self.exceptional, other.exceptional)),
        )

    @property
    def is_zero_one(self) -> bool:
        return all(c in (0, 1) for c in self.nonexceptional + self.exceptional)

    def _check_shape(self, other: "BlockCharacter") -> None:
        if len(self.nonexceptional) != len(other.nonexceptional) or len(
            self.exceptional
        ) != len(other.exceptional):
            raise ValueError("block character shapes differ")


def exceptional_bundle(desc: BlockDescriptor) -> BlockCharacter:
    """The sum of all exceptional characters (all-ones exceptional part)."""
    if desc.exceptional is None:
        raise ValueError("descriptor has no exceptional vertex (m = 1)")
    return BlockCharacter(
        (0,) * len(desc.nonexceptional_vertices), (1,) * desc.m
    )


def vertex_character(desc: BlockDescriptor, vertex: str) -> BlockCharacter:
    """Indicator of a non-exceptional vertex, or the full exceptional bundle."""
    if vertex == desc.exceptional:
        return exceptional_bundle(desc)
    plain = desc.nonexceptional_vertices
    if vertex not in plain:
        raise KeyError(f"no vertex {vertex!r}")
    exc = desc.m if desc.exceptional is not None else 0
    return BlockCharacter(
        tuple(1 if v == vertex else 0 for v in plain), (0,) * exc
    )


def validate(desc: BlockDescriptor, strict: bool = False) -> list[str]:
    """Every violated invariant as a message; empty means valid.

    Strict mode additionally demands opposite signs across every edge.
    """
    out: list[str] = []
    try:
        if not is_odd_prime(desc.p):
            out.append(f"p = {desc.p} is not an odd prime")
    except ValueError as err:
        out.append(str(err))
    if desc.n < 1:
        out.append(f"n = {desc.n} must be at least 1")
    if desc.e < 1:
        out.append(f"e = {desc.e} must be at least 1")
    elif desc.p >= 3 and (desc.p - 1) % desc.e != 0:
        out.append("e does not divide p-1")

    ids = [e.id for e in desc.edges]
    if len(set(ids)) != len(ids):
        out.append("duplicate edge ids")
    if len(set(desc.vertices)) != len(desc.vertices):
        out.append("duplicate vertex ids")
    if len(desc.edges) != desc.e:
        out.append(f"tree has {len(desc.edges)} edges, expected e = {desc.e}")
    if len(desc.vertices) != desc.e + 1:
        out.append(
            f"tree has {len(desc.vertices)} vertices, expected e + 1 = {desc.e + 1}"
        )

    vertex_set = set(desc.vertices)
    incident: dict[str, set[str]] = {v: set() for v in desc.vertices}
    neighbours: dict[str, list[str]] = {v: [] for v in desc.vertices}
    for edge in desc.edges:
        a, b = edge.ends
        if a not in vertex_set or b not in vertex_set:
            out.append(f"edge {edge.id} has unknown endpoint")
            continue
        if a == b:
            out.append(f"edge {edge.id} is a loop")
            continue
        incident[a].add(edge.id)
        incident[b].add(edge.id)
        neighbours[a].append(b)
        neighbours[b].append(a)

    if not _is_connected(neighbours):
        out.append("tree is not connected")

    for v in desc.vertices:
        order = desc.cyclic_order.get(v)
        if order is None:
            out.append(f"no cyclic order at vertex {v}")
            continue
        if len(order) != len(set(order)) or set(order) != incident[v]:
            out.append(f"cyclic order at {v} is not a permutation of its edges")

    for v in desc.vertices:
        if desc.signs.get(v) not in (POSITIVE, NEGATIVE):
            out.append(f"vertex {v} has no sign")

    if desc.e >= 1 and desc.p >= 3 and (desc.p - 1) % desc.e == 0:
        if desc.m > 1:
            if desc.exceptional is None:
                out.append("m > 1 requires an exceptional vertex")
            elif desc.exceptional not in vertex_set:
                out.append(f"exceptional vertex {desc.exceptional} unknown")
        elif desc.exceptional is not None:
            out.append("m = 1 forbids an exceptional vertex")

    if desc.w.indices:
        if not desc.w.is_block_form:
            out.append(f"W indices {desc.w.indices} must be >= 1")
        if desc.w.indices[-1] > desc.n - 1:
            out.append(f"W index {desc.w.indices[-1]} outside 1..{desc.n - 1}")

    if strict:
        out.extend(sign_alternation_violations(desc))
    return out


def sign_alternation_violations(desc: BlockDescriptor) -> list[str]:
    out = []
    for edge in desc.edges:
        a, b = edge.ends
        if desc.signs.get(a) == desc.signs.get(b):
            out.append(f"sign alternation violated at edge {edge.id}")
    return out


def _is_connected(neighbours: dict[str, list[str]]) -> bool:
    """Whether the graph with these adjacency lists is non-empty and
    connected."""
    if not neighbours:
        return False
    seen = set()
    stack = [next(iter(neighbours))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(w for w in neighbours[v] if w not in seen)
    return len(seen) == len(neighbours)


def successor(desc: BlockDescriptor, vertex: str, edge_id: str) -> str:
    """Next edge counter-clockwise after edge_id in the cyclic order at vertex."""
    return _planar_step(desc, vertex, edge_id, 1)


def predecessor(desc: BlockDescriptor, vertex: str, edge_id: str) -> str:
    """The edge whose successor at vertex is edge_id."""
    return _planar_step(desc, vertex, edge_id, -1)


def _planar_step(desc: BlockDescriptor, vertex: str, edge_id: str, step: int) -> str:
    order = desc.incident(vertex)
    if edge_id not in order:
        raise ValueError(f"edge {edge_id!r} is not incident to {vertex!r}")
    return order[(order.index(edge_id) + step) % len(order)]


def pim_character(desc: BlockDescriptor, edge_id: str) -> BlockCharacter:
    """Character of the projective cover of the simple at this edge: the sum
    of both endpoint characters, the exceptional endpoint contributing the
    whole bundle."""
    a, b = hook_characters(desc, edge_id)
    return a + b


def hook_characters(
    desc: BlockDescriptor, edge_id: str
) -> tuple[BlockCharacter, BlockCharacter]:
    """The two endpoint characters of the edge, in endpoint order."""
    a, b = desc.edge_by_id(edge_id).ends
    return vertex_character(desc, a), vertex_character(desc, b)


def star_tree(
    e: int, p: int, n: int, w: EndoPermParams, center_sign: int
) -> BlockDescriptor:
    """Star with e non-exceptional leaves around an exceptional centre.

    Leaves get the opposite of center_sign; the cyclic order at the centre
    is E1, ..., Ee.  Requires e | p-1 and exceptional multiplicity > 1.
    """
    # refused before e leaves are built; validate reports the rest
    if e < 1 or (p - 1) % e != 0:
        raise ValueError(f"e = {e} does not divide p-1 = {p - 1}")
    center = "exc"
    leaves = tuple(f"v{x}" for x in range(1, e + 1))
    edge_ids = tuple(f"E{x}" for x in range(1, e + 1))
    desc = BlockDescriptor(
        p=p,
        n=n,
        e=e,
        vertices=leaves + (center,),
        signs={**{v: -center_sign for v in leaves}, center: center_sign},
        edges=tuple(Edge(eid, (v, center)) for eid, v in zip(edge_ids, leaves)),
        cyclic_order={**{v: (eid,) for v, eid in zip(leaves, edge_ids)}, center: edge_ids},
        exceptional=center,
        w=w,
    )
    return _validated(desc)


def group_algebra_block(p: int, n: int) -> BlockDescriptor:
    """The one-edge descriptor of the cyclic group's own group algebra:
    e = 1, trivial endo-permutation parameter, positive plain vertex."""
    desc = BlockDescriptor(
        p=p,
        n=n,
        e=1,
        vertices=("chi1", "exc"),
        signs={"chi1": POSITIVE, "exc": NEGATIVE},
        edges=(Edge("E1", ("chi1", "exc")),),
        cyclic_order={"chi1": ("E1",), "exc": ("E1",)},
        exceptional="exc",
        w=EndoPermParams(()),
    )
    return _validated(desc)


def _validated(desc: BlockDescriptor) -> BlockDescriptor:
    problems = validate(desc)
    if problems:
        raise ValueError("; ".join(problems))
    return desc
