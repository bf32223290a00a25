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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple

from .cyclotomic import is_odd_prime
from .local_reps import CyclicGroupData, EndoPermParams, correspondents_by_index

POSITIVE = 1
NEGATIVE = -1


class Edge(NamedTuple):
    id: str
    ends: tuple[str, str]


class IndexEntry(NamedTuple):
    """What vertex index i of a descriptor depends on, (p, n, W, i) alone,
    the same for every e: the cap dimension and the values of xi and of
    its complement on the valuation levels below n, one byte each."""

    cap_dim: int
    xi_levels: tuple[bytes, bytes]


# the byte translation that takes a 0/1 level value to one minus it
_COMPLEMENT = b"\x01\x00" + bytes(254)


@dataclass(frozen=True)
class BlockDescriptor:
    """A block's Brauer tree descriptor, as the module docstring describes;
    `validate` lists what is wrong with one."""

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
    def spines(self) -> dict[str, tuple[tuple[str, ...], tuple[str, ...]]]:
        """For every vertex but the exceptional one, the unique tree path to
        the exceptional vertex: the non-exceptional vertices visited and the
        edges walked.  One traversal from the exceptional vertex builds them
        all: each newly reached vertex takes its neighbour's spine with
        itself and its edge in front, and comes after that neighbour."""
        exc = self.exceptional
        if exc is None:
            raise ValueError("descriptor has no exceptional vertex (m = 1)")
        out: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {}
        edges = self._edges_by_id
        reached = [(exc, (), ())]
        for v, vertices, walked in reached:
            for eid in self.cyclic_order[v]:
                try:
                    a, b = edges[eid].ends
                except KeyError:
                    raise KeyError(f"no edge {eid!r}") from None
                if v == a:
                    w = b
                elif v == b:
                    w = a
                else:
                    raise ValueError(f"edge {eid!r} is not incident to {v!r}")
                if w != exc and w not in out:
                    spine = out[w] = ((w,) + vertices, (eid,) + walked)
                    reached.append((w, *spine))
        return out

    @cached_property
    def nonexceptional_positions(self) -> dict[str, int]:
        """Position of each non-exceptional vertex in the non-exceptional
        part of a character."""
        return {v: k for k, v in enumerate(self.nonexceptional_vertices)}

    @cached_property
    def index_table(self) -> dict[int, IndexEntry]:
        """The entry of every vertex index i = 1 ... n, from one sweep over
        W that checks (p, n, W) once.  xi's level values are the Morita
        correspondent's below n, checked 0/1 and of degree
        cap_dim * p^(n-i), the count law.  Data only: the verdicts, which
        depend on e too, are decided where paths are admitted.  Raises
        ValueError for a p, n or W that the closed forms refuse, W not in
        block form included.  Read an entry with `index_entry`."""
        n = self.n
        table = {}
        forms = correspondents_by_index(self.w, CyclicGroupData(self.p, n))
        for i, (ell, levels) in enumerate(forms, 1):
            xi = bytes(levels[:n])
            table[i] = IndexEntry(ell, (xi, xi.translate(_COMPLEMENT)))
        return table

    def index_entry(self, i: int) -> IndexEntry:
        """The entry of `index_table` at vertex index i."""
        entry = self.index_table.get(i)
        if entry is None:
            raise ValueError(f"vertex index {i} outside 1..{self.n}")
        return entry

    def edge_by_id(self, edge_id: str) -> Edge:
        try:
            return self._edges_by_id[edge_id]
        except KeyError:
            raise KeyError(f"no edge {edge_id!r}") from None

    def is_leaf(self, vertex: str) -> bool:
        return len(self.cyclic_order[vertex]) == 1


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
        distinct = set(order)
        if len(order) != len(distinct) or distinct != incident[v]:
            out.append(f"cyclic order at {v} is not a permutation of its edges")

    for v in desc.vertices:
        if desc.signs.get(v) not in (POSITIVE, NEGATIVE):
            out.append(f"vertex {v} has no sign")

    if desc.e >= 1 and desc.p >= 3 and (desc.p - 1) % desc.e == 0:
        # m = (p^n - 1)/e, and e divides p - 1, so m > 1 exactly when
        # n > 1, or n = 1 and e < p - 1; p^n is never formed
        if desc.n > 1 or (desc.n == 1 and desc.e < desc.p - 1):
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
    first = next(iter(neighbours))
    seen = {first}
    reached = [first]
    for v in reached:
        for w in neighbours[v]:
            if w not in seen:
                seen.add(w)
                reached.append(w)
    return len(seen) == len(neighbours)


def successor(desc: BlockDescriptor, vertex: str, edge_id: str) -> str:
    """Next edge counter-clockwise after edge_id in the cyclic order at vertex."""
    return _planar_step(desc, vertex, edge_id, 1)


def predecessor(desc: BlockDescriptor, vertex: str, edge_id: str) -> str:
    """The edge whose successor at vertex is edge_id."""
    return _planar_step(desc, vertex, edge_id, -1)


def _planar_step(desc: BlockDescriptor, vertex: str, edge_id: str, step: int) -> str:
    order = desc.cyclic_order[vertex]
    if edge_id not in order:
        raise ValueError(f"edge {edge_id!r} is not incident to {vertex!r}")
    return order[(order.index(edge_id) + step) % len(order)]


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
