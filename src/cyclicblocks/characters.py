"""Exceptional orbit structure and the character engine for a block.

The exceptional ordinary characters of a block are indexed by the orbits of
the inertial action on the nontrivial characters of the defect group: a
fixed generator a of the unique order-e subgroup of (Z/p^n)* multiplies the
index kappa, every orbit has length e, and we index exceptional coordinates
by the ascending orbit minima kappa(1) < ... < kappa(m).

The central objects are the shared exceptional part Xi(W, i) carried by all
non-hook trivial source modules with vertex of order p^i, its complement
inside the full exceptional bundle, and the per-module assembly of the full
character from an admissible path descriptor.  A parity datum governs
everything: t(i) is the number of endo-permutation indices below i minus
one, and the leading coefficient d0 is 1 exactly when t(i) is odd, with the
empty case t(i) = -1 counting as odd (forced by the trivial-parameter case,
whose local character contains the trivial constituent).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from math import gcd
from operator import mod, mul
from typing import TYPE_CHECKING

from .brauer_tree import (
    BlockCharacter,
    BlockDescriptor,
    vertex_character,
)
from .cyclotomic import CyclicCharacter, _smallest_factor
from .local_reps import (
    CharacterConsistencyError,
    CyclicGroupData,
    EndoPermParams,
    morita_correspondent_character,
    restricted_cap_params,
    u_module_dimension,
)


if TYPE_CHECKING:
    from .classification import PathDescriptor


@dataclass(frozen=True)
class OrbitStructure:
    """Orbits of kappa -> a*kappa mod p^n on {1, ..., p^n - 1}.

    a is the smallest positive integer of multiplicative order exactly e;
    the subgroup of order e is unique, so the orbits do not depend on this
    choice.  The p-adic valuation is constant on each orbit (a is a unit),
    so divisibility of a representative by p^j is a property of the orbit:
    `levels[r]` is the valuation of `representatives[r]`, one byte each
    (a p^n that can be indexed has n < 256).
    """

    p: int
    n: int
    e: int
    a: int
    representatives: tuple[int, ...]
    levels: bytes

    @property
    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Every orbit in ascending order, listed by ascending minimum;
        built afresh on each read."""
        q = self.p ** self.n
        reps = self.representatives
        columns = (
            map(mod, map(mul, reps, repeat(h)), repeat(q))
            for h in _powers(self.a, self.e, q)
        )
        return tuple(map(tuple, map(sorted, zip(*columns))))


@lru_cache(maxsize=None)
def exceptional_orbits(p: int, n: int, e: int) -> OrbitStructure:
    """Orbit structure for the order-e inertial action, e | p-1.

    One pass over the indices: each orbit u*H of the order-e subgroup H is
    marked from its least unmarked element u, which is its representative.
    A mark that lands twice means an orbit shorter than e.
    """
    CyclicGroupData(p, n)
    if e < 1 or (p - 1) % e != 0:
        raise ValueError(f"e = {e} does not divide p-1 = {p - 1}")
    q = p ** n
    # allocated before the generator's powers, so that a q too large to
    # index is refused at once
    seen = bytearray(q)
    a = _smallest_of_order(p, n, e)
    others = _powers(a, e, q)[1:]
    reps = []
    append, find = reps.append, seen.find
    start = 1
    while start > 0:
        seen[start] = 1
        for h in others:
            kappa = start * h % q
            if seen[kappa]:
                raise CharacterConsistencyError(
                    f"orbit of {start} is shorter than {e}"
                )
            seen[kappa] = 1
        append(start)
        start = find(0, start + 1)
    # gcd(kappa, p^n) = p^v for the valuation v < n of kappa
    level_of = {p ** v: v for v in range(n)}
    levels = bytes(map(level_of.__getitem__, map(gcd, reps, repeat(q))))
    return OrbitStructure(p, n, e, a, tuple(reps), levels)


def _powers(a: int, e: int, q: int) -> tuple[int, ...]:
    """1, a, ..., a^(e-1) mod q; raises unless a^e = 1 mod q."""
    powers = [1]
    for _ in range(e - 1):
        powers.append(powers[-1] * a % q)
    if powers[-1] * a % q != 1:
        raise CharacterConsistencyError(f"{a}^{e} is not 1 mod {q}")
    return tuple(powers)


def _smallest_of_order(p: int, n: int, e: int) -> int:
    """Smallest positive integer of multiplicative order exactly e mod p^n.

    An element h of order e mod p lifts to a0 = h^(p^(n-1)) mod p^n, which
    is congruent to h mod p and of order e; the elements of order e are the
    powers a0^k with gcd(k, e) = 1, so O(e) modular powers find the least.
    """
    if (p - 1) % e != 0:
        raise ValueError(f"no element of order {e} mod {p}^{n}")
    primes = set()
    rest = e
    while rest > 1:
        r = _smallest_factor(rest)
        primes.add(r)
        rest //= r
    for g in range(1, p):
        h = pow(g, (p - 1) // e, p)
        if all(pow(h, e // r, p) != 1 for r in primes):
            break
    else:
        raise ValueError(f"no element of order {e} mod {p}")
    q = p ** n
    a0 = pow(h, p ** (n - 1), q)
    return min(pow(a0, k, q) for k in range(1, e + 1) if gcd(k, e) == 1)


def t_and_d0(w: EndoPermParams, i: int) -> tuple[int, int]:
    """Largest index position below i (or -1 when none) and the leading
    coefficient d0 = 1 iff that position is odd, -1 counting as odd."""
    t = sum(1 for a in w.indices if a <= i - 1) - 1
    return t, 1 if t % 2 != 0 else 0


def xi(desc: BlockDescriptor, i: int) -> BlockCharacter:
    """The exceptional part shared by all non-hook trivial source modules
    with vertex of order p^i.

    Coordinate at the representative kappa(r): the alternating sum of the
    divisibility indicators [p^{i_j} | kappa(r)] over the parameter indices
    below i, closed by [p^i | kappa(r)].  Nested divisibility telescopes the
    sum into {0, 1}, and the number of ones is (cap_dim * p^{n-i} - d0)/e.
    The result depends only on (p, n, e, W, i) and is computed once per
    vertex index.
    """
    part, _ = _exceptional_pair(desc, i)
    return BlockCharacter((0,) * len(desc.nonexceptional_vertices), part)


def xi_complement(desc: BlockDescriptor, i: int) -> BlockCharacter:
    """Complement of xi inside the full exceptional bundle (coordinatewise
    1 - xi); the other value the exceptional part of a trivial source
    character can take."""
    _, complement = _exceptional_pair(desc, i)
    return BlockCharacter((0,) * len(desc.nonexceptional_vertices), complement)


def _exceptional_pair(
    desc: BlockDescriptor, i: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if desc.exceptional is None:
        raise ValueError("descriptor has no exceptional characters (m = 1)")
    return _exceptional_coordinates(desc.p, desc.n, desc.e, desc.w, i)


@lru_cache(maxsize=None)
def _exceptional_coordinates(
    p: int, n: int, e: int, w: EndoPermParams, i: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exceptional coordinates of xi and of its complement.

    The indicator sum depends on a representative only through its p-adic
    valuation, so it is taken once per valuation level 0..n-1; the 0/1
    check and the count law run on those n values, level v weighted by its
    p^(n-v-1)(p-1)/e orbits.  Each coordinate tuple is then one byte
    translation of the representatives' levels.
    """
    levels = exceptional_orbits(p, n, e).levels
    g = CyclicGroupData(p, n)
    # the cut at index a adds its sign to every level from a up
    steps = [0] * (n + 1)
    for j, a in enumerate(restricted_cap_params(w, g, i).indices + (i,)):
        steps[a] += (-1) ** j
    per_level = list(accumulate(steps[:n]))
    if not set(per_level) <= {0, 1}:
        raise CharacterConsistencyError(
            f"exceptional level values outside 0/1: {per_level}"
        )
    _, d0 = t_and_d0(w, i)
    dim = u_module_dimension(w, g, i)
    count = sum(
        c * (p ** (n - v - 1) * (p - 1) // e) for v, c in enumerate(per_level)
    )
    if (dim - d0) % e != 0 or count != (dim - d0) // e:
        raise CharacterConsistencyError(f"count {count} != ({dim} - {d0})/{e}")
    # a translation table has 256 entries; only the first n are levels
    unused = bytes(256 - n)
    part = levels.translate(bytes(per_level) + unused)
    complement = levels.translate(bytes(1 - c for c in per_level) + unused)
    return tuple(part), tuple(complement)


def xi_complement_nondivisible(desc: BlockDescriptor, i: int) -> tuple[int, ...]:
    """Complement assembled from NON-divisibility indicators, returned raw.

    Agrees with the exceptional coordinates of `xi_complement` exactly when
    t(i) is odd; when t(i) is even it comes out lower by the full bundle
    (every coordinate off by one, some of them negative), which is why the
    1 - xi form above is the one used for characters.
    """
    if desc.exceptional is None:
        raise ValueError("descriptor has no exceptional characters (m = 1)")
    p = desc.p
    below = restricted_cap_params(desc.w, CyclicGroupData(p, desc.n), i).indices
    signed = [((-1) ** j, p ** a) for j, a in enumerate(below + (i,))]
    return tuple(
        sum(sign for sign, power in signed if rep % power != 0)
        for rep in exceptional_orbits(p, desc.n, desc.e).representatives
    )


def nilpotent_level_character(
    w: EndoPermParams, p: int, n: int, i: int
) -> CyclicCharacter:
    """Character of the unique local trivial source module with vertex of
    order p^i, written over the relabelled irreducibles of the nilpotent
    block.  The multiplicity vector is the one of the Morita correspondent;
    the trivial coordinate equals d0."""
    g = CyclicGroupData(p, n)
    chi = morita_correspondent_character(w, g, i)
    _, d0 = t_and_d0(w, i)
    if chi.mults[0] != d0:
        raise CharacterConsistencyError(
            f"trivial coordinate {chi.mults[0]} != d0 = {d0}"
        )
    return chi


def b_level_character(
    star_desc: BlockDescriptor, i: int, x: int
) -> BlockCharacter:
    """Character of the x-th trivial source module with vertex of order p^i
    in a star block with exceptional centre (the local block one level up
    from the nilpotent one).

    The non-exceptional part is d0 times the x-th leaf character; the
    exceptional part is xi.  Requires the genuine orientation: negative
    centre, positive leaves.
    """
    if (
        star_desc.exceptional is None
        or star_desc.degree(star_desc.exceptional) != star_desc.e
    ):
        raise ValueError("descriptor is not a star with exceptional centre")
    if star_desc.sign(star_desc.exceptional) != -1 or any(
        star_desc.sign(v) != 1 for v in star_desc.nonexceptional_vertices
    ):
        raise ValueError("star must have negative centre and positive leaves")
    if not 1 <= x <= star_desc.e:
        raise ValueError(f"leaf index {x} outside 1..{star_desc.e}")
    _, d0 = t_and_d0(star_desc.w, i)
    leaf = star_desc.nonexceptional_vertices[x - 1]
    part = xi(star_desc, i)
    return vertex_character(star_desc, leaf) + part if d0 else part


def omega_twist(xi_part: BlockCharacter, steps: int) -> BlockCharacter:
    """Exceptional part after `steps` syzygies: unchanged for even steps,
    complemented inside the bundle for odd steps."""
    if any(c not in (0, 1) for c in xi_part.exceptional):
        raise ValueError("exceptional part must be 0/1-valued")
    if steps % 2 == 0:
        return xi_part
    return BlockCharacter(
        xi_part.nonexceptional,
        tuple(1 - c for c in xi_part.exceptional),
    )


def character_of(
    desc: BlockDescriptor, i: int, path: "PathDescriptor"
) -> BlockCharacter:
    """Character of the trivial source lift of the module an admissible path
    describes.

    The non-exceptional part is the sum of the spine vertex characters
    (empty for the two shapes anchored at the exceptional vertex); the
    exceptional part is xi for the cases tagged ii and iii and the
    complement for i and iv.  Hooks afford the single character of their
    positive endpoint, the whole bundle when that endpoint is exceptional.
    One-edge blocks (e = 1) have a single module per vertex whose character
    is governed by the sign of the plain vertex and d0 alone.
    """
    if path.case_tag is None and path.type_tag != 1:
        raise ValueError("path has not been through admissibility")
    if desc.e == 1:
        if path.case_tag not in ("i", "ii"):
            raise CharacterConsistencyError(
                f"case {path.case_tag!r} invalid for e = 1"
            )
        _, d0 = t_and_d0(desc.w, i)
        plain = (d0,) if path.case_tag == "i" else (1 - d0,)
        complement = path.case_tag == "ii"
    elif path.type_tag == 1:
        return vertex_character(desc, path.spine_vertices[0])
    elif path.case_tag not in ("i", "ii", "iii", "iv"):
        raise CharacterConsistencyError(f"unknown case tag {path.case_tag!r}")
    else:
        # one count per spine vertex, so that a repeated vertex shows as a 2
        spine = Counter(
            path.spine_vertices if path.type_tag in (2, 4, 5, 6) else ()
        )
        plain = tuple(spine.pop(v, 0) for v in desc.nonexceptional_vertices)
        if spine:
            raise KeyError(f"no non-exceptional vertex {next(iter(spine))!r}")
        complement = path.case_tag in ("i", "iv")
    # the exceptional part is one of two tuples already checked to be 0/1
    if not set(plain) <= {0, 1}:
        raise CharacterConsistencyError(
            f"assembled character is not 0/1-valued: {plain}"
        )
    part, complement_part = _exceptional_pair(desc, i)
    return BlockCharacter(plain, complement_part if complement else part)
