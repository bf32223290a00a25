"""Exceptional orbit structure and the character engine for a block.

The exceptional ordinary characters of a block are indexed by the orbits of
the inertial action on the nontrivial characters of the defect group: a
fixed generator a of the unique order-e subgroup of (Z/p^n)* multiplies the
index kappa, every orbit has length e, and we index exceptional coordinates
by the ascending orbit minima kappa(1) < ... < kappa(m).

Characters of the block are integer vectors split into a non-exceptional
part (indexed by the non-exceptional vertices in descriptor order) and an
exceptional part (indexed by the orbit representatives kappa(1) < ... <
kappa(m)).  A `BlockCharacter` holds the non-exceptional part as one byte
per vertex.  Every exceptional part the package builds is constant on the
valuation levels of kappa, so it is held as its n level values; the m
coordinates are a view.

The central objects are the shared exceptional part Xi(W, i) carried by all
non-hook trivial source modules with vertex of order p^i, its complement
inside the full exceptional bundle, and the per-module assembly of the full
character from an admitted path descriptor.  Xi's value at kappa is the
Morita correspondent's (`local_reps.morita_correspondent_character`) at the
valuation level of kappa.  A parity datum governs everything: t(i) is the
number of endo-permutation indices below i minus one, and the leading
coefficient d0 is 1 exactly when t(i) is odd, with the empty case t(i) = -1
counting as odd (forced by the trivial-parameter case, whose local character
contains the trivial constituent).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import gcd
from operator import add
from typing import TYPE_CHECKING, NamedTuple

from .brauer_tree import BlockDescriptor
from .local_reps import (
    CharacterConsistencyError,
    CyclicGroupData,
    EndoPermParams,
)


if TYPE_CHECKING:
    from .classification import PathDescriptor


class OrbitStructure(NamedTuple):
    """Orbits of kappa -> a*kappa mod p^n on {1, ..., p^n - 1}.

    a is the smallest positive integer of multiplicative order exactly e;
    the subgroup of order e is unique, so the orbits do not depend on this
    choice.  For even e that subgroup holds -1 = a^(e/2), so every orbit is
    a union of pairs {kappa, p^n - kappa} and its minimum lies below p^n/2.
    `representatives` are the orbit minima in ascending order; see
    `exceptional_orbits` for how they are found.  The orbits themselves are
    not kept: the orbit of r is r*a^k mod p^n for k < e.
    The p-adic valuation is constant on each orbit (a is a unit), so
    divisibility of a representative by p^j is a property of the orbit:
    `levels[r]` is the valuation of `representatives[r]`, one byte each
    (a p^n that can be indexed has n < 256).

    The minima of valuation at least v < n are p^v times the minima of
    (p, n - v, e), at their levels shifted by v: x = p^v*y has orbit
    p^v*(orbit of y mod p^(n-v)), since the order-e subgroup mod p^n
    reduces onto the one mod p^(n-v).  So a character lambda_kappa with
    p^v | kappa, inflated from D/D_v, finds its orbit in the smaller
    table (`orbits_from_level`).
    """

    p: int
    n: int
    e: int
    a: int
    representatives: tuple[int, ...]
    levels: bytes


@lru_cache(maxsize=None)
def exceptional_orbits(p: int, n: int, e: int) -> OrbitStructure:
    """Orbit structure for the order-e inertial action, e | p-1.

    Write half = (p^n - 1)/2 for even e, whose subgroup H holds
    -1 = a^(e/2), so that every orbit minimum lies up to half, and
    half = p^n - 1 for odd e.  At e <= 2 every orbit is {x, p^n - x} or
    {x}, and the representatives are 1 ... half with no search.

    When e > 2 and 16*e*e < p^n, an index x <= half is an orbit minimum
    exactly when fold(h*x mod p^n) > x, fold(z) = min(z, p^n - z), for
    every h among a^1 ... a^(e/2 - 1) (even e), or h*x mod p^n > x for
    every h among a^1 ... a^(e-1) (odd e).  There are no ties: H embeds in
    (Z/p)*, so h*x = +-x mod p^n forces h = +-1.  The x that fail the test
    for one h are the first coordinates of the points of a lattice of
    determinant p^n in a triangle; they lie on about sqrt(p^n) lines, each
    marked by one C-level strided write (`_mark_lattice_points`), so the
    interpreted work is O(e*sqrt(p^n)) and only the byte work O(p^n).

    Otherwise (n small, e near p) the orbits are told apart by a key
    (`_minima_by_key`): x = p^v*u with u a unit lies in the orbit fixed by
    (v, u^e mod p^(n-v)), because the e-th-power map on (Z/p^k)* has
    kernel exactly the order-e subgroup.  The indices are scanned upwards,
    keeping the first of each new key, until all (p^n - 1)/e keys are
    seen: about m*ln(m) steps for m = (p^n - 1)/e orbits, O(e*log(e)) at
    n = 2 and e = p - 1.  The gate reads (e, p^n) only.

    A generator of the wrong order shows as a^e != 1, as a^(e/2) != -1,
    on the key scan as a^(e/r) = 1 for a prime r | e (checked before the
    scan, which never reads a), and on the lattice as more than
    (p^n - 1)/e representatives; the last two name an orbit shorter than e.

    >>> exceptional_orbits(7, 1, 3).representatives == (1, 3)
    True
    """
    CyclicGroupData(p, n)
    if e < 1 or (p - 1) % e != 0:
        raise ValueError(f"e = {e} does not divide p-1 = {p - 1}")
    q = p ** n
    # level[kappa] will be the valuation v < n of kappa; allocated before
    # the generator is sought, so that a q too large to index is refused
    # at once
    level = bytearray(q)
    a = _smallest_of_order(p, n, e)
    if pow(a, e, q) != 1:
        raise CharacterConsistencyError(f"{a}^{e} is not 1 mod {q}")
    if e % 2 == 0:
        if pow(a, e // 2, q) != q - 1:
            raise CharacterConsistencyError(f"{a}^{e // 2} is not -1 mod {q}")
        half = q // 2
    else:
        half = q - 1
    for v in range(1, n):
        step = p ** v
        level[step::step] = bytes((v,)) * (q // step - 1)
    if e > 2 and 16 * e * e < q:
        # the indices that are not orbit minima are marked in the level
        # table itself, with the one byte no level takes
        powers = _powers(a, e, q)
        for h in powers[1 : e // 2] if e % 2 == 0 else powers[1:]:
            _mark_lattice_points(level, h, q, e % 2 == 0)
        table = bytes(level[1 : half + 1])
        unmarked = table.translate(_UNMARKED)
        # the compress stops at the last orbit minimum, about 0.6 * half
        # into the table at e = 12
        reps = tuple(compress(range(1, unmarked.rfind(1) + 2), unmarked))
        levels = table.translate(None, _MARK)
    elif e > 2:
        if any(pow(a, e // r, q) == 1 for r in _prime_factors(e)):
            raise CharacterConsistencyError(
                f"{a} has order below {e} mod {q}: an orbit is shorter than {e}"
            )
        reps = _minima_by_key(level, p, n, e, half)
        levels = bytes(map(level.__getitem__, reps))
    else:
        reps = range(1, half + 1)
        levels = bytes(level[1 : half + 1])
    if len(reps) != (q - 1) // e:
        raise CharacterConsistencyError(
            f"{len(reps)} orbits of <{a}> mod {q}, not {(q - 1) // e}: "
            f"an orbit is shorter than {e}"
        )
    return OrbitStructure(p, n, e, a, tuple(reps), levels)


def orbits_from_level(
    p: int, n: int, e: int, v: int
) -> tuple[tuple[int, ...], bytes]:
    """The orbit minima of valuation at least v < n in ascending order, and
    the valuation of each less v: p^v times the representatives of
    `exceptional_orbits(p, n - v, e)`, and that table's levels, so that
    nothing of the O(p^n) table of (p, n, e) is built.  At v = 0 they are
    that table's own fields, with no scaling pass.

    >>> orbits_from_level(3, 3, 2, 1)
    ((3, 6, 9, 12), b'\\x00\\x00\\x01\\x00')
    """
    orbits = exceptional_orbits(p, n - v, e)
    if v == 0:
        return orbits.representatives, orbits.levels
    return tuple(map((p ** v).__mul__, orbits.representatives)), orbits.levels


def _minima_by_key(
    level: bytearray, p: int, n: int, e: int, half: int
) -> list[int]:
    """The orbit minima up to half in ascending order, read off the level
    table: the first x of each key p^v * (u^e mod p^(n-v)), x = p^v*u, u a
    unit.  A key has the valuation v of its x, so keys of different levels
    differ too.  The scan stops at the (p^n - 1)/e-th key."""
    q = p ** n
    m = (q - 1) // e
    keys: set[int] = set()
    reps: list[int] = []
    for x in range(1, half + 1):
        v = level[x]
        if v:
            step = p ** v
            key = step * pow(x // step, e, q // step)
        else:
            key = pow(x, e, q)
        if key not in keys:
            keys.add(key)
            reps.append(x)
            if len(reps) == m:
                break
    return reps


# the byte that marks an index in the level table, and the translation
# that reads 1 at every unmarked index and 0 at every marked one
_MARK = b"\xff"
_UNMARKED = b"\x01" * 255 + b"\x00"


def _reduced_basis(h: int, q: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """A Gauss-reduced basis (u, v), |u| <= |v|, of the lattice of the
    (x, y) with y = h*x mod q, whose determinant is q."""
    u, v = (1, h % q), (0, q)
    nu = 1 + u[1] * u[1]
    while True:
        # v minus the multiple of u nearest to its projection on u
        m = (2 * (u[0] * v[0] + u[1] * v[1]) + nu) // (2 * nu)
        v = (v[0] - m * u[0], v[1] - m * u[1])
        nv = v[0] * v[0] + v[1] * v[1]
        if nv >= nu:
            return u, v
        u, v, nu = v, u, nv


def _mark_lattice_points(table: bytearray, h: int, q: int, folded: bool) -> None:
    """Write `_MARK` at table[x] for every x in 1 ... half whose image is
    smaller: fold(h*x mod q) < x, fold(z) = min(z, q - z), with
    half = q // 2 when `folded`; h*x mod q < x, half = q - 1, otherwise.

    These x are the first coordinates of the points of the lattice
    {(x, y) : y = h*x mod q} in the triangle T = {0 < x <= half, |y| < x}
    (T = {0 < x <= half, 0 <= y < x} unfolded); each x has at most one such
    point.  They lie on the lines s*u + t*v, s fixed, of a basis (u, v):
    v is whichever of b1, b2, b1 + b2, b1 - b2 (b1, b2 a reduced basis)
    meets T in the fewest lines and runs along no side of T.  When h is a
    unit other than +-1 mod p, as every h of the orbits is, a lattice
    vector along a side is a multiple of q, so v can be b1 and there are
    O(|b1|) = O(sqrt(q)) lines, each one strided slice assignment over the
    range of t that the three sides of T leave.
    """
    half = q // 2 if folded else q - 1
    if folded:
        corners = ((0, 0), (half, half), (half, -half))
        # each side as alpha*x + beta*y <= gamma
        sides = ((1, 0, half), (-1, 1, -1), (-1, -1, -1))
    else:
        corners = ((0, 0), (half, 0), (half, half))
        sides = ((1, 0, half), (-1, 1, -1), (0, -1, 0))
    b1, b2 = _reduced_basis(h, q)
    best = None
    for v, u in (
        (b1, b2),
        (b2, b1),
        ((b1[0] + b2[0], b1[1] + b2[1]), b1),
        ((b1[0] - b2[0], b1[1] - b2[1]), b1),
    ):
        if v[0] < 0:
            v = (-v[0], -v[1])
        # a line parallel to a side, or with x constant, has no stride
        if v[0] == 0 or any(a * v[0] + b * v[1] == 0 for a, b, _ in sides):
            continue
        # cross(s*u + t*v, v) = s*q once u is turned so that cross(u, v) = q
        if u[0] * v[1] - u[1] * v[0] < 0:
            u = (-u[0], -u[1])
        crosses = [x * v[1] - y * v[0] for x, y in corners]
        first, last = -(-min(crosses) // q), max(crosses) // q
        if best is None or last - first + 1 < best[0]:
            best = (last - first + 1, first, u, v)
    lines, first, (ux, uy), (vx, vy) = best
    # side alpha*x + beta*y <= gamma at s*u + t*v: t*c <= gamma + s*k, a
    # lower bound on t when c < 0 and an upper one when c > 0
    lower, upper = [], []
    for a, b, gamma in sides:
        c, k = a * vx + b * vy, -(a * ux + b * uy)
        (lower if c < 0 else upper).append((gamma + first * k, k, abs(c)))
    # two bounds of each kind, one of them perhaps twice
    (r1, k1, c1), (r2, k2, c2) = (lower * 2)[:2]
    (r3, k3, c3), (r4, k4, c4) = (upper * 2)[:2]
    marks = _MARK * (half // vx + 1)
    x = first * ux
    for _ in range(lines):
        lo, lo2 = -(r1 // c1), -(r2 // c2)
        hi, hi2 = r3 // c3, r4 // c4
        if lo2 > lo:
            lo = lo2
        if hi2 < hi:
            hi = hi2
        if lo <= hi:
            start = x + lo * vx
            table[start : start + (hi - lo) * vx + 1 : vx] = marks[: hi - lo + 1]
        r1 += k1
        r2 += k2
        r3 += k3
        r4 += k4
        x += ux


def _powers(a: int, e: int, q: int) -> tuple[int, ...]:
    """1, a, ..., a^(e-1) mod q, for an a with a^e = 1 mod q."""
    powers = [1]
    for _ in range(e - 1):
        powers.append(powers[-1] * a % q)
    return tuple(powers)


def _smallest_factor(x: int) -> int:
    """Smallest divisor d >= 2 of x >= 2."""
    d = 2
    while d * d <= x:
        if x % d == 0:
            return d
        d += 1
    return x


def _prime_factors(x: int) -> set[int]:
    """The primes dividing x >= 1."""
    primes = set()
    while x > 1:
        r = _smallest_factor(x)
        primes.add(r)
        x //= r
    return primes


def _smallest_of_order(p: int, n: int, e: int) -> int:
    """Smallest positive integer of multiplicative order exactly e mod p^n.

    An element h of order e mod p lifts to a0 = h^(p^(n-1)) mod p^n, which
    is congruent to h mod p and of order e; the elements of order e are the
    powers a0^k with gcd(k, e) = 1, so O(e) modular powers find the least.
    """
    if (p - 1) % e != 0:
        raise ValueError(f"no element of order {e} mod {p}^{n}")
    primes = _prime_factors(e)
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


class BlockCharacter(NamedTuple):
    """Integer multiplicity vector over the ordinary characters of the block.

    `plain` is the non-exceptional part, one byte per non-exceptional
    vertex in the descriptor's order, and `nonexceptional` is its view as a
    tuple, made afresh on each read.
    The exceptional part is held by its values on the valuation levels:
    `levels[v]` is the multiplicity at every orbit representative of
    valuation v < n, one byte each, and `orbit_key` is the (p, n, e) of the
    orbit table the representatives come from; both are empty when m = 1.
    A character names its table and never builds it: `orbit_levels`, the
    valuation of each representative in ascending order, and
    `exceptional`, the multiplicities at the representatives, are views
    that fetch `exceptional_orbits(*orbit_key)` on each read.  Characters
    of trivial source lifts are 0/1-valued throughout.  A sum of characters
    is a character while every coordinate stays within 0..255.

    >>> orbits = exceptional_orbits(3, 2, 2)
    >>> orbits.representatives, orbits.levels
    ((1, 2, 3, 4), b'\\x00\\x00\\x01\\x00')
    >>> chi = BlockCharacter(bytes((1, 0)), bytes((0, 1)), (3, 2, 2))
    >>> chi.nonexceptional, chi.exceptional
    ((1, 0), (0, 0, 1, 0))
    >>> (chi + chi).levels, chi.is_zero_one
    (b'\\x00\\x02', True)
    """

    plain: bytes
    levels: bytes
    orbit_key: tuple[int, ...]

    @property
    def nonexceptional(self) -> tuple[int, ...]:
        """The multiplicity at each non-exceptional vertex, in descriptor
        order; a tuple of `plain`, made afresh on each read."""
        return tuple(self.plain)

    @property
    def orbit_levels(self) -> bytes:
        """The valuation of each orbit representative, ascending: the
        levels of the named orbit table, empty when m = 1."""
        if not self.orbit_key:
            return b""
        return exceptional_orbits(*self.orbit_key).levels

    @property
    def exceptional(self) -> tuple[int, ...]:
        """The multiplicity at each orbit representative, ascending; one
        byte translation of the orbit levels, made afresh on each read."""
        table = self.levels + bytes(256 - len(self.levels))
        return tuple(self.orbit_levels.translate(table))

    def __add__(self, other: "BlockCharacter") -> "BlockCharacter":
        if (
            len(self.plain) != len(other.plain)
            or len(self.levels) != len(other.levels)
            or self.orbit_key != other.orbit_key
        ):
            raise ValueError("block character shapes differ")
        try:
            return BlockCharacter(
                bytes(map(add, self.plain, other.plain)),
                bytes(map(add, self.levels, other.levels)),
                self.orbit_key,
            )
        except ValueError:
            # a byte holds 0..255: name the first coordinate that left it
            for k, total in enumerate(map(add, self.plain, other.plain)):
                if not 0 <= total <= 255:
                    raise ValueError(
                        f"non-exceptional coordinate {k} sums to {total}, "
                        "outside 0..255"
                    ) from None
            for v, total in enumerate(map(add, self.levels, other.levels)):
                if not 0 <= total <= 255:
                    raise ValueError(
                        f"level {v} sums to {total}, outside 0..255"
                    ) from None
            raise

    @property
    def is_zero_one(self) -> bool:
        """Whether every coordinate is 0 or 1; read off the levels, since
        level v holds p^(n-v-1)(p-1)/e >= 1 representatives."""
        return {*self.plain, *self.levels} <= {0, 1}


def vertex_character(desc: BlockDescriptor, vertex: str) -> BlockCharacter:
    """Indicator of a non-exceptional vertex, or the full exceptional bundle;
    the non-exceptional part is built afresh on each call.  Raises KeyError
    for a vertex the descriptor does not have."""
    exceptional = int(vertex == desc.exceptional)
    counts = bytearray(len(desc.nonexceptional_vertices))
    if not exceptional:
        position = desc.nonexceptional_positions.get(vertex)
        if position is None:
            raise KeyError(f"no vertex {vertex!r}")
        counts[position] = 1
    plain = bytes(counts)
    if desc.exceptional is None:
        return BlockCharacter(plain, b"", ())
    orbit_key = desc.p, desc.n, desc.e
    return BlockCharacter(plain, bytes((exceptional,)) * desc.n, orbit_key)


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


def xi(desc: BlockDescriptor, i: int) -> BlockCharacter:
    """The exceptional part shared by all non-hook trivial source modules
    with vertex of order p^i.

    Value at kappa(r): the multiplicity of lambda_kappa(r) in the Morita
    correspondent of the local trivial source module with vertex D_i, read
    at the valuation level of kappa(r); it depends on (p, n, W, i) only,
    and the levels of every i come from one sweep per descriptor
    (`BlockDescriptor.index_table`).
    """
    plain = bytes(len(desc.nonexceptional_vertices))
    return _exceptional_character(desc, plain, i, False)


def _exceptional_character(
    desc: BlockDescriptor, plain: bytes, i: int, complement: bool
) -> BlockCharacter:
    """The character with this non-exceptional part whose exceptional part
    is xi's at vertex index i, or its complement's, read off the entry of
    i in `desc.index_table`."""
    if desc.exceptional is None:
        raise ValueError("descriptor has no exceptional characters (m = 1)")
    levels = desc.index_entry(i).xi_levels[complement]
    return BlockCharacter(plain, levels, (desc.p, desc.n, desc.e))


def character_of(
    desc: BlockDescriptor, i: int, path: "PathDescriptor"
) -> BlockCharacter:
    """Character of the trivial source lift of the module an admitted path
    describes.

    The non-exceptional part is the sum of the spine vertex characters
    (empty for the two shapes anchored at the exceptional vertex); the
    exceptional part is xi for the cases tagged ii and iii and the
    complement for i and iv.  Hooks afford the single character of their
    positive endpoint, the whole bundle when that endpoint is exceptional.
    One-edge blocks (e = 1) have a single module per vertex whose character
    is governed by the sign of the plain vertex and d0 alone.  The
    non-exceptional part is built and checked afresh on each call: a spine
    vertex the descriptor does not have as non-exceptional raises KeyError,
    and a repeated one CharacterConsistencyError.
    """
    if path.case_tag is None and path.type_tag != 1:
        raise ValueError("path has not been through admissibility")
    if desc.e == 1:
        if path.case_tag not in ("i", "ii"):
            raise CharacterConsistencyError(
                f"case {path.case_tag!r} invalid for e = 1"
            )
        _, d0 = t_and_d0(desc.w, i)
        plain = bytes((d0 if path.case_tag == "i" else 1 - d0,))
        complement = path.case_tag == "ii"
    elif path.type_tag == 1:
        return vertex_character(desc, path.spine_vertices[0])
    elif path.case_tag not in ("i", "ii", "iii", "iv"):
        raise CharacterConsistencyError(f"unknown case tag {path.case_tag!r}")
    else:
        spine = path.spine_vertices if path.type_tag in (2, 4, 5, 6) else ()
        positions = desc.nonexceptional_positions
        counts = bytearray(len(positions))
        # one count per spine vertex, so that a repeated vertex shows as a 2
        for v in spine:
            try:
                counts[positions[v]] += 1
            except KeyError:
                raise KeyError(f"no non-exceptional vertex {v!r}") from None
        # the counts are 0/1 exactly when no spine vertex repeats; the
        # exceptional part is one of two level vectors already checked to
        # be 0/1
        if len(set(spine)) != len(spine):
            raise CharacterConsistencyError(
                f"assembled character is not 0/1-valued: {tuple(counts)}"
            )
        plain = bytes(counts)
        complement = path.case_tag in ("i", "iv")
    return _exceptional_character(desc, plain, i, complement)
