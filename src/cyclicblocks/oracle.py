"""Independent brute-force verification of the closed-form character calculus.

Two oracle paths exist side by side with the closed forms and share nothing
with them beyond the level-value container: permutation characters
recovered by counting coset fixed points at all p^n elements and
decomposing those integer values exactly (`cyclotomic.decompose`), and
determinant-1 lift characters rebuilt by the projective-cover recursion
using only those fixed-point characters and subtraction.

The module also holds the reference constructions that the checks compare
the closed forms with, and that nothing else in the package uses: the
indecomposable modules of D (`IndecomposableModule`) and their relative
Heller translates (`heller_relative`), the cap dimension by that recursion
(`cap_dim_recursive`), the permutation character in closed form
(`perm_module_character`), induction from D_i (`induce_character`), the
complement of xi (`xi_complement`) and the characters of a star block
(`b_level_character`).

`consistency_suite` sweeps every cross-formula identity over a parameter
grid plus a seeded corpus of random valid tree descriptors and reports
failures as data.  Oracle equality is exact equality of level tuples or
integer vectors, never tolerance-based.
"""

from __future__ import annotations

import heapq
import random
from collections import namedtuple
from dataclasses import replace
from functools import lru_cache
from itertools import combinations
from operator import mul
from typing import NamedTuple

from .brauer_tree import (
    BlockDescriptor,
    Edge,
    group_algebra_block,
    star_tree,
    validate,
)
from .characters import BlockCharacter, exceptional_orbits, t_and_d0, xi
from .classification import enumerate_block
from .cyclotomic import CyclicCharacter, decompose, valuation
from .local_reps import (
    CharacterConsistencyError,
    CyclicGroupData,
    EndoPermParams,
    cap_dim,
    char_det1_endoperm,
    morita_correspondent_character,
    restricted_cap_params,
)

# Empties the cache of the orbit tables the characters read; bound at
# import, so that it is that cache whatever the name is later bound to.
_drop_orbit_tables = exceptional_orbits.cache_clear


@lru_cache(maxsize=None)
def perm_character_by_fixed_points(p: int, n: int, i: int) -> CyclicCharacter:
    """Character of the permutation module on D/D_i recovered by brute
    force: count the cosets each group element fixes, then decompose those
    integer values exactly."""
    g = CyclicGroupData(p, n)
    if not 0 <= i <= n:
        raise ValueError(f"subgroup index {i} outside 0..{n}")
    order = g.order
    inside = p ** (n - i)  # u^j lies in the stabiliser iff p^{n-i} | j
    values = [inside if j % inside == 0 else 0 for j in range(order)]
    return decompose(p, n, values)


def det1_char_by_recursion(params: EndoPermParams, p: int, n: int) -> CyclicCharacter:
    """Determinant-1 lift character rebuilt from the relative projective
    cover recursion: the cover's permutation character minus the character
    one stage in.  Uses only fixed-point permutation characters and
    subtraction."""
    if params.indices and params.indices[-1] > n - 1:
        raise ValueError(f"index {params.indices[-1]} outside 0..{n - 1}")
    if params.is_trivial:
        return perm_character_by_fixed_points(p, n, n)
    head = params.indices[0]
    rest = EndoPermParams(params.indices[1:])
    return perm_character_by_fixed_points(p, n, head) - det1_char_by_recursion(
        rest, p, n
    )


class IndecomposableModule(namedtuple("IndecomposableModule", "group dim")):
    """The unique indecomposable module of the given dimension over the group."""

    __slots__ = ()

    def __new__(cls, group: CyclicGroupData, dim: int) -> IndecomposableModule:
        if not 1 <= dim <= group.order:
            raise ValueError(f"dimension {dim} outside 1..{group.order}")
        return super().__new__(cls, group, dim)

    @classmethod
    def _make(cls, iterable) -> IndecomposableModule:
        return cls(*iterable)


def heller_relative(g: CyclicGroupData, i: int, r: int) -> IndecomposableModule:
    """Kernel of the D_i-relative projective cover of the r-dimensional module.

    The cover is the permutation module on D/D_i, so the kernel is the
    indecomposable of dimension p^{n-i} - r.  Requires r < p^{n-i}, else the
    cover above would not be minimal in this sense.
    """
    if not 0 <= i <= g.n - 1:
        raise ValueError(f"subgroup index {i} outside 0..{g.n - 1}")
    quotient_order = g.p ** (g.n - i)
    if not 1 <= r <= quotient_order - 1:
        raise ValueError(f"dimension {r} outside 1..{quotient_order - 1}")
    return IndecomposableModule(g, quotient_order - r)


def cap_dim_recursive(params: EndoPermParams, g: CyclicGroupData, i: int) -> int:
    """Same dimension as `local_reps.cap_dim`, but obtained by iterating the
    relative Heller operators of the restricted parameter list over D_i
    itself."""
    restricted = restricted_cap_params(params, g, i)
    sub = CyclicGroupData(g.p, i)
    module = IndecomposableModule(sub, 1)
    for a in reversed(restricted.indices):
        module = heller_relative(sub, a, module.dim)
    return module.dim


def perm_module_character(g: CyclicGroupData, i: int) -> CyclicCharacter:
    """Character of the permutation module on D/D_i: multiplicity 1 at every
    lambda_kappa with p^i | kappa, that is on the levels i..n."""
    if not 0 <= i <= g.n:
        raise ValueError(f"subgroup index {i} outside 0..{g.n}")
    return CyclicCharacter(g.p, g.n, (0,) * i + (1,) * (g.n - i + 1))


def induce_character(g: CyclicGroupData, i: int, chi: CyclicCharacter) -> CyclicCharacter:
    """Induction from D_i to D: lambda_nu goes to the sum of all lambda_kappa
    with kappa = nu mod p^i, extended linearly.  A kappa of valuation v < i
    has a nu of valuation v, and every kappa of valuation >= i has nu = 0,
    so the levels of chi are padded with its value at lambda_0."""
    if not 0 <= i <= g.n:
        raise ValueError(f"subgroup index {i} outside 0..{g.n}")
    if (chi.p, chi.n) != (g.p, i):
        raise ValueError(f"character has order {chi.order}, expected {g.p ** i}")
    return CyclicCharacter(g.p, g.n, chi.levels + chi.levels[-1:] * (g.n - i))


def xi_complement(desc: BlockDescriptor, i: int) -> BlockCharacter:
    """Complement of xi inside the full exceptional bundle (coordinatewise
    1 - xi); the other value the exceptional part of a trivial source
    character can take.  Its levels are the complement entry of i in
    `desc.index_table`, the one the block's characters are built from."""
    return xi(desc, i)._replace(levels=desc.index_entry(i).xi_levels[1])


def b_level_character(
    star_desc: BlockDescriptor, i: int, x: int
) -> BlockCharacter:
    """Character of the x-th trivial source module with vertex of order p^i
    in a star block with exceptional centre (the local block one level up
    from the nilpotent one).

    The non-exceptional part is d0 at the x-th leaf, in the leaf order of
    the descriptor; the exceptional part is xi's.  Requires the genuine
    orientation: negative centre, positive leaves.
    """
    exc, signs = star_desc.exceptional, star_desc.signs
    if exc is None or len(star_desc.cyclic_order[exc]) != star_desc.e:
        raise ValueError("descriptor is not a star with exceptional centre")
    if signs[exc] != -1 or any(
        signs[v] != 1 for v in star_desc.nonexceptional_vertices
    ):
        raise ValueError("star must have negative centre and positive leaves")
    if not 1 <= x <= star_desc.e:
        raise ValueError(f"leaf index {x} outside 1..{star_desc.e}")
    _, d0 = t_and_d0(star_desc.w, i)
    plain = bytearray(star_desc.e)
    plain[x - 1] = d0
    return xi(star_desc, i)._replace(plain=bytes(plain))


class GridSpec(NamedTuple):
    primes: tuple[int, ...] = (3, 5, 7)
    n_max: int = 3
    seed: int = 0


class Failure(NamedTuple):
    check: str
    params: str
    expected: str
    actual: str


class ConsistencyReport(NamedTuple):
    checks_run: int
    failures: tuple[Failure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def block_params_for(n: int) -> list[EndoPermParams]:
    """All 2^{n-1} block-form parameter lists inside 1..n-1."""
    return _params_inside(range(1, n))


def general_params_for(n: int) -> list[EndoPermParams]:
    """All 2^n parameter lists inside 0..n-1, index 0 allowed."""
    return _params_inside(range(n))


def _params_inside(pool: range) -> list[EndoPermParams]:
    return [
        EndoPermParams(combo)
        for size in range(len(pool) + 1)
        for combo in combinations(pool, size)
    ]


def _divisors(x: int) -> list[int]:
    return [d for d in range(1, x + 1) if x % d == 0]


def _tree_edges_from_pruefer(seq: list[int], count: int) -> list[tuple[int, int]]:
    """Labelled tree on `count` vertices from a Pruefer sequence of length
    count - 2 (uniform over labelled trees when the sequence is uniform)."""
    degree = [1] * count
    for v in seq:
        degree[v] += 1
    edges = []
    # the smallest leaf goes first, so the construction is deterministic
    leaves = [v for v in range(count) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def random_block_descriptor(
    rng: random.Random, p: int, n: int, e: int
) -> BlockDescriptor:
    """Random valid descriptor: uniform labelled tree, random planar orders,
    random exceptional vertex, random block parameter, alternating signs.

    The sign orientation is also random except in one corner: an
    exceptional leaf cannot be negative when the parameter's cap dimension
    at the full group equals e, because no block realises that combination
    (the per-vertex module count of the classification would drop below e).
    The orientation is flipped there.
    """
    g = CyclicGroupData(p, n)
    if (p - 1) % e != 0 or (p ** n - 1) // e <= 1:
        raise ValueError(f"need e | p-1 and m > 1, got p={p}, n={n}, e={e}")
    count = e + 1
    pairs = _tree_edges_from_pruefer(
        [rng.randrange(count) for _ in range(count - 2)], count
    )
    names = [f"v{k}" for k in range(count)]
    edges = tuple(
        Edge(f"E{k + 1}", (names[a], names[b])) for k, (a, b) in enumerate(pairs)
    )
    incident: dict[str, list[str]] = {v: [] for v in names}
    for edge in edges:
        incident[edge.ends[0]].append(edge.id)
        incident[edge.ends[1]].append(edge.id)
    cyclic_order = {}
    for v in names:
        order = incident[v][:]
        rng.shuffle(order)
        cyclic_order[v] = tuple(order)
    exceptional = rng.choice(names)
    w = EndoPermParams(tuple(a for a in range(1, n) if rng.random() < 0.5))
    unsigned = BlockDescriptor(
        p=p,
        n=n,
        e=e,
        vertices=tuple(names),
        signs={},
        edges=edges,
        cyclic_order=cyclic_order,
        exceptional=exceptional,
        w=w,
    )
    # signs alternate along each edge, so a vertex's sign is fixed by the
    # number of edges on its spine; the exceptional vertex has none
    parity = {v: (-1) ** len(walked) for v, (_, walked) in unsigned.spines.items()}
    orientation = rng.choice((1, -1))
    if (
        e > 1
        and orientation == -1
        and unsigned.is_leaf(exceptional)
        and cap_dim(w, g, n) == e
    ):
        orientation = 1
    desc = replace(
        unsigned, signs={v: orientation * parity.get(v, 1) for v in names}
    )
    problems = validate(desc, strict=True)
    if problems:
        raise RuntimeError(f"generator produced invalid descriptor: {problems}")
    return desc


def random_corpus(
    primes: tuple[int, ...],
    n_max: int,
    seed: int,
    count: int,
) -> list[BlockDescriptor]:
    """Seeded corpus of random valid descriptors with m > 1 and e <= 12;
    combinations violating e | p-1 or m > 1 are rejected and resampled."""
    rng = random.Random(seed)
    out: list[BlockDescriptor] = []
    while len(out) < count:
        p = rng.choice(primes)
        n = rng.randint(1, n_max)
        options = [
            d
            for d in _divisors(p - 1)
            if d <= 12 and (p ** n - 1) // d > 1
        ]
        if not options:
            continue
        out.append(random_block_descriptor(rng, p, n, rng.choice(options)))
    return out


def consistency_suite(
    grid: GridSpec,
    corpus_size: int = 30,
    cap_dim_impl=None,
) -> ConsistencyReport:
    """Run every cross-formula identity over the grid plus a seeded random
    tree corpus; failures come back as data, never exceptions.  A closed
    form that raises CharacterConsistencyError is recorded as a
    "closed-form invariant" failure of its (p, n) grid point or corpus
    descriptor, and the rest of that point or descriptor is skipped.

    `cap_dim_impl` substitutes the closed-form cap dimension (fault
    injection in tests); the default is the production closed form.
    """
    caps = cap_dim_impl if cap_dim_impl is not None else cap_dim
    checks_run = 0
    failures: list[Failure] = []

    def check(name: str, params: object, expected: object, actual: object) -> None:
        nonlocal checks_run
        checks_run += 1
        if expected != actual:
            failures.append(Failure(name, repr(params), repr(expected), repr(actual)))

    def invariant_broken(params: object, err: CharacterConsistencyError) -> None:
        check(
            "closed-form invariant",
            params,
            "no error",
            f"{type(err).__name__}: {err}",
        )

    for p in grid.primes:
        for n in range(1, grid.n_max + 1):
            try:
                _check_local(p, n, caps, check)
                _check_self_block(p, n, check)
                _check_exceptional(p, n, check)
            except CharacterConsistencyError as err:
                invariant_broken((p, n), err)
            # no later check reads this grid point's orbit tables, and the
            # largest grid point's alone are most of the suite's memory
            _drop_orbit_tables()

    if grid.primes:
        for desc in random_corpus(
            tuple(grid.primes), grid.n_max, grid.seed, corpus_size
        ):
            try:
                _check_descriptor(desc, check)
            except CharacterConsistencyError as err:
                invariant_broken((desc.p, desc.n, desc.e, desc.w.indices), err)

    return ConsistencyReport(checks_run, tuple(failures))


def _check_local(p: int, n: int, caps, check) -> None:
    g = CyclicGroupData(p, n)
    for w in block_params_for(n):
        for i in range(1, n + 1):
            check(
                "cap_dim vs recursive",
                (p, n, w.indices, i),
                caps(w, g, i),
                cap_dim_recursive(w, g, i),
            )
            sub = CyclicGroupData(p, i)
            composed = induce_character(
                g,
                i,
                char_det1_endoperm(restricted_cap_params(w, g, i), sub),
            )
            direct = morita_correspondent_character(w, g, i)
            check(
                "morita correspondent vs composition",
                (p, n, w.indices, i),
                direct,
                composed,
            )
            check(
                "morita correspondent degree",
                (p, n, w.indices, i),
                cap_dim(w, g, i) * p ** (n - i),
                direct.degree,
            )
    for w in general_params_for(n):
        check(
            "det1 character closed form vs recursion",
            (p, n, w.indices),
            char_det1_endoperm(w, g),
            det1_char_by_recursion(w, p, n),
        )
    for i in range(n + 1):
        check(
            "perm character vs fixed points",
            (p, n, i),
            perm_module_character(g, i),
            perm_character_by_fixed_points(p, n, i),
        )


def xi_complement_nondivisible(
    w: EndoPermParams, p: int, n: int, i: int
) -> tuple[int, ...]:
    """Complement of xi assembled from NON-divisibility indicators, as its n
    level values, returned raw.

    Level v is the signed sum of the indicators [p^a does not divide kappa],
    that is [v < a], over the indices a of the capped parameter list below
    i, closed by i.  Agrees with the level values of `xi_complement` exactly
    when t(i) is odd; when t(i) is even it comes out lower by the full
    bundle (every level off by one, some of them negative), which is why
    the 1 - xi form is the one used for characters.
    """
    below = restricted_cap_params(w, CyclicGroupData(p, n), i).indices
    return tuple(
        sum((-1) ** j for j, a in enumerate(below + (i,)) if v < a)
        for v in range(n)
    )


def _check_exceptional(p: int, n: int, check) -> None:
    """The exceptional checks at every e of the (p, n) grid point with
    m > 1, level by level.  Each orbit representative's byte in the level
    table is checked against its valuation, which also counts the
    representatives at each level; xi and its complement are then compared
    by their n level values, and xi's orbit table with the checked one.
    The oracle-path correspondent depends on (W, i) alone, so each one is
    built once and checked against every e; only one correspondent is held
    at a time, and one star block per e for each W, which reads every
    vertex index off one sweep."""
    es = [e for e in _divisors(p - 1) if (p ** n - 1) // e > 1]
    tables = {}
    for e in es:
        orbits = exceptional_orbits(p, n, e)
        counts = [0] * n
        for r, level in zip(orbits.representatives, orbits.levels):
            v = valuation(p, r)
            check("orbit level vs valuation", (p, n, e, r), v, level)
            counts[v] += 1
        tables[e] = orbits.levels, counts
    g = CyclicGroupData(p, n)
    for w in block_params_for(n):
        stars = {e: star_tree(e, p, n, w, -1) for e in es}
        for i in range(1, n + 1):
            t, d0 = t_and_d0(w, i)
            dim = cap_dim(w, g, i) * p ** (n - i)
            # the Morita correspondent read off the oracle path: its trivial
            # level is d0 and its levels below n are xi's
            local = det1_char_by_recursion(restricted_cap_params(w, g, i), p, i)
            correspondent = induce_character(g, i, local).levels
            nondivisible = xi_complement_nondivisible(w, p, n, i)
            for e in es:
                table, counts = tables[e]
                star = stars[e]
                part = xi(star, i)
                comp = tuple(xi_complement(star, i).levels)
                check(
                    "xi count law",
                    (p, n, e, w.indices, i),
                    (dim - d0) // e,
                    sum(map(mul, part.levels, counts)),
                )
                check(
                    "xi coordinates vs oracle correspondent",
                    (p, n, e, w.indices, i),
                    (correspondent[n], correspondent[:n], table),
                    (d0, tuple(part.levels), part.orbit_levels),
                )
                check(
                    "complement audit",
                    (p, n, e, w.indices, i),
                    comp if t % 2 != 0 else tuple(c - 1 for c in comp),
                    nondivisible,
                )
                _check_star_agreement(star, i, check)


def _check_descriptor(desc: BlockDescriptor, check) -> None:
    for i, groups, error in enumerate_block(desc, range(1, desc.n + 1)):
        check(
            "enumeration count",
            (desc.p, desc.n, desc.e, desc.w.indices, i),
            desc.e,
            sum(len(paths) for _, paths, _ in groups),
        )
        if error is not None:
            continue
        _, d0 = t_and_d0(desc.w, i)
        seen_exceptional = set()
        # the paths of a group share its character; each module is checked
        for (case, _), paths, char in groups:
            for type_tag, *_ in paths:
                check(
                    "character coordinates 0/1",
                    (desc.p, desc.n, desc.e, desc.w.indices, i, type_tag),
                    True,
                    char.is_zero_one,
                )
                if type_tag == 1:
                    continue
                seen_exceptional.add(char.levels)
                if desc.e > 1:
                    # all modules at one vertex sit on the same divisibility
                    # branch, the one d0's parity selects
                    on_positive_branch = (
                        case in ("i", "ii")
                        if type_tag in (2, 4, 5, 6)
                        else case == "i"
                    )
                    check(
                        "divisibility branch matches d0",
                        (desc.p, desc.n, desc.e, desc.w.indices, i, type_tag),
                        d0 == 1,
                        on_positive_branch,
                    )
        check(
            "vertex-uniform exceptional part",
            (desc.p, desc.n, desc.e, desc.w.indices, i),
            True,
            len(seen_exceptional) <= 1,
        )


def _check_self_block(p: int, n: int, check) -> None:
    desc = group_algebra_block(p, n)
    g = CyclicGroupData(p, n)
    for i, groups, error in enumerate_block(desc, range(1, n + 1)):
        count = sum(len(paths) for _, paths, _ in groups)
        check("self-block module count", (p, n, i), 1, count)
        if error is not None:
            continue
        char = groups[0][2]
        check(
            "self-block closure",
            (p, n, i),
            perm_module_character(g, i).mults,
            (char.nonexceptional[0],) + char.exceptional,
        )


def _check_star_agreement(star: BlockDescriptor, i: int, check) -> None:
    # both sides read their exceptional part off the same level pair of
    # the star, so the level values stand for the coordinates
    [(_, groups, _)] = enumerate_block(star, (i,))
    enumerated = sorted(
        (c.nonexceptional, c.levels) for _, paths, c in groups for _ in paths
    )
    expected = sorted(
        (c.nonexceptional, c.levels)
        for c in (b_level_character(star, i, x) for x in range(1, star.e + 1))
    )
    check(
        "b-level agreement",
        (star.p, star.n, star.e, star.w.indices, i),
        expected,
        enumerated,
    )
