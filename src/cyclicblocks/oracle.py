"""Independent brute-force verification of the closed-form character calculus.

Two oracle paths exist side by side with the closed forms and share nothing
with them beyond the multiplicity-vector container: permutation characters
recovered by counting coset fixed points and decomposing the resulting
class function exactly over the cyclotomic substrate, and determinant-1
lift characters rebuilt by the projective-cover recursion using only those
fixed-point characters and subtraction.

`consistency_suite` sweeps every cross-formula identity over a parameter
grid plus a seeded corpus of random valid tree descriptors and reports
failures as data.  Oracle equality is exact integer-vector equality, never
tolerance-based.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations

from .brauer_tree import (
    BlockDescriptor,
    Edge,
    exceptional_bundle,
    group_algebra_block,
    star_tree,
    validate,
)
from .characters import (
    b_level_character,
    character_of,
    exceptional_orbits,
    t_and_d0,
    xi,
    xi_complement,
    xi_complement_nondivisible,
)
from .classification import ClassificationError, enumerate_trivial_source
from .cyclotomic import (
    CyclicCharacter,
    class_function_from_integers,
    decompose,
    valuation,
)
from .local_reps import (
    CharacterConsistencyError,
    CyclicGroupData,
    EndoPermParams,
    cap_dim,
    cap_dim_recursive,
    char_det1_endoperm,
    induce_character,
    morita_correspondent_character,
    perm_module_character,
    restricted_cap_params,
    u_module_dimension,
)


@lru_cache(maxsize=None)
def perm_character_by_fixed_points(p: int, n: int, i: int) -> CyclicCharacter:
    """Character of the permutation module on D/D_i recovered by brute
    force: count the cosets each group element fixes, then decompose the
    class function exactly."""
    g = CyclicGroupData(p, n)
    if not 0 <= i <= n:
        raise ValueError(f"subgroup index {i} outside 0..{n}")
    order = g.order
    inside = p ** (n - i)  # u^j lies in the stabiliser iff p^{n-i} | j
    values = [inside if j % inside == 0 else 0 for j in range(order)]
    return decompose(class_function_from_integers(order, values))


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


@dataclass(frozen=True)
class GridSpec:
    primes: tuple[int, ...] = (3, 5, 7)
    n_max: int = 3
    seed: int = 0


@dataclass(frozen=True)
class Failure:
    check: str
    params: str
    expected: str
    actual: str


@dataclass(frozen=True)
class ConsistencyReport:
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
    parity = {exceptional: 1}
    for v, (_, toward) in unsigned.toward_exceptional.items():
        parity[v] = -parity[toward]
    orientation = rng.choice((1, -1))
    if (
        e > 1
        and orientation == -1
        and unsigned.is_leaf(exceptional)
        and cap_dim(w, g, n) == e
    ):
        orientation = 1
    desc = replace(
        unsigned, signs={v: orientation * parity[v] for v in names}
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
    e_max: int = 12,
) -> list[BlockDescriptor]:
    """Seeded corpus of random valid descriptors with m > 1; combinations
    violating e | p-1 or m > 1 are rejected and resampled."""
    rng = random.Random(seed)
    out: list[BlockDescriptor] = []
    while len(out) < count:
        p = rng.choice(primes)
        n = rng.randint(1, n_max)
        options = [
            d
            for d in _divisors(p - 1)
            if d <= e_max and (p ** n - 1) // d > 1
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
                for e in _divisors(p - 1):
                    if (p ** n - 1) // e > 1:
                        _check_exceptional(p, n, e, check)
            except CharacterConsistencyError as err:
                invariant_broken((p, n), err)

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
                u_module_dimension(w, g, i),
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


def _check_exceptional(p: int, n: int, e: int, check) -> None:
    for orbit in exceptional_orbits(p, n, e).orbits:
        vals = {valuation(p, kappa) for kappa in orbit}
        check("orbit valuation constant", (p, n, e, orbit), 1, len(vals))
    g = CyclicGroupData(p, n)
    for w in block_params_for(n):
        star = star_tree(e, p, n, w, -1)
        for i in range(1, n + 1):
            t, d0 = t_and_d0(w, i)
            part = xi(star, i)
            comp = xi_complement(star, i)
            dim = cap_dim(w, g, i) * p ** (n - i)
            check(
                "xi count law",
                (p, n, e, w.indices, i),
                (dim - d0) // e,
                sum(part.exceptional),
            )
            check(
                "xi plus complement is the bundle",
                (p, n, e, w.indices, i),
                exceptional_bundle(star),
                part + comp,
            )
            literal = xi_complement_nondivisible(star, i)
            reference = (
                comp.exceptional
                if t % 2 != 0
                else tuple(c - 1 for c in comp.exceptional)
            )
            check(
                "complement audit",
                (p, n, e, w.indices, i),
                reference,
                literal,
            )
            _check_star_agreement(star, i, check)


def _check_descriptor(desc: BlockDescriptor, check) -> None:
    for i in range(1, desc.n + 1):
        try:
            modules = enumerate_trivial_source(desc, i)
        except ClassificationError as err:
            check(
                "enumeration count",
                (desc.p, desc.n, desc.e, desc.w.indices, i),
                desc.e,
                len(err.paths),
            )
            continue
        check(
            "enumeration count",
            (desc.p, desc.n, desc.e, desc.w.indices, i),
            desc.e,
            len(modules),
        )
        _, d0 = t_and_d0(desc.w, i)
        seen_exceptional = set()
        for path in modules:
            char = character_of(desc, i, path)
            check(
                "character coordinates 0/1",
                (desc.p, desc.n, desc.e, desc.w.indices, i, path.type_tag),
                True,
                char.is_zero_one,
            )
            if path.type_tag != 1:
                seen_exceptional.add(char.exceptional)
            if desc.e > 1 and path.type_tag != 1:
                # all modules at one vertex sit on the same divisibility
                # branch, the one d0's parity selects
                on_positive_branch = (
                    path.case_tag in ("i", "ii")
                    if path.type_tag in (2, 4, 5, 6)
                    else path.case_tag == "i"
                )
                check(
                    "divisibility branch matches d0",
                    (desc.p, desc.n, desc.e, desc.w.indices, i, path.type_tag),
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
    for i in range(1, n + 1):
        modules = enumerate_trivial_source(desc, i)
        check("self-block module count", (p, n, i), 1, len(modules))
        char = character_of(desc, i, modules[0])
        relabelled = CyclicCharacter(
            g.order, (char.nonexceptional[0],) + char.exceptional
        )
        check(
            "self-block closure",
            (p, n, i),
            perm_module_character(g, i),
            relabelled,
        )


def _check_star_agreement(star: BlockDescriptor, i: int, check) -> None:
    enumerated = sorted(
        (c.nonexceptional, c.exceptional)
        for c in (
            character_of(star, i, path)
            for path in enumerate_trivial_source(star, i)
        )
    )
    expected = sorted(
        (c.nonexceptional, c.exceptional)
        for c in (b_level_character(star, i, x) for x in range(1, star.e + 1))
    )
    check(
        "b-level agreement",
        (star.p, star.n, star.e, star.w.indices, i),
        expected,
        enumerated,
    )
