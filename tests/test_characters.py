import sys
from collections import Counter
from dataclasses import replace
from itertools import combinations
from types import SimpleNamespace

import pytest

import cyclicblocks.characters
from cyclicblocks.brauer_tree import exceptional_bundle, star_tree
from cyclicblocks.characters import (
    CharacterConsistencyError,
    _smallest_of_order,
    b_level_character,
    exceptional_orbits,
    nilpotent_level_character,
    omega_twist,
    t_and_d0,
    xi,
    xi_complement,
    xi_complement_nondivisible,
)
from cyclicblocks.classification import enumerate_trivial_source
from cyclicblocks.characters import character_of
from cyclicblocks.cyclotomic import valuation
from cyclicblocks.local_reps import CyclicGroupData, EndoPermParams, cap_dim
from cyclicblocks.oracle import GridSpec, consistency_suite

W = EndoPermParams


def block_params(n):
    pool = tuple(range(1, n))
    return [W(c) for size in range(len(pool) + 1) for c in combinations(pool, size)]


def test_exceptional_orbits_examples():
    small = exceptional_orbits(7, 1, 3)
    assert small.a == 2
    assert small.orbits == ((1, 2, 4), (3, 5, 6))
    assert small.representatives == (1, 3)

    nine = exceptional_orbits(3, 2, 2)
    assert nine.a == 8
    assert nine.orbits == ((1, 8), (2, 7), (3, 6), (4, 5))
    assert nine.representatives == (1, 2, 3, 4)

    trivial = exceptional_orbits(5, 1, 1)
    assert trivial.a == 1
    assert trivial.representatives == (1, 2, 3, 4)


def test_orbits_ascend_by_minimum_and_partition_the_indices():
    for p in (3, 5, 7, 11, 13):
        for n in range(1, 4):
            q = p ** n
            for e in _divisors(p - 1):
                s = exceptional_orbits(p, n, e)
                assert all(list(o) == sorted(o) for o in s.orbits), (p, n, e)
                minima = [o[0] for o in s.orbits]
                assert minima == sorted(minima), (p, n, e)
                assert sorted(k for o in s.orbits for k in o) == list(range(1, q))
                assert s.representatives == tuple(minima), (p, n, e)


def _smallest_of_order_by_search(p, q, e):
    """Reference: the first a < q, prime to p, whose powers return to 1
    after exactly e steps."""
    for a in range(1, q):
        if a % p == 0:
            continue
        power = a
        order = 1
        while power != 1 and order <= e:
            power = power * a % q
            order += 1
        if order == e and power == 1:
            return a
    raise ValueError(f"no element of order {e} mod {q}")


def _divisors(x):
    return [d for d in range(1, x + 1) if x % d == 0]


def test_order_e_generator_matches_search():
    for p in (3, 5, 7, 11, 13, 37, 41):
        for n in range(1, 5):
            if p ** n > 2 * 10**5:
                break
            for e in _divisors(p - 1):
                assert _smallest_of_order(p, n, e) == _smallest_of_order_by_search(
                    p, p ** n, e
                ), (p, n, e)


def test_order_e_generator_against_sympy():
    n_order = pytest.importorskip("sympy").n_order
    for p, n in ((3, 4), (7, 3), (13, 2), (41, 2), (3, 40), (37, 12), (101, 6)):
        for e in _divisors(p - 1):
            assert n_order(_smallest_of_order(p, n, e), p ** n) == e, (p, n, e)
    assert _smallest_of_order(3, 40, 2) == 3**40 - 1


def test_representative_levels_follow_the_count_law():
    for p in (3, 5, 7, 11, 13):
        for n in range(1, 4):
            for e in _divisors(p - 1):
                s = exceptional_orbits(p, n, e)
                assert list(s.levels) == [
                    valuation(p, rep) for rep in s.representatives
                ], (p, n, e)
                counts = Counter(s.levels)
                assert counts == {
                    v: p ** (n - v - 1) * (p - 1) // e for v in range(n)
                }, (p, n, e)


def _orbits_by_walk(p, n, e):
    """Reference: the orbit walk that exceptional_orbits ran before it
    marked each orbit in one pass; it follows kappa -> a*kappa until it
    returns and sorts every orbit it finds."""
    q = p ** n
    a = _smallest_of_order(p, n, e)
    seen = [False] * q
    orbits = []
    for start in range(1, q):
        if seen[start]:
            continue
        orbit = []
        kappa = start
        while not seen[kappa]:
            seen[kappa] = True
            orbit.append(kappa)
            kappa = kappa * a % q
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def test_lazy_orbits_match_the_walk():
    build = exceptional_orbits.__wrapped__  # leaves the cache alone
    for p in (3, 5, 7, 11, 13, 37, 41):
        for n in range(1, 12):
            if p ** n > 2 * 10**5:
                break
            for e in _divisors(p - 1):
                s = build(p, n, e)
                walked = _orbits_by_walk(p, n, e)
                assert s.orbits == walked, (p, n, e)
                assert s.representatives == tuple(o[0] for o in walked), (p, n, e)


@pytest.mark.parametrize("a, e", [(3, 2), (2, 6)])
def test_orbit_length_check_fires_on_a_generator_of_the_wrong_order(
    monkeypatch, a, e
):
    # mod 7: 3 has order 6, so 3^2 != 1 (the pairs {u, 3u} would still
    # cover 1..6 without overlap); 2 has order 3, so its orbits of length 3
    # collide when marked as if they had length 6
    monkeypatch.setattr(
        cyclicblocks.characters, "_smallest_of_order", lambda p, n, e: a
    )
    with pytest.raises(CharacterConsistencyError):
        exceptional_orbits.__wrapped__(7, 1, e)


def test_exceptional_orbits_rejects_non_divisor():
    with pytest.raises(ValueError):
        exceptional_orbits(7, 1, 4)
    with pytest.raises(ValueError):
        _smallest_of_order(7, 1, 4)


def test_orbit_valuation_is_constant():
    for p, n in ((3, 3), (5, 2), (7, 2), (13, 1)):
        for e in range(1, p):
            if (p - 1) % e:
                continue
            for orbit in exceptional_orbits(p, n, e).orbits:
                vals = set()
                for kappa in orbit:
                    v = 0
                    while kappa % p == 0:
                        kappa //= p
                        v += 1
                    vals.add(v)
                assert len(vals) == 1


def test_t_and_d0_examples():
    assert t_and_d0(W(()), 1) == (-1, 1)
    assert t_and_d0(W(()), 5) == (-1, 1)
    assert t_and_d0(W((1, 3, 4)), 2) == (0, 0)
    assert t_and_d0(W((1, 2, 4)), 4) == (1, 1)


def test_xi_examples():
    kd_like = star_tree(1, 3, 2, W(()), -1)
    part = xi(kd_like, 1)
    assert part.exceptional == (0, 0, 1, 0, 0, 1, 0, 0)  # reps 1..8, ones at 3, 6

    star = star_tree(2, 3, 2, W(()), -1)
    part = xi(star, 1)
    assert part.exceptional == (0, 0, 1, 0)  # reps (1, 2, 3, 4), one at 3
    assert xi(star, 2).exceptional == (0, 0, 0, 0)


def test_xi_complement_examples():
    star = star_tree(2, 3, 2, W(()), -1)
    comp = xi_complement(star, 1)
    assert comp.exceptional == (1, 1, 0, 1)
    assert xi_complement(star, 2).exceptional == (1, 1, 1, 1)
    assert (xi(star, 1) + comp) == exceptional_bundle(star)


def test_xi_count_law_on_grid():
    for p in (3, 5, 7):
        for n in (1, 2, 3):
            g = CyclicGroupData(p, n)
            for e in range(1, p):
                if (p - 1) % e or (p ** n - 1) // e <= 1:
                    continue
                for w in block_params(n):
                    star = star_tree(e, p, n, w, -1)
                    for i in range(1, n + 1):
                        _, d0 = t_and_d0(w, i)
                        dim = cap_dim(w, g, i) * p ** (n - i)
                        assert (dim - d0) % e == 0
                        part = xi(star, i)
                        assert sum(part.exceptional) == (dim - d0) // e
                        assert part.is_zero_one


def test_complement_audit():
    # the non-divisibility assembly matches the true complement exactly for
    # odd t and undershoots by the full bundle for even t
    for p, n in ((3, 2), (3, 3), (5, 2)):
        for e in range(1, p):
            if (p - 1) % e or (p ** n - 1) // e <= 1:
                continue
            for w in block_params(n):
                star = star_tree(e, p, n, w, -1)
                for i in range(1, n + 1):
                    t, _ = t_and_d0(w, i)
                    literal = xi_complement_nondivisible(star, i)
                    comp = xi_complement(star, i).exceptional
                    if t % 2 != 0:
                        assert literal == comp
                    else:
                        assert literal == tuple(c - 1 for c in comp)


def test_nilpotent_level_character_examples():
    assert nilpotent_level_character(W(()), 3, 2, 1).mults == (
        1, 0, 0, 1, 0, 0, 1, 0, 0,
    )
    assert nilpotent_level_character(W((1,)), 3, 2, 2).mults == (
        0, 0, 0, 1, 0, 0, 1, 0, 0,
    )
    assert nilpotent_level_character(W((1,)), 3, 2, 1).mults == (
        1, 0, 0, 1, 0, 0, 1, 0, 0,
    )


def test_b_level_character_examples():
    star = star_tree(2, 3, 2, W(()), -1)
    chi = b_level_character(star, 1, 1)
    assert chi.nonexceptional == (1, 0)
    assert chi.exceptional == (0, 0, 1, 0)
    top = b_level_character(star, 2, 1)
    assert top.nonexceptional == (1, 0)
    assert top.exceptional == (0, 0, 0, 0)

    shifted = star_tree(2, 3, 2, W((1,)), -1)
    chi = b_level_character(shifted, 2, 1)
    assert chi.nonexceptional == (0, 0)
    assert sum(chi.exceptional) == 1


def test_b_level_character_requires_genuine_star():
    wrong = star_tree(2, 3, 2, W(()), 1)
    with pytest.raises(ValueError):
        b_level_character(wrong, 1, 1)


def test_b_level_matches_enumeration_on_star():
    for w in (W(()), W((1,))):
        star = star_tree(2, 3, 2, w, -1)
        for i in (1, 2):
            enumerated = sorted(
                (c.nonexceptional, c.exceptional)
                for c in (
                    character_of(star, i, path)
                    for path in enumerate_trivial_source(star, i)
                )
            )
            expected = sorted(
                (c.nonexceptional, c.exceptional)
                for c in (b_level_character(star, i, x) for x in (1, 2))
            )
            assert enumerated == expected


def test_omega_twist():
    star = star_tree(2, 3, 2, W(()), -1)
    part = xi(star, 1)
    assert omega_twist(part, 2) == part
    assert omega_twist(omega_twist(part, 1), 1) == part
    zero = xi(star, 2)
    assert omega_twist(zero, 1) == exceptional_bundle(star)
    assert omega_twist(part, 1) == xi_complement(star, 1)


def test_omega_twist_rejects_non_01():
    star = star_tree(2, 3, 2, W(()), -1)
    doubled = xi(star, 1) + xi(star, 1)
    with pytest.raises(ValueError):
        omega_twist(doubled, 1)


def test_xi_needs_exceptional_vertex():
    from cyclicblocks.brauer_tree import BlockDescriptor, Edge

    m1 = BlockDescriptor(
        p=3,
        n=1,
        e=2,
        vertices=("A", "B", "C"),
        signs={"A": 1, "B": -1, "C": 1},
        edges=(Edge("E1", ("A", "B")), Edge("E2", ("B", "C"))),
        cyclic_order={"A": ("E1",), "B": ("E1", "E2"), "C": ("E2",)},
        exceptional=None,
        w=W(()),
    )
    with pytest.raises(ValueError):
        xi(m1, 1)


@pytest.mark.parametrize("i", [0, 3])
def test_exceptional_parts_reject_vertex_index_outside_range(i):
    star = star_tree(2, 3, 2, W((1,)), -1)
    for part in (xi, xi_complement):
        with pytest.raises(ValueError, match=f"vertex index {i} outside 1..2"):
            part(star, i)


def test_character_of_rejects_a_repeated_spine_vertex():
    # the exceptional part comes checked from xi; the spine part is checked
    # on its own
    star = star_tree(2, 3, 2, W(()), -1)
    path = enumerate_trivial_source(star, 1)[0]
    doubled = replace(path, spine_vertices=("v1", "v1"))
    with pytest.raises(CharacterConsistencyError, match="not 0/1"):
        character_of(star, 1, doubled)


def _clear_package_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("cyclicblocks"):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def test_level_check_fires_on_a_level_outside_0_1(monkeypatch):
    # the cut indices (2, 1, 3) give level 1 the value -1: the only cut at
    # most 1 is the 1, at an odd position
    star = star_tree(2, 3, 3, W((1, 2)), -1)
    path = next(p for p in enumerate_trivial_source(star, 3) if p.type_tag != 1)
    real = cyclicblocks.characters.restricted_cap_params
    _clear_package_caches()
    monkeypatch.setattr(
        cyclicblocks.characters,
        "restricted_cap_params",
        lambda w, g, i: SimpleNamespace(indices=real(w, g, i).indices[::-1]),
    )
    try:
        with pytest.raises(CharacterConsistencyError, match="outside 0/1"):
            xi(star, 3)
        with pytest.raises(CharacterConsistencyError, match="outside 0/1"):
            character_of(star, 3, path)
        report = consistency_suite(
            GridSpec(primes=(3,), n_max=3, seed=5), corpus_size=0
        )
    finally:
        monkeypatch.undo()
        _clear_package_caches()
    broken = [f for f in report.failures if f.check == "closed-form invariant"]
    assert [f.params for f in broken] == [repr((3, 3))]
    assert "CharacterConsistencyError: exceptional level values" in broken[0].actual
