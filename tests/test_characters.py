import gc
import hashlib
import io
import json
import random
import re
import sys
import tracemalloc
from collections import Counter
from contextlib import redirect_stdout
from itertools import combinations
from math import gcd

import pytest
from test_golden import GOLDEN, fixtures

import cyclicblocks.characters
import cyclicblocks.local_reps
from cyclicblocks.brauer_tree import BlockDescriptor, Edge, star_tree
from cyclicblocks.characters import (
    BlockCharacter,
    CharacterConsistencyError,
    _mark_lattice_points,
    _reduced_basis,
    _smallest_of_order,
    exceptional_orbits,
    orbits_from_level,
    pim_character,
    t_and_d0,
    vertex_character,
    xi,
)
from cyclicblocks.cli import descriptor_to_obj, main
from cyclicblocks.classification import enumerate_trivial_source
from cyclicblocks.characters import character_of
from cyclicblocks.cyclotomic import is_odd_prime, valuation
from cyclicblocks.local_reps import (
    CyclicGroupData,
    EndoPermParams,
    cap_dim,
    morita_correspondent_character,
    restricted_cap_params,
)
from cyclicblocks.oracle import (
    GridSpec,
    b_level_character,
    consistency_suite,
    det1_char_by_recursion,
    induce_character,
    random_block_descriptor,
    random_corpus,
    xi_complement,
    xi_complement_nondivisible,
)

W = EndoPermParams


def block_params(n):
    pool = tuple(range(1, n))
    return [W(c) for size in range(len(pool) + 1) for c in combinations(pool, size)]


def _orbits_of(s):
    """Every orbit of the structure in ascending order, listed by its
    representative: the representative times 1, a, ..., a^(e-1)."""
    q = s.p ** s.n
    return tuple(
        tuple(sorted(r * pow(s.a, k, q) % q for k in range(s.e)))
        for r in s.representatives
    )


def test_exceptional_orbits_examples():
    small = exceptional_orbits(7, 1, 3)
    assert small.a == 2
    assert _orbits_of(small) == ((1, 2, 4), (3, 5, 6))
    assert small.representatives == (1, 3)

    nine = exceptional_orbits(3, 2, 2)
    assert nine.a == 8
    assert _orbits_of(nine) == ((1, 8), (2, 7), (3, 6), (4, 5))
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
                orbits = _orbits_of(s)
                minima = [o[0] for o in orbits]
                assert minima == sorted(minima), (p, n, e)
                assert sorted(k for o in orbits for k in o) == list(range(1, q))
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
    grid = [
        (p, n, e)
        for p in (3, 5, 7, 11, 13)
        for n in range(1, 4)
        for e in _divisors(p - 1)
    ]
    # at e <= 2 the levels are a slice of the level table, with no marking
    grid += [(3, 12, 1), (3, 12, 2)]
    for p, n, e in grid:
        s = exceptional_orbits.__wrapped__(p, n, e)
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
                assert s.representatives == tuple(o[0] for o in walked), (p, n, e)


def _orbits_by_marking(p, n, e):
    """Reference: the marking pass that exceptional_orbits ran before it
    folded by -1; it marks every orbit u*H in full from its least unmarked
    element u, checks that no mark lands twice, and reads each level off
    gcd(u, p^n).  Returns (a, representatives, levels)."""
    q = p ** n
    seen = bytearray(q)
    a = _smallest_of_order(p, n, e)
    others = [pow(a, j, q) for j in range(1, e)]
    assert pow(a, e, q) == 1
    reps = []
    start = 1
    while start > 0:
        seen[start] = 1
        for h in others:
            kappa = start * h % q
            assert not seen[kappa], f"orbit of {start} is shorter than {e}"
            seen[kappa] = 1
        reps.append(start)
        start = seen.find(0, start + 1)
    level_of = {p ** v: v for v in range(n)}
    levels = bytes(level_of[gcd(rep, q)] for rep in reps)
    return a, tuple(reps), levels


def test_orbits_of_valuation_v_are_inflated_from_n_minus_v():
    # lambda_kappa with p^v | kappa is inflated from D/D_v: the orbit minima
    # of valuation at least v are p^v times those of (p, n - v, e), at
    # levels shifted by v.  Every odd prime p with p^2 <= 10^5, every
    # e | p - 1, every n >= 2 with p^n <= 10^5 and every 1 <= v < n.  The
    # full table is built past the cache; the smaller tables the helper
    # caches are dropped after each p.
    build = exceptional_orbits.__wrapped__
    branches = Counter()
    for p in filter(is_odd_prime, range(3, 317)):
        for e in _divisors(p - 1):
            for n in range(2, 11):
                if p ** n > 10**5:
                    break
                full = build(p, n, e)
                for v in range(1, n):
                    upper = [
                        (r, level - v)
                        for r, level in zip(full.representatives, full.levels)
                        if level >= v
                    ]
                    reps, levels = orbits_from_level(p, n, e, v)
                    assert list(zip(reps, levels)) == upper, (p, n, e, v)
                if e <= 2:
                    branches["e <= 2"] += 1
                else:
                    branches["lattice" if 16 * e * e < p ** n else "key scan"] += 1
                branches["odd e"] += e % 2
        exceptional_orbits.cache_clear()
    assert min(branches.values()) >= 10, branches


@pytest.mark.parametrize("v", [-1, 2, 5])
def test_orbits_from_level_refuses_a_level_outside_0_to_n_minus_1(v):
    # at v = -1 the scaling by p^v gave float representatives; at v = n
    # the table of (p, 0, e) named an n the caller never gave
    with pytest.raises(ValueError, match=rf"^level v = {v} outside 0\.\.1$"):
        orbits_from_level(3, 2, 2, v)
    assert orbits_from_level(3, 2, 2, 0)[0] == (1, 2, 3, 4)
    assert orbits_from_level(3, 2, 2, 1) == ((3,), b"\x00")


def test_folded_orbits_match_the_marking_pass():
    build = exceptional_orbits.__wrapped__  # leaves the cache alone
    grid = [
        (p, n, e)
        for p in (3, 5, 7, 11, 13, 37, 41)
        for n in range(1, 12)
        if p ** n <= 2 * 10**5
        for e in _divisors(p - 1)
    ]
    # odd e, unfolded on both sides of the lattice gate 16*e*e < p^n
    grid += [
        (p, n, e)
        for p in (31, 61)
        for n in range(1, 4)
        if p ** n <= 2 * 10**5
        for e in (3, 5, 15)
    ]
    # the key scan at n = 2 and large e, where it replaces an O(e^2) pass
    grid += [(61, 2, 60), (67, 2, 66), (71, 2, 70), (101, 2, 100)]
    # the key scan just below the gate, the lattice just above it
    named = {
        (13, 3, 12): False,
        (11, 3, 10): False,
        (13, 4, 12): True,
        (11, 4, 10): True,
    }
    for (p, n, e), lattice in named.items():
        assert (16 * e * e < p ** n) == lattice, (p, n, e)
    for p, n, e in grid + list(named) + [(3, 12, 2)]:
        s = build(p, n, e)
        assert (s.a, s.representatives, s.levels) == _orbits_by_marking(
            p, n, e
        ), (p, n, e)


_SMALL_MODULI = list(range(2, 64)) + [81, 121, 125, 169, 243, 343]


def test_lattice_marking_matches_brute_force():
    for q in _SMALL_MODULI:
        for h in range(q):
            for folded in (True, False):
                half = q // 2 if folded else q - 1
                table = bytearray(q)
                _mark_lattice_points(table, h, q, folded)
                marked = {x for x, byte in enumerate(table) if byte == 255}
                expected = set()
                for x in range(1, half + 1):
                    image = h * x % q
                    if folded:
                        image = min(image, q - image)
                    if image < x:
                        expected.add(x)
                assert marked == expected, (q, h, folded)
                # nothing but the marks is written
                assert set(table) <= {0, 255}, (q, h, folded)


def test_reduced_basis_spans_the_lattice():
    for q in _SMALL_MODULI + [2401, 28561, 50653]:
        for h in range(q) if q < 400 else range(1, q, 97):
            u, v = _reduced_basis(h, q)
            for x, y in (u, v):
                assert (y - h * x) % q == 0, (q, h)
            assert abs(u[0] * v[1] - u[1] * v[0]) == q, (q, h)
            # Gauss-reduced: u is no longer than v, and v cannot be
            # shortened by a multiple of u
            nu, nv = u[0] ** 2 + u[1] ** 2, v[0] ** 2 + v[1] ** 2
            assert nu <= nv, (q, h)
            assert 2 * abs(u[0] * v[0] + u[1] * v[1]) <= nu, (q, h)


@pytest.mark.parametrize(
    "n, a, e, message",
    [
        # mod 7: 3 has order 6, so 3^2 != 1 (the pairs {u, 3u} would still
        # cover 1..6 without overlap)
        pytest.param(1, 3, 2, "3^2 is not 1 mod 7", id="3-2"),
        # 2 has order 3, so 2^3 = 1 is not -1; folded by -1 its orbits
        # would join into the one true orbit {1, ..., 6}, which the count
        # cannot tell apart
        pytest.param(1, 2, 6, "2^3 is not -1 mod 7", id="2-6"),
        # 6 = -1 has order 2: 6^6 = 1 and 6^3 = -1 both hold, and only the
        # count of three folded orbits, not one, shows the short orbits
        pytest.param(1, 6, 6, "shorter than 6", id="6-6"),
        # odd e, unfolded: 1 has order 1, so each index is its own orbit
        pytest.param(1, 1, 3, "shorter than 3", id="1-3"),
        # the same three faults mod 7^4 = 2401, where 16*e*e < 2401 puts the
        # marking on the lattice lines: 1047 has order 3 there, 2400 = -1
        pytest.param(4, 1047, 6, "1047^3 is not -1 mod 2401", id="1047-6-mod-2401"),
        pytest.param(4, 2400, 6, "shorter than 6", id="2400-6-mod-2401"),
        pytest.param(4, 1, 3, "shorter than 3", id="1-3-mod-2401"),
    ],
)
def test_orbit_length_check_fires_on_a_generator_of_the_wrong_order(
    monkeypatch, n, a, e, message
):
    monkeypatch.setattr(
        cyclicblocks.characters, "_smallest_of_order", lambda p, n, e: a
    )
    marked_by = []
    mark = cyclicblocks.characters._mark_lattice_points

    def spy(table, h, q, folded):
        marked_by.append(h)
        mark(table, h, q, folded)

    monkeypatch.setattr(cyclicblocks.characters, "_mark_lattice_points", spy)
    with pytest.raises(CharacterConsistencyError, match=re.escape(message)):
        exceptional_orbits.__wrapped__(7, n, e)
    # mod 2401 the count check fires after the lattice has marked; the a^e
    # and -1 checks fire before any marking
    assert bool(marked_by) == (n == 4 and "shorter" in message)


@pytest.mark.parametrize(
    "p, e, power",
    [
        # a^3 has order 22 mod 67^2 and a^11 order 6: both still give
        # (a^k)^33 = -1, and only the exact-order check tells them apart
        pytest.param(67, 66, 3, id="order-22-mod-67^2"),
        pytest.param(67, 66, 11, id="order-6-mod-67^2"),
        # odd e: a^3 has order 5 mod 31^2
        pytest.param(31, 15, 3, id="order-5-mod-31^2"),
    ],
)
def test_exact_order_check_fires_before_the_key_scan(monkeypatch, p, e, power):
    q = p * p
    assert not 16 * e * e < q  # the key-scan branch
    wrong = pow(_smallest_of_order(p, 2, e), power, q)
    monkeypatch.setattr(
        cyclicblocks.characters, "_smallest_of_order", lambda p, n, e: wrong
    )
    scanned = []
    monkeypatch.setattr(
        cyclicblocks.characters,
        "_minima_by_key",
        lambda *args: scanned.append(args),
    )
    with pytest.raises(CharacterConsistencyError, match=f"shorter than {e}$"):
        exceptional_orbits.__wrapped__(p, 2, e)
    assert scanned == []


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
            for orbit in _orbits_of(exceptional_orbits(p, n, e)):
                vals = set()
                for kappa in orbit:
                    v = 0
                    while kappa % p == 0:
                        kappa //= p
                        v += 1
                    vals.add(v)
                assert len(vals) == 1, (p, n, e, orbit)


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
    assert (xi(star, 1) + comp) == vertex_character(star, star.exceptional)


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


@pytest.mark.parametrize(
    "p, n, e", [(3, 9, 2), (13, 4, 12), (37, 3, 12), (67, 2, 66), (101, 2, 100)]
)
def test_xi_matches_oracle_correspondent_at_benchmark_sizes(p, n, e):
    # sizes the oracle grids never reach: the spread with no search (e = 2),
    # on lattice lines (13, 4, 12) and (37, 3, 12), and by key scan (n = 2);
    # the correspondent comes from the fixed-point recursion, not the closed
    # form that xi reads
    g = CyclicGroupData(p, n)
    reps = exceptional_orbits(p, n, e).representatives
    params = {(), (1,), (n - 1,), tuple(range(1, n)), tuple(range(2, n, 2))}
    for w in map(W, sorted(params)):
        star = star_tree(e, p, n, w, -1)
        for i in range(1, n + 1):
            local = det1_char_by_recursion(restricted_cap_params(w, g, i), p, i)
            mults = induce_character(g, i, local).mults
            expected = tuple(map(mults.__getitem__, reps))
            assert mults[0] == t_and_d0(w, i)[1], (p, n, e, w, i)
            assert xi(star, i).exceptional == expected, (p, n, e, w, i)
            assert xi_complement(star, i).exceptional == tuple(
                1 - c for c in expected
            ), (p, n, e, w, i)


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
                    literal = xi_complement_nondivisible(w, p, n, i)
                    comp = tuple(xi_complement(star, i).levels)
                    if t % 2 != 0:
                        assert literal == comp
                    else:
                        assert literal == tuple(c - 1 for c in comp)


def _nondivisible_by_representative(star, i):
    """xi_complement_nondivisible as its definition reads: at each orbit
    representative, the signed sum of the indicators [p^a does not divide
    it] over the parameter indices below i, closed by i."""
    p = star.p
    below = restricted_cap_params(star.w, CyclicGroupData(p, star.n), i).indices
    signed = [((-1) ** j, p ** a) for j, a in enumerate(below + (i,))]
    return tuple(
        sum(sign for sign, power in signed if rep % power != 0)
        for rep in exceptional_orbits(p, star.n, star.e).representatives
    )


@pytest.mark.parametrize(
    "p, n_max", [(3, 4), (5, 4), (7, 4), (11, 3), (13, 3)]
)
def test_nondivisible_complement_matches_its_per_representative_form(p, n_max):
    for n in range(1, n_max + 1):
        for e in range(1, p):
            if (p - 1) % e or (p ** n - 1) // e <= 1:
                continue
            for w in block_params(n):
                star = star_tree(e, p, n, w, -1)
                reps = exceptional_orbits(p, n, e).representatives
                for i in range(1, n + 1):
                    # each representative reads the level of its valuation
                    levels = xi_complement_nondivisible(w, p, n, i)
                    assert tuple(
                        levels[valuation(p, r)] for r in reps
                    ) == _nondivisible_by_representative(star, i), (p, n, e, w, i)


def test_morita_trivial_coordinate_is_d0():
    # the local module's character has the trivial constituent exactly when
    # t(i) is odd; its examples are in test_morita_correspondent_examples
    for p in (3, 5, 7):
        for n in range(1, 4):
            g = CyclicGroupData(p, n)
            for w in block_params(n):
                for i in range(1, n + 1):
                    chi = morita_correspondent_character(w, g, i)
                    assert chi.mults[0] == t_and_d0(w, i)[1], (p, n, w, i)


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
    # on its own, on every call, also after the valid part was built
    star = star_tree(2, 3, 2, W(()), -1)
    path = enumerate_trivial_source(star, 1)[0]
    assert path.spine_vertices == ("v1",)
    valid = character_of(star, 1, path).plain
    assert valid == bytes((1, 0))
    doubled = path._replace(spine_vertices=("v1", "v1"))
    for _ in range(2):
        with pytest.raises(
            CharacterConsistencyError, match=r"not 0/1-valued: \(2, 0\)"
        ):
            character_of(star, 1, doubled)
    assert character_of(star, 1, path).plain == valid


def test_characters_name_an_unknown_vertex():
    star = star_tree(2, 3, 2, W(()), -1)
    path = enumerate_trivial_source(star, 1)[0]
    for spine, unknown in ((("x",), "x"), (("v1", "exc"), "exc")):
        unnamed = path._replace(spine_vertices=spine)
        with pytest.raises(KeyError, match=f"no non-exceptional vertex '{unknown}'"):
            character_of(star, 1, unnamed)
    with pytest.raises(KeyError, match="no vertex 'x'"):
        vertex_character(star, "x")


def test_nonexceptional_part_counts_the_spine():
    # the reference counts the spine vertices over all e + 1 vertices; a hook
    # at the exceptional vertex counts nothing non-exceptional
    rng = random.Random(37)
    sizes = ((3, 2, 2), (7, 2, 6), (13, 2, 12), (41, 2, 40), (101, 2, 100), (5, 3, 4))
    for _ in range(24):
        p, n, e = rng.choice(sizes)
        desc = random_block_descriptor(rng, p, n, e)
        plain = desc.nonexceptional_vertices
        for i in range(1, n + 1):
            for path in enumerate_trivial_source(desc, i):
                counts = Counter(path.spine_vertices)
                char = character_of(desc, i, path)
                assert char.nonexceptional == tuple(counts[v] for v in plain)


def test_modules_of_one_anchor_share_their_nonexceptional_part():
    # every spine-shape module anchored at one vertex has one
    # non-exceptional part at every vertex index, and so does every hook
    # at one vertex; the parts of different anchors differ, and so do those
    # of different hooks.  At e = 1 the one module's part follows d0, so it
    # is left out.
    corpus = random_corpus(primes=(3, 5, 7, 11, 13), n_max=3, seed=11, count=40)
    corpus.append(random_block_descriptor(random.Random(4), 67, 2, 66))
    seen = set()
    for desc in (desc for desc in corpus if desc.e > 1):
        held = {}
        for i in range(1, desc.n + 1):
            for path in enumerate_trivial_source(desc, i):
                if path.type_tag in (3, 7):
                    continue
                part = character_of(desc, i, path).plain
                kind = "hook" if path.type_tag == 1 else "anchor"
                held.setdefault((kind, path.spine_vertices[0]), []).append(part)
                seen.add((path.type_tag, i))
        for parts in held.values():
            assert all(part == parts[0] for part in parts)
        for kind in ("hook", "anchor"):
            firsts = [parts[0] for (k, _), parts in held.items() if k == kind]
            assert len(set(firsts)) == len(firsts)
    # hooks, and shapes 4, 5 and 6 at every vertex index up to n_max
    assert {(1, 1), (1, 2), (1, 3)} <= seen
    assert {(shape, i) for shape in (4, 5, 6) for i in (1, 2, 3)} <= seen


@pytest.mark.parametrize(
    "p, n, e", [(3, 9, 2), (5, 6, 4), (7, 5, 6), (13, 4, 12), (37, 3, 12)]
)
def test_exceptional_view_matches_an_independent_spread(p, n, e):
    # the view of every character of an enumeration, of xi, its complement
    # and every vertex character is its level values read at each
    # representative's own valuation, at the benchmark's size classes
    desc = random_block_descriptor(random.Random(p), p, n, e)
    reps = exceptional_orbits(p, n, e).representatives
    valuations = [valuation(p, r) for r in reps]
    chars = [vertex_character(desc, v) for v in desc.vertices]
    for i in range(1, n + 1):
        chars += [xi(desc, i), xi_complement(desc, i)]
        for path in enumerate_trivial_source(desc, i):
            chars.append(character_of(desc, i, path))
    for char in chars:
        assert len(char.levels) == n
        assert char.exceptional == tuple(char.levels[v] for v in valuations)


def test_exceptional_view_is_empty_at_m_1():
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
    for char in (vertex_character(m1, "B"), pim_character(m1, "E2")):
        assert (char.levels, char.orbit_levels, char.exceptional) == (b"", b"", ())


def test_character_sum_names_the_part_that_leaves_a_byte():
    # both parts hold one byte per coordinate: 255 copies of a vertex
    # character sum to a character, and 256 name the coordinate that left
    # 0..255, in the non-exceptional part or at a level
    star = star_tree(4, 5, 2, W(()), -1)
    cases = (
        ("v2", (0, 255, 0, 0), b"\0\0", r"non-exceptional coordinate 1 sums to 256"),
        ("exc", (0, 0, 0, 0), b"\xff\xff", r"^level 0 sums to 256, outside 0\.\.255$"),
    )
    for vertex, plain, levels, message in cases:
        char = vertex_character(star, vertex)
        total = sum([char] * 254, char)
        assert (total.nonexceptional, total.levels) == (plain, levels)
        with pytest.raises(ValueError, match=message):
            sum([char] * 255, char)


def test_every_level_holds_a_representative():
    # is_zero_one reads the n level values, not the m coordinates; the two
    # agree because every level v < n holds p^(n-v-1)(p-1)/e >= 1
    # representatives, so a 2 at any level shows in the view
    for p in (3, 5, 7, 11, 13):
        for n in range(1, 5):
            for e in _divisors(p - 1):
                if (p ** n - 1) // e <= 1:
                    continue
                orbit_levels = exceptional_orbits(p, n, e).levels
                assert set(orbit_levels) == set(range(n)), (p, n, e)
                for v in range(n):
                    levels = bytes(2 if u == v else 1 for u in range(n))
                    char = BlockCharacter((), levels, (p, n, e))
                    assert not char.is_zero_one and 2 in char.exceptional


def test_enumerate_never_reads_the_exceptional_view(tmp_path, monkeypatch):
    # the writer renders each exceptional list from the level values, so
    # the golden output comes out with the view made unreadable
    def unreadable(char):
        raise AssertionError("the exceptional view was read")

    monkeypatch.setattr(BlockCharacter, "exceptional", property(unreadable))
    path = tmp_path / "desc.json"
    path.write_text(json.dumps(descriptor_to_obj(fixtures()["random-3-9-2"])))
    digests = GOLDEN["random-3-9-2"]
    for extra, digest in (([], digests[1]), (["--format", "csv"], digests[2])):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["enumerate", str(path), *extra]) == 0
        assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "name, table",
    [
        ("random-3-9-2-flipped", (3, 8, 2)),
        ("random-13-4-12-flipped", (13, 3, 12)),
        ("random-3-9-2", (3, 9, 2)),
    ],
)
def test_enumerate_builds_the_orbit_table_from_the_lowest_printed_level(
    tmp_path, monkeypatch, name, table
):
    # no exceptional part the flipped trees print is non-zero at level 0,
    # so their orbits come from the table of (p, n - 1, e), and the table
    # of (p, n, e) is never built; the unflipped tree prints level 0
    real = cyclicblocks.characters.exceptional_orbits
    calls = []

    def recording(p, n, e):
        calls.append((p, n, e))
        return real(p, n, e)

    monkeypatch.setattr(cyclicblocks.characters, "exceptional_orbits", recording)
    path = tmp_path / "desc.json"
    path.write_text(json.dumps(descriptor_to_obj(fixtures()[name])))
    digests = GOLDEN[name]
    for extra, digest in (([], digests[1]), (["--format", "csv"], digests[2])):
        calls.clear()
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["enumerate", str(path), *extra]) == 0
        assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == digest
        assert calls == [table]


def test_consistency_suite_leaves_no_exceptional_parts_behind():
    # once the suite's descriptors are gone, and with them their exceptional
    # parts, the only data left is what the one cache of (p, n, e) holds
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert consistency_suite(GridSpec((3, 5, 7), 4, 0)).passed
        exceptional_orbits.cache_clear()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 0.25 * 2**20

def _clear_package_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("cyclicblocks"):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def test_level_check_fires_on_a_level_outside_0_1(monkeypatch):
    # an alternating sum of permutation characters with the value 2 at
    # level 0 gives the Morita correspondent, whose levels below n are
    # xi's, a level outside 0/1.  A descriptor keeps the levels it has
    # read, so xi and character_of are asked on a star built afterwards.
    path = next(
        p
        for p in enumerate_trivial_source(star_tree(2, 3, 3, W((1, 2)), -1), 3)
        if p.type_tag != 1
    )
    _clear_package_caches()
    monkeypatch.setattr(
        cyclicblocks.local_reps,
        "_perm_sum_levels",
        lambda n, cuts: (2,) + (0,) * n,
    )
    star = star_tree(2, 3, 3, W((1, 2)), -1)
    try:
        with pytest.raises(CharacterConsistencyError, match="not 0/1"):
            xi(star, 3)
        with pytest.raises(CharacterConsistencyError, match="not 0/1"):
            character_of(star, 3, path)
        report = consistency_suite(
            GridSpec(primes=(3,), n_max=3, seed=5), corpus_size=0
        )
    finally:
        monkeypatch.undo()
        _clear_package_caches()
    broken = [f for f in report.failures if f.check == "closed-form invariant"]
    # the determinant-1 closed form of the first (W, i) breaks first, at
    # every grid point
    assert [f.params for f in broken] == [repr((3, n)) for n in (1, 2, 3)]
    assert all("is not 0/1 of degree" in f.actual for f in broken)
