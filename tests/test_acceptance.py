"""Acceptance suite: every release criterion, run at its stated grid and
time budget, one printed pass/fail line per criterion (visible with -s).

All comparisons are exact integer or integer-vector equality; there are no
tolerances anywhere."""

import random
import time

from cyclicblocks.brauer_tree import group_algebra_block, star_tree
from cyclicblocks.characters import (
    character_of,
    t_and_d0,
    vertex_character,
    xi,
)
from cyclicblocks.classification import enumerate_trivial_source
from cyclicblocks.local_reps import (
    CyclicGroupData,
    EndoPermParams,
    cap_dim,
    char_det1_endoperm,
    morita_correspondent_character,
    restricted_cap_params,
)
from cyclicblocks.oracle import (
    b_level_character,
    block_params_for,
    cap_dim_recursive,
    det1_char_by_recursion,
    general_params_for,
    induce_character,
    perm_module_character,
    random_corpus,
    xi_complement,
    xi_complement_nondivisible,
)
from zeta_reference import (
    class_function_from_multiplicities,
    decompose,
    inner_product,
    lambda_character,
)

W = EndoPermParams

CORPUS_PRIMES = (5, 7, 13)
CORPUS_SEED = 2024
CORPUS_SIZE = 220


def run_criterion(num, label, budget, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"criterion {num:2d}: FAIL  {label}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"criterion {num:2d}: FAIL  {label} ({elapsed:.2f}s over budget {budget:.0f}s)")
        raise AssertionError(f"criterion {num} exceeded its {budget:.0f}s budget")
    print(f"criterion {num:2d}: PASS  {label} ({elapsed:.2f}s)")


def _eligible_e(p, n):
    return [e for e in range(1, p) if (p - 1) % e == 0 and (p ** n - 1) // e > 1]


def test_criterion_01_cap_dimension_identity():
    def body():
        for p in (3, 5, 7, 11):
            for n in range(1, 5):
                g = CyclicGroupData(p, n)
                params = block_params_for(n)
                assert len(params) == 2 ** (n - 1)
                for w in params:
                    for i in range(1, n + 1):
                        assert cap_dim(w, g, i) == cap_dim_recursive(w, g, i)

    run_criterion(1, "cap dimension closed form = Heller recursion", 5.0, body)


def test_criterion_02_det1_character_identity():
    def body():
        for p in (3, 5, 7):
            for n in range(1, 4):
                g = CyclicGroupData(p, n)
                for w in general_params_for(n):
                    assert char_det1_endoperm(w, g) == det1_char_by_recursion(w, p, n)

    run_criterion(
        2, "determinant-1 characters = fixed-point recursion", 30.0, body
    )


def test_criterion_03_morita_factorisation():
    def body():
        for p in (3, 5, 7):
            for n in range(1, 4):
                g = CyclicGroupData(p, n)
                for w in block_params_for(n):
                    for i in range(1, n + 1):
                        direct = morita_correspondent_character(w, g, i)
                        composed = induce_character(
                            g,
                            i,
                            char_det1_endoperm(
                                restricted_cap_params(w, g, i), CyclicGroupData(p, i)
                            ),
                        )
                        assert direct == composed
                        assert direct.degree == cap_dim(w, g, i) * p ** (n - i)

    run_criterion(
        3, "Morita correspondent = induce after cap, with the degree law", 30.0, body
    )


def test_criterion_04_exceptional_count_law():
    def body():
        for p in (3, 5, 7, 13):
            for n in range(1, 4):
                g = CyclicGroupData(p, n)
                for e in _eligible_e(p, n):
                    for w in block_params_for(n):
                        star = star_tree(e, p, n, w, -1)
                        for i in range(1, n + 1):
                            _, d0 = t_and_d0(w, i)
                            dim = cap_dim(w, g, i) * p ** (n - i)
                            assert (dim - d0) % e == 0
                            assert sum(xi(star, i).exceptional) == (dim - d0) // e

    run_criterion(
        4, "count of exceptional constituents = (dim - d0)/e", 60.0, body
    )


def test_criterion_05_self_block_closure():
    def body():
        for p in (3, 5):
            for n in range(1, 4):
                desc = group_algebra_block(p, n)
                g = CyclicGroupData(p, n)
                for i in range(1, n + 1):
                    modules = enumerate_trivial_source(desc, i)
                    assert len(modules) == 1
                    char = character_of(desc, i, modules[0])
                    relabelled = (char.nonexceptional[0],) + char.exceptional
                    assert relabelled == perm_module_character(g, i).mults

    run_criterion(
        5, "one-edge block characters = permutation characters relabelled", None, body
    )


def _corpus():
    return random_corpus(CORPUS_PRIMES, 3, seed=CORPUS_SEED, count=CORPUS_SIZE)


def test_criterion_06_enumeration_cardinality():
    def body():
        corpus = _corpus()
        assert len(corpus) >= 200
        for desc in corpus:
            assert desc.m > 1 and desc.e <= 12
            for i in range(1, desc.n + 1):
                modules = enumerate_trivial_source(desc, i)
                assert len(modules) == desc.e
                for module in modules:
                    assert character_of(desc, i, module).is_zero_one

    run_criterion(
        6, "random corpus: exactly e modules per vertex, 0/1 characters", 120.0, body
    )


def test_criterion_07_vertex_uniform_exceptional_part():
    def body():
        for desc in _corpus():
            for i in range(1, desc.n + 1):
                parts = {
                    character_of(desc, i, module).exceptional
                    for module in enumerate_trivial_source(desc, i)
                    if module.type_tag != 1
                }
                assert len(parts) <= 1

    run_criterion(
        7, "random corpus: non-hook modules share the exceptional part", None, body
    )


def test_criterion_08_complement_audit():
    def body():
        for p in (3, 5, 7, 13):
            for n in range(1, 4):
                for e in _eligible_e(p, n):
                    for w in block_params_for(n):
                        star = star_tree(e, p, n, w, -1)
                        bundle = vertex_character(star, star.exceptional)
                        for i in range(1, n + 1):
                            t, _ = t_and_d0(w, i)
                            part = xi(star, i)
                            comp = xi_complement(star, i)
                            assert part + comp == bundle
                            literal = xi_complement_nondivisible(w, p, n, i)
                            if t % 2 != 0:
                                assert literal == tuple(comp.levels)
                            else:
                                assert literal == tuple(
                                    c - 1 for c in comp.levels
                                )

    run_criterion(
        8,
        "complement partition holds; non-divisibility form off by the bundle "
        "exactly when t(i) is even",
        None,
        body,
    )


def test_criterion_09_b_level_agreement():
    def body():
        for p in (3, 5, 7):
            for n in range(1, 4):
                for e in _eligible_e(p, n):
                    for w in block_params_for(n):
                        star = star_tree(e, p, n, w, -1)
                        for i in range(1, n + 1):
                            enumerated = sorted(
                                (c.nonexceptional, c.exceptional)
                                for c in (
                                    character_of(star, i, path)
                                    for path in enumerate_trivial_source(star, i)
                                )
                            )
                            expected = sorted(
                                (c.nonexceptional, c.exceptional)
                                for c in (
                                    b_level_character(star, i, x)
                                    for x in range(1, e + 1)
                                )
                            )
                            assert enumerated == expected

    run_criterion(
        9, "star blocks: enumerated characters = local-level closed form", None, body
    )


def test_criterion_10_cyclotomic_substrate():
    def body():
        for order in (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27):
            table = [lambda_character(order, k) for k in range(order)]
            for a in range(order):
                for b in range(order):
                    assert inner_product(table[a], table[b]) == (1 if a == b else 0)
        rng = random.Random(99)
        orders = [3, 5, 7, 9] * 212 + [25] * 100 + [27] * 52
        assert len(orders) == 1000
        for order in orders:
            mults = [0] * order
            for _ in range(rng.randint(0, 8)):
                mults[rng.randrange(order)] = rng.randint(-4, 4)
            chi = tuple(mults)
            assert decompose(class_function_from_multiplicities(chi)) == chi

    run_criterion(
        10, "orthonormality exhaustive to order 27; 1000 round-trips", 5.0, body
    )
