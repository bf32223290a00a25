import random
import sys

import cyclicblocks.characters
from cyclicblocks.brauer_tree import validate
from cyclicblocks.local_reps import (
    CyclicGroupData,
    EndoPermParams,
    cap_dim,
    char_det1_endoperm,
    perm_module_character,
)
from cyclicblocks.oracle import (
    ConsistencyReport,
    GridSpec,
    block_params_for,
    consistency_suite,
    det1_char_by_recursion,
    general_params_for,
    perm_character_by_fixed_points,
    random_block_descriptor,
    random_corpus,
)

W = EndoPermParams


def test_fixed_point_characters_match_closed_form():
    assert perm_character_by_fixed_points(3, 2, 1).mults == (
        1, 0, 0, 1, 0, 0, 1, 0, 0,
    )
    assert perm_character_by_fixed_points(3, 2, 2).mults == (1,) + (0,) * 8
    assert perm_character_by_fixed_points(3, 2, 0).mults == (1,) * 9
    g = CyclicGroupData(5, 2)
    for i in range(3):
        assert perm_character_by_fixed_points(5, 2, i) == perm_module_character(g, i)


def test_det1_recursion_examples():
    assert det1_char_by_recursion(W(()), 3, 2).mults == (1,) + (0,) * 8
    assert det1_char_by_recursion(W((1,)), 3, 2).mults == (0, 0, 0, 1, 0, 0, 1, 0, 0)
    assert det1_char_by_recursion(W((0, 1)), 3, 2).degree == 7


def test_det1_recursion_agrees_with_closed_form():
    for p, n in ((3, 3), (5, 2)):
        g = CyclicGroupData(p, n)
        for params in general_params_for(n):
            assert det1_char_by_recursion(params, p, n) == char_det1_endoperm(params, g)


def test_fixed_point_oracle_reaches_larger_orders():
    for p, n in ((3, 6), (5, 4), (7, 3)):
        g = CyclicGroupData(p, n)
        for i in range(n + 1):
            expected = perm_module_character(g, i)
            assert perm_character_by_fixed_points(p, n, i) == expected
        for params in general_params_for(n):
            assert det1_char_by_recursion(params, p, n) == char_det1_endoperm(params, g)


def test_param_pools():
    assert [w.indices for w in block_params_for(1)] == [()]
    assert len(block_params_for(3)) == 4
    assert len(general_params_for(3)) == 8


def test_random_descriptors_are_valid_and_alternating():
    rng = random.Random(7)
    for _ in range(25):
        desc = random_block_descriptor(rng, 7, 2, 3)
        assert validate(desc, strict=True) == []
        assert desc.m > 1


def test_random_corpus_rejects_m1_combinations():
    corpus = random_corpus((5,), 1, seed=3, count=20)
    assert all(d.m > 1 for d in corpus)
    # n = 1 and p = 5 leave e in {1, 2}: e = 4 would force m = 1
    assert all(d.e in (1, 2) for d in corpus)


def test_generator_avoids_unrealisable_orientation():
    rng = random.Random(11)
    for _ in range(200):
        desc = random_block_descriptor(rng, 5, 2, 4)
        g = CyclicGroupData(5, 2)
        if desc.is_leaf(desc.exceptional) and cap_dim(desc.w, g, 2) == 4:
            assert desc.sign(desc.exceptional) == 1


def test_consistency_suite_passes_small_grid():
    report = consistency_suite(GridSpec(primes=(3,), n_max=2, seed=5), corpus_size=8)
    assert isinstance(report, ConsistencyReport)
    assert report.checks_run > 0
    assert report.passed
    assert report.failures == ()


def test_consistency_suite_names_injected_fault():
    corrupted = lambda w, g, i: cap_dim(w, g, i) + 1  # noqa: E731
    report = consistency_suite(
        GridSpec(primes=(3,), n_max=2, seed=5), corpus_size=0, cap_dim_impl=corrupted
    )
    assert not report.passed
    assert any(f.check == "cap_dim vs recursive" for f in report.failures)


def _clear_package_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("cyclicblocks"):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def test_consistency_suite_reports_broken_invariant(monkeypatch):
    real = cyclicblocks.characters.u_module_dimension
    _clear_package_caches()
    monkeypatch.setattr(
        cyclicblocks.characters,
        "u_module_dimension",
        lambda w, g, i: real(w, g, i) + 1,
    )
    try:
        report = consistency_suite(
            GridSpec(primes=(3,), n_max=2, seed=5), corpus_size=3
        )
    finally:
        monkeypatch.undo()
        _clear_package_caches()
    broken = [f for f in report.failures if f.check == "closed-form invariant"]
    # one failure per grid point and per corpus descriptor, each a count-law break
    assert [f.params for f in broken[:2]] == [repr((3, 1)), repr((3, 2))]
    assert len(broken) == 2 + 3
    assert all("CharacterConsistencyError: count" in f.actual for f in broken)


def test_consistency_suite_empty_grid():
    report = consistency_suite(GridSpec(primes=(), n_max=2, seed=0), corpus_size=5)
    assert report.checks_run == 0
    assert report.failures == ()


def test_pruefer_tree_shapes():
    from cyclicblocks.oracle import _tree_edges_from_pruefer

    assert _tree_edges_from_pruefer([], 2) == [(0, 1)]
    edges = _tree_edges_from_pruefer([3, 3, 3], 5)
    assert len(edges) == 4
    assert sorted(v for pair in edges for v in pair if v == 3) == [3, 3, 3, 3]
