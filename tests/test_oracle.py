import json
import random
import sys
from collections import Counter

import pytest

import cyclicblocks.characters
import cyclicblocks.classification
import cyclicblocks.local_reps
import cyclicblocks.oracle
from cyclicblocks.brauer_tree import validate
from cyclicblocks.characters import BlockCharacter
from cyclicblocks.cli import main
from cyclicblocks.cyclotomic import CyclicCharacter
from cyclicblocks.local_reps import (
    CyclicGroupData,
    EndoPermParams,
    cap_dim,
    char_det1_endoperm,
)
from cyclicblocks.oracle import (
    ConsistencyReport,
    GridSpec,
    _check_descriptor,
    _check_exceptional,
    block_params_for,
    consistency_suite,
    det1_char_by_recursion,
    general_params_for,
    perm_character_by_fixed_points,
    perm_module_character,
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
    # (p, n, whether the det1 recursion runs too); 3^10 = 59049 has 2^10
    # parameter lists, so it checks the permutation characters only
    sizes = ((3, 6, True), (5, 4, True), (7, 3, True), (7, 5, True), (3, 10, False))
    for p, n, recursion in sizes:
        g = CyclicGroupData(p, n)
        for i in range(n + 1):
            expected = perm_module_character(g, i)
            assert perm_character_by_fixed_points(p, n, i) == expected
        for params in general_params_for(n) if recursion else ():
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
            assert desc.signs[desc.exceptional] == 1


def test_consistency_suite_passes_small_grid():
    report = consistency_suite(GridSpec(primes=(3,), n_max=2, seed=5), corpus_size=8)
    assert isinstance(report, ConsistencyReport)
    assert report.checks_run > 0
    assert report.passed
    assert report.failures == ()


def test_consistency_suite_passes_larger_grids():
    # the CLI's `oracle --nmax 4` and `oracle --nmax 3 --primes 3 5 7 11 13`
    grids = (((3, 5, 7), 4, 9971), ((3, 5, 7, 11, 13), 3, 11442))
    for primes, n_max, checks in grids:
        report = consistency_suite(GridSpec(primes=primes, n_max=n_max, seed=0))
        assert report.checks_run == checks
        assert report.failures == ()


def test_consistency_suite_sees_one_flipped_xi_coordinate(monkeypatch):
    # a level-valued part cannot flip one coordinate alone: flipping level 0
    # flips every coordinate of valuation 0
    def flipped(desc, i):
        part = real(desc, i)
        return part._replace(levels=bytes((1 - part.levels[0],)) + part.levels[1:])

    real = cyclicblocks.oracle.xi
    monkeypatch.setattr(cyclicblocks.oracle, "xi", flipped)
    report = consistency_suite(GridSpec(primes=(3,), n_max=2, seed=5), corpus_size=0)
    name = "xi coordinates vs oracle correspondent"
    flagged = [f for f in report.failures if f.check == name]
    # one failure per (n, e, block parameter, vertex index): e = 1 at n = 1,
    # e in 1, 2 with two parameters and two indices at n = 2
    assert len(flagged) == 1 + 2 * 2 * 2


def test_a_short_module_count_is_a_named_failure(monkeypatch, capsys):
    # an admission that drops the first group leaves every vertex index
    # short of its e modules; the suite reports the counts as failures,
    # and `oracle` exits 1 with its report, not with a traceback
    real = cyclicblocks.classification.admitted_anchors
    monkeypatch.setattr(
        cyclicblocks.classification,
        "admitted_anchors",
        lambda desc, i: real(desc, i)[1:],
    )
    report = consistency_suite(GridSpec((3, 5), 1, 0), corpus_size=4)
    flagged = {(f.check, f.params, f.expected, f.actual) for f in report.failures}
    assert ("self-block module count", "(3, 1, 1)", "1", "0") in flagged
    assert ("self-block module count", "(5, 1, 1)", "1", "0") in flagged
    names = {f.check for f in report.failures}
    assert {"b-level agreement", "enumeration count"} <= names
    argv = ["oracle", "--primes", "3", "5", "--nmax", "1", "--corpus-size", "4"]
    assert main(argv) == 1
    printed = json.loads(capsys.readouterr().out)
    assert printed["checks_run"] == report.checks_run
    assert [f["check"] for f in printed["failures"]] == [
        f.check for f in report.failures
    ]


def _zero_first_level(monkeypatch, *modules):
    """Make `exceptional_orbits`, as the given modules read it, return a
    level table whose first nonzero byte is zeroed."""
    real = cyclicblocks.characters.exceptional_orbits

    def broken(p, n, e):
        s = real(p, n, e)
        at = next((k for k, v in enumerate(s.levels) if v), None)
        if at is None:
            return s
        return s._replace(levels=s.levels[:at] + b"\0" + s.levels[at + 1 :])

    for module in modules:
        monkeypatch.setattr(module, "exceptional_orbits", broken)


def test_consistency_suite_sees_a_level_table_the_characters_alone_read(
    monkeypatch,
):
    # the characters spread their parts by a wrong table: xi's table differs
    # from the one the oracle checked, and the group algebra's permutation
    # character at i = 1 is level-dependent
    _zero_first_level(monkeypatch, cyclicblocks.characters)
    report = consistency_suite(GridSpec((3,), 2, 5), corpus_size=0)
    # at n = 2, e in 1, 2 with two parameters and two indices
    assert Counter(f.check for f in report.failures) == {
        "xi coordinates vs oracle correspondent": 2 * 2 * 2,
        "self-block closure": 1,
    }


def test_consistency_suite_sees_a_wrong_level_table(monkeypatch):
    # both sides read the same wrong table: only the valuations and the
    # dense permutation character can tell, once per e = 1, 2 at n = 2
    _zero_first_level(
        monkeypatch, cyclicblocks.characters, cyclicblocks.oracle
    )
    report = consistency_suite(GridSpec((3,), 2, 5), corpus_size=0)
    assert Counter(f.check for f in report.failures) == {
        "orbit level vs valuation": 2,
        "self-block closure": 1,
    }


@pytest.mark.parametrize("p, n", [(3, 4), (5, 3), (7, 2), (13, 2)])
def test_exceptional_checks_read_no_dense_vector(monkeypatch, p, n):
    # the exceptional checks compare level values only; the one dense
    # comparison, "self-block closure", runs elsewhere
    def unreadable(char):
        raise AssertionError("a dense vector was read")

    monkeypatch.setattr(BlockCharacter, "exceptional", property(unreadable))
    monkeypatch.setattr(CyclicCharacter, "mults", property(unreadable))
    checks, failures = [], []

    def check(name, params, expected, actual):
        checks.append(name)
        if expected != actual:
            failures.append((name, params, expected, actual))

    _check_exceptional(p, n, check)
    assert failures == []
    assert checks.count("orbit level vs valuation") == sum(
        (p ** n - 1) // e for e in range(1, p) if (p - 1) % e == 0
    )


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
    # flipping the multiplicity of lambda_0 in every alternating sum of
    # permutation characters keeps it 0/1 but moves its degree by one, so
    # only the count law, degree cap_dim * p^(n-i), can see it
    real = cyclicblocks.local_reps._perm_sum_levels
    _clear_package_caches()
    monkeypatch.setattr(
        cyclicblocks.local_reps,
        "_perm_sum_levels",
        lambda n, cuts: real(n, cuts)[:n] + (1 - real(n, cuts)[n],),
    )
    try:
        report = consistency_suite(
            GridSpec(primes=(3,), n_max=2, seed=5), corpus_size=3
        )
    finally:
        monkeypatch.undo()
        _clear_package_caches()
    broken = [f for f in report.failures if f.check == "closed-form invariant"]
    # one failure per grid point and per corpus descriptor, each a break of
    # the count law, which for the Morita correspondent is xi's
    assert [f.params for f in broken[:2]] == [repr((3, 1)), repr((3, 2))]
    assert len(broken) == 2 + 3
    assert all("is not 0/1 of degree" in f.actual for f in broken)


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


def test_descriptor_checks_hold_at_large_e():
    # the enumerate benchmark's wide sizes, beyond the default corpus's
    # e <= 12: a few trees each, every check of the corpus descriptors
    checks, failures = [], []

    def check(name, params, expected, actual):
        checks.append(name)
        if expected != actual:
            failures.append((name, params, expected, actual))

    sizes = ((41, 2, 40), (61, 2, 60), (67, 2, 66), (71, 2, 70), (101, 2, 100))
    for p, n, e in sizes:
        for seed in range(3):
            desc = random_block_descriptor(random.Random(seed), p, n, e)
            _check_descriptor(desc, check)
    assert failures == []
    # per tree and vertex index: the count, e characters, one uniform part
    assert checks.count("enumeration count") == len(sizes) * 3 * 2
    assert checks.count("vertex-uniform exceptional part") == len(sizes) * 3 * 2
