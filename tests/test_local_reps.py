import os
import pathlib
import subprocess
import sys
import textwrap
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclicblocks.cyclotomic import CyclicCharacter, decompose
import cyclicblocks
from cyclicblocks.local_reps import (
    CyclicGroupData,
    EndoPermParams,
    cap_dim,
    char_det1_endoperm,
    morita_correspondent_character,
    restricted_cap_params,
)
from cyclicblocks.oracle import (
    IndecomposableModule,
    cap_dim_recursive,
    heller_relative,
    induce_character,
    perm_module_character,
)
from zeta_reference import ClassFunction, CyclotomicInteger
from zeta_reference import decompose as dense_decompose

W = EndoPermParams

G32 = CyclicGroupData(3, 2)
G33 = CyclicGroupData(3, 3)


def test_group_data_validation():
    with pytest.raises(ValueError):
        CyclicGroupData(2, 3)
    with pytest.raises(ValueError):
        CyclicGroupData(9, 1)
    with pytest.raises(ValueError):
        CyclicGroupData(5, 0)
    assert CyclicGroupData(5, 2).order == 25


def test_params_normal_form_is_enforced():
    with pytest.raises(ValueError):
        W((2, 1))
    with pytest.raises(ValueError):
        W((1, 1))
    with pytest.raises(ValueError):
        W((-1,))
    assert W(()).is_trivial
    assert not W((0, 2)).is_block_form
    assert W((1, 3)).is_block_form


def test_heller_relative_examples():
    assert heller_relative(G32, 0, 1) == IndecomposableModule(G32, 8)
    assert heller_relative(G32, 1, 1) == IndecomposableModule(G32, 2)
    assert heller_relative(CyclicGroupData(5, 1), 0, 3) == IndecomposableModule(
        CyclicGroupData(5, 1), 2
    )


def test_heller_relative_range_errors():
    with pytest.raises(ValueError):
        heller_relative(G32, 1, 3)  # r = |D/D_1| not allowed
    with pytest.raises(ValueError):
        heller_relative(G32, 2, 1)  # i = n not allowed
    with pytest.raises(ValueError):
        heller_relative(G32, 0, 0)


@given(st.integers(1, 8))
def test_heller_double_is_identity(r):
    once = heller_relative(G32, 0, r)
    assert heller_relative(G32, 0, once.dim).dim == r


def test_perm_module_character_examples():
    assert perm_module_character(G32, 0).mults == (1,) * 9
    assert perm_module_character(G32, 1).mults == (1, 0, 0, 1, 0, 0, 1, 0, 0)
    assert perm_module_character(G32, 2).mults == (1,) + (0,) * 8


def test_cap_dim_examples():
    assert cap_dim(W(()), G32, 1) == 1
    assert cap_dim(W(()), G32, 2) == 1
    assert cap_dim(W((1,)), G32, 2) == 2
    assert cap_dim(W((1, 2)), G33, 3) == 7


def test_cap_dim_recursive_examples():
    assert cap_dim_recursive(W(()), G32, 2) == 1
    assert cap_dim_recursive(W((1,)), G32, 2) == 2
    assert cap_dim_recursive(W((1,)), CyclicGroupData(5, 2), 1) == 1
    assert cap_dim_recursive(W((1, 2)), G33, 3) == 7


def test_cap_dim_matches_recursion_on_grid():
    for p in (3, 5, 7):
        for n in range(1, 5):
            g = CyclicGroupData(p, n)
            for params in _all_params(n, block=False):
                for i in range(1, n + 1):
                    assert cap_dim(params, g, i) == cap_dim_recursive(params, g, i)


def _all_params(n, block):
    from itertools import combinations

    pool = tuple(range(1 if block else 0, n))
    return [W(c) for size in range(len(pool) + 1) for c in combinations(pool, size)]


def test_restricted_cap_params_examples():
    assert restricted_cap_params(W((1, 3, 4)), CyclicGroupData(3, 5), 2) == W((1,))
    assert restricted_cap_params(W(()), G32, 1) == W(())
    assert restricted_cap_params(W((1, 2, 4)), CyclicGroupData(3, 5), 4) == W((1, 2))


def test_char_det1_examples():
    assert char_det1_endoperm(W(()), G32).mults == (1,) + (0,) * 8
    assert char_det1_endoperm(W((1,)), G32).mults == (0, 0, 0, 1, 0, 0, 1, 0, 0)
    chi = char_det1_endoperm(W((0, 1)), G32)
    assert chi.mults == (1, 1, 1, 0, 1, 1, 0, 1, 1)
    assert chi.degree == 7


def test_char_det1_zero_one_and_degree_law():
    for p in (3, 5):
        for n in range(1, 4):
            g = CyclicGroupData(p, n)
            for params in _all_params(n, block=False):
                chi = char_det1_endoperm(params, g)
                assert all(m in (0, 1) for m in chi.mults)
                assert chi.degree == cap_dim_recursive(params, g, n)


def test_induce_character_examples():
    triv = induce_character(G32, 1, perm_module_character(CyclicGroupData(3, 1), 1))
    assert triv.mults == (1, 0, 0, 1, 0, 0, 1, 0, 0)
    # lambda_1 + lambda_2 - 2 lambda_0 on D_1: -2 at kappa = 0 mod 3
    virtual = CyclicCharacter(3, 1, (1, -2))
    induced = induce_character(G32, 1, virtual)
    assert induced.levels == (1, -2, -2)
    assert induced.mults == (-2, 1, 1, -2, 1, 1, -2, 1, 1)
    full = perm_module_character(G32, 1)
    assert induce_character(G32, 2, full) == full


def _induced_by_values(p, n, i, sub_mults):
    """Oracle: the character induced from D_i as a class function by its
    values (zero off the subgroup, |D:D_i| * subgroup value on it),
    decomposed by the dense reference."""
    order, step = p ** n, p ** (n - i)
    values = []
    for j in range(order):
        coeffs = [0] * order
        if j % step == 0:
            for nu, m in enumerate(sub_mults):
                coeffs[(nu * j) % order] += step * m
        values.append(CyclotomicInteger(order, tuple(coeffs)))
    return dense_decompose(ClassFunction(order, tuple(values)))


def test_induced_irreducible_matches_induced_class_function():
    # lambda_1 is not constant on valuation levels: only the dense
    # reference holds it
    assert _induced_by_values(3, 2, 1, (0, 1, 0)) == (0, 1, 0, 0, 1, 0, 0, 1, 0)
    for p, n in ((3, 2), (3, 3), (5, 2)):
        g = CyclicGroupData(p, n)
        for i in range(1, n + 1):
            chi = CyclicCharacter(p, i, tuple(range(-1, i)))
            expected = _induced_by_values(p, n, i, chi.mults)
            assert induce_character(g, i, chi).mults == expected, (p, n, i)


def test_morita_correspondent_examples():
    assert morita_correspondent_character(W(()), G32, 1).mults == (
        1, 0, 0, 1, 0, 0, 1, 0, 0,
    )
    assert morita_correspondent_character(W((1,)), G32, 2).mults == (
        0, 0, 0, 1, 0, 0, 1, 0, 0,
    )
    assert morita_correspondent_character(W((1,)), G32, 1).mults == (
        1, 0, 0, 1, 0, 0, 1, 0, 0,
    )


def test_u_module_dimension_examples():
    # dim U = cap_dim * p^(n-i), which is also the correspondent's degree
    for w, g, i, degree in (
        (W(()), G32, 1, 3),
        (W((1,)), G32, 2, 2),
        (W((1, 2)), G33, 3, 7),
    ):
        assert cap_dim(w, g, i) * g.p ** (g.n - i) == degree
        assert morita_correspondent_character(w, g, i).degree == degree


def test_morita_correspondent_rejects_general_params():
    with pytest.raises(ValueError):
        morita_correspondent_character(W((0, 1)), G32, 1)


def test_morita_factorisation_on_grid():
    for p in (3, 5, 7):
        for n in range(1, 4):
            g = CyclicGroupData(p, n)
            for params in _all_params(n, block=True):
                for i in range(1, n + 1):
                    direct = morita_correspondent_character(params, g, i)
                    sub = CyclicGroupData(p, i)
                    composed = induce_character(
                        g, i, char_det1_endoperm(restricted_cap_params(params, g, i), sub)
                    )
                    assert direct == composed
                    assert direct.degree == cap_dim(params, g, i) * p ** (n - i)
                    assert all(m in (0, 1) for m in direct.mults)


def test_closed_forms_at_a_group_too_large_to_spread():
    # 3^40 does not fit in an index, so no dense vector of that length can
    # be made; every closed form works on the 41 level values alone
    g = CyclicGroupData(3, 40)
    start = time.process_time()
    for w in (W(()), W((0, 3, 39)), W((1, 2, 20, 39))):
        chi = char_det1_endoperm(w, g)
        assert set(chi.levels) <= {0, 1}
        assert chi.degree == cap_dim(w, g, 40)
    for w in (W(()), W((1,)), W((1, 2, 20, 39)), W(tuple(range(1, 40)))):
        for i in (1, 2, 20, 39, 40):
            direct = morita_correspondent_character(w, g, i)
            assert set(direct.levels) <= {0, 1}
            assert direct.degree == cap_dim(w, g, i) * 3 ** (40 - i)
            sub = CyclicGroupData(3, i)
            assert direct == induce_character(
                g, i, char_det1_endoperm(restricted_cap_params(w, g, i), sub)
            )
    assert time.process_time() - start < 0.5
    # the dense view is refused up front, as the `local` command relies on
    with pytest.raises(OverflowError):
        direct.mults


def test_cap_dim_with_many_indices_below_a_high_vertex():
    # the sum of (-1)^j p^(i - a_j) over a thousand indices, each term of
    # about 160 000 bits: one power per index took seconds; compared modulo
    # a prime with the terms summed there
    w, g, i = W(tuple(range(1, 1001))), CyclicGroupData(3, 100001), 100000
    start = time.process_time()
    ell = cap_dim(w, g, i)
    assert time.process_time() - start < 0.5
    prime = 2**61 - 1
    terms = [(-1) ** j * pow(3, i - a, prime) for j, a in enumerate(w.indices)]
    assert ell % prime == (sum(terms) + (-1) ** len(w.indices)) % prime
    assert ell.bit_length() == 158495


def test_perm_fixed_point_oracle_example():
    perm = (3, 0, 0, 3, 0, 0, 3, 0, 0)
    assert decompose(3, 2, perm) == perm_module_character(G32, 1)


def test_induce_character_rejects_wrong_order():
    with pytest.raises(ValueError):
        induce_character(G32, 1, perm_module_character(G32, 1))


@pytest.mark.parametrize("i", [0, 3])
def test_closed_forms_reject_vertex_index_outside_range(i):
    for closed_form in (cap_dim, morita_correspondent_character):
        with pytest.raises(ValueError, match=f"vertex index {i} outside 1..2"):
            closed_form(W((1,)), G32, i)


def test_params_out_of_group_bounds():
    with pytest.raises(ValueError):
        cap_dim(W((2,)), G32, 1)
    with pytest.raises(ValueError):
        char_det1_endoperm(W((5,)), G32)


def test_closed_form_checks_survive_optimised_mode():
    # python -O strips assert statements; the 0/1 and degree checks of the
    # closed forms must still fire on a corrupted alternating sum of
    # permutation characters, and so must xi's, which are the Morita
    # correspondent's
    script = textwrap.dedent(
        """
        from cyclicblocks import characters, local_reps as local
        from cyclicblocks.brauer_tree import star_tree

        def corrupted(n, cuts):
            return (2,) + (0,) * n

        local._perm_sum_levels = corrupted
        g, w = local.CyclicGroupData(3, 2), local.EndoPermParams(())
        star = star_tree(2, 3, 2, w, -1)
        print(__debug__)
        for closed_form in (
            lambda: local.char_det1_endoperm(w, g),
            lambda: local.morita_correspondent_character(w, g, 1),
            lambda: characters.xi(star, 1),
        ):
            try:
                closed_form()
            except characters.CharacterConsistencyError:
                print("raised")
            else:
                print("passed")
        """
    )
    src = str(pathlib.Path(cyclicblocks.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "raised", "raised", "raised"]
