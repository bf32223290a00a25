import os
import pathlib
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclicblocks.cyclotomic import (
    ClassFunction,
    CyclicCharacter,
    CyclotomicInteger,
    class_function_from_integers,
    decompose,
)
import cyclicblocks
from cyclicblocks.local_reps import (
    CyclicGroupData,
    EndoPermParams,
    IndecomposableModule,
    cap_dim,
    cap_dim_recursive,
    char_det1_endoperm,
    heller_relative,
    induce_character,
    morita_correspondent_character,
    perm_module_character,
    restricted_cap_params,
    u_module_dimension,
)

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
    assert W(()).s == -1
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
    lam1 = CyclicCharacter(3, (0, 1, 0))
    assert induce_character(G32, 1, lam1).mults == (0, 1, 0, 0, 1, 0, 0, 1, 0)
    full = perm_module_character(G32, 1)
    assert induce_character(G32, 2, full) == full


def test_induced_irreducible_matches_induced_class_function():
    # oracle: build the induced character as a class function by its values
    # (zero off the subgroup, |D:D_i| * subgroup value on it) and decompose
    p, n, i, nu = 3, 2, 1, 1
    order, step = p ** n, p ** (n - i)
    values = []
    for j in range(order):
        if j % step == 0:
            coeffs = [0] * order
            coeffs[(nu * j) % order] = step
            values.append(CyclotomicInteger(order, tuple(coeffs)))
        else:
            values.append(CyclotomicInteger(order, (0,) * order))
    induced = decompose(ClassFunction(order, tuple(values)))
    assert induced.mults == (0, 1, 0, 0, 1, 0, 0, 1, 0)


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
                    assert direct.degree == u_module_dimension(params, g, i)
                    assert all(m in (0, 1) for m in direct.mults)


def test_u_module_dimension_examples():
    assert u_module_dimension(W(()), G32, 1) == 3
    assert u_module_dimension(W((1,)), G32, 2) == 2
    assert u_module_dimension(W((1, 2)), G33, 3) == 7


def test_perm_fixed_point_oracle_example():
    perm = class_function_from_integers(9, (3, 0, 0, 3, 0, 0, 3, 0, 0))
    assert decompose(perm) == perm_module_character(G32, 1)


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
    # closed forms must still fire on a corrupted permutation character
    script = textwrap.dedent(
        """
        from cyclicblocks import characters, local_reps as local
        from cyclicblocks.cyclotomic import CyclicCharacter

        def corrupted(g, i):
            return CyclicCharacter(g.order, (2,) + (0,) * (g.order - 1))

        local.perm_module_character = corrupted
        g, w = local.CyclicGroupData(3, 2), local.EndoPermParams(())
        print(__debug__)
        for closed_form in (
            lambda: local.char_det1_endoperm(w, g),
            lambda: local.morita_correspondent_character(w, g, 1),
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
    assert proc.stdout.split() == ["False", "raised", "raised"]
