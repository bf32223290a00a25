import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclicblocks.cyclotomic import (
    PRIME_BOUND,
    CyclicCharacter,
    NonIntegralInnerProductError,
    decompose,
    is_odd_prime,
    valuation,
)
from cyclicblocks.local_reps import CyclicGroupData
from cyclicblocks.oracle import induce_character, perm_module_character
from zeta_reference import (
    ClassFunction,
    CyclotomicInteger,
    class_function_from_integers,
    class_function_from_multiplicities,
    from_int,
    inner_product,
    lambda_character,
    reduce_canonical,
    split_odd_prime_power,
    zeta_power,
)
from zeta_reference import decompose as dense_decompose


def test_split_odd_prime_power():
    assert split_odd_prime_power(27) == (3, 3)
    assert split_odd_prime_power(125) == (5, 3)
    for bad in (1, 2, 4, 8, 12, 15, 45):
        with pytest.raises(ValueError):
            split_odd_prime_power(bad)


def test_is_odd_prime_against_sympy():
    isprime = pytest.importorskip("sympy").isprime
    for k in range(-1, 5 * 10**4):
        assert is_odd_prime(k) == (k != 2 and isprime(k)), k
    # a strong pseudoprime to the first twelve bases, 2 to 37
    assert not is_odd_prime(318665857834031151167461)
    assert is_odd_prime(2**61 - 1)
    # a strong pseudoprime to all thirteen bases: refused, not answered
    assert PRIME_BOUND == 3317044064679887385961981
    assert not isprime(PRIME_BOUND)
    with pytest.raises(ValueError, match=str(PRIME_BOUND)):
        is_odd_prime(PRIME_BOUND)


def test_zeta_power_basics():
    assert zeta_power(9, 0).coeffs == (1,) + (0,) * 8
    assert zeta_power(9, 10) == zeta_power(9, 1)
    relation = zeta_power(3, 2) + zeta_power(3, 1) + zeta_power(3, 0)
    assert reduce_canonical(relation).coeffs == (0, 0, 0)


def test_zeta_power_rejects_bad_order():
    with pytest.raises(ValueError):
        zeta_power(8, 1)


def test_reduce_canonical_against_sympy():
    # the remainder modulo the cyclotomic polynomial, from sympy's division
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("X")
    rng = random.Random(13)
    for order in (3, 9, 27, 5, 25, 7):
        phi = sympy.Poly(sympy.cyclotomic_poly(order, x), x)
        for _ in range(25):
            coeffs = tuple(rng.randint(-50, 50) for _ in range(order))
            poly = sympy.Poly(coeffs[::-1], x)
            rem = [int(c) for c in sympy.rem(poly, phi).all_coeffs()[::-1]]
            expected = tuple(rem) + (0,) * (order - len(rem))
            reduced = reduce_canonical(CyclotomicInteger(order, coeffs))
            assert reduced.coeffs == expected, (order, coeffs)


def test_reduce_canonical_examples():
    zero = CyclotomicInteger(9, (0,) * 9)
    assert reduce_canonical(zero) == zero
    all_roots = CyclotomicInteger(9, (1,) * 9)
    assert reduce_canonical(all_roots).coeffs == (0,) * 9
    assert all_roots.is_zero()


coeff_vectors = st.integers(-9, 9)


@given(st.lists(coeff_vectors, min_size=9, max_size=9))
def test_reduce_idempotent(coeffs):
    x = CyclotomicInteger(9, tuple(coeffs))
    once = reduce_canonical(x)
    assert reduce_canonical(once) == once
    assert once == x


@given(
    st.lists(coeff_vectors, min_size=27, max_size=27),
    st.lists(coeff_vectors, min_size=27, max_size=27),
)
@settings(max_examples=40, deadline=None)
def test_reduce_respects_products(a, b):
    x = CyclotomicInteger(27, tuple(a))
    y = CyclotomicInteger(27, tuple(b))
    assert reduce_canonical(x * y) == reduce_canonical(
        reduce_canonical(x) * reduce_canonical(y)
    )


@given(
    st.lists(coeff_vectors, min_size=9, max_size=9),
    st.lists(coeff_vectors, min_size=9, max_size=9),
)
def test_reduce_additive(a, b):
    x = CyclotomicInteger(9, tuple(a))
    y = CyclotomicInteger(9, tuple(b))
    assert reduce_canonical(x + y) == reduce_canonical(x) + reduce_canonical(y)


def test_conjugate_reverses_exponents():
    assert zeta_power(9, 2).conjugate() == zeta_power(9, 7)
    assert from_int(9, 5).conjugate() == from_int(9, 5)


def test_inner_product_orthonormality():
    assert inner_product(lambda_character(9, 0), lambda_character(9, 0)) == 1
    assert inner_product(lambda_character(9, 1), lambda_character(9, 2)) == 0


def test_inner_product_permutation_character():
    # fixed points of the 9-cycle group acting on the 3 cosets of its
    # subgroup of order 3
    perm = class_function_from_integers(9, (3, 0, 0, 3, 0, 0, 3, 0, 0))
    assert inner_product(perm, lambda_character(9, 3)) == 1
    assert inner_product(perm, lambda_character(9, 1)) == 0


def test_inner_product_rejects_non_character():
    spike = class_function_from_integers(9, (1,) + (0,) * 8)
    with pytest.raises(NonIntegralInnerProductError):
        inner_product(spike, lambda_character(9, 0))


def test_inner_product_order_mismatch():
    with pytest.raises(ValueError):
        inner_product(lambda_character(9, 0), lambda_character(3, 0))


def test_decompose_single_irreducible():
    # lambda_5 is not constant on valuation levels: only the dense
    # reference holds it
    chi = dense_decompose(lambda_character(9, 5))
    assert chi == (0, 0, 0, 0, 0, 1, 0, 0, 0)


def test_decompose_regular_character():
    regular = (9,) + (0,) * 8
    assert decompose(3, 2, regular) == CyclicCharacter(3, 2, (1, 1, 1))
    assert decompose(3, 2, regular).mults == (1,) * 9
    assert dense_decompose(class_function_from_integers(9, regular)) == (1,) * 9


def test_decompose_fixed_point_function():
    perm = (3, 0, 0, 3, 0, 0, 3, 0, 0)
    assert decompose(3, 2, perm).levels == (0, 1, 1)
    assert decompose(3, 2, perm).mults == (1, 0, 0, 1, 0, 0, 1, 0, 0)
    assert dense_decompose(class_function_from_integers(9, perm)) == decompose(
        3, 2, perm
    ).mults


def test_decompose_failure_propagates():
    spike = (0, 1) + (0,) * 7
    with pytest.raises(NonIntegralInnerProductError):
        decompose(3, 2, spike)
    with pytest.raises(NonIntegralInnerProductError):
        dense_decompose(class_function_from_integers(9, spike))


@given(st.lists(st.integers(-4, 4), min_size=9, max_size=9))
@settings(max_examples=60, deadline=None)
def test_decompose_round_trip(mults):
    chi = tuple(mults)
    assert dense_decompose(class_function_from_multiplicities(chi)) == chi


# every odd prime power up to 343, as (p, n)
ORDERS = [
    (p, n)
    for p in range(3, 344)
    if is_odd_prime(p)
    for n in range(1, 6)
    if p ** n <= 343
]


def _dense(p, n, levels):
    """The dense multiplicity vector of a level-constant character, spread
    one kappa at a time: lambda_kappa takes the value of the level
    v_p(kappa), lambda_0 that of level n."""
    return tuple(
        levels[valuation(p, kappa) if kappa else n] for kappa in range(p ** n)
    )


def _outcome(p, n, values):
    """Both decompositions of one value table as dense vectors, "raises"
    standing for a NonIntegralInnerProductError."""
    results = []
    for run in (
        lambda: decompose(p, n, values).mults,
        lambda: dense_decompose(class_function_from_integers(p ** n, values)),
    ):
        try:
            results.append(run())
        except NonIntegralInnerProductError:
            results.append("raises")
    return results


def _ramanujan(p, k, j):
    """Sum of zeta^(kappa j) over the kappa of order exactly p^k: phi(p^k)
    where p^k divides j, -p^(k-1) where only p^(k-1) does, else 0."""
    if k == 0 or j % p ** k == 0:
        return p ** k - (p ** (k - 1) if k else 0)
    return -(p ** (k - 1)) if j % p ** (k - 1) == 0 else 0


def test_decompose_matches_reference_on_fixed_point_functions():
    for p, n in ORDERS:
        q = p ** n
        for i in range(n + 1):
            inside = p ** (n - i)
            values = [inside if j % inside == 0 else 0 for j in range(q)]
            new, dense = _outcome(p, n, values)
            assert new == dense != "raises", (p, n, i)


def test_decompose_matches_reference_on_level_constant_characters():
    rng = random.Random(5)
    for p, n in ORDERS:
        q = p ** n
        levels = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n + 1)]
        values = [
            sum(levels[v] * _ramanujan(p, n - v, j) for v in range(n + 1))
            for j in range(q)
        ]
        expected = _dense(p, n, levels)
        assert _outcome(p, n, values) == [expected, expected], (p, n, levels)
        assert decompose(p, n, values).levels == tuple(levels), (p, n, levels)


def test_decompose_matches_reference_on_random_functions():
    rng = random.Random(6)
    for p, n in ORDERS:
        q = p ** n
        for _ in range(2):
            values = [rng.randint(-3, 3) for _ in range(q)]
            new, dense = _outcome(p, n, values)
            assert new == dense, (p, n, values)


def test_decompose_raises_where_the_reference_does():
    for p, n in ORDERS:
        q = p ** n
        top = p ** (n - 1)
        cases = {
            # 1/q at every kappa
            "spike": [1] + [0] * (q - 1),
            # zeta^(-kappa) at kappa = 1: irrational at level 0
            "shifted regular": [0, q] + [0] * (q - 2),
        }
        # p zeta^(-kappa) at kappa = 1, and 0 once folded: irrational at
        # level 0 alone, where only the first q/p values break the pattern
        cases["level 0 alone"] = [-q if j % top == 1 % top else 0 for j in range(q)]
        cases["level 0 alone"][1] = (p - 1) * q
        if n > 1:
            # 0 at level 0, 1/p at the levels above it
            cases["subgroup indicator"] = [
                p ** (n - 2) if j % top == 0 else 0 for j in range(q)
            ]
            # 0 at level 0, irrational at level 1
            cases["coset of 1"] = [q if j % top == 1 else 0 for j in range(q)]
        for name, values in cases.items():
            assert _outcome(p, n, values) == ["raises", "raises"], (p, n, name)


def test_decompose_rejects_malformed_input():
    for p, n, values in (
        (3, 2, [0] * 8),
        (9, 1, [0] * 9),
        (2, 3, [0] * 8),
        (3, 0, [1]),
    ):
        with pytest.raises(ValueError, match="odd prime") as info:
            decompose(p, n, values)
        assert not isinstance(info.value, NonIntegralInnerProductError)


def _level_tuples(size):
    return st.tuples(*[st.integers(-5, 5)] * size)


@given(st.sampled_from(ORDERS), st.data())
@settings(max_examples=80, deadline=None)
def test_level_form_matches_the_dense_formulas(order, data):
    p, n = order
    g = CyclicGroupData(p, n)
    a = CyclicCharacter(p, n, data.draw(_level_tuples(n + 1)))
    b = CyclicCharacter(p, n, data.draw(_level_tuples(n + 1)))
    dense_a, dense_b = _dense(p, n, a.levels), _dense(p, n, b.levels)
    assert a.mults == dense_a
    for chi, dense in (
        (a + b, tuple(x + y for x, y in zip(dense_a, dense_b))),
        (a - b, tuple(x - y for x, y in zip(dense_a, dense_b))),
    ):
        assert chi.mults == dense
        assert chi.degree == sum(dense)
    i = data.draw(st.integers(1, n))
    sub = CyclicCharacter(p, i, data.draw(_level_tuples(i + 1)))
    assert induce_character(g, i, sub).mults == sub.mults * p ** (n - i)
    j = data.draw(st.integers(0, n))
    assert perm_module_character(g, j).mults == tuple(
        int(kappa % p ** j == 0) for kappa in range(p ** n)
    )


def test_character_degree_and_virtual_flag():
    # a virtual character: 1 on the six kappa of valuation 0, -1 on 3 and 6,
    # 2 on lambda_0
    chi = CyclicCharacter(3, 2, (1, -1, 2))
    assert chi.order == 9
    assert chi.mults == (2, 1, 1, -1, 1, 1, -1, 1, 1)
    assert chi.degree == 6
    assert (chi + chi).mults[3] == -2
    assert (chi + chi).levels == (2, -2, 4)
    assert (chi - chi).mults == (0,) * 9
    with pytest.raises(ValueError, match="order mismatch"):
        chi + CyclicCharacter(3, 1, (0, 1))


def test_class_function_validates_lengths():
    with pytest.raises(ValueError):
        ClassFunction(9, (from_int(9, 1),) * 8)
    for bad in ((0,) * 2, (0,) * 9):
        with pytest.raises(ValueError):
            CyclicCharacter(3, 2, bad)
