import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclicblocks.cyclotomic import (
    PRIME_BOUND,
    ClassFunction,
    CyclicCharacter,
    CyclotomicInteger,
    NonIntegralInnerProductError,
    class_function_from_integers,
    class_function_from_multiplicities,
    decompose,
    from_int,
    inner_product,
    is_odd_prime,
    lambda_character,
    reduce_canonical,
    split_odd_prime_power,
    zeta_power,
)


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
    chi = decompose(lambda_character(9, 5))
    assert chi == CyclicCharacter(9, (0, 0, 0, 0, 0, 1, 0, 0, 0))


def test_decompose_regular_character():
    regular = class_function_from_integers(9, (9,) + (0,) * 8)
    assert decompose(regular).mults == (1,) * 9


def test_decompose_fixed_point_function():
    perm = class_function_from_integers(9, (3, 0, 0, 3, 0, 0, 3, 0, 0))
    assert decompose(perm).mults == (1, 0, 0, 1, 0, 0, 1, 0, 0)


def test_decompose_failure_propagates():
    spike = class_function_from_integers(9, (0, 1) + (0,) * 7)
    with pytest.raises(NonIntegralInnerProductError):
        decompose(spike)


@given(st.lists(st.integers(-4, 4), min_size=9, max_size=9))
@settings(max_examples=60, deadline=None)
def test_decompose_round_trip(mults):
    chi = CyclicCharacter(9, tuple(mults))
    assert decompose(class_function_from_multiplicities(chi)) == chi


def test_character_degree_and_virtual_flag():
    chi = CyclicCharacter(9, (1, -1, 0, 2, 0, 0, 0, 0, 0))
    assert chi.degree == 2
    assert not chi.is_genuine
    assert (chi + chi).mults[3] == 4
    assert (chi - chi).is_genuine


def test_class_function_validates_lengths():
    with pytest.raises(ValueError):
        ClassFunction(9, (from_int(9, 1),) * 8)
    with pytest.raises(ValueError):
        CyclicCharacter(9, (0,) * 8)
