"""Dense reference arithmetic in Z[zeta] for zeta a primitive p^n-th root of
unity, the independent source of truth for `cyclotomic.decompose`.

A cyclotomic integer is an integer coefficient vector of length p^n in the
group-ring presentation Z[X]/(X^{p^n} - 1): entry j is the coefficient of
zeta^j.  Values are brought into normal form (the remainder modulo the
p^n-th cyclotomic polynomial Phi(X) = 1 + X^q + ... + X^{(p-1)q},
q = p^{n-1}) only for equality and zero tests.  Class functions on
C_{p^n} = <u> are tables of p^n cyclotomic integers, entry j being the value
at u^j, and `decompose` pairs one with every lambda_kappa: u -> zeta^kappa
by index shifts, O(p^n) work per kappa.  The library decomposes only
integer-valued functions, level by level; this module pairs any value
table directly, with no use of Galois invariance.  Its multiplicity vectors
are plain dense tuples, entry kappa that of lambda_kappa, so it holds the
characters that are not constant on valuation levels too, which the
library's `CyclicCharacter` cannot.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from cyclicblocks.cyclotomic import NonIntegralInnerProductError, valuation


def split_odd_prime_power(order: int) -> tuple[int, int]:
    """Return (p, n) with order = p^n for an odd prime p, or raise ValueError."""
    if order >= 3 and order % 2:
        p = next((d for d in range(3, isqrt(order) + 1, 2) if order % d == 0), order)
        n = valuation(p, order)
        if p ** n == order:
            return p, n
    raise ValueError(f"order {order} is not an odd prime power")


@dataclass(frozen=True, eq=False)
class CyclotomicInteger:
    """Element of Z[zeta_{p^n}] as a length-p^n coefficient vector."""

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        split_odd_prime_power(self.order)
        if len(self.coeffs) != self.order:
            raise ValueError(
                f"coefficient vector has length {len(self.coeffs)}, expected {self.order}"
            )

    def __add__(self, other: "CyclotomicInteger") -> "CyclotomicInteger":
        self._check_order(other)
        return CyclotomicInteger(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other: "CyclotomicInteger") -> "CyclotomicInteger":
        self._check_order(other)
        order = self.order
        out = [0] * order
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[(i + j) % order] += a * b
        return CyclotomicInteger(order, tuple(out))

    def conjugate(self) -> "CyclotomicInteger":
        """Complex conjugation, zeta -> zeta^{-1}: reverse indices mod the order."""
        order = self.order
        out = [0] * order
        for j, a in enumerate(self.coeffs):
            out[-j % order] = a
        return CyclotomicInteger(order, tuple(out))

    def is_zero(self) -> bool:
        return not any(reduce_canonical(self).coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CyclotomicInteger):
            return NotImplemented
        if self.order != other.order:
            return False
        return reduce_canonical(self).coeffs == reduce_canonical(other).coeffs

    __hash__ = None

    def _check_order(self, other: "CyclotomicInteger") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")


def from_int(order: int, value: int) -> CyclotomicInteger:
    """Embed a rational integer."""
    return CyclotomicInteger(order, (value,) + (0,) * (order - 1))


def zeta_power(order: int, exponent: int) -> CyclotomicInteger:
    """zeta^exponent as a unit coefficient vector, exponent taken mod the order."""
    coeffs = [0] * order
    coeffs[exponent % order] = 1
    return CyclotomicInteger(order, tuple(coeffs))


def reduce_canonical(x: CyclotomicInteger) -> CyclotomicInteger:
    """Remainder of the coefficient vector modulo Phi_{p^n}(X), re-embedded:
    zero from degree (p-1)p^{n-1} up, so two values are equal in Z[zeta]
    iff their reduced vectors coincide."""
    p, _ = split_odd_prime_power(x.order)
    return CyclotomicInteger(x.order, _reduce_coeffs(list(x.coeffs), x.order, p))


def _reduce_coeffs(rem: list[int], order: int, p: int) -> tuple[int, ...]:
    # Phi = sum of X^{t*q} for t < p, q = p^{n-1}; monic, degree d = (p-1)q,
    # so X^k == -(X^{k-d} + X^{k-d+q} + ... + X^{k-d+(p-2)q}) for k >= d.
    q = order // p
    d = order - q
    for k in range(order - 1, d - 1, -1):
        c = rem[k]
        if c:
            rem[k] = 0
            for t in range(p - 1):
                rem[k - d + t * q] -= c
    return tuple(rem)


@dataclass(frozen=True)
class ClassFunction:
    """Function on C_{p^n} = <u>; entry j is the value at u^j."""

    order: int
    values: tuple[CyclotomicInteger, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.order:
            raise ValueError(
                f"value table has length {len(self.values)}, expected {self.order}"
            )
        for v in self.values:
            if v.order != self.order:
                raise ValueError("value of mismatched order in class function")


def lambda_character(order: int, kappa: int) -> ClassFunction:
    """The irreducible character u -> zeta^kappa as a value table."""
    return ClassFunction(
        order, tuple(zeta_power(order, kappa * j) for j in range(order))
    )


def class_function_from_integers(order: int, values) -> ClassFunction:
    """Build a class function from plain integer values."""
    return ClassFunction(order, tuple(from_int(order, v) for v in values))


def class_function_from_multiplicities(mults: tuple[int, ...]) -> ClassFunction:
    """Value table of sum_kappa m_kappa lambda_kappa, m_kappa = mults[kappa]."""
    order = len(mults)
    values = []
    for j in range(order):
        coeffs = [0] * order
        for kappa, m in enumerate(mults):
            if m:
                coeffs[(kappa * j) % order] += m
        values.append(CyclotomicInteger(order, tuple(coeffs)))
    return ClassFunction(order, tuple(values))


def inner_product(f: ClassFunction, g: ClassFunction) -> int:
    """(1/p^n) sum_j f(u^j) conj(g(u^j)), demanded to be a rational integer;
    raises NonIntegralInnerProductError when it is not."""
    if f.order != g.order:
        raise ValueError(f"order mismatch: {f.order} vs {g.order}")
    acc = [0] * f.order
    for fv, gv in zip(f.values, g.values):
        for idx, c in enumerate((fv * gv.conjugate()).coeffs):
            acc[idx] += c
    return _exact_quotient_by_order(acc, f.order)


def _exact_quotient_by_order(acc: list[int], order: int) -> int:
    p, _ = split_odd_prime_power(order)
    reduced = _reduce_coeffs(acc, order, p)
    if any(reduced[1:]):
        raise NonIntegralInnerProductError(
            f"pairing is not rational: reduced vector {reduced}"
        )
    if reduced[0] % order != 0:
        raise NonIntegralInnerProductError(
            f"pairing {reduced[0]}/{order} is not an integer"
        )
    return reduced[0] // order


def decompose(f: ClassFunction) -> tuple[int, ...]:
    """Multiplicity vector (<f, lambda_kappa>)_kappa of a virtual character,
    one inner product per kappa; a non-integral coordinate raises."""
    order = f.order
    terms = [
        (j, idx, c)
        for j, v in enumerate(f.values)
        for idx, c in enumerate(v.coeffs)
        if c
    ]
    mults = []
    for kappa in range(order):
        acc = [0] * order
        for j, idx, c in terms:
            acc[(idx - kappa * j) % order] += c
        mults.append(_exact_quotient_by_order(acc, order))
    return tuple(mults)
