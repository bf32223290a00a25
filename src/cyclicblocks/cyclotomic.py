"""Exact arithmetic with p^n-th roots of unity and class functions on C_{p^n}.

A cyclotomic integer is an integer coefficient vector of length p^n in the
group-ring presentation Z[X]/(X^{p^n} - 1): entry j is the coefficient of
zeta^j for a fixed primitive p^n-th root of unity zeta.  Values are brought
into normal form (the remainder modulo the p^n-th cyclotomic polynomial
Phi(X) = 1 + X^q + X^{2q} + ... + X^{(p-1)q}, q = p^{n-1}) only for equality
and zero tests, so sums, products and index shifts stay plain index
arithmetic on the full-length vector.

Class functions on the cyclic group C_{p^n} = <u> are tables of p^n
cyclotomic integers, entry j being the value at u^j.  The irreducible
characters lambda_kappa (u -> zeta^kappa) are orthonormal for the usual
inner product; `decompose` writes a virtual character as an integer vector
of multiplicities over them.  Exactness is never compromised: an inner
product that fails to be a rational integer raises instead of rounding.

All coefficients are arbitrary-precision Python ints.  Every value is
immutable after construction and every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass


class NonIntegralInnerProductError(ValueError):
    """An inner product did not come out as a rational integer.

    Signals that one of the pairing's arguments is not a virtual character
    of the cyclic group; the offending value is reported, never rounded.
    """


def split_odd_prime_power(order: int) -> tuple[int, int]:
    """Return (p, n) with order = p^n for an odd prime p, or raise ValueError."""
    p = _smallest_factor(order) if order >= 3 else 2
    if p != 2:
        n = valuation(p, order)
        if p ** n == order:
            return p, n
    raise ValueError(f"order {order} is not an odd prime power")


# Miller-Rabin on the prime bases 2..41 is exact below PRIME_BOUND, the
# least strong pseudoprime to all of them.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def is_odd_prime(p: int) -> bool:
    """Whether p is an odd prime, by deterministic Miller-Rabin; raises
    ValueError for p >= PRIME_BOUND, where the test is not exact."""
    if p >= PRIME_BOUND:
        raise ValueError(
            f"p = {p} is not below {PRIME_BOUND}, the bound of the primality test"
        )
    if p < 3:
        return False
    for b in _WITNESSES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _WITNESSES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def valuation(p: int, kappa: int) -> int:
    """The p-adic valuation of a nonzero integer."""
    v = 0
    while kappa % p == 0:
        kappa //= p
        v += 1
    return v


def _smallest_factor(x: int) -> int:
    """Smallest divisor d >= 2 of x >= 2."""
    d = 2
    while d * d <= x:
        if x % d == 0:
            return d
        d += 1
    return x


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

    def __sub__(self, other: "CyclotomicInteger") -> "CyclotomicInteger":
        self._check_order(other)
        return CyclotomicInteger(
            self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "CyclotomicInteger":
        return CyclotomicInteger(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "CyclotomicInteger") -> "CyclotomicInteger":
        self._check_order(other)
        order = self.order
        out = [0] * order
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        k = i + j
                        if k >= order:
                            k -= order
                        out[k] += a * b
        return CyclotomicInteger(order, tuple(out))

    def conjugate(self) -> "CyclotomicInteger":
        """Complex conjugation, zeta -> zeta^{-1}: reverse indices mod the order."""
        order = self.order
        out = [0] * order
        for j, a in enumerate(self.coeffs):
            out[-j % order] = a
        return CyclotomicInteger(order, tuple(out))

    def is_zero(self) -> bool:
        return all(a == 0 for a in reduce_canonical(self).coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CyclotomicInteger):
            return NotImplemented
        if self.order != other.order:
            return False
        return reduce_canonical(self).coeffs == reduce_canonical(other).coeffs

    def __hash__(self) -> int:
        return hash((self.order, reduce_canonical(self).coeffs))

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
    """Remainder of the coefficient vector modulo Phi_{p^n}(X), re-embedded.

    The result has zero coefficients from degree (p-1)p^{n-1} up; the map is
    idempotent and two values are equal in Z[zeta] iff their reduced vectors
    coincide.
    """
    p, n = split_odd_prime_power(x.order)
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
            base = k - d
            for t in range(p - 1):
                rem[base + t * q] -= c
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


@dataclass(frozen=True)
class CyclicCharacter:
    """Integer multiplicity vector over the irreducible characters of C_{p^n}.

    Entry kappa is the multiplicity of lambda_kappa.  A character of an
    actual lattice has all entries >= 0 (`is_genuine`); Grothendieck-ring
    intermediates may legitimately go negative.
    """

    order: int
    mults: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.mults) != self.order:
            raise ValueError(
                f"multiplicity vector has length {len(self.mults)}, expected {self.order}"
            )

    @property
    def degree(self) -> int:
        """Value at the identity: the sum of all multiplicities."""
        return sum(self.mults)

    @property
    def is_genuine(self) -> bool:
        return all(m >= 0 for m in self.mults)

    def __add__(self, other: "CyclicCharacter") -> "CyclicCharacter":
        self._check_order(other)
        return CyclicCharacter(
            self.order, tuple(a + b for a, b in zip(self.mults, other.mults))
        )

    def __sub__(self, other: "CyclicCharacter") -> "CyclicCharacter":
        self._check_order(other)
        return CyclicCharacter(
            self.order, tuple(a - b for a, b in zip(self.mults, other.mults))
        )

    def _check_order(self, other: "CyclicCharacter") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")


def class_function_from_multiplicities(chi: CyclicCharacter) -> ClassFunction:
    """Value table of sum_kappa m_kappa lambda_kappa."""
    order = chi.order
    values = []
    for j in range(order):
        coeffs = [0] * order
        for kappa, m in enumerate(chi.mults):
            if m:
                coeffs[(kappa * j) % order] += m
        values.append(CyclotomicInteger(order, tuple(coeffs)))
    return ClassFunction(order, tuple(values))


def inner_product(f: ClassFunction, g: ClassFunction) -> int:
    """(1/p^n) sum_j f(u^j) conj(g(u^j)), demanded to be a rational integer.

    Computed over the integers with a final exact divisibility check by p^n;
    raises NonIntegralInnerProductError when the pairing is not integral.
    """
    if f.order != g.order:
        raise ValueError(f"order mismatch: {f.order} vs {g.order}")
    order = f.order
    acc = [0] * order
    for fv, gv in zip(f.values, g.values):
        prod = fv * gv.conjugate()
        for idx, c in enumerate(prod.coeffs):
            acc[idx] += c
    return _exact_quotient_by_order(acc, order)


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


def decompose(f: ClassFunction) -> CyclicCharacter:
    """Multiplicity vector (<f, lambda_kappa>)_kappa of a virtual character.

    Each coordinate is the inner product against lambda_kappa, evaluated by
    index shifts (f(u^j) zeta^{-kappa j} just displaces coefficient vectors);
    the nonzero coefficients of all values are collected once per call.
    A non-integral coordinate raises; reconstruction via
    `class_function_from_multiplicities` returns f exactly.
    """
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
    return CyclicCharacter(order, tuple(mults))
