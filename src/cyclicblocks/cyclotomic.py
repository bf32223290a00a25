"""Characters of the cyclic group C_{p^n} and their exact decomposition.

The irreducible characters of C_{p^n} = <u> are lambda_kappa: u -> zeta^kappa
for kappa mod p^n and a fixed primitive p^n-th root of unity zeta.  A
character is stored as its integer multiplicity vector over them
(`CyclicCharacter`).  `decompose` recovers that vector from the values of an
integer-valued class function, such as a count of fixed points.  The pairing
of such a function with lambda_kappa is fixed by the Galois group of
Q(zeta), so it depends on kappa only through v_p(kappa): the n + 1 level
values are found with integer arithmetic alone, in O(p^n) in all.
Exactness is never compromised: a pairing that is not a rational integer
raises instead of rounding.

The module also holds the prime and p-adic helpers the package shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub


class NonIntegralInnerProductError(ValueError):
    """An inner product did not come out as a rational integer.

    Signals that one of the pairing's arguments is not a virtual character
    of the cyclic group; the offending value is reported, never rounded.
    """


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


@dataclass(frozen=True)
class CyclicCharacter:
    """Integer multiplicity vector over the irreducible characters of C_{p^n}.

    Entry kappa is the multiplicity of lambda_kappa.  A character of an
    actual lattice has all entries >= 0; Grothendieck-ring intermediates
    may legitimately go negative.
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

    def __add__(self, other: "CyclicCharacter") -> "CyclicCharacter":
        self._check_order(other)
        return CyclicCharacter(self.order, tuple(map(add, self.mults, other.mults)))

    def __sub__(self, other: "CyclicCharacter") -> "CyclicCharacter":
        self._check_order(other)
        return CyclicCharacter(self.order, tuple(map(sub, self.mults, other.mults)))

    def _check_order(self, other: "CyclicCharacter") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")


def decompose(p: int, n: int, values) -> CyclicCharacter:
    """Multiplicity vector (<f, lambda_kappa>)_kappa of the integer-valued
    class function f on C_{p^n} with f(u^j) = values[j].

    Take kappa = p^v, P = p^(n-v) and eta = zeta^kappa of order P.  Folding
    the values mod P into F_r (the sum of f(u^j) over j = r mod P) gives
    <f, lambda_kappa> = (1/p^n) sum_r F_r eta^(-r).  The sums of eta^r over
    the cosets s + QZ, Q = P/p, span the rational relations among the powers
    of eta, so that sum is rational exactly when F is constant on each coset
    s + QZ, the coset of 0 taken without r = 0; it is then F_0 - F_Q.  Each
    level folds the previous one by p.  A pairing that is not rational, or
    not divisible by p^n, raises NonIntegralInnerProductError; otherwise
    every kappa of valuation v gets the value at p^v, the Galois conjugates
    of a rational number being itself.

    >>> decompose(3, 2, [3, 0, 0, 3, 0, 0, 3, 0, 0]).mults
    (1, 0, 0, 1, 0, 0, 1, 0, 0)
    >>> decompose(3, 2, [1, 0, 0, 0, 0, 0, 0, 0, 0])
    Traceback (most recent call last):
    ...
    cyclicblocks.cyclotomic.NonIntegralInnerProductError: pairing 1/9 with lambda_1 is not an integer
    """
    order = p ** n
    if n < 1 or not is_odd_prime(p) or len(values) != order:
        raise ValueError(
            f"need {p}^{n} values for an odd prime p and n >= 1, got {len(values)}"
        )
    folded = list(values)
    levels = []
    for v in range(n + 1):
        kappa = p ** v % order
        step = len(folded) // p
        if step:
            chunks = [folded[t * step : (t + 1) * step] for t in range(p)]
            if chunks[0][1:] != chunks[1][1:] or any(
                chunk != chunks[1] for chunk in chunks[2:]
            ):
                raise NonIntegralInnerProductError(
                    f"pairing with lambda_{kappa} is not rational"
                )
            pairing = folded[0] - folded[step]
            folded = [sum(column) for column in zip(*chunks)]
        else:
            pairing = folded[0]
        if pairing % order:
            raise NonIntegralInnerProductError(
                f"pairing {pairing}/{order} with lambda_{kappa} is not an integer"
            )
        levels.append(pairing // order)
    mults = [levels[0]] * order
    for v in range(1, n + 1):
        mults[:: p ** v] = [levels[v]] * (order // p ** v)
    return CyclicCharacter(order, tuple(mults))
