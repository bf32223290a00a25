"""Characters of the cyclic group C_{p^n} and their exact decomposition.

The irreducible characters of C_{p^n} = <u> are lambda_kappa: u -> zeta^kappa
for kappa mod p^n and a fixed primitive p^n-th root of unity zeta.  Every
character the package builds is constant on the valuation levels of kappa,
so a character is stored as its n + 1 level values (`CyclicCharacter`):
entry v < n is the multiplicity of each lambda_kappa with v_p(kappa) = v,
entry n that of lambda_0.  Sums, differences and the degree cost O(n); the
dense multiplicity vector over all p^n characters is a view, built only
when asked for.  `decompose` finds the level values of an integer-valued
class function, such as a count of fixed points: its pairing with
lambda_kappa is fixed by the Galois group of Q(zeta), so it depends on kappa
only through v_p(kappa), and integer arithmetic alone finds it, in O(p^n)
in all.  Exactness is never compromised: a pairing that is not a rational
integer raises instead of rounding.

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
    """Virtual character of C_{p^n} that is constant on valuation levels.

    `levels[v]` is the multiplicity of every lambda_kappa with v_p(kappa) = v
    for v < n, and `levels[n]` that of lambda_0.  A character of an actual
    lattice has all entries >= 0; Grothendieck-ring intermediates may
    legitimately go negative.
    """

    p: int
    n: int
    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.levels) != self.n + 1:
            raise ValueError(
                f"level vector has length {len(self.levels)}, expected {self.n + 1}"
            )

    @property
    def order(self) -> int:
        return self.p ** self.n

    @property
    def mults(self) -> tuple[int, ...]:
        """The dense multiplicity vector: entry kappa is the multiplicity of
        lambda_kappa.  Its length is p^n; made only for output and for
        reads at single indices."""
        p, levels = self.p, self.levels
        order = self.order
        mults = [levels[0]] * order
        for v in range(1, self.n + 1):
            mults[:: p ** v] = [levels[v]] * (order // p ** v)
        return tuple(mults)

    @property
    def degree(self) -> int:
        """Value at the identity: level v < n holds p^(n-v-1)(p-1) characters,
        level n the one character lambda_0."""
        p, n, levels = self.p, self.n, self.levels
        return levels[n] + sum(
            c * p ** (n - v - 1) * (p - 1) for v, c in enumerate(levels[:n])
        )

    def __add__(self, other: "CyclicCharacter") -> "CyclicCharacter":
        self._check_group(other)
        return CyclicCharacter(
            self.p, self.n, tuple(map(add, self.levels, other.levels))
        )

    def __sub__(self, other: "CyclicCharacter") -> "CyclicCharacter":
        self._check_group(other)
        return CyclicCharacter(
            self.p, self.n, tuple(map(sub, self.levels, other.levels))
        )

    def _check_group(self, other: "CyclicCharacter") -> None:
        if (self.p, self.n) != (other.p, other.n):
            raise ValueError(
                f"order mismatch: {self.p}^{self.n} vs {other.p}^{other.n}"
            )


def decompose(p: int, n: int, values) -> CyclicCharacter:
    """Multiplicities (<f, lambda_kappa>)_kappa of the integer-valued class
    function f on C_{p^n} with f(u^j) = values[j], as level values.

    Take kappa = p^v, P = p^(n-v) and eta = zeta^kappa of order P.  Folding
    the values mod P into F_r (the sum of f(u^j) over j = r mod P) gives
    <f, lambda_kappa> = (1/p^n) sum_r F_r eta^(-r).  The sums of eta^r over
    the cosets s + QZ, Q = P/p, span the rational relations among the powers
    of eta, so that sum is rational exactly when F is constant on each coset
    s + QZ, the coset of 0 taken without r = 0; it is then F_0 - F_Q.  Each
    level folds the previous one by p.  A pairing that is not rational, or
    not divisible by p^n, raises NonIntegralInnerProductError; otherwise
    every kappa of valuation v has the value at p^v, the Galois conjugates
    of a rational number being itself, and that value is level v.

    >>> chi = decompose(3, 2, [3, 0, 0, 3, 0, 0, 3, 0, 0])
    >>> chi
    CyclicCharacter(p=3, n=2, levels=(0, 1, 1))
    >>> chi.mults
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
    return CyclicCharacter(p, n, tuple(levels))
