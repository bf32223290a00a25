"""Module and character calculus over a cyclic p-group D = C_{p^n}.

Indecomposable kD-modules are determined by their dimension r (1 <= r <=
p^n); D_i denotes the unique subgroup of order p^i.  This module knows the
closed forms for the data attached to an indecomposable endo-permutation
module W = Omega_{D/D_{i_0}} ... Omega_{D/D_{i_s}}(k): the dimensions of the
caps of its restrictions, the ordinary character of its determinant-1 lift,
and the character of the image of the corresponding local trivial source
module under the Morita equivalence with the nilpotent block.

Every character here is constant on the valuation levels of kappa, so each
lives in a `CyclicCharacter` of n + 1 level values, and each closed form
costs O(n): a permutation character is a 0/1 step in the levels, and an
alternating sum of them is one pass over n + 1 entries.  All functions are
pure and all values immutable.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate

from .cyclotomic import CyclicCharacter, is_odd_prime


class CharacterConsistencyError(RuntimeError):
    """An internally guaranteed character property failed to hold."""


class CyclicGroupData(namedtuple("CyclicGroupData", "p n")):
    """The cyclic group of order p^n, p an odd prime, n >= 1."""

    __slots__ = ()

    def __new__(cls, p: int, n: int) -> CyclicGroupData:
        if not is_odd_prime(p):
            raise ValueError(f"p = {p} is not an odd prime")
        if n < 1:
            raise ValueError(f"n = {n} must be at least 1")
        return super().__new__(cls, p, n)

    @classmethod
    def _make(cls, iterable) -> CyclicGroupData:
        # through __new__, so that `_replace` validates too
        return cls(*iterable)

    @property
    def order(self) -> int:
        return self.p ** self.n


class EndoPermParams(namedtuple("EndoPermParams", "indices")):
    """Strictly increasing subgroup indices i_0 < ... < i_s selecting the
    relative syzygy operators that build the endo-permutation module; the
    empty tuple encodes the trivial module.

    Any other encoding (repeats, descents, negatives) is rejected at
    construction, and by `_replace`, rather than normalized.  As a block
    parameter the indices must additionally start at >= 1
    (`is_block_form`).
    """

    __slots__ = ()

    def __new__(cls, indices: tuple[int, ...]) -> EndoPermParams:
        if any(a < 0 for a in indices):
            raise ValueError(f"negative subgroup index in {indices}")
        if any(a >= b for a, b in zip(indices, indices[1:])):
            raise ValueError(f"indices {indices} are not strictly increasing")
        return super().__new__(cls, indices)

    @classmethod
    def _make(cls, iterable) -> EndoPermParams:
        return cls(*iterable)

    @property
    def is_trivial(self) -> bool:
        return not self.indices

    @property
    def is_block_form(self) -> bool:
        return all(a >= 1 for a in self.indices)


def cap_dim(params: EndoPermParams, g: CyclicGroupData, i: int) -> int:
    """Dimension of the cap of the restriction to D_i, in closed form over
    the cut indices alone: no level is built, so none is checked here.

    >>> g = CyclicGroupData(3, 3)
    >>> cap_dim(EndoPermParams((1, 2)), g, 3)
    7
    """
    below = restricted_cap_params(params, g, i).indices
    return _cap_dim(g.p, below + (i,))


def restricted_cap_params(
    params: EndoPermParams, g: CyclicGroupData, i: int
) -> EndoPermParams:
    """Parameters of the cap of the restriction to D_i: the indices below i.

    The closed forms here check the vertex index and the parameter bounds
    only through this function, before any work of size p^n.
    """
    if not 1 <= i <= g.n:
        raise ValueError(f"vertex index {i} outside 1..{g.n}")
    if params.indices and params.indices[-1] > g.n - 1:
        raise ValueError(
            f"index {params.indices[-1]} outside 0..{g.n - 1} for order p^{g.n}"
        )
    return EndoPermParams(tuple(a for a in params.indices if a <= i - 1))


def char_det1_endoperm(params: EndoPermParams, g: CyclicGroupData) -> CyclicCharacter:
    """Ordinary character of the determinant-1 lift of the endo-permutation
    module with the given indices (general form, index 0 allowed).

    Alternating sum of permutation characters, closed by the trivial
    character (the one on D/D_n); the assembled levels are 0/1-valued with
    degree equal to the module's dimension, the cap dimension at D itself.
    """
    below = restricted_cap_params(params, g, g.n).indices
    levels = _closed_form(g.p, g.n, below + (g.n,))[1]
    return CyclicCharacter(g.p, g.n, levels)


def morita_correspondent_character(
    params: EndoPermParams, g: CyclicGroupData, i: int
) -> CyclicCharacter:
    """Character of the image in kD of the local trivial source module with
    vertex D_i under the Morita equivalence with the nilpotent block.

    Closed form: the alternating sum of the permutation characters for the
    parameter indices below i, closed by the one for D_i itself.  Equals
    inducing the determinant-1 character of the cap of the restriction, and
    has degree cap_dim * p^{n-i}.
    """
    below = _block_indices_below(params, g, i)
    levels = _closed_form(g.p, g.n, below + (i,))[1]
    return CyclicCharacter(g.p, g.n, levels)


def correspondents_by_index(
    params: EndoPermParams, g: CyclicGroupData
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """`cap_dim` and the levels of `morita_correspondent_character` at every
    vertex index, entry i - 1 for i = 1 ... n, from one check of the
    parameter instead of one per index."""
    indices = _block_indices_below(params, g, g.n)
    return tuple(
        _closed_form(g.p, g.n, tuple(a for a in indices if a < i) + (i,))
        for i in range(1, g.n + 1)
    )


def _block_indices_below(
    params: EndoPermParams, g: CyclicGroupData, i: int
) -> tuple[int, ...]:
    """The parameter indices below i, checked as `restricted_cap_params`
    checks them, for a parameter that must be in block form."""
    below = restricted_cap_params(params, g, i).indices
    if not params.is_block_form:
        raise ValueError(
            f"block parameter must have indices >= 1, got {params.indices}"
        )
    return below


def _closed_form(
    p: int, n: int, cuts: tuple[int, ...]
) -> tuple[int, tuple[int, ...]]:
    """The cap dimension at D_i and the n + 1 levels of the alternating sum
    of the permutation characters on D/D_a over the cut indices a: the
    parameter indices below i, already checked, closed by i = cuts[-1].

    The one home of the closed forms.  For a block parameter the sum is the
    Morita correspondent at D_i; closed by n, it is the determinant-1
    character of any parameter.  The levels must come out 0/1 of degree
    cap_dim * p^(n-i), the count law.
    """
    i = cuts[-1]
    ell = _cap_dim(p, cuts)
    levels = _perm_sum_levels(n, cuts)
    # level v < n holds p^(n-v-1)(p-1) characters and level n the one
    # lambda_0, so the degree is the sum of each change l_v - l_(v-1) in
    # the levels, l_(-1) = 0, times p^(n-v).  Both sides of the count law
    # are compared divided by p^(n-top), top the last level that moves or
    # i if later, so that no power of p up to p^n is formed
    changes = [
        (v, c - b) for v, (b, c) in enumerate(zip((0, *levels), levels)) if c != b
    ]
    top = max([i] + [v for v, _ in changes])
    degree = sum(d * p ** (top - v) for v, d in changes)
    if not {*levels} <= {0, 1} or degree != ell * p ** (top - i):
        raise CharacterConsistencyError(
            f"alternating sum over indices {cuts} is not 0/1 of degree "
            f"{ell * p ** (n - i)}"
        )
    return ell, levels


def _cap_dim(p: int, cuts: tuple[int, ...]) -> int:
    """The cap dimension at D_i over the cut indices c_0 < ... < c_s = i,
    the sum of (-1)^j p^(i - c_j), by Horner's rule over the gaps between
    the cuts: each step multiplies by a small power of p, not a large one
    formed afresh per index."""
    ell, prev, sign = 0, cuts[0], 1
    for c in cuts:
        ell = ell * p ** (c - prev) + sign
        prev, sign = c, -sign
    return ell


def _perm_sum_levels(n: int, cuts: tuple[int, ...]) -> tuple[int, ...]:
    """The n + 1 levels of the alternating sum, first term positive, of the
    permutation characters on D/D_a over the indices a: each is 1 on the
    levels a ... n, so the sum steps by +-1 at each a."""
    steps = [0] * (n + 1)
    sign = 1
    for a in cuts:
        steps[a] += sign
        sign = -sign
    return tuple(accumulate(steps))

