"""Module and character calculus over a cyclic p-group D = C_{p^n}.

Indecomposable kD-modules are determined by their dimension r (1 <= r <=
p^n); D_i denotes the unique subgroup of order p^i.  This module knows the
closed forms for the data attached to an indecomposable endo-permutation
module W = Omega_{D/D_{i_0}} ... Omega_{D/D_{i_s}}(k): the dimensions of the
caps of its restrictions, the ordinary character of its determinant-1 lift,
and the character of the image of the corresponding local trivial source
module under the Morita equivalence with the nilpotent block.

Characters live in `CyclicCharacter` vectors indexed by lambda_0 ..
lambda_{p^i - 1}; characters over a subgroup are full-length vectors of the
subgroup order, never sparse maps, so induction is plain index arithmetic.
All functions are pure and all values immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import CyclicCharacter, is_odd_prime


class CharacterConsistencyError(RuntimeError):
    """An internally guaranteed character property failed to hold."""


@dataclass(frozen=True)
class CyclicGroupData:
    """The cyclic group of order p^n, p an odd prime, n >= 1."""

    p: int
    n: int

    def __post_init__(self) -> None:
        if not is_odd_prime(self.p):
            raise ValueError(f"p = {self.p} is not an odd prime")
        if self.n < 1:
            raise ValueError(f"n = {self.n} must be at least 1")

    @property
    def order(self) -> int:
        return self.p ** self.n

    def subgroup_order(self, i: int) -> int:
        if not 0 <= i <= self.n:
            raise ValueError(f"subgroup index {i} outside 0..{self.n}")
        return self.p ** i


@dataclass(frozen=True)
class IndecomposableModule:
    """The unique indecomposable module of the given dimension over the group."""

    group: CyclicGroupData
    dim: int

    def __post_init__(self) -> None:
        if not 1 <= self.dim <= self.group.order:
            raise ValueError(
                f"dimension {self.dim} outside 1..{self.group.order}"
            )


@dataclass(frozen=True)
class EndoPermParams:
    """Strictly increasing subgroup indices i_0 < ... < i_s selecting the
    relative syzygy operators that build the endo-permutation module; the
    empty tuple encodes the trivial module.

    Any other encoding (repeats, descents, negatives) is rejected at
    construction rather than normalized.  As a block parameter the indices
    must additionally start at >= 1 (`is_block_form`).
    """

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = self.indices
        if any(a < 0 for a in idx):
            raise ValueError(f"negative subgroup index in {idx}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"indices {idx} are not strictly increasing")

    @property
    def s(self) -> int:
        """Last index position; -1 for the trivial module."""
        return len(self.indices) - 1

    @property
    def is_trivial(self) -> bool:
        return not self.indices

    @property
    def is_block_form(self) -> bool:
        return all(a >= 1 for a in self.indices)


def heller_relative(g: CyclicGroupData, i: int, r: int) -> IndecomposableModule:
    """Kernel of the D_i-relative projective cover of the r-dimensional module.

    The cover is the permutation module on D/D_i, so the kernel is the
    indecomposable of dimension p^{n-i} - r.  Requires r < p^{n-i}, else the
    cover above would not be minimal in this sense.
    """
    if not 0 <= i <= g.n - 1:
        raise ValueError(f"subgroup index {i} outside 0..{g.n - 1}")
    quotient_order = g.p ** (g.n - i)
    if not 1 <= r <= quotient_order - 1:
        raise ValueError(f"dimension {r} outside 1..{quotient_order - 1}")
    return IndecomposableModule(g, quotient_order - r)


def perm_module_character(g: CyclicGroupData, i: int) -> CyclicCharacter:
    """Character of the permutation module on D/D_i: multiplicity 1 at every
    lambda_kappa with p^i | kappa."""
    step = g.subgroup_order(i)
    return CyclicCharacter(
        g.order, tuple(1 if kappa % step == 0 else 0 for kappa in range(g.order))
    )


def cap_dim(params: EndoPermParams, g: CyclicGroupData, i: int) -> int:
    """Dimension of the cap of the restriction to D_i, in closed form.

    >>> g = CyclicGroupData(3, 3)
    >>> cap_dim(EndoPermParams((1, 2)), g, 3)
    7
    """
    below = restricted_cap_params(params, g, i).indices
    total = sum((-1) ** j * g.p ** (i - a) for j, a in enumerate(below))
    return total + (-1) ** len(below)


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


def cap_dim_recursive(params: EndoPermParams, g: CyclicGroupData, i: int) -> int:
    """Same dimension as `cap_dim`, but obtained by iterating the relative
    Heller operators of the restricted parameter list over D_i itself."""
    restricted = restricted_cap_params(params, g, i)
    sub = CyclicGroupData(g.p, i)
    module = IndecomposableModule(sub, 1)
    for a in reversed(restricted.indices):
        module = heller_relative(sub, a, module.dim)
    return module.dim


def char_det1_endoperm(params: EndoPermParams, g: CyclicGroupData) -> CyclicCharacter:
    """Ordinary character of the determinant-1 lift of the endo-permutation
    module with the given indices (general form, index 0 allowed).

    Alternating sum of permutation characters, closed by the trivial
    character (the one on D/D_n); the assembled vector is 0/1-valued with
    degree equal to the module's dimension.
    """
    return _alternating_perm_sum(
        g, params.indices + (g.n,), cap_dim(params, g, g.n)
    )


def induce_character(g: CyclicGroupData, i: int, chi: CyclicCharacter) -> CyclicCharacter:
    """Induction from D_i to D: lambda_nu goes to the sum of all lambda_kappa
    with kappa = nu mod p^i, extended linearly."""
    sub_order = g.subgroup_order(i)
    if chi.order != sub_order:
        raise ValueError(f"character has order {chi.order}, expected {sub_order}")
    return CyclicCharacter(
        g.order, tuple(chi.mults[kappa % sub_order] for kappa in range(g.order))
    )


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
    below = restricted_cap_params(params, g, i).indices
    if not params.is_block_form:
        raise ValueError(f"block parameter must have indices >= 1, got {params.indices}")
    return _alternating_perm_sum(
        g, below + (i,), u_module_dimension(params, g, i)
    )


def _alternating_perm_sum(
    g: CyclicGroupData, levels: tuple[int, ...], degree: int
) -> CyclicCharacter:
    """The alternating sum of the permutation characters on D/D_a over the
    levels a, which must come out 0/1-valued of the given degree."""
    total = CyclicCharacter(g.order, (0,) * g.order)
    for j, a in enumerate(levels):
        term = perm_module_character(g, a)
        total = total + term if j % 2 == 0 else total - term
    if any(m not in (0, 1) for m in total.mults) or total.degree != degree:
        raise CharacterConsistencyError(
            f"alternating sum over levels {levels} is not 0/1 of degree {degree}"
        )
    return total


def u_module_dimension(params: EndoPermParams, g: CyclicGroupData, i: int) -> int:
    """Dimension of the induced cap: cap_dim * p^{n-i}."""
    return cap_dim(params, g, i) * g.p ** (g.n - i)
