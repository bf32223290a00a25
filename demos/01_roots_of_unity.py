"""Exact decomposition of integer-valued class functions on a cyclic p-group.

The irreducible characters of C_{p^n} = <u> send u to the p^n-th roots of
unity zeta^kappa.  A class function with integer values, such as a count of
fixed points, pairs with lambda_kappa to a number that depends on kappa only
through its p-adic valuation, so `decompose` finds n + 1 level values with
integer arithmetic and returns just those; `.mults` spreads them over all
kappa.  Run this file to see it.
"""

from cyclicblocks.cyclotomic import NonIntegralInnerProductError, decompose

# the function counting fixed points of C_9 on the 3 cosets of its order-3
# subgroup is a genuine character: value 3 whenever the element lies in the
# subgroup, 0 otherwise
fixed_points = (3, 0, 0, 3, 0, 0, 3, 0, 0)
chi = decompose(3, 2, fixed_points)
print("fixed-point function decomposes as:", chi.mults)
print("   (multiplicity 1 exactly at the characters trivial on the subgroup)")
print("   level values (valuation 0, 1, then lambda_0):", chi.levels)

# the regular character holds every irreducible character once
print("regular character of C_9:", decompose(3, 2, (9,) + (0,) * 8).mults)

# the same count at order 5^6 = 15625, on the 5^4 cosets of the subgroup
# of order 5^2: the characters trivial on it are those with 5^2 | kappa
p, n, i = 5, 6, 2
inside = p ** (n - i)
values = [inside if j % inside == 0 else 0 for j in range(p ** n)]
hits = [k for k, m in enumerate(decompose(p, n, values).mults) if m]
print(f"at order {p ** n}: {len(hits)} constituents, kappa in", hits[:4], "...")

# non-characters are detected, never rounded: a spike at the identity
# pairs to 1/9 with every irreducible character
spike = (1, 0, 0, 0, 0, 0, 0, 0, 0)
try:
    decompose(3, 2, spike)
except NonIntegralInnerProductError as err:
    print("decomposing a non-character raises:", err)
