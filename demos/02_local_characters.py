"""The exact character calculus over a cyclic p-group.

The endo-permutation module built from relative syzygy operators
Omega_{D/D_{i_0}} ... Omega_{D/D_{i_s}}(k) drives everything: its cap
dimensions, the ordinary character of its determinant-1 lift, and the
character of the local trivial source module's image in kD.
"""

from cyclicblocks.local_reps import (
    CyclicGroupData,
    EndoPermParams,
    cap_dim,
    char_det1_endoperm,
    morita_correspondent_character,
    restricted_cap_params,
)
from cyclicblocks.oracle import cap_dim_recursive, heller_relative, induce_character

g = CyclicGroupData(3, 2)  # D cyclic of order 9
print("relative syzygy of the trivial module at level 0:", heller_relative(g, 0, 1))
print("relative syzygy of the trivial module at level 1:", heller_relative(g, 1, 1))

w = EndoPermParams((1,))  # W = Omega_{D/D_1}(k)
print("\nparameter W with index set", w.indices)
for i in (1, 2):
    closed = cap_dim(w, g, i)
    recursive = cap_dim_recursive(w, g, i)
    print(f"  cap dimension at level {i}: closed form {closed}, recursion {recursive}")

# the determinant-1 lift of W affords an ordinary character with 0/1
# multiplicities; its degree is the dimension of W
chi = char_det1_endoperm(w, g)
print("\ndeterminant-1 character of W:", chi.mults, "degree", chi.degree)

# allowing index 0 gives the other endo-permutation modules
chi2 = char_det1_endoperm(EndoPermParams((0, 1)), g)
print("with index set (0, 1):        ", chi2.mults, "degree", chi2.degree)

# the Morita correspondent of the unique local trivial source module with
# vertex of order p^i factors through restriction, cap, and induction
for i in (1, 2):
    direct = morita_correspondent_character(w, g, i)
    sub = CyclicGroupData(3, i)
    composed = induce_character(
        g, i, char_det1_endoperm(restricted_cap_params(w, g, i), sub)
    )
    print(
        f"\nvertex level {i}: correspondent {direct.mults}",
        f"\n   composition agrees: {direct == composed},",
        f"degree law {direct.degree} == {cap_dim(w, g, i) * g.p ** (g.n - i)}",
    )
