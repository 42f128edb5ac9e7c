"""
Three ways to construct a theory: orbits, products, wedges
==========================================================

Every supercharacter theory of C_p x C_2 x C_2 except the coarsest one comes
from three recipes: orbits of a group of automorphisms, a direct product of
theories on complementary subgroups, or a wedge over a proper subgroup.
This script builds one of each, checks it with verify (the constructions
only build), and then asks the library to recognize them.
"""

from supercharacters import (
    GroupSpec,
    automorphism_witness,
    direct_decompositions,
    direct_product,
    dual,
    from_automorphisms,
    maximal_theory,
    minimal_theory,
    verify,
    wedge,
    wedge_decompositions,
)

g = GroupSpec.cp_c2_c2(5)

# --- orbits of automorphisms -------------------------------------------
# An automorphism of C_5 x C_2 x C_2 is a unit u acting on the C_5 part as
# a -> a^u together with an invertible 2x2 matrix over F_2 on the involution
# part.  Orbits of any subgroup of automorphisms, on elements and on
# characters, always form a theory.
alpha = g.aut_from_parts(2, ((1, 0), (1, 1)))
t_orbit = from_automorphisms(g, (alpha,))
assert verify(t_orbit) is None
print("orbit theory of a -> a^2 with a shear on the 2-part:")
for block in t_orbit.classes.blocks:
    print("  ", [g.elements[i] for i in block])

# --- direct products ----------------------------------------------------
# Pick complementary subgroups (here the C_5 part and the Klein part) and a
# theory on each; all pairwise products of their classes give a theory.
h5, h22 = next(
    (h1, h2) for h1, h2 in g.complementary_pairs() if h1.order == 5
)
t_prod = direct_product(
    maximal_theory(GroupSpec.cp(5)), minimal_theory(GroupSpec.klein()), h5, h22
)
assert verify(t_prod) is None
print("\ndirect product of coarse C5 with fine Klein, class sizes:",
      [len(b) for b in t_prod.classes.blocks])

# --- wedges -------------------------------------------------------------
# A wedge glues a theory on a subgroup N to a theory on the quotient G/N:
# inside N it looks like the inner theory, outside N its classes are whole
# unions of N-cosets.  Wedges are exactly the theories that are blind to
# anything finer than N outside of N.
n = next(h for h in g.all_subgroups if h.order == 10)
t_wedge = wedge(
    n,
    minimal_theory(g.subgroup_embedding(n).group),
    maximal_theory(g.quotient(n).group),
)
assert verify(t_wedge) is None
print("\nwedge over an order-10 subgroup, class sizes:",
      [len(b) for b in t_wedge.classes.blocks])

# --- recognition --------------------------------------------------------
# The decomposition helpers recognize the recipes from the class partition
# alone: an index of orbit theories gives automorphism generators, and the
# shape of the classes gives the complementary pairs the theory splits over
# (every class a product of a class in each factor) and the wedge subgroups
# (every class outside the subgroup a union of its cosets).
print("\norbit theory recognized from generators:",
      automorphism_witness(t_orbit) is not None)
print("product theory splits over",
      [(h1.order, h2.order) for h1, h2 in direct_decompositions(t_prod)])
print("wedge theory decomposes over subgroup orders",
      [w.order for w in wedge_decompositions(t_wedge)])

# Wedges travel in pairs: a theory is a wedge exactly when its dual is.
print("dual of the wedge is itself a wedge:",
      bool(wedge_decompositions(dual(t_wedge))))

# The coarsest theory (identity vs everything else) is the one theory these
# recipes can never reach on C_p x C_2 x C_2: automorphism orbits cannot
# merge elements of different orders, and it is too coarse to split or glue.
t_max = maximal_theory(g)
print("\ncoarsest theory recognized as orbit/product/wedge:",
      automorphism_witness(t_max) is not None,
      bool(direct_decompositions(t_max)),
      bool(wedge_decompositions(t_max)))
