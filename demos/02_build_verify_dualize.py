"""
Building a theory by hand, verifying it, and taking its dual
============================================================

A supercharacter theory is a pair of partitions -- one of the group, one of
the irreducible characters -- that fit together.  Here we assemble one
directly from its blocks, watch the verifier reject a broken variant, print
the exact table of block sums, and flip the two partitions into the dual.
"""

from supercharacters import (
    GroupSpec,
    Partition,
    dual,
    induced_character_partition,
    invariant_subgroups,
    restriction,
    supercharacter_table,
    theory_from_classes,
    verify,
    verify_algebra,
)

# On C_5 the squares mod 5 are {1, 4} and the non-squares are {2, 3}.
# Splitting the nonidentity elements that way gives a valid theory: the
# element side determines the character side, which theory_from_classes
# derives for us.
g = GroupSpec.cp(5)
classes = Partition(g.order, [(0,), (1, 4), (2, 3)])
t = theory_from_classes(g, classes)
print("classes:   ", t.classes.blocks)
print("characters:", t.charparts.blocks)
print("verifies:  ", verify(t) is None)

# The induced character partition is forced: each candidate block is the set
# of characters agreeing on every class.  An invalid class partition has no
# compatible character side at all, and the algebra check says why.
bad = Partition(g.order, [(0,), (1,), (2, 3, 4)])
violation = verify_algebra(g, bad)
print("\nunbalanced split fails:", violation.condition, "-", violation.message)

# The table of supercharacter values: one row per character block, one
# column per class.  Row sums against column sizes reproduce |G| exactly.
print("\nsupercharacter table on the squares theory:")
for row in supercharacter_table(t):
    print("  ", row)

# Duality swaps the two partitions through the exponent-vector matching of
# elements with characters.  Taking the dual twice returns the original.
d = dual(t)
print("\ndual classes:", d.classes.blocks)
print("double dual equals original:", dual(d).classes == t.classes)

# On a product group, theories can be restricted to invariant subgroups:
# the subgroups that are unions of classes.  Restriction keeps the blocks
# that land inside the subgroup.
big = GroupSpec.cp_c2_c2(5)
full = theory_from_classes(big, Partition(big.order, [(i,) for i in range(big.order)]))
subs = invariant_subgroups(full)
print("\ninvariant subgroup orders of the finest theory on C5xC2xC2:",
      [h.order for h in subs])
inner = restriction(full, subs[1])
print("restriction to the order-%d subgroup has %d classes"
      % (subs[1].order, len(inner.classes.blocks)))

# induced_character_partition is also available directly when you want the
# forced character side without building the Theory object.
print("\ninduced characters for the squares theory:",
      induced_character_partition(g, classes).blocks)
