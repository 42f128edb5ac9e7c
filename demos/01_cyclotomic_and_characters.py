"""
Exact cyclotomic integers and character values
==============================================

Everything in this library is computed in Z[zeta_p], the ring of integers
spanned by p-th roots of unity, with no floating point anywhere.  This
script shows the arithmetic and the character pairing built on top of it.
"""

from supercharacters import CycInt, GroupSpec

# A p-th root of unity zeta is stored by its coordinates on 1, zeta, ...,
# zeta^(p-1).  The representation is not free: 1 + zeta + ... + zeta^(p-1)
# is zero, and the library reduces by that relation after every product.
p = 5
zeta = CycInt.root_power(p, 1)
print("zeta           =", zeta)
print("zeta^4 * zeta  =", zeta * CycInt.root_power(p, 4))  # wraps to 1

# The classic golden-ratio identity in Z[zeta_5]: the two Gauss periods
# (zeta + zeta^4) and (zeta^2 + zeta^3) multiply to -1.
period_a = CycInt.root_power(p, 1) + CycInt.root_power(p, 4)
period_b = CycInt.root_power(p, 2) + CycInt.root_power(p, 3)
print("periods multiply to", period_a * period_b)

# Summing the full geometric series hits the defining relation and
# collapses to an honest rational integer.
full_sum = sum(CycInt.root_power(p, k) for k in range(p))
print("1 + zeta + ... + zeta^4 =", full_sum, "->", full_sum.is_rational_integer())

# Conjugation sends zeta to zeta^(-1); values of abelian characters come in
# conjugate pairs, so this is the only involution we ever need.
print("conjugate of zeta + 2*zeta^2 =", (zeta + 2 * zeta * zeta).conjugate())

# Now the groups.  C_5 x C_2 x C_2 has elements written as exponent vectors
# (i, j, k); its characters use the same vectors, paired by
#   chi_(m,n,o)(g_(i,j,k)) = zeta^(m*i) * (-1)^(n*j + o*k).
# char_value takes both as exponent tuples.
g = GroupSpec.cp_c2_c2(5)
chi = (2, 1, 0)
for exps in [(1, 0, 0), (0, 1, 0), (1, 1, 1)]:
    print(f"chi_(2,1,0) at {exps} =", g.char_value(chi, exps))

# Characters are orthogonal: summing chi * conj(psi) over the group gives
# |G| when chi == psi and 0 otherwise.  With exact arithmetic the test is
# equality, not closeness.
psi = (2, 1, 0)
other = (1, 0, 1)
dot_same = sum(g.char_value(chi, e) * g.char_value(psi, e).conjugate() for e in g.elements)
dot_diff = sum(g.char_value(chi, e) * g.char_value(other, e).conjugate() for e in g.elements)
print("inner product with itself:", dot_same, "  with a different character:", dot_diff)
