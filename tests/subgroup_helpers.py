"""Subgroup, annihilator and automorphism helpers that only the tests use,
built on the package's one subgroup form (GroupSpec.subgroup), its one
closure routine (_close), its character key table and AutMap."""

from supercharacters import wedge_decompositions
from supercharacters.groups import AutMap, Subgroup, _close


def generated_subgroup(g, generator_indices) -> Subgroup:
    """The subgroup of g that the element indices generate."""
    return g.subgroup(_close(g.mul_idx, {0}, generator_indices))


def annihilator(g, members) -> tuple[int, ...]:
    """Indices of the characters of g that are 1 on every listed element
    index (or on every member of a Subgroup): 1 is the only value whose key
    is 1."""
    if isinstance(members, Subgroup):
        members = members.members
    return tuple(c for c, row in enumerate(g._key_table) if all(row[i] == 1 for i in members))


def wedge_annihilators(t) -> set[tuple[int, ...]]:
    """The annihilators of the subgroups N that t is a wedge over.  dual
    swaps the two sides of t, so these are exactly the member tuples of the
    subgroups that dual(t) is a wedge over."""
    return {annihilator(t.group, n) for n in wedge_decompositions(t)}


def identity_aut(g) -> AutMap:
    """The identity automorphism of g: generator k of n has index
    1 << (n - 1 - k), the first at the top bit."""
    return AutMap(g, tuple(g.elements[1 << k] for k in reversed(range(len(g.factors)))))


def apply_exps(a: AutMap, exps) -> tuple[int, ...]:
    """The image under a of the element with exponent vector exps, by
    exponent arithmetic on the generator images."""
    g = a.group
    out = [0] * len(g.factors)
    for e, img in zip(exps, a.gen_images):
        if e:
            out = [x + e * y for x, y in zip(out, img)]
    return g.reduce(out)
