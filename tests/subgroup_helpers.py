"""Subgroup and annihilator helpers that only the tests use, built on the
package's one subgroup form (GroupSpec.subgroup), its one closure routine
(_close) and its character key table."""

from supercharacters.groups import Subgroup, _close


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
