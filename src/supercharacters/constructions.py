"""Three ways to build supercharacter theories: orbits of a set of
automorphisms, direct products across a complementary pair of subgroups, and
wedges over a proper nontrivial subgroup.  Nothing here verifies a theory;
the enumerator's gate does.  Nor are the partitions built here checked:
they come from groups and theories already checked, so they build through
Partition._canonical, past the checks of the Partition constructor, which
is for data from outside.  What classify reads, the orbit-class witness
index and the direct and wedge decompositions, needs class partitions
only."""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from types import MappingProxyType

from .groups import (
    AutMap,
    GroupSpec,
    Subgroup,
    _aut_map,
    _pull_back,
)
from .theories import Partition, Theory, invariant_subgroups


def _orbit_partition(n: int, perms) -> Partition:
    """Orbits of the group generated by the given permutations, in one pass:
    each unseen point starts an orbit, which grows by the image of each of
    its points under each generator until no image is new.  In a finite
    group every inverse is a product of generators, so that is the orbit;
    _canonical puts the orbits in canonical order."""
    blocks = []
    seen = [False] * n
    for i in range(n):
        if seen[i]:
            continue
        seen[i] = True
        orbit = [i]
        for x in orbit:
            for s in perms:
                y = s[x]
                if not seen[y]:
                    seen[y] = True
                    orbit.append(y)
        blocks.append(orbit)
    return Partition._canonical(n, blocks)


def from_automorphisms(g: GroupSpec, gens) -> Theory:
    """Classes are the orbits of the generated subgroup of Aut(G) on elements,
    character blocks its orbits on characters; no generators means the
    discrete orbits, i.e. the minimal theory."""
    gens = list(gens)
    for a in gens:
        if a.group != g:
            raise ValueError("automorphism acts on a different group")
    classes = _orbit_partition(g.order, [a.perm for a in gens])
    charparts = _orbit_partition(g.order, [a.char_perm for a in gens])
    return Theory(g, classes, charparts)


@lru_cache(maxsize=None)
def _pair_maps(h1: Subgroup, h2: Subgroup):
    """For a complementary pair, G = H1 x H2, and Irr(G) = Irr(H1) x Irr(H2)
    by restriction.  Returns the two factors as groups and two tables: row x
    of the first lists the index in G of x*y for every index y of H2, row x
    of the second the character of G that restricts to x and y.  Checked
    and built once per pair, tuples because every caller shares them; a
    bad pair raises on every call, since lru_cache stores no exception."""
    g = h1.group
    if h2.group != g:
        raise ValueError("subgroups live in different groups")
    if h1.order * h2.order != g.order or len(set(h1.members) & set(h2.members)) != 1:
        raise ValueError("subgroups do not form a complementary pair")
    e1, e2 = g.subgroup_embedding(h1), g.subgroup_embedding(h2)
    elems = tuple(tuple(g.mul_idx(a, b) for b in e2.to_parent) for a in e1.to_parent)
    chars = [[0] * e2.group.order for _ in range(e1.group.order)]
    r1, r2 = (_pull_back(e.to_parent, e.group, g) for e in (e1, e2))
    for c, (x, y) in enumerate(zip(r1, r2)):
        chars[x][y] = c
    return e1.group, e2.group, elems, tuple(map(tuple, chars))


def _products(table, part1: Partition, part2: Partition) -> Partition:
    """The blocks {table[x][y] : x in A, y in B} over every block A of part1
    and B of part2."""
    return Partition._canonical(len(table) * len(table[0]),
                                [[row[y] for x in a for row in (table[x],) for y in b]
                                 for a in part1.blocks for b in part2.blocks])


def direct_product(t1: Theory, t2: Theory, h1: Subgroup, h2: Subgroup) -> Theory:
    """The theory on h1.group whose classes are all products K*L of a class of
    t1 by a class of t2, across the complementary pair (h1, h2)."""
    sub1, sub2, elems, chars = _pair_maps(h1, h2)
    if t1.group != sub1 or t2.group != sub2:
        raise ValueError("factor theories do not match the embedded subgroups")
    return Theory(h1.group, _products(elems, t1.classes, t2.classes),
                  _products(chars, t1.charparts, t2.charparts))


@lru_cache(maxsize=None)
def _wedge_maps(n: Subgroup):
    """N and G/N as groups, then two pairs of maps: on elements, the
    embedding N -> G and the cosets over each index of G/N; on characters,
    the inflation Irr(G/N) -> Irr(G) and, per character of N, the
    characters of G restricting to it (ascending).  Checked and built once
    per subgroup; a bad one raises on every call."""
    g = n.group
    if not 1 < n.order < g.order:
        raise ValueError("wedge needs a proper nontrivial subgroup")
    emb, q = g.subgroup_embedding(n), g.quotient(n)
    infl = _pull_back(q.projection, g, q.group)
    fiber: list[list[int]] = [[] for _ in range(emb.group.order)]
    for c, psi in enumerate(_pull_back(emb.to_parent, emb.group, g)):
        fiber[psi].append(c)
    return (emb.group, q.group, (emb.to_parent, q.fibers),
            (tuple(infl), tuple(map(tuple, fiber))))


def _lift(part: Partition, over: Partition, image, fibers, size: int) -> Partition:
    """The image of every block of part, plus the union of the fibers over
    each non-identity block of over: a partition of range(size)."""
    image, fibers = image.__getitem__, fibers.__getitem__
    blocks = [map(image, b) for b in part.blocks]
    blocks += [chain.from_iterable(map(fibers, b)) for b in over.blocks if b != (0,)]
    return Partition._canonical(size, blocks)


def wedge(n: Subgroup, inner: Theory, outer: Theory) -> Theory:
    """The wedge over the proper nontrivial subgroup n of the theory inner on
    n and the theory outer on the quotient by n.  Classes inside n come from
    inner; outside it they are preimages of the nonidentity classes of
    outer.  Dually, the character blocks are the inflated blocks of outer,
    plus the characters restricting into each nontrivial block of inner
    (the characters of G/N are those trivial on N)."""
    g = n.group
    sub, quo, elem_maps, char_maps = _wedge_maps(n)
    if inner.group != sub or outer.group != quo:
        raise ValueError("inner/outer theories do not match the subgroup and quotient")
    return Theory(g, _lift(inner.classes, outer.classes, *elem_maps, g.order),
                  _lift(outer.charparts, inner.charparts, *char_maps, g.order))


def _aut_subgroup_gens(g: GroupSpec):
    """Yields the generators of each subgroup of Aut(G), in subgroups_of_aut()
    order, read from that table's values; only a generator becomes an
    AutMap, once per index."""
    for gens in g.subgroups_of_aut().values():
        yield tuple(_aut_map(g, i) for i in gens)


@lru_cache(maxsize=None)
def _witness_index(g: GroupSpec) -> MappingProxyType:
    """Class blocks -> generators of the first subgroup of Aut(G) whose
    orbits on elements are those blocks; built once per group on first use.
    Only the class side is built: the orbits of any subgroup of Aut(G) are
    the classes of a theory, which the enumerator verifies at its gate."""
    first: dict[tuple, tuple[AutMap, ...]] = {}
    for gens in _aut_subgroup_gens(g):
        first.setdefault(_orbit_partition(g.order, [a.perm for a in gens]).blocks, gens)
    return MappingProxyType(first)


def automorphism_witness(t: Theory) -> tuple[AutMap, ...] | None:
    """Generators of a subgroup of Aut(G) whose orbit theory equals t, or None;
    the first such subgroup in subgroups_of_aut() order."""
    return _witness_index(t.group).get(t.classes.blocks)


def direct_decompositions(t: Theory) -> list[tuple[Subgroup, Subgroup]]:
    """Complementary pairs (H1, H2) of invariant subgroups over which t is the
    direct product of its restrictions: there are as many classes as pairs
    of a class inside H1 and a class inside H2.

    Assumes that t's class partition completes to a theory, so that its
    classes span a Schur ring; the restrictions are then theories too, so
    nothing needs rebuilding.  Hendrickson's characterisation also asks
    that every product K1*K2 lie in one class, and the count implies it:
    G = H1 x H2 writes each element once as xy, so K1*K2 has coefficients
    0 and 1, and lying in the Schur ring, it is a union of classes.  These
    products partition G, so there are never fewer classes than pairs, and
    exactly as many when each product is a single class."""
    inside = {h.members: k for h, k in t._invariant_subgroups}
    n = len(t.classes)
    return [(h1, h2) for h1, h2 in t.group.complementary_pairs()
            if inside.get(h1.members, 0) * inside.get(h2.members, 0) == n]


def wedge_decompositions(t: Theory) -> list[Subgroup]:
    """Proper nontrivial invariant subgroups N over which t is a wedge: every
    class outside N is a union of N-cosets (Leung and Man's wedge product of
    Schur rings).

    Assumes that t's class partition completes to a theory; the classes
    inside N and the images in G/N of those outside it are then theories of
    N and of G/N, so nothing needs rebuilding."""
    g = t.group
    out = []
    for n in invariant_subgroups(t):
        if not 1 < n.order < g.order:
            continue
        nset = set(n.members)
        proj = g.quotient(n).projection
        # a class outside N is a union of N-cosets when it fills the cosets it meets
        if all(b[0] in nset or len(b) == len({proj[i] for i in b}) * n.order
               for b in t.classes.blocks):
            out.append(n)
    return out
