"""Three ways to build supercharacter theories: orbits of a set of
automorphisms, direct products across a complementary pair of subgroups, and
wedges over a proper nontrivial subgroup."""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from .groups import (
    AutMap,
    GroupSpec,
    Subgroup,
    SubgroupEmbedding,
    _Frozen,
    _pull_back,
    _set,
    aut_generating_subset,
)
from .theories import (
    Partition,
    Theory,
    canonical_key,
    invariant_subgroups,
    require_valid,
)


def _orbit_partition(n: int, perms) -> Partition:
    """Orbits of the group generated by the given permutations, in one pass:
    each unseen point starts an orbit, which grows by the image of each of
    its points under each generator until no image is new.  In a finite
    group every inverse is a product of generators, so that is the orbit."""
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
    return Partition.from_blocks(blocks, n)


def from_automorphisms(g: GroupSpec, gens, check: bool = True) -> Theory:
    """Classes are the orbits of the generated subgroup of Aut(G) on elements,
    character blocks its orbits on characters; no generators means the
    discrete orbits, i.e. the minimal theory.  With check=False the caller
    takes over verification."""
    gens = list(gens)
    for a in gens:
        if a.group != g:
            raise ValueError("automorphism acts on a different group")
    classes = _orbit_partition(g.order, [a.perm for a in gens])
    charparts = _orbit_partition(g.order, [a.char_perm for a in gens])
    t = Theory(g, classes, charparts)
    return require_valid(t, "orbit theory") if check else t


@lru_cache(maxsize=None)
def _product_tables(
    g: GroupSpec, e1: SubgroupEmbedding, e2: SubgroupEmbedding
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """For a complementary pair, G = H1 x H2, and Irr(G) = Irr(H1) x Irr(H2)
    by restriction.  Row x of the first table lists the index in G of x*y
    for every index y of H2, row x of the second the character of G that
    restricts to x and y; built once per pair, tuples because every caller
    shares them."""
    elems = tuple(tuple(g.mul_idx(a, b) for b in e2.to_parent) for a in e1.to_parent)
    chars = [[0] * e2.group.order for _ in range(e1.group.order)]
    r1, r2 = (_pull_back(e.to_parent, e.group, g) for e in (e1, e2))
    for c, (x, y) in enumerate(zip(r1, r2)):
        chars[x][y] = c
    return elems, tuple(map(tuple, chars))


def _products(table, part1: Partition, part2: Partition) -> Partition:
    """The blocks {table[x][y] : x in A, y in B} over every block A of part1
    and B of part2."""
    return Partition.from_blocks([[row[y] for x in a for row in (table[x],) for y in b]
                                  for a in part1.blocks for b in part2.blocks],
                                 len(table) * len(table[0]))


def direct_product(
    t1: Theory, t2: Theory, h1: Subgroup, h2: Subgroup, check: bool = True
) -> Theory:
    """The theory on h1.group whose classes are all products K*L of a class of
    t1 by a class of t2, across the complementary pair (h1, h2).  With
    check=False the caller takes over verification."""
    g = h1.group
    if h2.group != g:
        raise ValueError("subgroups live in different groups")
    if h1.order * h2.order != g.order or len(set(h1.members) & set(h2.members)) != 1:
        raise ValueError("subgroups do not form a complementary pair")
    e1, e2 = g.subgroup_embedding(h1), g.subgroup_embedding(h2)
    if t1.group != e1.group or t2.group != e2.group:
        raise ValueError("factor theories do not match the embedded subgroups")
    elems, chars = _product_tables(g, e1, e2)
    t = Theory(g, _products(elems, t1.classes, t2.classes),
               _products(chars, t1.charparts, t2.charparts))
    return require_valid(t, "direct product") if check else t


class WedgeSpec(_Frozen):
    """A wedge datum: a proper nontrivial subgroup, a theory on it, and a
    theory on the quotient by it."""

    _fields = ("n", "inner", "outer")

    def __init__(self, n: Subgroup, inner: Theory, outer: Theory):
        _set(self, "n", n)
        _set(self, "inner", inner)
        _set(self, "outer", outer)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n == other.n and self.inner == other.inner
                and self.outer == other.outer)

    def __hash__(self):
        return hash((self.n, self.inner, self.outer))


def wedge(ws: WedgeSpec, check: bool = True) -> Theory:
    """Classes inside the subgroup come from the inner theory; outside it they
    are preimages of the nonidentity classes of the outer quotient theory.
    The character side is built from inflation and restriction
    (character_side_wedge), not derived from the classes, so nothing is
    checked here unless check=True; otherwise the caller's gate verifies."""
    g = ws.n.group
    if not 1 < ws.n.order < g.order:
        raise ValueError("wedge needs a proper nontrivial subgroup")
    emb = g.subgroup_embedding(ws.n)
    q = g.quotient(ws.n)
    if ws.inner.group != emb.group or ws.outer.group != q.group:
        raise ValueError("inner/outer theories do not match the subgroup and quotient")
    blocks = [
        tuple(emb.to_parent[i] for i in b) for b in ws.inner.classes.blocks
    ]
    fibers = q.fibers
    for b in ws.outer.classes.blocks:
        if b == (0,):
            continue
        blocks.append(tuple(i for j in b for i in fibers[j]))
    classes = Partition.from_blocks(blocks, g.order)
    t = Theory(g, classes, character_side_wedge(ws))
    return require_valid(t, "wedge") if check else t


@lru_cache(maxsize=None)
def _wedge_char_maps(n: Subgroup) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Inflation Irr(G/N) -> Irr(G), and per character of N the characters
    of G restricting to it (ascending); built once per subgroup."""
    g = n.group
    emb, q = g.subgroup_embedding(n), g.quotient(n)
    infl = _pull_back(q.projection, g, q.group)
    fiber: list[list[int]] = [[] for _ in range(emb.group.order)]
    for c, psi in enumerate(_pull_back(emb.to_parent, emb.group, g)):
        fiber[psi].append(c)
    return tuple(infl), tuple(map(tuple, fiber))


def character_side_wedge(ws: WedgeSpec) -> Partition:
    """The wedge's character partition built directly: inflations of the outer
    character blocks, plus unions of restriction fibers over each nontrivial
    inner character block (the characters of G/N are those trivial on N)."""
    infl, fiber = _wedge_char_maps(ws.n)
    blocks = [tuple(infl[c] for c in b) for b in ws.outer.charparts.blocks]
    blocks += [tuple(x for psi in b for x in fiber[psi])
               for b in ws.inner.charparts.blocks if b != (0,)]
    return Partition.from_blocks(blocks, ws.n.group.order)


@lru_cache(maxsize=None)
def _witness_index(g: GroupSpec) -> MappingProxyType:
    """canonical key -> generators of the first subgroup of Aut(G), in
    subgroups_of_aut() order, whose orbit theory has that key; built once per
    group on first use.  Like the enumerator's gate, an orbit theory is
    verified when its key is new or its character partition differs from
    the one recorded for the key (which then raises)."""
    first: dict[str, tuple[Theory, tuple[AutMap, ...]]] = {}
    for subgroup in g.subgroups_of_aut():
        gens = aut_generating_subset(subgroup)
        t = from_automorphisms(g, gens, check=False)
        key = canonical_key(t)
        seen = first.setdefault(key, (t, gens))[0]
        if seen is t or seen.charparts != t.charparts:
            require_valid(t, "orbit theory")
    return MappingProxyType({key: gens for key, (_, gens) in first.items()})


def automorphism_witness(t: Theory) -> tuple[AutMap, ...] | None:
    """Generators of a subgroup of Aut(G) whose orbit theory equals t, or None;
    the first such subgroup in subgroups_of_aut() order."""
    return _witness_index(t.group).get(canonical_key(t))


def direct_decompositions(t: Theory) -> list[tuple[Subgroup, Subgroup]]:
    """Complementary pairs (H1, H2) of invariant subgroups over which t is the
    direct product of its restrictions: there are as many classes as pairs
    of a class inside H1 and a class inside H2, and every product K1*K2
    lies in one class (Hendrickson's characterisation by Schur rings).

    Assumes that t's class partition completes to a theory; the restrictions
    are then theories too, so nothing needs rebuilding.  The products K1*K2
    cover G once each, so a pair costs O(|G|)."""
    g = t.group
    blocks, block_of = t.classes.blocks, t.classes.block_of
    inside = {h.members: [blocks[b] for b in {block_of[i] for i in h.members}]
              for h in invariant_subgroups(t)}
    out = []
    for h1, h2 in g.complementary_pairs():
        k1, k2 = inside.get(h1.members), inside.get(h2.members)
        if k1 is None or k2 is None or len(k1) * len(k2) != len(blocks):
            continue
        if all(len({block_of[g.mul_idx(x, y)] for x in a for y in b}) == 1
               for a in k1 for b in k2):
            out.append((h1, h2))
    return out


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
