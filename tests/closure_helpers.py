"""Closure checks on a list of theories of one group, shared by the tests of
the enumerated and of the blind output.

The theories of a group form a lattice: the join of two class partitions
(the finest partition coarser than both) is the class partition of a
theory, and so is the join of two character partitions (the character side
of their meet).  Aut(G) maps theories to theories.  So a theory missing
from a list shows as a missing join, meet or image."""

from supercharacters import Partition, aut_generating_subset
from supercharacters.theories import _leaders


def join_key(a, b):
    """The leader map of the join of a and b, as a tuple, by union-find on
    the block labels of a: two blocks of a merge when one block of b meets
    both.  The root of each tree is its least label, whose block holds the
    least point."""
    root = list(range(len(a.blocks)))

    def find(x):
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    first = {}
    for x, y in set(zip(a.block_of, b.block_of)):
        rx, ry = find(x), find(first.setdefault(y, x))
        if rx != ry:
            root[max(rx, ry)] = min(rx, ry)
    leads = [a.blocks[find(x)][0] for x in range(len(a.blocks))]
    return tuple(map(leads.__getitem__, a.block_of))


def missing_joins(parts):
    """Per pair of partitions whose join is not among them: the pair and
    the blocks of the join."""
    keys = {tuple(_leaders(p)) for p in parts}
    missing = []
    for i, a in enumerate(parts):
        for b in parts[i + 1:]:
            key = join_key(a, b)
            if key not in keys:
                blocks = {}
                for x, lead in enumerate(key):
                    blocks.setdefault(lead, []).append(x)
                missing.append((a.blocks, b.blocks, list(blocks.values())))
    return missing


def missing_images(theories):
    """Per theory and generator of Aut(G) whose image of both partitions is
    not among the theories: the theory's class blocks and the generator's
    images of the group's generators."""
    g = theories[0].group
    auts = g.aut_group()
    gens = [auts[i] for i in aut_generating_subset(g, range(len(auts)))]
    have = {(t.classes.blocks, t.charparts.blocks) for t in theories}
    missing = []
    for t in theories:
        for a in gens:
            image = tuple(
                Partition(g.order, [[perm[x] for x in b] for b in part.blocks]).blocks
                for part, perm in ((t.classes, a.perm), (t.charparts, a.char_perm))
            )
            if image not in have:
                missing.append((t.classes.blocks, a.gen_images))
    return missing
