"""Brute-force search for every supercharacter theory of a small group.

The search knows nothing of characters, automorphisms or the constructions;
it walks set partitions of the nonidentity elements and keeps those whose
block sums close under convolution.  Its one piece of structure is the
group U of power maps x -> x^m, m coprime to |G|, read off the
multiplication table.  By Schur's multiplier theorem (Wielandt, 1964) the
image m(B) of a block of a Schur ring over an abelian group is again a
block, and the supercharacter theories of an abelian group are exactly its
Schur rings.  So B and m(B) are equal or disjoint, the maps fixing B form a
subgroup H of U holding the stabilizer of every point of B, and B meets
each U-orbit in nothing or in one H-orbit.

One search node places a block B together with its images m(B), one m per
coset of H other than H itself.  For each subgroup H of U (from the one
subgroup-lattice routine) a block led by s is s^H plus at most one H-orbit
from every other U-orbit whose stabilizer lies in H; distinct H give
distinct s^H, so every candidate is made once.  Inside one U-orbit the
images of an H-orbit are the other H-orbits, so the images are pairwise
disjoint and together cover each U-orbit that B meets.  The placed set
therefore stays a union of U-orbits: each new block starts at the smallest
unplaced element, every U-orbit is placed whole or not at all, and every
partition is visited exactly once.  For 2-groups U is trivial and the
candidates are all subsets of the allowed elements.

Convolution closure is enforced as blocks are placed.  Only the new block C
is convolved, with itself, each of its images and each placed block: for m
in U, conv(mX, mC) = m(conv(X, C)), so these products give every other
pair.  Each must be constant on every placed block.  The products and all
their images under U also split the unplaced elements into cells, and a new
block must lie inside the cell of its leading element; since U permutes
the cells, its images then lie inside cells too.  The unplaced set, the
cells and the pieces blocks are made of are int bitmasks.

One search node is one placement of a U-orbit of blocks that passed all
checks.  With a budget, the search raises once it would exceed that many
nodes; a budget that is not an int of at least 1 is refused as bad input.
"""

from __future__ import annotations

from itertools import chain, product
from math import gcd
from operator import itemgetter

from .groups import GroupSpec, _perm_table, _subgroup_lattice
from .theories import Partition, Theory, sort_key, theory_from_classes

# every group up to this order is searched in under 1 s of CPU without a
# budget (see the oracle entry of the README)
EXHAUSTIVE_LIMIT = 100


class BudgetExhaustedError(Exception):
    """The node budget ran out before the search space was exhausted."""

    def __init__(self, nodes: int, found: int):
        self.nodes = nodes
        self.found = found
        super().__init__(f"search budget exhausted after {nodes} nodes ({found} theories found)")


def _multipliers(g: GroupSpec) -> list[tuple[int, ...]]:
    """The distinct power maps x -> x^m, m coprime to |G|, as index
    permutations built from the multiplication table."""
    n = g.order
    mt = g.mult_table
    powers = []  # powers[x][k] = x^k
    for x in range(n):
        row = [0]
        for _ in range(n):
            row.append(mt[row[-1]][x])
        powers.append(row)
    return sorted({tuple(powers[x][m] for x in range(n))
                   for m in range(1, n + 1) if gcd(m, n) == 1})


def _mask(xs) -> int:
    return sum(1 << x for x in xs)


def _orbit_plan(g: GroupSpec):
    """The multiplier group U cut into the pieces that blocks are made of.

    Returns (maps, orbits, orbit_of, plan).  `orbits` lists the masks of the
    nonidentity U-orbits and `orbit_of[x]` the index of x's orbit.  `plan`
    has one entry (core, pieces) per subgroup H of U: `pieces[k]` lists the
    H-orbits inside orbits[k] when its stabilizer lies in H, and `core[x]`
    is the piece holding x, or None.  A piece is a tuple (mask, elements,
    images, orbit mask, reader): images[j] are the elements of its image
    under the j-th of one map per coset of H other than H, and the reader
    takes a list indexed by element to its entries at the piece's first
    point and at that point's images."""
    maps = _multipliers(g)
    table = _perm_table(maps)
    n = g.order
    stab = [_mask(i for i, m in enumerate(maps) if m[x] == x) for x in range(n)]
    orbits, orbit_of = [], [-1] * n
    for x in range(1, n):
        if orbit_of[x] < 0:
            members = {m[x] for m in maps}
            for y in members:
                orbit_of[y] = len(orbits)
            orbits.append(_mask(members))
    plan = []
    for hmask, members in sorted(_subgroup_lattice(table).items()):
        reps, covered = [], hmask
        for i, m in enumerate(maps):
            if not covered >> i & 1:
                reps.append(m)
                for h in members:
                    covered |= 1 << table[i][h]
        core: list = [None] * n
        pieces: list[list] = [[] for _ in orbits]
        for x in range(1, n):
            # a point's stabilizer fixes the block through it; U is abelian,
            # so the points of a U-orbit share one stabilizer
            if core[x] is None and not stab[x] & ~hmask:
                elems = tuple(sorted({maps[h][x] for h in members}))
                piece = (_mask(elems), elems, tuple(tuple(m[y] for y in elems) for m in reps),
                         orbits[orbit_of[x]], itemgetter(x, *(m[x] for m in reps)))
                for y in elems:
                    core[y] = piece
                pieces[orbit_of[x]].append(piece)
        plan.append((core, pieces))
    return maps, orbits, orbit_of, plan


def _search(g: GroupSpec, budget: int | None, emit) -> int:
    """Calls emit with the class blocks of every theory found, and returns
    how many there were; raises BudgetExhaustedError with the nodes and
    the theories found so far once the budget runs out."""
    n = g.order
    # bool is an int subclass, but true and false are not node counts
    if budget is not None and (type(budget) is not int or budget < 1):
        raise ValueError(f"search budget must be an int of at least 1, got {budget!r}")
    if n > EXHAUSTIVE_LIMIT and budget is None:
        raise ValueError(
            f"|G| = {n} exceeds the exhaustive limit {EXHAUSTIVE_LIMIT}; pass a budget"
        )
    conv = g.convolve
    maps, orbits, orbit_of, plan = _orbit_plan(g)
    # the entries at m(t), m in U, of a list indexed by element
    along_orbit = [itemgetter(*(m[t] for m in maps)) for t in range(n)]
    nodes = found = 0

    def checker(blocks):
        """A test that a product is constant on each of the blocks."""
        spread = [(x, b[0]) for b in blocks if len(b) > 1 for x in b]
        if not spread:
            return lambda coeff: True
        here, lead = (itemgetter(*xs) for xs in zip(*spread))
        return lambda coeff: here(coeff) == lead(coeff)

    def on_pieces(coeff, parts) -> bool:
        """Whether a product fixed by H is constant on the block and on each
        of its images: it is constant on each H-orbit, so it suffices that
        the pieces read the same values."""
        first = parts[0][4](coeff)
        return all(pc[4](coeff) == first for pc in parts[1:])

    def candidates(s: int, cell: int):
        """The pieces of each block led by s inside cell, made from the
        pieces of one subgroup H of U as in the module docstring, with the
        mask of the U-orbits that the block and its images cover."""
        met = [k for k, omask in enumerate(orbits) if omask & cell and k != orbit_of[s]]
        for core, pieces in plan:
            head = core[s]
            if head is None or head[0] & ~cell:
                continue
            options = []
            for k in met:
                fits = [pc for pc in pieces[k] if not pc[0] & ~cell]
                if fits:
                    options.append([None] + fits)
            for choice in product(*options):
                parts = [head]
                placed = head[3]
                for pc in choice:
                    if pc is not None:
                        parts.append(pc)
                        placed |= pc[3]
                yield parts, placed

    def closing_products(block, images, parts, blocks, constant_on_placed):
        """conv(X, block) for each image and placed block X, or None as soon
        as one is not constant on every block.  The images are fixed by H,
        and so are their products with the block."""
        products = []
        for other in images:
            coeff = conv(other, block)
            if not (on_pieces(coeff, parts) and constant_on_placed(coeff)):
                return None
            products.append(coeff)
        constant_on_new = checker([block] + images)
        for other in blocks:
            coeff = conv(other, block)
            if not (constant_on_new(coeff) and constant_on_placed(coeff)):
                return None
            products.append(coeff)
        return products

    def refine(cell_of: list[int], free: int, products: list) -> list[int]:
        """Split the cells of the free elements by the values of every
        product and of its images under U: t stays with t' when p(m t) and
        p(m t') agree for every product p and every map m."""
        values = list(zip(*products))
        sigs = {t: (cell_of[t], along_orbit[t](values))
                for t in range(n) if free >> t & 1}
        cells: dict = {}
        for t, sig in sigs.items():
            cells[sig] = cells.get(sig, 0) | 1 << t
        out = cell_of[:]
        for t, sig in sigs.items():
            out[t] = cells[sig]
        return out

    def recurse(free: int, cell_of: list[int], blocks: list) -> None:
        nonlocal nodes, found
        if not free:
            found += 1
            emit([(0,)] + blocks)
            return
        s = (free & -free).bit_length() - 1
        constant_on_placed = checker(blocks)
        for parts, placed in candidates(s, cell_of[s]):
            block = tuple(chain.from_iterable(pc[1] for pc in parts))
            # the block's square first: it rejects most candidates, before
            # the images are built
            square = conv(block, block)
            if not (on_pieces(square, parts) and constant_on_placed(square)):
                continue
            images = [tuple(chain.from_iterable(ims)) for ims in zip(*(pc[2] for pc in parts))]
            products = closing_products(block, images, parts, blocks, constant_on_placed)
            if products is None:
                continue
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExhaustedError(nodes, found)
            rest = free & ~placed
            recurse(rest, refine(cell_of, rest, products + [square]), blocks + [block] + images)

    everything = (1 << n) - 2
    recurse(everything, [everything] * n, [])
    return found


def brute_force_count(g: GroupSpec, budget: int | None = None) -> int:
    """Number of supercharacter theories found by exhaustive search."""
    return _search(g, budget, lambda _blocks: None)


def brute_force_enumerate(g: GroupSpec, budget: int | None = None) -> list[Theory]:
    """Every theory of g by exhaustive search, in canonical order."""
    partitions: list[Partition] = []

    def emit(blocks):
        partitions.append(Partition(g.order, blocks))

    _search(g, budget, emit)
    theories = [theory_from_classes(g, part) for part in partitions]
    return sorted(theories, key=sort_key)
