"""Brute-force search for every supercharacter theory of a small group.

The search walks set partitions of the nonidentity elements in canonical
order: each new block starts at the smallest unassigned element, so every
partition is visited exactly once.  Convolution closure is enforced as blocks
complete - the product of any two completed block sums must be constant on
every completed block - and partial products prune candidates early.

Candidate blocks are generated from multiplier orbits rather than filtered
from every subset.  The power maps x -> x^m for m coprime to |G|, read off
the multiplication table, form an abelian permutation group U.  By Schur's
multiplier theorem (Wielandt, 1964) the image B^(m) of a block of a Schur
ring over an abelian group is again a block, and the supercharacter
theories of an abelian group are exactly its Schur rings.  So B and B^(m)
are equal or disjoint, the maps fixing B form a subgroup H_B of U holding
the stabilizer of every point of B, and B meets each U-orbit x^U in nothing
or in one H_B-orbit.  For each subgroup H of U (from the one subgroup-lattice
routine) a block led by s is s^H plus at most one H-orbit from every other
U-orbit whose stabilizer lies in H; distinct H give distinct s^H, so every
candidate is made once.  The image of a block under every map of U must
itself be a block as soon as it touches assigned elements or the block; the
inverse map is one of them.  For 2-groups U is trivial and the candidates
are all subsets of the allowed elements.

One search node is a completed block placement that passed all checks.  With
a budget, the search raises once it would exceed that many nodes; a budget
below 1 is refused as bad input.
"""

from __future__ import annotations

from itertools import chain, product
from math import gcd

from .groups import GroupSpec, _perm_table, _subgroup_lattice
from .theories import Partition, Theory, sort_key, theory_from_classes

EXHAUSTIVE_LIMIT = 44


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


def _orbit_plan(g: GroupSpec):
    """The multiplier group U's orbits and, per subgroup H of U, what a block
    needs: (H mask, H-orbit of each element, distinct H-orbits inside each
    U-orbit, one map of U per coset of H other than H itself).  `stab[x]` is
    the mask of maps fixing x; maps are indexed as in _multipliers."""
    maps = _multipliers(g)
    table = _perm_table(maps)
    n = g.order
    stab = [sum(1 << i for i, m in enumerate(maps) if m[x] == x) for x in range(n)]
    uorbit = [min(m[x] for m in maps) for x in range(n)]
    plan = []
    for hmask, members in sorted(_subgroup_lattice(table).items()):
        horbit = [tuple(sorted({maps[h][x] for h in members})) for x in range(n)]
        inside: dict[int, list] = {}
        for x in range(1, n):
            if horbit[x][0] == x:
                inside.setdefault(uorbit[x], []).append(horbit[x])
        reps, covered = [], hmask
        for i, m in enumerate(maps):
            if not covered >> i & 1:
                reps.append(m)
                for h in members:
                    covered |= 1 << table[i][h]
        plan.append((hmask, horbit, inside, reps))
    return stab, uorbit, plan


def _search(g: GroupSpec, budget: int | None, emit) -> None:
    n = g.order
    if budget is not None and budget < 1:
        raise ValueError(f"search budget must be at least 1, got {budget}")
    if n > EXHAUSTIVE_LIMIT and budget is None:
        raise ValueError(
            f"|G| = {n} exceeds the exhaustive limit {EXHAUSTIVE_LIMIT}; pass a budget"
        )
    mt = g.mult_table
    stab, uorbit, plan = _orbit_plan(g)
    nodes = [0]

    def conv(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        coeff = [0] * n
        for x in a:
            row = mt[x]
            for y in b:
                coeff[row[y]] += 1
        return tuple(coeff)

    def candidates(s: int, allowed: list[int]):
        """Blocks led by s inside allowed + [s], each made from the orbits of
        a subgroup H of U as in the module docstring, with one map of U per
        coset of H other than H to check the block's images by."""
        allowed_set = set(allowed)
        met = sorted({uorbit[t] for t in allowed} - {uorbit[s]})
        for hmask, horbit, inside, reps in plan:
            if stab[s] & ~hmask:
                continue
            core = horbit[s]
            if any(x != s and x not in allowed_set for x in core):
                continue
            options = []
            for o in met:
                # a point's stabilizer fixes the block through it; U is
                # abelian, so the points of a U-orbit share one stabilizer
                if stab[o] & ~hmask:
                    continue
                fits = [orb for orb in inside[o] if allowed_set.issuperset(orb)]
                if fits:
                    options.append([()] + fits)
            for choice in product(*options):
                yield tuple(sorted(chain(core, *choice))), reps

    def recurse(unassigned: tuple[int, ...], assigned: frozenset[int],
                blocks: list, products: list, block_sets: set) -> None:
        if not unassigned:
            emit([(0,)] + blocks)
            return
        s = unassigned[0]
        rest = unassigned[1:]
        allowed = [t for t in rest if all(p[t] == p[s] for p in products)]
        for block, reps in candidates(s, allowed):
            bset = frozenset(block)
            rejected = False
            for m in reps:
                image = frozenset([m[x] for x in block])
                if image != bset:
                    # once an image touches placed elements it must be a
                    # block already; otherwise decide when it gets placed
                    touched = any(x in assigned or x in bset for x in image)
                    if touched and image not in block_sets:
                        rejected = True
                        break
            if rejected:
                continue
            new_products = []
            ok = True
            for other in blocks + [block]:
                coeff = conv(other, block)
                for done in blocks:
                    ref = coeff[done[0]]
                    if any(coeff[h] != ref for h in done[1:]):
                        ok = False
                        break
                if not ok:
                    break
                ref = coeff[block[0]]
                if any(coeff[h] != ref for h in block[1:]):
                    ok = False
                    break
                new_products.append(coeff)
            if not ok:
                continue
            nodes[0] += 1
            if budget is not None and nodes[0] > budget:
                raise BudgetExhaustedError(nodes[0], -1)
            block_sets.add(bset)
            recurse(
                tuple(t for t in rest if t not in bset),
                assigned | bset,
                blocks + [block],
                products + new_products,
                block_sets,
            )
            block_sets.discard(bset)

    recurse(tuple(range(1, n)), frozenset({0}), [], [], set())


def brute_force_count(g: GroupSpec, budget: int | None = None) -> int:
    """Number of supercharacter theories found by exhaustive search."""
    found = [0]

    def emit(_blocks):
        found[0] += 1

    try:
        _search(g, budget, emit)
    except BudgetExhaustedError as e:
        raise BudgetExhaustedError(e.nodes, found[0]) from None
    return found[0]


def brute_force_enumerate(g: GroupSpec, budget: int | None = None) -> list[Theory]:
    """Every theory of g by exhaustive search, in canonical order."""
    partitions: list[Partition] = []

    def emit(blocks):
        partitions.append(Partition.from_blocks(blocks, g.order))

    try:
        _search(g, budget, emit)
    except BudgetExhaustedError as e:
        raise BudgetExhaustedError(e.nodes, len(partitions)) from None
    theories = [theory_from_classes(g, part) for part in partitions]
    return sorted(theories, key=sort_key)
