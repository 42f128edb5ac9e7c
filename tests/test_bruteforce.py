"""The exhaustive search: counts, cross-checks, and budget semantics."""

from itertools import combinations
from math import gcd

import pytest

from supercharacters import (
    BudgetExhaustedError,
    GroupSpec,
    Partition,
    brute_force_count,
    brute_force_enumerate,
    canonical_key,
    verify,
    verify_algebra,
)
from supercharacters.bruteforce import EXHAUSTIVE_LIMIT, _search


@pytest.mark.parametrize("g,count", [
    (GroupSpec.of(()), 1),
    (GroupSpec.of((2,)), 1),
    (GroupSpec.cp(3), 2),
    (GroupSpec.cp(5), 3),
    (GroupSpec.cp(7), 4),
    (GroupSpec.klein(), 5),
    (GroupSpec.cp_c2(3), 7),
    (GroupSpec.cp_c2(5), 10),
    (GroupSpec.c2_cubed(), 100),
])
def test_search_counts(g, count):
    assert brute_force_count(g) == count


@pytest.mark.parametrize("g", [
    GroupSpec.cp(5), GroupSpec.cp(7), GroupSpec.klein(), GroupSpec.cp_c2(3),
])
def test_search_agrees_with_constructions(g, enumerated):
    searched = {canonical_key(t) for t in enumerated.search(g)}
    constructed = {canonical_key(r.theory) for r in enumerated.theories(g)}
    assert searched == constructed


def test_search_results_verify(enumerated):
    g = GroupSpec.cp_c2(5)
    found = enumerated.search(g)
    assert len(found) == 10
    for t in found:
        assert verify(t) is None
        assert verify_algebra(g, t.classes) is None


def _set_partitions(items):
    """All partitions of a list, each block led by its smallest element."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[head] + sub[i]] + sub[i + 1:]
        yield [[head]] + sub


@pytest.mark.parametrize("g", [
    GroupSpec.klein(), GroupSpec.cp(5), GroupSpec.cp(7), GroupSpec.cp_c2(3),
    GroupSpec.c2_cubed(), GroupSpec.cp_c2(5),
])
def test_search_agrees_with_filtering_every_partition(g, enumerated):
    # independent oracle: test every set partition of the nonidentity
    # elements directly against the convolution-closure condition
    n = g.order
    accepted = set()
    for sub in _set_partitions(list(range(1, n))):
        part = Partition(n, [(0,)] + [tuple(b) for b in sub])
        if verify_algebra(g, part) is None:
            accepted.add(part.blocks)
    searched = {t.classes.blocks for t in enumerated.search(g)}
    assert searched == accepted


@pytest.mark.fresh("compares runs of the search")
def test_search_is_deterministic():
    g = GroupSpec.cp_c2(3)
    first = [t.classes.blocks for t in brute_force_enumerate(g)]
    second = [t.classes.blocks for t in brute_force_enumerate(g)]
    assert first == second
    keys = [canonical_key(t) for t in brute_force_enumerate(g)]
    assert keys == sorted(set(keys), key=lambda k: (k.count("|"), k))


def test_large_group_requires_budget():
    with pytest.raises(ValueError):
        brute_force_count(GroupSpec.cp_c2_c2(29))
    # order 20 is searched without a budget; the limit lies between orders 52 and 116
    assert brute_force_count(GroupSpec.cp_c2_c2(5)) == 109
    assert GroupSpec.cp_c2_c2(13).order <= EXHAUSTIVE_LIMIT < GroupSpec.cp_c2_c2(29).order


@pytest.mark.fresh("runs searches out of budget")
def test_budget_exhaustion():
    with pytest.raises(BudgetExhaustedError) as info:
        brute_force_enumerate(GroupSpec.cp_c2(5), budget=3)
    assert info.value.nodes > 3
    assert info.value.found >= 0
    with pytest.raises(BudgetExhaustedError):
        brute_force_count(GroupSpec.cp_c2_c2(5), budget=50)


@pytest.mark.fresh("runs searches out of budget")
def test_budget_exhaustion_reports_what_the_search_emitted():
    g = GroupSpec.cp_c2_c2(5)
    emitted = []
    raised = []
    for search in (lambda: _search(g, 50, emitted.append),
                   lambda: brute_force_count(g, budget=50),
                   lambda: brute_force_enumerate(g, budget=50)):
        with pytest.raises(BudgetExhaustedError) as info:
            search()
        raised.append((info.value.nodes, info.value.found))
    assert 0 < len(emitted) < 109
    assert raised == [(51, len(emitted))] * 3


@pytest.mark.parametrize("budget", [0, -1, True, 2.5, "5"])
def test_budget_below_one_is_refused(budget):
    for search in (brute_force_count, brute_force_enumerate):
        with pytest.raises(ValueError, match="budget"):
            search(GroupSpec.klein(), budget=budget)


def test_ample_budget_completes():
    assert brute_force_count(GroupSpec.cp_c2(3), budget=10**6) == 7


def _unpruned_partitions(g):
    """The search without multiplier orbits: every subset of the allowed
    elements is a candidate block, and of the power maps only the inverse
    is checked."""
    n = g.order
    mt = g.mult_table
    inv = [row.index(0) for row in mt]
    found = set()

    def conv(a, b):
        coeff = [0] * n
        for x in a:
            for y in b:
                coeff[mt[x][y]] += 1
        return coeff

    def recurse(unassigned, assigned, blocks, products, block_sets):
        if not unassigned:
            found.add(Partition(n, [(0,)] + blocks).blocks)
            return
        s, rest = unassigned[0], unassigned[1:]
        allowed = [t for t in rest if all(p[t] == p[s] for p in products)]
        for size in range(len(allowed) + 1):
            for extra in combinations(allowed, size):
                block = (s,) + extra
                bset = frozenset(block)
                iset = frozenset(inv[x] for x in block)
                if iset != bset:
                    touched = any(x in assigned or x in bset for x in iset)
                    if touched and iset not in block_sets:
                        continue
                new_products = []
                for other in blocks + [block]:
                    coeff = conv(other, block)
                    if any(coeff[h] != coeff[done[0]] for done in blocks + [block]
                           for h in done):
                        break
                    new_products.append(coeff)
                else:
                    block_sets.add(bset)
                    recurse(tuple(t for t in rest if t not in bset), assigned | bset,
                            blocks + [block], products + new_products, block_sets)
                    block_sets.discard(bset)

    recurse(tuple(range(1, n)), frozenset({0}), [], [], set())
    return found


ORDER_AT_MOST_12 = [
    GroupSpec.of(()), GroupSpec.of((2,)), GroupSpec.klein(), GroupSpec.c2_cubed(),
    GroupSpec.cp(3), GroupSpec.cp(5), GroupSpec.cp(7), GroupSpec.cp(11),
    GroupSpec.cp_c2(3), GroupSpec.cp_c2(5), GroupSpec.cp_c2_c2(3),
]


@pytest.mark.parametrize("g", ORDER_AT_MOST_12, ids=str)
def test_orbit_candidates_lose_no_partition(g):
    # generating blocks from multiplier orbits must emit exactly what
    # trying every subset with the inverse check alone emits
    pruned = set()
    _search(g, None, lambda blocks: pruned.add(Partition(g.order, blocks).blocks))
    assert pruned == _unpruned_partitions(g)
    assert len(pruned) == brute_force_count(g)


def _power_maps(g):
    """x -> x^m for every m coprime to |G|, by exponent arithmetic."""
    n = g.order
    return {tuple(g.index_of(tuple(m * e for e in x)) for x in g.elements)
            for m in range(1, n + 1) if gcd(m, n) == 1}


@pytest.mark.parametrize("g", [
    GroupSpec.klein(), GroupSpec.c2_cubed(),
    *(GroupSpec.cp(p) for p in (3, 5, 7)),
    *(GroupSpec.cp_c2(p) for p in (3, 5, 7)),
    *(GroupSpec.cp_c2_c2(p) for p in (3, 5, 7, 11, 13)),
], ids=str)
def test_power_maps_permute_the_superclasses(g, enumerated):
    # the premise of the search's pruning (Schur's multiplier theorem):
    # in every constructed theory, each unit power map sends each
    # superclass onto a superclass
    maps = _power_maps(g)
    for rec in enumerated.theories(g):
        blocks = {frozenset(b) for b in rec.theory.classes.blocks}
        for m in maps:
            assert {frozenset(m[x] for x in b) for b in blocks} == blocks
