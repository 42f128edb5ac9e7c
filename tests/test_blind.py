"""The blind search on its own terms.

The invariants of its nodes, each of which places a block together with its
images under the power maps, and the paper's classification of the theories
of C_p x C_2 x C_2 read off the search's output alone: the constructions
only recognise (through `classify`), they build nothing here.
"""

import pytest

from supercharacters import (
    BudgetExhaustedError,
    GroupSpec,
    Partition,
    canonical_key,
    dual,
    wedge_decompositions,
)
from supercharacters.bruteforce import _multipliers, _search
from supercharacters.cli import _classify_one
from supercharacters.enumeration import _formula, factor_pm1

from closure_helpers import missing_images, missing_joins
from subgroup_helpers import wedge_annihilators

# Nodes of the full search.  For C_p x C_2 x C_2, 16 of them are placements
# inside the involutions' part that no theory completes, at every p.
NODES = [
    (GroupSpec.klein(), 9, 0),
    (GroupSpec.c2_cubed(), 247, 0),
    (GroupSpec.cp_c2(11), 19, 0),
    (GroupSpec.cp(23), 4, 0),
    (GroupSpec.cp_c2_c2(3), 175, 16),
    (GroupSpec.cp_c2_c2(5), 232, 16),
    (GroupSpec.cp_c2_c2(7), 288, 16),
    (GroupSpec.cp_c2_c2(13), 404, 16),
]


def _orbit_prefixes(blocks, maps) -> set:
    """The U-orbit placements on the way to one partition: at each step the
    U-orbit of blocks through the smallest element not yet covered."""
    blocks = [frozenset(b) for b in blocks if b != (0,)]
    free = set().union(*blocks)
    prefix: list = []
    out = set()
    while free:
        s = min(free)
        block = next(b for b in blocks if s in b)
        orbit = frozenset(frozenset(m[x] for x in block) for m in maps)
        prefix.append(orbit)
        free -= set().union(*orbit)
        out.add(frozenset(prefix))
    return out


@pytest.mark.parametrize("g,nodes,dead_ends", NODES, ids=[str(c[0]) for c in NODES])
def test_search_invariants(g, nodes, dead_ends):
    maps = _multipliers(g)
    emitted = []
    _search(g, nodes, lambda blocks: emitted.append(Partition(g.order, blocks)))
    assert len(set(emitted)) == len(emitted)
    for part in emitted:
        blocks = {frozenset(b) for b in part.blocks}
        for m in maps:
            assert {frozenset(m[x] for x in b) for b in blocks} == blocks
    # a node is one U-orbit placement: every prefix of an emitted partition
    # is one, and the budget runs out on the placement after the last
    prefixes = set().union(*(_orbit_prefixes(p.blocks, maps) for p in emitted))
    assert nodes == len(prefixes) + dead_ends
    with pytest.raises(BudgetExhaustedError) as info:
        _search(g, nodes - 1, lambda blocks: None)
    assert info.value.nodes == nodes


BLIND_PRIMES = (5, 7, 13, 19)


def _blind(enumerated, p):
    return enumerated.search(GroupSpec.cp_c2_c2(p), budget=10**6)


def test_blind_search_at_p19_gives_the_enumerated_theories(enumerated):
    # p - 1 = 2 * 3^2: l = 2
    records, report = enumerated.cp_c2_c2(19)
    blind = _blind(enumerated, 19)
    searched = {canonical_key(t) for t in blind}
    assert searched == {canonical_key(r.theory) for r in records}
    assert len(blind) == len(searched) == report.total == 210


def test_blind_output_at_p19_is_closed_under_automorphisms_and_joins(enumerated):
    # the closure checks of test_lattice.py, on output that no construction
    # built.  The meet of two theories is the join of their character
    # partitions; the blind set is closed under dual
    # (test_blind_classification_matches_the_closed_form), which swaps the
    # two sides, so its character partitions are its class partitions and
    # the class side alone covers both join and meet.
    ts = _blind(enumerated, 19)
    missing = missing_images(ts)
    assert not missing, f"{len(missing)} images missing, first: {missing[0]}"
    missing = missing_joins([t.classes for t in ts])
    assert not missing, f"{len(missing)} joins missing, first: {missing[0]}"


@pytest.mark.parametrize("p", BLIND_PRIMES)
def test_blind_classification_matches_the_closed_form(enumerated, p):
    blind = _blind(enumerated, p)
    tags = [_classify_one(t)[0] for t in blind]
    counts = {
        "total": len(tags),
        "automorphic": sum("automorphic" in t for t in tags),
        "direct": sum("direct" in t for t in tags),
        "overlap": sum({"automorphic", "direct"} <= t for t in tags),
        "wedge": sum("wedge" in t for t in tags),
        "maximal": sum("maximal" in t for t in tags),
    }
    assert counts == _formula(*factor_pm1(p))
    assert not any("wedge" in t and t & {"automorphic", "direct"} for t in tags)
    untagged = [t for t in tags if not t & {"automorphic", "direct", "wedge"}]
    assert untagged == [{"maximal"}]
    keys = {canonical_key(t) for t in blind}
    assert {canonical_key(dual(t)) for t in blind} == keys


def test_dual_sends_each_wedge_subgroup_to_its_annihilator_at_p19(enumerated):
    # the duality of the wedge classes, on output that no construction
    # built; 120 of the 210 theories are wedges (19 d(18) + 6)
    blind = _blind(enumerated, 19)
    wedges = [wedge_annihilators(t) for t in blind]
    assert sum(map(bool, wedges)) == 120
    for t, anns in zip(blind, wedges):
        assert {n.members for n in wedge_decompositions(dual(t))} == anns
