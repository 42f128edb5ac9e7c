"""Refinement-order edges and DOT rendering."""

import random
import re

import pytest

from supercharacters import GroupSpec, lattice, refines
from supercharacters.lattice import _color, lattice_dot, refinement_edges
from supercharacters.theories import TheoryRecord, _invariant, canonical_key, sort_key

from closure_helpers import missing_images, missing_joins
from damage_helpers import damaged_theories


def test_chain_for_cp5(enumerated):
    records = enumerated.theories(GroupSpec.cp(5))
    ts = sorted((r.theory for r in records), key=sort_key)
    # 2-class maximal, 3-class halving, 5-class minimal: a chain
    assert [len(t.classes) for t in ts] == [2, 3, 5]
    assert refinement_edges(ts) == [(1, 0), (2, 1)]


def test_klein_diamond(enumerated):
    records = enumerated.theories(GroupSpec.klein())
    ts = [r.theory for r in records]
    edges = refinement_edges(ts)
    assert sorted(edges) == [(1, 0), (2, 0), (3, 0), (4, 1), (4, 2), (4, 3)]


def test_edges_are_covers(enumerated):
    records = enumerated.theories(GroupSpec.cp_c2(3))
    ts = sorted((r.theory for r in records), key=sort_key)
    edges = refinement_edges(ts)
    for i, j in edges:
        assert refines(ts[i], ts[j]) and i != j
        for k in range(len(ts)):
            if k in (i, j):
                continue
            assert not (refines(ts[i], ts[k]) and refines(ts[k], ts[j]))


def _covers_by_refines(ts):
    """Covering pairs from the pairwise predicate: i refines j, i != j, and
    no k with i refining k and k refining j."""
    n = len(ts)
    up = [{j for j in range(n) if j != i and refines(ts[i], ts[j])} for i in range(n)]
    down = [{i for i in range(n) if j in up[i]} for j in range(n)]
    return [(i, j) for i in range(n) for j in sorted(up[i]) if not up[i] & down[j]]


def _cp_c2_c2_13_theories(enumerated):
    return [r.theory for r in enumerated.theories(GroupSpec.cp_c2_c2(13))]


def test_edges_match_pairwise_refines(enumerated):
    # every group whose theories the session cache holds, and the blind
    # output at p = 19; a 2-group's one multiplier is the identity, and its
    # edges test every element
    groups = [GroupSpec.of(()), GroupSpec.of((2,)), GroupSpec.klein(), GroupSpec.c2_cubed(),
              *map(GroupSpec.cp, (3, 5, 7, 11, 13)), *map(GroupSpec.cp_c2, (3, 5, 7, 11, 13)),
              *map(GroupSpec.cp_c2_c2, (3, 5, 7, 11, 13, 19))]
    families = [[r.theory for r in enumerated.theories(g)] for g in groups]
    families.append(enumerated.search(GroupSpec.cp_c2_c2(19), budget=10**6))
    # the lead points decide refinement between any two partitions that the
    # multipliers fix, theories or not: add the damaged partitions they fix,
    # each of (C_2)^3's among them; two damages can give the same classes
    for g, count in ((GroupSpec.cp_c2_c2(3), 166), (GroupSpec.c2_cubed(), 265)):
        records = enumerated.theories(g)
        fixed = {t.classes: t for t in damaged_theories(records)
                 if _invariant(t.classes, g.multiplier_perm)}
        families.append([r.theory for r in records] + list(fixed.values()))
        assert len(families[-1]) == count
    for ts in families:
        ts = sorted(ts, key=sort_key)
        assert refinement_edges(ts) == _covers_by_refines(ts), ts[0].group


def test_edges_past_one_round(enumerated):
    # 68 elements, of which the 8 lead points are tested
    ts = sorted((r.theory for r in enumerated.theories(GroupSpec.cp_c2_c2(17))), key=sort_key)
    assert refinement_edges(ts) == _covers_by_refines(ts)


def test_edges_refuse_classes_the_multipliers_move(enumerated):
    # the lead points decide refinement only between partitions that the
    # multipliers fix: here 4 = (1, 0) is a class alone, but 8 = 2 * 4 is not
    g = GroupSpec.cp_c2_c2(3)
    records = enumerated.theories(g)
    damaged = damaged_theories(records)
    moved = damaged[1]
    assert canonical_key(moved) == "3.2.2:0|1,2,3,5,6,7,8,9,10,11|4"
    assert not _invariant(moved.classes, g.multiplier_perm)
    ts = [r.theory for r in records]
    with pytest.raises(ValueError, match=f"^theory {re.escape(canonical_key(moved))} "
                                         "is not fixed by the multipliers$"):
        refinement_edges(ts + [moved])
    # among all such partitions, the first in canonical order is named
    every = [t for t in damaged if not _invariant(t.classes, g.multiplier_perm)]
    assert len(every) == 76
    ts += damaged
    random.Random(3).shuffle(ts)
    first = canonical_key(min(every, key=sort_key))
    with pytest.raises(ValueError, match=f"^theory {re.escape(first)} is not fixed"):
        refinement_edges(ts)


@pytest.mark.parametrize("g", [
    GroupSpec.klein(), GroupSpec.c2_cubed(), GroupSpec.cp(13), GroupSpec.cp_c2(13),
    GroupSpec.cp_c2_c2(13),
], ids=str)
def test_cells_hold_one_field_per_lead_point(g, enumerated):
    # one n-bit field per lead point, min(n, 2 << d) of them: field x holds
    # the block of x, which holds x, so the last field is not zero
    n = g.order
    fields = min(n, 2 << g.dim2)
    for r in enumerated.theories(g):
        assert (fields - 1) * n < lattice._cells(r.theory).bit_length() <= fields * n


def test_dot_sorts_once(monkeypatch, enumerated):
    records = enumerated.theories(GroupSpec.cp_c2(5))
    calls = []

    def counted(t):
        calls.append(t)
        return sort_key(t)

    monkeypatch.setattr(lattice, "sort_key", counted)
    lattice_dot(records)
    assert len(calls) == len(records)


def test_edges_reject_a_duplicate_in_shuffled_order(enumerated):
    # two copies of one theory would refine each other, cover each other
    # and hide every cover through them, so a repeat is refused and named
    rng = random.Random(13)
    cp_c2_c2_13_theories = _cp_c2_c2_13_theories(enumerated)
    dup = cp_c2_c2_13_theories[57]
    ts = cp_c2_c2_13_theories + [dup]
    rng.shuffle(ts)
    with pytest.raises(ValueError, match=f"^theory {re.escape(canonical_key(dup))} is repeated$"):
        refinement_edges(ts)
    ts.remove(dup)
    assert refinement_edges(ts) == _covers_by_refines(sorted(ts, key=sort_key))
    records = enumerated.theories(GroupSpec.c2_cubed())[:3]
    with pytest.raises(ValueError, match="is repeated"):
        lattice_dot(records + records[1:2])


def test_edges_reject_mixed_groups(enumerated):
    ts = [r.theory for r in enumerated.theories(GroupSpec.klein())]
    ts += [r.theory for r in enumerated.theories(GroupSpec.cp(3))]
    with pytest.raises(ValueError, match="theories live on different groups"):
        refinement_edges(ts)


def test_dot_output_shape(enumerated):
    records = enumerated.theories(GroupSpec.klein())
    dot = lattice_dot(records)
    assert dot.startswith("digraph refinement {\n  rankdir=BT;")
    assert dot.endswith("}\n")
    assert dot.count("fillcolor") == 5
    assert dot == lattice_dot(list(reversed(records)))


def test_dot_quotes_tags_of_plain_text(enumerated):
    # spaces, an apostrophe and non-ASCII letters need no escape in a
    # quoted DOT string, so they are written as they are
    records = [TheoryRecord(r.theory, {"two words", "it's", "\u00e9t\u00e9"})
               for r in enumerated.theories(GroupSpec.klein())]
    assert lattice_dot(records).count('tags="it\'s,two words,\u00e9t\u00e9"') == 5


def test_tag_colors():
    assert _color({"wedge", "automorphic"}) == "lightblue"
    assert _color({"direct", "automorphic"}) == "orange"
    assert _color({"direct"}) == "gold"
    assert _color({"automorphic", "maximal"}) == "palegreen"
    assert _color({"maximal"}) == "lightcoral"
    assert _color(set()) == "white"


# Closure of the enumerated theories under join, meet and Aut(G): a theory
# missing from an enumeration shows as a missing join, meet or image.

def _closure_records(which, enumerated):
    return enumerated.theories(
        GroupSpec.c2_cubed() if which == "c2cubed" else GroupSpec.cp_c2_c2(which))


@pytest.mark.parametrize("side", ["classes", "charparts"])
@pytest.mark.parametrize("which", ["c2cubed", 3, 5, 7, 13])
def test_enumerated_theories_are_closed_under_join_and_meet(which, side, enumerated):
    records = _closure_records(which, enumerated)
    missing = missing_joins([getattr(r.theory, side) for r in records])
    assert not missing, f"{len(missing)} joins of {side} missing, first: {missing[0]}"


@pytest.mark.parametrize("which", ["c2cubed", 3, 5, 7, 13])
def test_automorphic_theories_are_closed_under_join_and_meet(which, enumerated):
    # the orbit theories form a sublattice: the join and the meet of two
    # are orbit theories again (at (C_2)^3 every theory is one)
    records = _closure_records(which, enumerated)
    orbit = [r.theory for r in records if "automorphic" in r.tags]
    assert len(orbit) > 1
    for side in ("classes", "charparts"):
        missing = missing_joins([getattr(t, side) for t in orbit])
        assert not missing, f"{len(missing)} joins of {side} missing, first: {missing[0]}"


@pytest.mark.parametrize("which", ["c2cubed", 3, 5, 7, 13])
def test_enumerated_theories_are_closed_under_automorphisms(which, enumerated):
    records = _closure_records(which, enumerated)
    missing = missing_images([r.theory for r in records])
    assert not missing, f"{len(missing)} images missing, first: {missing[0]}"
