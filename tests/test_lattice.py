"""Refinement-order edges and DOT rendering."""

import random
import re

import pytest

from supercharacters import GroupSpec, all_theories, lattice, refines
from supercharacters.lattice import _color, lattice_dot, refinement_edges
from supercharacters.theories import canonical_key, sort_key


def test_chain_for_cp5():
    records = all_theories(GroupSpec.cp(5))
    ts = sorted((r.theory for r in records), key=sort_key)
    # 2-class maximal, 3-class halving, 5-class minimal: a chain
    assert [len(t.classes) for t in ts] == [2, 3, 5]
    assert refinement_edges(ts) == [(1, 0), (2, 1)]


def test_klein_diamond():
    records = all_theories(GroupSpec.klein())
    ts = [r.theory for r in records]
    edges = refinement_edges(ts)
    assert sorted(edges) == [(1, 0), (2, 0), (3, 0), (4, 1), (4, 2), (4, 3)]


def test_edges_are_covers():
    records = all_theories(GroupSpec.cp_c2(3))
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


@pytest.fixture(scope="module")
def cp_c2_c2_13_theories():
    return [r.theory for r in all_theories(GroupSpec.cp_c2_c2(13))]


def test_edges_match_pairwise_refines(cp_c2_c2_13_theories):
    ts = sorted(cp_c2_c2_13_theories, key=sort_key)
    assert len(ts) == 211
    assert refinement_edges(ts) == _covers_by_refines(ts)


def test_edges_in_rounds_of_elements(cp_c2_c2_13_theories, monkeypatch):
    # 52 elements in rounds of 5: each round drops the pairs that fail on
    # its elements, and the last round is short
    monkeypatch.setattr(lattice, "_CHUNK", 5)
    ts = sorted(cp_c2_c2_13_theories, key=sort_key)
    assert refinement_edges(ts) == _covers_by_refines(ts)


def test_edges_past_one_round():
    ts = sorted((r.theory for r in all_theories(GroupSpec.cp_c2_c2(17))), key=sort_key)
    assert ts[0].group.order > lattice._CHUNK
    assert refinement_edges(ts) == _covers_by_refines(ts)


def test_dot_sorts_once(monkeypatch):
    records = all_theories(GroupSpec.cp_c2(5))
    calls = []

    def counted(t):
        calls.append(t)
        return sort_key(t)

    monkeypatch.setattr(lattice, "sort_key", counted)
    lattice_dot(records)
    assert len(calls) == len(records)


def test_edges_reject_a_duplicate_in_shuffled_order(cp_c2_c2_13_theories):
    # two copies of one theory would refine each other, cover each other
    # and hide every cover through them, so a repeat is refused and named
    rng = random.Random(13)
    dup = cp_c2_c2_13_theories[57]
    ts = cp_c2_c2_13_theories + [dup]
    rng.shuffle(ts)
    with pytest.raises(ValueError, match=f"^theory {re.escape(canonical_key(dup))} is repeated$"):
        refinement_edges(ts)
    ts.remove(dup)
    assert refinement_edges(ts) == _covers_by_refines(sorted(ts, key=sort_key))
    records = all_theories(GroupSpec.c2_cubed())[:3]
    with pytest.raises(ValueError, match="is repeated"):
        lattice_dot(records + records[1:2])


def test_edges_reject_mixed_groups():
    ts = [r.theory for r in all_theories(GroupSpec.klein())]
    ts += [r.theory for r in all_theories(GroupSpec.cp(3))]
    with pytest.raises(ValueError, match="theories live on different groups"):
        refinement_edges(ts)


def test_dot_output_shape():
    records = all_theories(GroupSpec.klein())
    dot = lattice_dot(records)
    assert dot.startswith("digraph refinement {\n  rankdir=BT;")
    assert dot.endswith("}\n")
    assert dot.count("fillcolor") == 5
    assert dot == lattice_dot(list(reversed(records)))


def test_tag_colors():
    assert _color({"wedge", "automorphic"}) == "lightblue"
    assert _color({"direct", "automorphic"}) == "orange"
    assert _color({"direct"}) == "gold"
    assert _color({"automorphic", "maximal"}) == "palegreen"
    assert _color({"maximal"}) == "lightcoral"
    assert _color(set()) == "white"
