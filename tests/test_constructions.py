"""Automorphism-orbit, direct-product, and wedge constructions."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from supercharacters import (
    GroupSpec,
    Partition,
    WedgeSpec,
    all_theories,
    aut_generating_subset,
    automorphism_witness,
    canonical_key,
    direct_decompositions,
    direct_product,
    from_automorphisms,
    induced_character_partition,
    maximal_theory,
    minimal_theory,
    refines,
    restriction,
    theory_from_classes,
    verify,
    wedge,
    wedge_decompositions,
)
from supercharacters.groups import _pull_back

from golden import GOLDEN_ORBIT_THEORIES

SRC = Path(__file__).resolve().parent.parent / "src"


def _blocks_as_exps(t):
    g = t.group
    return [[g.elements[i] for i in b] for b in t.classes.blocks]


def test_no_generators_gives_minimal():
    g = GroupSpec.cp_c2_c2(5)
    assert from_automorphisms(g, []) == minimal_theory(g)


def test_full_automorphism_group_of_cp_gives_maximal():
    g = GroupSpec.cp(7)
    gens = [g.aut_from_parts(3, ())]  # 3 generates the units mod 7
    assert from_automorphisms(g, gens) == maximal_theory(g)


@pytest.mark.parametrize("case", GOLDEN_ORBIT_THEORIES, ids=lambda c: c["name"])
def test_golden_orbit_theories(case):
    g = GroupSpec.cp_c2_c2(case["p"])
    t = from_automorphisms(g, [g.aut_from_parts(case["u"], case["mat"])])
    assert _blocks_as_exps(t) == [[tuple(e) for e in b] for b in case["classes"]]
    assert verify(t) is None


def test_cycle_orientations_differ():
    g = GroupSpec.cp_c2_c2(7)
    fwd = from_automorphisms(g, [g.aut_from_parts(2, ((0, 1), (1, 1)))])
    rev = from_automorphisms(g, [g.aut_from_parts(2, ((1, 1), (1, 0)))])
    assert canonical_key(fwd) != canonical_key(rev)
    assert len(fwd.classes) == len(rev.classes) == 10


def test_orbit_generators_must_act_on_same_group():
    g, h = GroupSpec.cp_c2_c2(3), GroupSpec.cp_c2_c2(5)
    with pytest.raises(ValueError):
        from_automorphisms(g, [h.aut_from_parts(2, ((1, 0), (0, 1)))])


def _pair(g, order_first):
    return next(
        (h1, h2) for h1, h2 in g.complementary_pairs() if h1.order == order_first
    )


def test_direct_product_of_maximals():
    g = GroupSpec.cp_c2_c2(5)
    h1, h2 = _pair(g, 5)  # C_5 with the Klein subgroup
    e1, e2 = g.subgroup_embedding(h1), g.subgroup_embedding(h2)
    t = direct_product(maximal_theory(e1.group), maximal_theory(e2.group), h1, h2)
    assert len(t.classes) == 4
    assert verify(t) is None
    sizes = sorted(len(b) for b in t.classes.blocks)
    assert sizes == [1, 3, 4, 12]


def test_direct_product_restricts_to_factors():
    g = GroupSpec.cp_c2_c2(3)
    for h1, h2 in g.complementary_pairs():
        e1, e2 = g.subgroup_embedding(h1), g.subgroup_embedding(h2)
        for r1 in all_theories(e1.group):
            for r2 in all_theories(e2.group):
                t = direct_product(r1.theory, r2.theory, h1, h2)
                assert restriction(t, h1) == r1.theory
                assert restriction(t, h2) == r2.theory


def test_direct_product_rejects_bad_pairs():
    g = GroupSpec.cp_c2_c2(5)
    h1, h2 = _pair(g, 5)
    sub5 = g.subgroup_embedding(h1).group
    with pytest.raises(ValueError):
        direct_product(maximal_theory(sub5), maximal_theory(sub5), h1, h1)
    with pytest.raises(ValueError):
        direct_product(maximal_theory(sub5), maximal_theory(sub5), h1, h2)


def test_wedge_of_minimals_is_not_minimal():
    g = GroupSpec.cp_c2_c2(3)
    n = next(h for h in g.all_subgroups if h.order == 6)
    emb, quot = g.subgroup_embedding(n), g.quotient(n)
    t = wedge(WedgeSpec(n, minimal_theory(emb.group), minimal_theory(quot.group)))
    assert verify(t) is None
    assert len(t.classes) == 7
    sizes = sorted(len(b) for b in t.classes.blocks)
    assert sizes == [1, 1, 1, 1, 1, 1, 6]
    assert t != minimal_theory(g)


def test_wedge_needs_proper_nontrivial_subgroup():
    g = GroupSpec.cp_c2_c2(3)
    full = next(h for h in g.all_subgroups if h.order == g.order)
    emb, styles = g.subgroup_embedding(full), g.quotient(full)
    with pytest.raises(ValueError):
        wedge(WedgeSpec(full, minimal_theory(emb.group), minimal_theory(styles.group)))


def test_wedge_rejects_mismatched_theories():
    g = GroupSpec.cp_c2_c2(3)
    n = next(h for h in g.all_subgroups if h.order == 6)
    with pytest.raises(ValueError):
        wedge(WedgeSpec(n, minimal_theory(GroupSpec.cp(3)), minimal_theory(GroupSpec.klein())))


def test_character_side_formula_matches_derived_side():
    # across every wedge datum of the p=3 group, the character partition
    # wedge builds from inflation and restriction agrees with the one
    # induced from its classes
    g = GroupSpec.cp_c2_c2(3)
    checked = 0
    for n in g.all_subgroups:
        if not 1 < n.order < g.order:
            continue
        emb, quot = g.subgroup_embedding(n), g.quotient(n)
        for r1 in all_theories(emb.group):
            for r2 in all_theories(quot.group):
                t = wedge(WedgeSpec(n, r1.theory, r2.theory))
                assert t.charparts == induced_character_partition(g, t.classes)
                checked += 1
    assert checked == 62


@pytest.mark.parametrize("g", [
    GroupSpec.klein(), GroupSpec.c2_cubed(), GroupSpec.cp_c2(7), GroupSpec.cp_c2_c2(5),
], ids=str)
def test_restriction_and_inflation_match_pairing_parts(g):
    # _pull_back along an embedding restricts characters, along a quotient
    # map it inflates them; the reference reads each character off its
    # values at every element through pairing_parts
    def pulled(chi, target, images, source):
        values = [target.pairing_parts(chi, target.elements[y]) for y in images]
        return [c for c, psi in enumerate(source.elements)
                if all(source.pairing_parts(psi, x) == v
                       for x, v in zip(source.elements, values))]

    for s in g.all_subgroups:
        emb, q = g.subgroup_embedding(s), g.quotient(s)
        restrict = _pull_back(emb.to_parent, emb.group, g)
        assert [[r] for r in restrict] == [
            pulled(chi, g, emb.to_parent, emb.group) for chi in g.elements]
        inflate = _pull_back(q.projection, g, q.group)
        assert [[c] for c in inflate] == [
            pulled(chi, q.group, q.projection, g) for chi in q.group.elements]


def test_wedge_charparts_shape():
    # inflated blocks keep their size, fiber unions scale by |N|
    g = GroupSpec.cp_c2_c2(5)
    n = next(h for h in g.all_subgroups if h.order == 4)
    emb, quot = g.subgroup_embedding(n), g.quotient(n)
    inner, outer = maximal_theory(emb.group), maximal_theory(quot.group)
    t = wedge(WedgeSpec(n, inner, outer))
    sizes = sorted(len(b) for b in t.charparts.blocks)
    assert sizes == sorted([1, 4, 3 * 5])


def test_decomposition_helpers_on_extremes():
    g = GroupSpec.cp_c2_c2(3)
    mini, maxi = minimal_theory(g), maximal_theory(g)
    assert automorphism_witness(mini) == ()
    # no automorphism orbit merges elements of different orders, so the
    # maximal theory is neither automorphic nor a direct product nor a wedge
    assert automorphism_witness(maxi) is None
    assert len(direct_decompositions(mini)) == len(g.complementary_pairs())
    assert direct_decompositions(maxi) == []
    assert wedge_decompositions(maxi) == []
    assert wedge_decompositions(mini) == []
    # on the Klein group, where every nonidentity element has order 2, the
    # maximal theory is an orbit theory
    assert automorphism_witness(maximal_theory(GroupSpec.klein())) is not None


def test_golden_theory_decomposes_as_predicted():
    case = GOLDEN_ORBIT_THEORIES[0]
    g = GroupSpec.cp_c2_c2(case["p"])
    t = from_automorphisms(g, [g.aut_from_parts(case["u"], case["mat"])])
    assert automorphism_witness(t) is not None
    assert direct_decompositions(t) == []
    assert wedge_decompositions(t) == []
    # restriction to the p part merges all nonidentity elements
    a = next(h for h in g.all_subgroups if h.order == 5)
    r = restriction(t, a)
    assert [list(b) for b in r.classes.blocks] == [[0], [1, 2, 3, 4]]
    # the half-orbit refinement comes from inversion acting on the p part alone
    cp = GroupSpec.cp(5)
    half = from_automorphisms(cp, [cp.aut_from_parts(4, ())])
    assert [list(b) for b in half.classes.blocks] == [[0], [1, 4], [2, 3]]


def test_golden_theory_refines_product_of_restrictions():
    case = GOLDEN_ORBIT_THEORIES[0]
    g = GroupSpec.cp_c2_c2(case["p"])
    t = from_automorphisms(g, [g.aut_from_parts(case["u"], case["mat"])])
    h1, h2 = _pair(g, 5)
    prod = direct_product(restriction(t, h1), restriction(t, h2), h1, h2)
    assert refines(t, prod)
    assert not refines(prod, t)


def test_wedge_decompositions_of_wedge_contain_its_subgroup():
    g = GroupSpec.cp_c2_c2(3)
    n = next(h for h in g.all_subgroups if h.order == 6)
    emb, quot = g.subgroup_embedding(n), g.quotient(n)
    t = wedge(WedgeSpec(n, minimal_theory(emb.group), minimal_theory(quot.group)))
    assert n.members in {h.members for h in wedge_decompositions(t)}


def _linear_witness(t, candidates):
    """The search automorphism_witness replaced: the first subgroup of Aut(G),
    in subgroups_of_aut() order, whose orbit theory has t's canonical key."""
    key = canonical_key(t)
    for orbit_key, gens in candidates:
        if orbit_key == key:
            return gens
    return None


@pytest.mark.parametrize("which", ["klein", "cpc2c2-3", "c2cubed"])
def test_witness_index_matches_linear_search(
    which, klein_records, records_by_p, c2cubed_records
):
    records = {
        "klein": klein_records,
        "cpc2c2-3": records_by_p[3][0],
        "c2cubed": c2cubed_records,
    }[which]
    g = records[0].theory.group
    candidates = []
    for sub in g.subgroups_of_aut():
        gens = aut_generating_subset(sub)
        candidates.append((canonical_key(from_automorphisms(g, gens)), gens))
    found = 0
    for rec in records:
        want = _linear_witness(rec.theory, candidates)
        assert automorphism_witness(rec.theory) == want
        found += want is not None
    # every theory of the Klein group and of (C_2)^3 is an orbit theory;
    # the maximal theory of C_3 x C_2 x C_2 is not
    if which == "cpc2c2-3":
        assert 0 < found < len(records)
    else:
        assert found == len(records)


def test_lattice_and_witness_index_are_built_on_first_use():
    code = (
        "from supercharacters import constructions, groups\n"
        "caches = (groups._gl2_table, groups._cached_aut_subgroups,"
        " constructions._witness_index)\n"
        "assert all(f.cache_info().currsize == 0 for f in caches)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
