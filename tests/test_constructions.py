"""Automorphism-orbit, direct-product, and wedge constructions."""

import os
import subprocess
import sys
from itertools import chain
from pathlib import Path

import pytest

from supercharacters import (
    GroupSpec,
    Partition,
    Theory,
    all_theories,
    aut_generating_subset,
    automorphism_witness,
    canonical_key,
    direct_decompositions,
    direct_product,
    divisor_count,
    factor_pm1,
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
from supercharacters import constructions, groups, theories
from supercharacters.groups import AutMap, _pull_back

from golden import GOLDEN_ORBIT_THEORIES

SRC = Path(__file__).resolve().parent.parent / "src"


def _blocks_as_exps(t):
    g = t.group
    return [[g.elements[i] for i in b] for b in t.classes.blocks]


def test_no_generators_gives_minimal():
    g = GroupSpec.cp_c2_c2(5)
    t = from_automorphisms(g, [])
    assert verify(t) is None
    assert t == minimal_theory(g)


def test_full_automorphism_group_of_cp_gives_maximal():
    g = GroupSpec.cp(7)
    gens = [g.aut_from_parts(3, ())]  # 3 generates the units mod 7
    t = from_automorphisms(g, gens)
    assert verify(t) is None
    assert t == maximal_theory(g)


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
    assert verify(fwd) is None and verify(rev) is None
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


def test_direct_product_restricts_to_factors(enumerated):
    g = GroupSpec.cp_c2_c2(3)
    for h1, h2 in g.complementary_pairs():
        e1, e2 = g.subgroup_embedding(h1), g.subgroup_embedding(h2)
        for r1 in enumerated.theories(e1.group):
            for r2 in enumerated.theories(e2.group):
                t = direct_product(r1.theory, r2.theory, h1, h2)
                assert verify(t) is None
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
    t = wedge(n, minimal_theory(emb.group), minimal_theory(quot.group))
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
        wedge(full, minimal_theory(emb.group), minimal_theory(styles.group))


def test_wedge_rejects_mismatched_theories():
    g = GroupSpec.cp_c2_c2(3)
    n = next(h for h in g.all_subgroups if h.order == 6)
    with pytest.raises(ValueError):
        wedge(n, minimal_theory(GroupSpec.cp(3)), minimal_theory(GroupSpec.klein()))


def test_character_side_formula_matches_derived_side(enumerated):
    # across every wedge datum of the p=3 group, the character partition
    # wedge builds from inflation and restriction agrees with the one
    # induced from its classes
    g = GroupSpec.cp_c2_c2(3)
    checked = 0
    for n in g.all_subgroups:
        if not 1 < n.order < g.order:
            continue
        emb, quot = g.subgroup_embedding(n), g.quotient(n)
        for r1 in enumerated.theories(emb.group):
            for r2 in enumerated.theories(quot.group):
                t = wedge(n, r1.theory, r2.theory)
                assert verify(t) is None
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
    t = wedge(n, inner, outer)
    assert verify(t) is None
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


def _hendrickson_pairs(t):
    """Hendrickson's direct-product test in full, from the multiplication
    table: the complementary pairs (H1, H2) of unions of classes with as
    many classes as pairs of a class inside H1 and a class inside H2, and
    every product K1*K2 inside one class."""
    g = t.group
    blocks, block_of, mt = t.classes.blocks, t.classes.block_of, g.mult_table
    out = []
    for h1, h2 in g.complementary_pairs():
        inside = [[blocks[b] for b in {block_of[i] for i in h.members}] for h in (h1, h2)]
        if any(sorted(chain.from_iterable(k)) != sorted(h.members)
               for h, k in zip((h1, h2), inside)):
            continue
        k1, k2 = inside
        if len(k1) * len(k2) == len(blocks) and all(
                len({block_of[mt[x][y]] for x in a for y in b}) == 1 for a in k1 for b in k2):
            out.append((h1, h2))
    return out


def _count_matches_product_test(ts):
    """Asserts that direct_decompositions keeps on each theory exactly the
    pairs of the full test, and that some theories but not all have one."""
    kept = 0
    for t in ts:
        pairs = _hendrickson_pairs(t)
        assert direct_decompositions(t) == pairs
        kept += bool(pairs)
    assert 0 < kept < len(ts)


@pytest.mark.parametrize("g", [
    *map(GroupSpec.cp_c2_c2, (3, 5, 13, 19)), GroupSpec.cp_c2(3), GroupSpec.cp_c2(5),
    GroupSpec.klein(), GroupSpec.c2_cubed(),
], ids=str)
def test_direct_decompositions_match_the_product_test(g, enumerated):
    # on a theory the class count implies the product condition, so the
    # count alone keeps exactly the pairs the full test keeps
    _count_matches_product_test([rec.theory for rec in enumerated.theories(g)])


def test_direct_decompositions_match_the_product_test_on_blind_output(enumerated):
    _count_matches_product_test(enumerated.search(GroupSpec.cp_c2_c2(19), budget=10**6))


@pytest.mark.parametrize("g", [GroupSpec.cp_c2_c2(13), GroupSpec.c2_cubed()], ids=str)
def test_direct_decompositions_form_no_product(g, enumerated, monkeypatch):
    # once the invariant subgroups and the complementary pairs are known,
    # the count needs no product of two elements
    ts = [rec.theory for rec in enumerated.theories(g)]
    pairs = list(map(direct_decompositions, ts))
    assert any(pairs)

    def no_product(self, i, j):
        raise AssertionError("direct_decompositions formed a product")

    monkeypatch.setattr(GroupSpec, "mul_idx", no_product)
    assert list(map(direct_decompositions, ts)) == pairs


def test_golden_theory_decomposes_as_predicted():
    case = GOLDEN_ORBIT_THEORIES[0]
    g = GroupSpec.cp_c2_c2(case["p"])
    t = from_automorphisms(g, [g.aut_from_parts(case["u"], case["mat"])])
    assert verify(t) is None
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
    assert verify(half) is None
    assert [list(b) for b in half.classes.blocks] == [[0], [1, 4], [2, 3]]


def test_golden_theory_refines_product_of_restrictions():
    case = GOLDEN_ORBIT_THEORIES[0]
    g = GroupSpec.cp_c2_c2(case["p"])
    t = from_automorphisms(g, [g.aut_from_parts(case["u"], case["mat"])])
    h1, h2 = _pair(g, 5)
    prod = direct_product(restriction(t, h1), restriction(t, h2), h1, h2)
    assert verify(t) is None and verify(prod) is None
    assert refines(t, prod)
    assert not refines(prod, t)


def test_wedge_decompositions_of_wedge_contain_its_subgroup():
    g = GroupSpec.cp_c2_c2(3)
    n = next(h for h in g.all_subgroups if h.order == 6)
    emb, quot = g.subgroup_embedding(n), g.quotient(n)
    t = wedge(n, minimal_theory(emb.group), minimal_theory(quot.group))
    assert verify(t) is None
    assert n.members in {h.members for h in wedge_decompositions(t)}


def test_constructions_do_not_verify(monkeypatch):
    # verification is the caller's: the enumerator's gate, or verify itself
    def refuse(t):
        raise AssertionError("a construction called verify")

    monkeypatch.setattr(theories, "verify", refuse)
    g = GroupSpec.cp_c2_c2(5)
    from_automorphisms(g, [g.aut_from_parts(2, ((0, 1), (1, 1)))])
    h1, h2 = _pair(g, 5)
    e1, e2 = g.subgroup_embedding(h1), g.subgroup_embedding(h2)
    direct_product(maximal_theory(e1.group), minimal_theory(e2.group), h1, h2)
    n = next(h for h in g.all_subgroups if h.order == 10)
    emb, quot = g.subgroup_embedding(n), g.quotient(n)
    wedge(n, minimal_theory(emb.group), maximal_theory(quot.group))


@pytest.mark.fresh("enumerates with Partition.__init__ patched")
def test_constructions_do_not_check_partitions(monkeypatch):
    # the Partition constructor checks data from outside; the partitions the
    # program builds itself are partitions by construction and skip it,
    # through Partition._canonical
    def refuse(self, size, blocks):
        raise AssertionError("a producer called the Partition constructor")

    monkeypatch.setattr(Partition, "__init__", refuse)
    for group in (GroupSpec.cp_c2_c2(5), GroupSpec.c2_cubed()):
        assert all(verify(r.theory) is None for r in all_theories(group))
    g = GroupSpec.cp_c2_c2(5)
    orbit = from_automorphisms(g, [g.aut_from_parts(2, ((0, 1), (1, 1)))])
    h1, h2 = _pair(g, 5)
    e1, e2 = g.subgroup_embedding(h1), g.subgroup_embedding(h2)
    direct = direct_product(maximal_theory(e1.group), minimal_theory(e2.group), h1, h2)
    n = next(h for h in g.all_subgroups if h.order == 10)
    emb, quot = g.subgroup_embedding(n), g.quotient(n)
    wedged = wedge(n, minimal_theory(emb.group), maximal_theory(quot.group))
    built = [orbit, direct, wedged, minimal_theory(g), maximal_theory(g),
             theory_from_classes(g, orbit.classes), restriction(wedged, n)]
    assert all(verify(t) is None for t in built)


def test_built_partitions_equal_the_checked_path(enumerated):
    # every partition the producers build unchecked, and every witness-index
    # key, is what the checked constructor makes of its own blocks, so the
    # trust hides no producer bug.  These are the groups of the enumerate
    # pins.
    primes = (3, 5, 7, 11, 13)
    by_group = [[r.theory for r in enumerated.theories(g)] for g in (
        GroupSpec.klein(), GroupSpec.c2_cubed(),
        *(f(p) for f in (GroupSpec.cp_c2, GroupSpec.cp_c2_c2, GroupSpec.cp) for p in primes))]
    assert len(by_group) == 17
    for ts in by_group:
        g = ts[0].group
        for part in (part for t in ts for part in (t.classes, t.charparts)):
            assert part == Partition(part.size, part.blocks), part.blocks
        for key in constructions._witness_index(g):
            assert key == Partition(g.order, key).blocks, key


def test_cached_factor_maps_check_every_call():
    # the pair and subgroup checks run inside the per-factor caches, and
    # lru_cache stores no exception: once valid calls have filled the
    # caches, every bad call still raises, with its own message
    g = GroupSpec.cp_c2_c2(5)
    h1, h2 = _pair(g, 5)
    sub1, sub2 = (g.subgroup_embedding(h).group for h in (h1, h2))
    n = next(h for h in g.all_subgroups if h.order == 10)
    inner, outer = g.subgroup_embedding(n).group, g.quotient(n).group
    full = next(h for h in g.all_subgroups if h.order == g.order)
    other = _pair(GroupSpec.cp_c2_c2(3), 4)[1]
    direct_product(maximal_theory(sub1), minimal_theory(sub2), h1, h2)
    wedge(n, minimal_theory(inner), maximal_theory(outer))
    bad_calls = [
        (lambda: direct_product(maximal_theory(sub1), maximal_theory(sub1), h1, h1),
         "subgroups do not form a complementary pair"),
        (lambda: direct_product(maximal_theory(sub1), maximal_theory(sub2), h1, other),
         "subgroups live in different groups"),
        (lambda: direct_product(maximal_theory(sub2), maximal_theory(sub1), h1, h2),
         "factor theories do not match the embedded subgroups"),
        (lambda: wedge(full, minimal_theory(g), minimal_theory(GroupSpec.of(()))),
         "wedge needs a proper nontrivial subgroup"),
        (lambda: wedge(n, maximal_theory(outer), minimal_theory(inner)),
         "inner/outer theories do not match the subgroup and quotient"),
    ]
    for _ in range(2):
        for call, message in bad_calls:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message
    # a valid call makes one lookup, which hits
    for cache, call in ((constructions._pair_maps,
                         lambda: direct_product(maximal_theory(sub1), minimal_theory(sub2), h1, h2)),
                        (constructions._wedge_maps,
                         lambda: wedge(n, minimal_theory(inner), maximal_theory(outer)))):
        hits, misses = cache.cache_info()[:2]
        call()
        assert cache.cache_info()[:2] == (hits + 1, misses)


def _linear_witness(t, candidates):
    """The search automorphism_witness replaced: the first subgroup of Aut(G),
    in subgroups_of_aut() order, whose orbit theory has t's canonical key."""
    key = canonical_key(t)
    for orbit_key, gens in candidates:
        if orbit_key == key:
            return gens
    return None


@pytest.mark.parametrize("which", ["klein", "cpc2c2-3", "c2cubed"])
def test_witness_index_matches_linear_search(which, enumerated):
    records = enumerated.theories({
        "klein": GroupSpec.klein(),
        "cpc2c2-3": GroupSpec.cp_c2_c2(3),
        "c2cubed": GroupSpec.c2_cubed(),
    }[which])
    g = records[0].theory.group
    auts = g.aut_group()
    candidates = []
    for sub in g.subgroups_of_aut():
        gens = tuple(auts[i] for i in aut_generating_subset(g, sub))
        t = from_automorphisms(g, gens)
        assert verify(t) is None
        candidates.append((canonical_key(t), gens))
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


@pytest.mark.parametrize("p", [3, 5, 7, 13, 19, 37])
def test_automorphic_term_splits_into_three_goursat_classes(p):
    # A subgroup S of Aut(G) = U x GL(2, 2) has m = |B| / |B0|, B its image
    # in GL(2, 2) and B0 its part with unit 1 (m is 1, 2 or 3).  With
    # p - 1 = 2^k 3^l n, the orbit theories given by some S with m = 1
    # number 5 d(p-1), those given only with m = 2 number 3k d(3^l n) and
    # those only with m = 3 number 2l d(2^k n): the three summands of the
    # automorphic term, with nothing left over.
    g = GroupSpec.cp_c2_c2(p)
    auts = g.aut_group()
    ms_by_theory = {}
    for sub in g.subgroups_of_aut():
        # index 6 * (u - 1) + a stands for unit u and matrix a of GL(2, 2)
        assert all(auts[i].gen_images[0][0] == i // 6 + 1 for i in sub)
        image, kernel = {i % 6 for i in sub}, [i for i in sub if i // 6 == 0]
        assert len(image) % len(kernel) == 0
        t = from_automorphisms(g, [auts[i] for i in aut_generating_subset(g, sub)])
        ms_by_theory.setdefault(t.classes.blocks, set()).add(len(image) // len(kernel))
    k, l, n = factor_pm1(p)
    d = divisor_count
    classes = {1: 5 * d(p - 1), 2: 3 * k * d(3**l * n), 3: 2 * l * d(2**k * n)}
    got = dict.fromkeys(classes, 0)
    for ms in ms_by_theory.values():
        # None, a key outside classes, stands for a theory in no class
        label = 1 if 1 in ms else min(ms) if len(ms) == 1 else None
        got[label] = got.get(label, 0) + 1
    assert got == classes


def test_witness_index_builds_an_aut_map_only_per_reported_generator():
    # the walk closes tuples of aut_group() indices; an AutMap is built only
    # for a generator the walk reports, and once, not for each of the 168
    # automorphisms of (C_2)^3
    g = GroupSpec.c2_cubed()
    groups._aut_map.cache_clear()
    constructions._witness_index.cache_clear()
    index = constructions._witness_index(g)
    # _aut_map builds each map it is asked for, once: one cache miss each
    n_built = groups._aut_map.cache_info().misses
    reported = {i for sub in g.subgroups_of_aut() for i in aut_generating_subset(g, sub)}
    assert len(index) == 100
    assert n_built == len(reported) < len(g.aut_group())
    auts = g.aut_group()
    assert {a for gens in index.values() for a in gens} <= {auts[i] for i in reported}


def test_witness_index_builds_only_the_class_side(monkeypatch):
    # classify reads class blocks and generators; every orbit theory is
    # verified at the enumerator's gate, so the index verifies nothing
    def refuse(*args):
        raise AssertionError("the witness index left the class side")

    monkeypatch.setattr(theories, "verify", refuse)
    monkeypatch.setattr(AutMap, "char_perm", property(refuse))
    monkeypatch.setattr(Theory, "__init__", refuse)
    for g in (GroupSpec.c2_cubed(), GroupSpec.cp_c2_c2(5)):
        constructions._witness_index.cache_clear()
        assert len(constructions._witness_index(g)) > 1


def test_lattice_and_witness_index_are_built_on_first_use():
    code = (
        "from supercharacters import constructions, groups\n"
        "caches = (groups._gl2_table, groups.GroupSpec.subgroups_of_aut,"
        " groups._aut_map, constructions._witness_index)\n"
        "assert all(f.cache_info().currsize == 0 for f in caches)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
