"""Group models, characters, subgroup machinery, and automorphism actions."""

import ast
import hashlib
import itertools
import random
import re
from functools import lru_cache
from pathlib import Path

import pytest

from supercharacters import (
    AutMap,
    CycInt,
    GroupSpec,
    aut_generating_subset,
)
from supercharacters import groups
from supercharacters.groups import _gl2_matrices, _gl2_table, _perm_table, _subgroup_lattice

from subgroup_helpers import annihilator, apply_exps, generated_subgroup, identity_aut


def test_family_construction():
    assert GroupSpec.cp(5).factors == (5,)
    assert GroupSpec.klein().factors == (2, 2)
    assert GroupSpec.cp_c2(7).factors == (7, 2)
    assert GroupSpec.c2_cubed().factors == (2, 2, 2)
    assert GroupSpec.cp_c2_c2(3).factors == (3, 2, 2)
    assert GroupSpec.cp_c2_c2(5).order == 20
    # interning: equal specs are the same object
    assert GroupSpec.cp_c2_c2(5) is GroupSpec.of((5, 2, 2))


@pytest.mark.parametrize("family,p,expect", [
    ("Cp", 7, (7,)), ("Klein", None, (2, 2)), ("CpC2", 3, (3, 2)),
    ("C2cubed", None, (2, 2, 2)), ("CpC2C2", 11, (11, 2, 2)),
])
def test_from_family(family, p, expect):
    g = GroupSpec.from_family(family, p)
    assert g.factors == expect
    assert g.family == family


@pytest.mark.parametrize("factors", [(4,), (9, 2), (2, 3), (3, 3), (2, 2, 2, 2), (3, 2, 2, 2),
                                     # equal to (3, 2) and (2, 2), but not ints
                                     (3.0, 2), (2, 2.0), ("3",), (True, 2)])
def test_invalid_factors(factors):
    with pytest.raises(ValueError):
        GroupSpec.of(factors)


def test_unknown_family():
    with pytest.raises(ValueError):
        GroupSpec.from_family("dihedral", 5)
    with pytest.raises(ValueError):
        GroupSpec.from_family("Cp", None)
    # 2 is not an odd prime: (C_2)^3 is not C_p x C_2 x C_2 at p = 2
    with pytest.raises(ValueError, match="odd prime"):
        GroupSpec.from_family("CpC2C2", 2)
    with pytest.raises(ValueError, match="does not apply"):
        GroupSpec.from_family("Klein", 3)


def test_prime_factories_need_an_odd_prime():
    # p = 2 must not give C_2, the Klein group or (C_2)^3
    for factory in (GroupSpec.cp, GroupSpec.cp_c2, GroupSpec.cp_c2_c2):
        for p in (1, 2, 9):
            with pytest.raises(ValueError, match="odd prime"):
                factory(p)
        # 7.0 would build factors (7.0, 2, 2); True is an int but no number
        for p in (7.0, "7", True):
            with pytest.raises(ValueError, match="p must be an integer"):
                factory(p)
    # GroupSpec itself names a p that is not prime, and an odd factor that
    # does not lead
    with pytest.raises(ValueError, match=r"^p must be an odd prime, got 9$"):
        GroupSpec.of((9, 2, 2))
    with pytest.raises(ValueError, match=r"^odd factor must be a leading odd prime, got \(2, 3\)$"):
        GroupSpec.of((2, 3))
    assert GroupSpec.of((2,)).family == "C2"


def test_element_indexing():
    g = GroupSpec.cp_c2_c2(3)
    assert g.order == 12
    assert g.elements[0] == (0, 0, 0)
    assert g.elements[1] == (0, 0, 1)
    assert g.index_of((2, 1, 1)) == g.order - 1
    for i in range(g.order):
        assert g.index_of(g.elements[i]) == i
    assert g.index_of((5, 3, -1)) == g.index_of((2, 1, 1))


def test_group_laws_exhaustive_klein():
    g = GroupSpec.klein()
    for i in range(4):
        assert g.mul_idx(i, 0) == i
        assert g.mult_table[i].count(0) == 1
        for j in range(4):
            assert g.mul_idx(i, j) == g.mul_idx(j, i)
            for k in range(4):
                assert g.mul_idx(g.mul_idx(i, j), k) == g.mul_idx(i, g.mul_idx(j, k))


@pytest.mark.parametrize("p", [3, 5])
def test_group_laws_random(p):
    g = GroupSpec.cp_c2_c2(p)
    rng = random.Random(7 * p)
    for _ in range(60):
        i, j, k = (rng.randrange(g.order) for _ in range(3))
        assert g.mul_idx(i, 0) == i
        assert g.mult_table[i].count(0) == 1
        assert g.mul_idx(i, j) == g.mul_idx(j, i)
        assert g.mul_idx(g.mul_idx(i, j), k) == g.mul_idx(i, g.mul_idx(j, k))


def test_element_orders():
    g = GroupSpec.cp_c2_c2(5)
    orders = sorted(g.order_of_index(i) for i in range(g.order))
    assert orders.count(1) == 1
    assert orders.count(2) == 3
    assert orders.count(5) == 4
    assert orders.count(10) == 12
    assert g.order_of_index(g.index_of((1, 1, 1))) == 10


def test_character_values():
    g = GroupSpec.cp_c2_c2(5)
    chi = (1, 0, 0)
    assert g.char_value(chi, (1, 0, 0)) == CycInt.root_power(5, 1)
    assert g.char_value(chi, (0, 1, 0)) == CycInt.one(5)
    sign_char = (0, 0, 1)
    assert g.char_value(sign_char, (0, 0, 1)) == CycInt.from_int(5, -1)
    assert g.char_value(sign_char, (0, 1, 0)) == CycInt.one(5)
    mixed = (2, 1, 0)
    assert g.char_value(mixed, (1, 1, 1)) == -CycInt.root_power(5, 2)
    # exponents are reduced first, as in index_of
    assert g.char_value((7, 3, -2), (6, -1, 1)) == -CycInt.root_power(5, 2)


def test_character_values_equal_the_key_table():
    g = GroupSpec.cp_c2_c2(5)
    for c, chi in enumerate(g.elements):
        for x, elem in enumerate(g.elements):
            assert g.char_value(chi, elem) == g.sigma_value(g._key_table[c][x])


def test_char_value_builds_no_key_table():
    # a fresh instance, not the interned one other tests build the table on
    g = GroupSpec((199, 2, 2))
    assert g.char_value((3, 1, 0), (5, 1, 1)) == -CycInt.root_power(199, 15)
    assert g.char_value((0, 1, 0), (5, 0, 1)) == CycInt.one(199)
    assert "_key_table" not in vars(g)


def test_character_values_are_ints_without_p_part():
    g = GroupSpec.klein()
    for ce in g.elements:
        for ge in g.elements:
            v = g.char_value(ce, ge)
            assert isinstance(v, int) and v in (-1, 1)


@pytest.mark.parametrize("g", [GroupSpec.klein(), GroupSpec.cp_c2_c2(3)])
def test_character_orthogonality(g):
    for ci in range(g.order):
        for cj in range(g.order):
            chi = g.elements[ci]
            psi = g.elements[cj]
            total = 0
            for e in g.elements:
                total = total + g.char_value(chi, e) * _conj(g.char_value(psi, e))
            want = g.order if ci == cj else 0
            if isinstance(total, int):
                assert total == want
            else:
                assert total.is_rational_integer() == want


def _conj(v):
    return v if isinstance(v, int) else v.conjugate()


@pytest.mark.parametrize("g,count", [
    (GroupSpec.cp(7), 2),
    (GroupSpec.klein(), 5),
    (GroupSpec.cp_c2(5), 4),
    (GroupSpec.c2_cubed(), 16),
    (GroupSpec.cp_c2_c2(3), 10),
    (GroupSpec.cp_c2_c2(5), 10),
])
def test_subgroup_counts(g, count):
    subs = g.all_subgroups
    assert len(subs) == count
    orders = [s.order for s in subs]
    assert orders == sorted(orders)
    for s in subs:
        members = set(s.members)
        for x in s.members:
            assert g.mult_table[x].index(0) in members
            for y in s.members:
                assert g.mul_idx(x, y) in members
        assert set(generated_subgroup(g, s.generators).members) == members


def test_subgroup_validation():
    rows = [
        (GroupSpec.cp(5), (0, 1), "not closed under products"),
        (GroupSpec.cp(5), (1, 2, 3, 4), "a subgroup must contain the identity"),
        # indices past the group: mul_idx reduces them, so closure alone passes
        (GroupSpec.cp(3), (0, 3), r"plain ints in range\(3\)"),
        (GroupSpec.cp(3), (0, -3), r"plain ints in range\(3\)"),
        (GroupSpec.klein(), (0, 4), r"plain ints in range\(4\)"),
        # points that only equal ints: True would stay a member, 1.0 breaks >>
        (GroupSpec.klein(), (0, True), r"plain ints in range\(4\)"),
        (GroupSpec.cp(3), (0, 1.0, 2), r"plain ints in range\(3\)"),
    ]
    for g, members, message in rows:
        with pytest.raises(ValueError, match=message):
            g.subgroup(members)
    s = GroupSpec.cp(5).subgroup((0, 1, 2, 3, 4))
    assert s.order == 5


def test_subgroup_accepts_exactly_the_closed_sets():
    # reference: a set is a subgroup when it holds the identity and is
    # closed under products (in a finite group that gives the inverses too)
    rng = random.Random(11)
    for g in (GroupSpec.cp_c2_c2(5), GroupSpec.c2_cubed(), GroupSpec.cp_c2(7)):
        sets = [h.members for h in g.all_subgroups]
        for size in (2, 3, 4, 5, g.order // 2, g.order - 1):
            for _ in range(20):
                sets.append((0,) + tuple(rng.sample(range(1, g.order), size - 1)))
        for h in g.all_subgroups:  # a subgroup plus or less one element
            sets.append(h.members + tuple(x for x in range(g.order) if x not in h.members)[:1])
            sets.append(h.members[:-1])
        for members in sets:
            closed = 0 in members and all(
                g.mul_idx(i, j) in members for i in members for j in members)
            if closed:
                assert g.subgroup(members).members == tuple(sorted(set(members)))
            else:
                with pytest.raises(ValueError):
                    g.subgroup(members)


# sha256 over every group of a family (p <= 43) of (gen_images, perm) for
# each automorphism and of (members, generators) for each subgroup, recorded
# from the code that mapped every element through apply_exps and checked
# subgroup closure over all pairs of members
_PRIMES_TO_43 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
_PINNED_GROUPS = {
    "klein": ((GroupSpec.klein(),),
              "48617b1a3b05e11eeea0cfa5a10f8e5bc635843ba910f5fb8137e1c6c42e7f20",
              "53ce2c43a740f73fd1f05412e6db8450bb5b668ca49a4c796f7c74c0039f94c8"),
    "c2cubed": ((GroupSpec.c2_cubed(),),
                "59998e93f05a3137bab9644b3d50b23b9b33849a80f0cca5ac4e968477159cd2",
                "1abaef83db14bf77c73e36e58133807249dc3f0f1dc1f725275aa6c017a3a127"),
    "cp": (tuple(GroupSpec.cp(p) for p in _PRIMES_TO_43),
           "66c0e440bff19b7d4224b4db95adb95b08beba3a53608557b46915871b360f6f",
           "427df2b1d427b440e76b2a16b7de140d6bb94e15e1001adf8b18ae9230412ea2"),
    "cpc2": (tuple(GroupSpec.cp_c2(p) for p in _PRIMES_TO_43),
             "5f5b82c9fad566802d88c97bac8624351e9ed8191a9c21af13d714b77c13304c",
             "2c2ef493c6a52f3a23899dbdfec0273776974fce1d960412a9701e065da29623"),
    "cpc2c2": (tuple(GroupSpec.cp_c2_c2(p) for p in _PRIMES_TO_43),
               "5d106ffb5de507f79558954ea79d5209c5cbc669835ad71bb6346c2fdaa961f3",
               "77c64330bd6cc52ba44a410df28bab73c28eb11c96779ef9062a921f1f0c1ef7"),
}


@pytest.mark.parametrize("family", sorted(_PINNED_GROUPS))
def test_aut_perms_and_subgroups_are_pinned(family):
    groups, perm_digest, subgroup_digest = _PINNED_GROUPS[family]
    perms, subs = hashlib.sha256(), hashlib.sha256()
    for g in groups:
        for a in g.aut_group():
            perms.update(repr((a.gen_images, a.perm)).encode())
        for s in g.all_subgroups:
            subs.update(repr((s.members, s.generators)).encode())
    assert perms.hexdigest() == perm_digest
    assert subs.hexdigest() == subgroup_digest


# sha256 over every group of a family (p <= 43) of (members, embedded group,
# to_parent, quotient group, projection) for each subgroup, recorded from
# the code that reduced exponent tuples to an echelon basis and found each
# coset representative as the least product with a member
_PINNED_EMBEDDINGS = {
    "trivial": ((GroupSpec.of(()),),
                "283d017dbb6cd67542f54645304b63b30a2cc005d3ded06a6f88149f27188da8"),
    "c2": ((GroupSpec.of((2,)),),
           "2d224c09077eb47e84190b6c7e6a32a3015c4101b1ff1dd14b0469e819e16c84"),
    "klein": ((GroupSpec.klein(),),
              "68e6d9a3ad06d304e6ee18b94ed0179f0005de85708f29c0f08ce4e010429b63"),
    "c2cubed": ((GroupSpec.c2_cubed(),),
                "5a9f61e1f5f7f3b2e8821201acae5a4f6581aa9973f16c37fe94e8edcf94f1cb"),
    "cp": (tuple(GroupSpec.cp(p) for p in _PRIMES_TO_43),
           "8033db104234651a7ed2825b2bb8345e38bda544beee12174de084b86f73b9f0"),
    "cpc2": (tuple(GroupSpec.cp_c2(p) for p in _PRIMES_TO_43),
             "ec5fa5ae96c27514a69cc6f77aba95fbd3f69623913919bd77103fb78269801f"),
    "cpc2c2": (tuple(GroupSpec.cp_c2_c2(p) for p in _PRIMES_TO_43),
               "5552b42888bd7ef42f024cb2f0d88ca935ccfc2d6271c34b3e7178c28bf497b4"),
}


@pytest.mark.parametrize("family", sorted(_PINNED_EMBEDDINGS))
def test_embeddings_and_quotients_are_pinned(family):
    groups, digest = _PINNED_EMBEDDINGS[family]
    h = hashlib.sha256()
    for g in groups:
        for s in g.all_subgroups:
            emb, q = g.subgroup_embedding(s), g.quotient(s)
            h.update(repr((s.members, emb.group.factors, emb.to_parent,
                           q.group.factors, q.projection)).encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("g", [
    GroupSpec.of(()), GroupSpec.of((2,)), GroupSpec.cp(11), GroupSpec.cp_c2(7),
    GroupSpec.cp_c2_c2(5), GroupSpec.klein(), GroupSpec.c2_cubed(),
], ids=str)
def test_aut_perm_agrees_with_exponent_arithmetic(g):
    for a in g.aut_group():
        assert a.perm == tuple(g.index_of(apply_exps(a, x)) for x in g.elements)


@pytest.mark.parametrize("g", [
    GroupSpec.of(()), GroupSpec.of((2,)), GroupSpec.cp(13), GroupSpec.cp_c2(7),
    GroupSpec.cp_c2_c2(5), GroupSpec.klein(), GroupSpec.c2_cubed(),
], ids=str)
def test_mul_idx_agrees_with_exponent_arithmetic(g):
    for i, x in enumerate(g.elements):
        for j, y in enumerate(g.elements):
            assert g.mul_idx(i, j) == g.index_of([a + b for a, b in zip(x, y)])


@pytest.mark.parametrize("g", [
    GroupSpec.cp(3), GroupSpec.cp(13), GroupSpec.cp_c2(7),
    GroupSpec.cp_c2_c2(5), GroupSpec.cp_c2_c2(13),
], ids=str)
def test_multiplier_perm_is_a_generating_power_map(g):
    perm = g.multiplier_perm
    p = g.p
    # x -> x^m for the odd m that is congruent to the generator r mod p
    r = g.elements[perm[g.index_of((1,) + (0,) * g.dim2)]][0]
    m = r if r % 2 else r + p
    powers = []
    for x in range(g.order):
        y = 0
        for _ in range(m):
            y = g.mul_idx(y, x)
        powers.append(y)
    assert perm == tuple(powers)
    assert len({pow(r, k, p) for k in range(p - 1)}) == p - 1
    # characters move the same way: chi_c(x^m) = chi_{perm[c]}(x)
    for c in range(g.order):
        keys, moved = g.sigma_keys((c,)), g.sigma_keys((perm[c],))
        for x in range(g.order):
            assert keys[perm[x]] == moved[x]


def test_multiplier_perm_is_none_for_2_groups():
    for g in (GroupSpec.of(()), GroupSpec.of((2,)), GroupSpec.klein(), GroupSpec.c2_cubed()):
        assert g.multiplier_perm is None


@pytest.mark.parametrize("g,count", [
    (GroupSpec.cp(7), 0),
    (GroupSpec.klein(), 3),
    (GroupSpec.cp_c2(5), 1),
    (GroupSpec.c2_cubed(), 28),
    (GroupSpec.cp_c2_c2(3), 7),
])
def test_complementary_pairs(g, count):
    pairs = g.complementary_pairs()
    assert len(pairs) == count
    for h1, h2 in pairs:
        assert h1.order * h2.order == g.order
        assert h1.order >= h2.order
        assert set(h1.members) & set(h2.members) == {0}


def test_embedding_is_homomorphism():
    g = GroupSpec.cp_c2_c2(3)
    for s in g.all_subgroups:
        emb = g.subgroup_embedding(s)
        h = emb.group
        assert h.order == s.order
        for x in range(h.order):
            assert emb.from_parent[emb.to_parent[x]] == x
            for y in range(h.order):
                assert (
                    emb.to_parent[h.mul_idx(x, y)]
                    == g.mul_idx(emb.to_parent[x], emb.to_parent[y])
                )


def test_quotient_families():
    g = GroupSpec.cp_c2_c2(3)
    a = g.subgroup(tuple(g.index_of((i, 0, 0)) for i in range(3)))
    b = g.subgroup((0, g.index_of((0, 1, 0))))
    klein = g.subgroup(sorted(g.index_of((0, j, k)) for j in range(2) for k in range(2)))
    big = generated_subgroup(g, (g.index_of((1, 0, 0)), g.index_of((0, 1, 0))))
    assert g.quotient(a).group.factors == (2, 2)
    assert g.quotient(b).group.factors == (3, 2)
    assert g.quotient(klein).group.factors == (3,)
    assert g.quotient(big).group.factors == (2,)


def test_quotient_projection_is_homomorphism():
    g = GroupSpec.cp_c2_c2(3)
    for s in g.all_subgroups:
        if s.order in (1, g.order):
            continue
        q = g.quotient(s)
        proj = q.projection
        assert proj[0] == 0
        assert {i for i in range(g.order) if proj[i] == 0} == set(s.members)
        for x in range(g.order):
            for y in range(g.order):
                assert proj[g.mul_idx(x, y)] == q.group.mul_idx(proj[x], proj[y])


@pytest.mark.parametrize("g,size", [
    (GroupSpec.cp(7), 6),
    (GroupSpec.klein(), 6),
    (GroupSpec.cp_c2(5), 4),
    (GroupSpec.c2_cubed(), 168),
    (GroupSpec.cp_c2_c2(5), 24),
])
def test_aut_group_size(g, size):
    auts = g.aut_group()
    assert len(auts) == size
    assert len({a.perm for a in auts}) == size


def test_aut_maps_are_homomorphisms():
    g = GroupSpec.cp_c2_c2(3)
    for a in g.aut_group():
        perm = a.perm
        assert perm[0] == 0
        for x in range(g.order):
            for y in range(g.order):
                assert perm[g.mul_idx(x, y)] == g.mul_idx(perm[x], perm[y])


def test_aut_character_compatibility():
    # (alpha . chi)(g) == chi(alpha^-1(g)) for every automorphism
    g = GroupSpec.cp_c2_c2(5)
    rng = random.Random(11)
    auts = g.aut_group()
    for a in rng.sample(auts, 8):
        for _ in range(25):
            ci, gi = rng.randrange(g.order), rng.randrange(g.order)
            chi = g.elements[ci]
            moved = g.elements[a.char_perm[ci]]
            elem = g.elements[gi]
            pulled = g.elements[a.inverse_perm[gi]]
            assert g.char_value(moved, elem) == g.char_value(chi, pulled)


def test_char_perm_swap():
    g = GroupSpec.cp_c2_c2(3)
    swap = g.aut_from_parts(1, ((0, 1), (1, 0)))
    assert g.elements[swap.char_perm[g.index_of((0, 1, 0))]] == (0, 0, 1)
    assert g.elements[swap.char_perm[g.index_of((0, 1, 1))]] == (0, 1, 1)


def test_aut_inverse_and_products():
    g = GroupSpec.cp_c2_c2(5)
    rng = random.Random(4)
    auts = g.aut_group()
    perms = {a.perm for a in auts}
    ident = identity_aut(g)
    for _ in range(10):
        a, b = rng.choice(auts), rng.choice(auts)
        inv = a.inverse_perm
        assert tuple(a.perm[x] for x in inv) == ident.perm
        assert tuple(inv[x] for x in a.perm) == ident.perm
        # the inverse is an automorphism too
        assert inv in perms
        # a after b sends each generator image of b through a
        ab = tuple(a.perm[x] for x in b.perm)
        assert ab in perms
        assert AutMap(g, tuple(apply_exps(a, img) for img in b.gen_images)).perm == ab


_BIJECTION = "generator images do not define a bijection"


# (group, generator images, the ValueError message AutMap gives)
_BAD_AUT_IMAGES = [
    # 0 is not a unit mod 5
    (GroupSpec.cp_c2_c2(5), ((0, 0, 0), (0, 1, 0), (0, 0, 1)),
     "image (0, 0, 0) does not have order 5"),
    # singular matrix
    (GroupSpec.cp_c2_c2(5), ((1, 0, 0), (0, 1, 0), (0, 1, 0)), _BIJECTION),
    # wrong image orders: the first bad image is reported
    (GroupSpec.cp_c2_c2(5), ((0, 1, 0), (0, 1, 0), (0, 0, 1)),
     "image (0, 1, 0) does not have order 5"),
    # odd image with a bit part
    (GroupSpec.cp_c2_c2(5), ((2, 0, 1), (0, 1, 0), (0, 0, 1)),
     "image (2, 0, 1) does not have order 5"),
    (GroupSpec.cp_c2(7), ((3, 1), (0, 1)), "image (3, 1) does not have order 7"),
    # involution image with a p part
    (GroupSpec.cp_c2_c2(5), ((1, 0, 0), (4, 1, 0), (0, 0, 1)),
     "image (4, 1, 0) does not have order 2"),
    (GroupSpec.cp_c2(3), ((1, 0), (1, 0)), "image (1, 0) does not have order 2"),
    # identity image
    (GroupSpec.cp(5), ((0,),), "image (0,) does not have order 5"),
    (GroupSpec.klein(), ((1, 0), (0, 0)), "image (0, 0) does not have order 2"),
    (GroupSpec.cp_c2_c2(5), ((1, 0, 0), (0, 0, 0), (0, 1, 1)),
     "image (0, 0, 0) does not have order 2"),
    # two equal involution images
    (GroupSpec.klein(), ((1, 1), (1, 1)), _BIJECTION),
    (GroupSpec.c2_cubed(), ((1, 0, 0), (0, 1, 1), (0, 1, 1)), _BIJECTION),
    # dependent but distinct involution images
    (GroupSpec.c2_cubed(), ((1, 0, 0), (0, 1, 0), (1, 1, 0)), _BIJECTION),
    # an order failure is reported before a bijection failure
    (GroupSpec.c2_cubed(), ((1, 0, 0), (1, 0, 0), (0, 0, 0)),
     "image (0, 0, 0) does not have order 2"),
    # shape errors come first
    (GroupSpec.klein(), ((1, 0),), "one image per generator is required"),
    (GroupSpec.klein(), ((1, 0), (0, 1, 0)), "image has wrong exponent length"),
]


def test_aut_from_parts_validation():
    for group, images, message in _BAD_AUT_IMAGES:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AutMap(group, images)
    g = GroupSpec.cp_c2_c2(5)
    with pytest.raises(ValueError, match="does not have order 5"):
        g.aut_from_parts(0, ((1, 0), (0, 1)))
    with pytest.raises(ValueError, match=_BIJECTION):
        g.aut_from_parts(1, ((1, 0), (1, 0)))
    # images are reduced before they are checked
    assert AutMap(g, ((6, 0, 0), (0, 3, 0), (5, 0, 1))) == identity_aut(g)


# exponents that only equal ints: GroupSpec.reduce refuses them for every
# caller.  Unrefused, True reads as index 1, 2.5 misses the index with
# KeyError, and 2.0 builds an AutMap equal to the int map whose perm raises
# TypeError.
_NOT_INT_EXPONENTS = {
    "index_of-bool": lambda: GroupSpec.cp(5).index_of((True,)),
    "index_of-float": lambda: GroupSpec.cp(5).index_of((2.5,)),
    "char_value-character": lambda: GroupSpec.cp(5).char_value((1.0,), (1,)),
    "char_value-element": lambda: GroupSpec.cp(5).char_value((1,), (False,)),
    "AutMap": lambda: AutMap(GroupSpec.cp_c2_c2(5), ((2.0, 0, 0), (0, 1, 0), (0, 0, 1))),
    "aut_from_parts-float": lambda: GroupSpec.cp_c2_c2(5).aut_from_parts(2.5, ((1, 0), (0, 1))),
    "aut_from_parts-bool": lambda: GroupSpec.cp_c2_c2(5).aut_from_parts(True, ((1, 0), (0, 1))),
    "aut_from_parts-matrix": lambda: GroupSpec.klein().aut_from_parts(None, ((1.0, 0), (0, 1))),
}


@pytest.mark.parametrize("call", _NOT_INT_EXPONENTS.values(), ids=_NOT_INT_EXPONENTS.keys())
def test_exponents_must_be_plain_ints(call):
    with pytest.raises(ValueError, match="^exponents must be plain ints, got "):
        call()


@pytest.mark.parametrize("g", [GroupSpec.c2_cubed(), GroupSpec.cp_c2_c2(3),
                               GroupSpec.cp_c2_c2(13)], ids=str)
def test_unchecked_aut_maps_equal_the_checked_constructor(g):
    # aut_group() builds its maps without AutMap's checks; each must equal
    # the checked map on its unit and matrix, and on its own images
    mats = _gl2_matrices(g.dim2)
    auts = g.aut_group()
    assert len(auts) == (g.p - 1 if g.p else 1) * len(mats)
    for i, a in enumerate(auts):
        u, m = divmod(i, len(mats))
        assert a == g.aut_from_parts(u + 1, mats[m]) == AutMap(g, a.gen_images)


# sha256 over every group of a family (p <= 43) of (gen_images, char_perm)
# for each automorphism, recorded from the code that mapped each character's
# exponent tuple through the exponent rows of the inverse map
_PINNED_CHAR_PERMS = {
    "trivial": ((GroupSpec.of(()),),
                "f2fced5ba41d1382d9b5b022fe68bd5320fb66831b7ad4a387d2a9930519fcaf"),
    "c2": ((GroupSpec.of((2,)),),
           "96c4b1ad8c2fca68304799b8606e0c3861f5f36803a245348628ecc71928ee4f"),
    "klein": ((GroupSpec.klein(),),
              "63f51762c5d481a09b34c61ab6d003ab9c49b122eaf64af01775a6554548d689"),
    "c2cubed": ((GroupSpec.c2_cubed(),),
                "ca717676a804f911eff0487c0d8ca9ea07c86b4bbaf14ce653ad1ee9ebdb5ebe"),
    "cp": (tuple(GroupSpec.cp(p) for p in _PRIMES_TO_43),
           "080367586976d473a87614bc412ac499af11ee3027f5b166f5f4e34ba4eef3ee"),
    "cpc2": (tuple(GroupSpec.cp_c2(p) for p in _PRIMES_TO_43),
             "1a01ba6154e2a7ab55351a0c92d4eb169a15c1b6b7c52114f7fbdd6100031c02"),
    "cpc2c2": (tuple(GroupSpec.cp_c2_c2(p) for p in _PRIMES_TO_43),
               "bcfa5a4c678619229327cf390e01143df7c927489c2c95ac8807eec59bd36977"),
}


@pytest.mark.parametrize("family", sorted(_PINNED_CHAR_PERMS))
def test_char_perms_are_pinned(family):
    groups, digest = _PINNED_CHAR_PERMS[family]
    h = hashlib.sha256()
    for g in groups:
        for a in g.aut_group():
            h.update(repr((a.gen_images, a.char_perm)).encode())
    assert h.hexdigest() == digest


def test_aut_generating_subset():
    for g in (GroupSpec.klein(), GroupSpec.c2_cubed(), GroupSpec.cp(13),
              GroupSpec.cp_c2(7), GroupSpec.cp_c2_c2(3), GroupSpec.cp_c2_c2(7)):
        auts = g.aut_group()
        for sub in g.subgroups_of_aut():
            gens = aut_generating_subset(g, sub)
            assert set(gens) <= set(sub)
            maps = [auts[i] for i in gens]
            perms = [m.perm for m in maps]
            assert _perm_closure(perms, g.order) == {auts[i].perm for i in sub}
            # greedy in ascending order of generator images: each generator
            # is new to the closure of those before it
            assert [m.gen_images for m in maps] == sorted(m.gen_images for m in maps)
            for i, a in enumerate(maps):
                assert a.perm not in _perm_closure(perms[:i], g.order)
            if len(sub) == 1:
                assert gens == ()


@pytest.mark.parametrize("g,count", [
    (GroupSpec.cp(3), 2),
    (GroupSpec.cp(5), 3),
    (GroupSpec.cp(13), 6),
    (GroupSpec.klein(), 6),
    (GroupSpec.cp_c2(5), 3),
    (GroupSpec.cp_c2_c2(3), 16),
])
def test_subgroups_of_aut_counts(g, count):
    subs = g.subgroups_of_aut()
    assert len(subs) == count
    auts = g.aut_group()
    for s in subs:
        # ascending indices into aut_group()
        assert list(s) == sorted(set(s)) and all(0 <= i < len(auts) for i in s)
        perms = {auts[i].perm for i in s}
        for x in s:
            for y in s:
                assert tuple(auts[x].perm[i] for i in auts[y].perm) in perms


def _perm_closure(gens, n):
    ident = tuple(range(n))
    have, queue = {ident}, [ident]
    while queue:
        x = queue.pop()
        for a in gens:
            z = tuple(a[i] for i in x)
            if z not in have:
                have.add(z)
                queue.append(z)
    return frozenset(have)


def _exhaustive_subgroups(perms):
    """Every subgroup of a permutation group: close each known subgroup's
    generators together with each element it lacks, until nothing is new."""
    ident = frozenset({tuple(range(len(perms[0])))})
    known = {ident: ()}
    frontier = [ident]
    while frontier:
        h = frontier.pop()
        for a in perms:
            if a not in h:
                s = _perm_closure(known[h] + (a,), len(a))
                if s not in known:
                    known[s] = known[h] + (a,)
                    frontier.append(s)
    return set(known)


@pytest.mark.parametrize("g", [
    GroupSpec.klein(), GroupSpec.cp_c2_c2(3), GroupSpec.cp_c2_c2(5),
    GroupSpec.cp_c2_c2(7), GroupSpec.cp(13),
])
def test_subgroups_of_aut_against_exhaustive_closure(g):
    # subgroups_of_aut() must agree with brute-force closure; the last two
    # have automorphisms of order 6 and 12
    auts = g.aut_group()
    want = _exhaustive_subgroups([a.perm for a in auts])
    got = {frozenset(auts[i].perm for i in s) for s in g.subgroups_of_aut()}
    assert got == want


@pytest.mark.parametrize("p", [3, 7, 13, 19, 37])
def test_subgroups_of_aut_match_lattice_over_composed_permutations(p):
    # subgroups_of_aut() closes one generator over each subgroup of
    # GL(2, 2); the lattice over the composed permutations of all the maps,
    # which knows nothing of that split, must give the same subgroups
    g = GroupSpec.cp_c2_c2(p)
    perms = [a.perm for a in g.aut_group()]
    lattice = _subgroup_lattice(_perm_table(perms))
    for mask, members in lattice.items():
        assert mask == sum(1 << i for i in members)
    want = {frozenset(perms[i] for i in members) for members in lattice.values()}
    got = {frozenset(perms[i] for i in s) for s in g.subgroups_of_aut()}
    assert len(want) == len(lattice)
    assert got == want
    # the lattice is indexed as aut_group() is, so the member tuples agree
    assert set(lattice.values()) == set(g.subgroups_of_aut())


def test_subgroups_of_aut_build_no_aut_product_table(monkeypatch):
    # the lattice runs only on GL(2, 2) (6 rows), never on a product table
    # of Aut(C_199 x C_2 x C_2), which has 1,188 rows, and no AutMap is built
    g = GroupSpec.cp_c2_c2(199)
    rows, maps = [], []

    def counting_lattice(table):
        rows.append(len(table))
        return _subgroup_lattice(table)

    init = AutMap.__init__

    def counting_init(self, *args):
        maps.append(args)
        init(self, *args)

    monkeypatch.setattr(groups, "_subgroup_lattice", counting_lattice)
    monkeypatch.setattr(AutMap, "__init__", counting_init)
    # aut_group() builds its maps in _aut_map, past AutMap.__init__
    misses = groups._aut_map.cache_info().misses
    built = GroupSpec.subgroups_of_aut.__wrapped__(g)
    assert rows and max(rows) <= 168
    assert maps == [] and groups._aut_map.cache_info().misses == misses
    assert built == g.subgroups_of_aut()
    assert all(isinstance(i, int) for s in built for i in s)


def _gl2_matrices_by_rank(d):
    """_gl2_matrices as it read before it built the matrices row by row:
    every 0/1 matrix in lexicographic order, kept when its rows are
    independent."""
    out = []
    for bits in itertools.product((0, 1), repeat=d * d):
        mat = tuple(bits[i * d : (i + 1) * d] for i in range(d))
        if len(groups._f2_basis(int("".join(map(str, row)), 2) for row in mat)) == d:
            out.append(mat)
    return tuple(out)


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_gl2_matrices_match_the_rank_sieve(d):
    assert _gl2_matrices(d) == _gl2_matrices_by_rank(d)
    assert len(_gl2_matrices(d)) == [1, 1, 6, 168][d]


def _gl2_table_by_permutations(d):
    """_gl2_table as it read before it worked on int columns: each matrix
    as the permutation v -> m v of the vectors in lexicographic order,
    composed pairwise by _perm_table."""
    vecs = list(itertools.product((0, 1), repeat=d))
    vindex = {v: i for i, v in enumerate(vecs)}
    perms = [
        tuple(vindex[tuple(sum(a * b for a, b in zip(row, v)) % 2 for row in m)]
              for v in vecs)
        for m in _gl2_matrices(d)
    ]
    return _perm_table(perms)


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_gl2_table_matches_permutation_composition(d):
    assert _gl2_table(d) == _gl2_table_by_permutations(d)


def test_subgroup_lattice_of_cyclic_groups():
    # Z_n has one subgroup per divisor of n; the joins must reach the cyclic
    # subgroups whose order is a prime power above a prime (Z_4 has one)
    for n in range(1, 61):
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        lattice = _subgroup_lattice(table)
        assert sorted(len(m) for m in lattice.values()) == [
            d for d in range(1, n + 1) if n % d == 0], n


def _lattice_member_by_member(table):
    """_subgroup_lattice as it read before it numbered the right cosets of
    each queued subgroup once: a join builds every coset it reaches member
    by member.  Returns the lattice and the number of table row lookups it
    made, counted as it goes."""
    n = len(table)
    e = next(i for i in range(n) if table[i][i] == i)
    lookups = e + 1
    cyclic = {}
    for x in range(n):
        mask, y = 1 << e, x
        while y != e:
            mask |= 1 << y
            y = table[y][x]
        # one lookup per power of x after the first
        lookups += mask.bit_count() - 1
        if x != e and len(_prime_divisors(mask.bit_count())) == 1:
            cyclic.setdefault(mask, x)
    found = {1 << e: ((e,), ())}
    queue = [1 << e]
    for h in queue:
        members, gens = found[h]
        for c, x in cyclic.items():
            if not c & ~h:
                continue
            k_gens = gens + (x,)
            k, reps = h, [e]
            for r in reps:
                lookups += len(k_gens)
                for s in k_gens:
                    y = table[r][s]
                    if not k >> y & 1:
                        reps.append(y)
                        lookups += len(members)
                        for z in members:
                            k |= 1 << table[z][y]
                if 2 * len(members) * len(reps) > n:
                    k = (1 << n) - 1
                    break
            if k not in found:
                found[k] = (tuple(i for i in range(n) if k >> i & 1), k_gens)
                queue.append(k)
    return {k: members for k, (members, _) in found.items()}, lookups


def _prime_divisors(n):
    return {q for q in range(2, n + 1) if n % q == 0
            and all(q % r for r in range(2, q))}


def _dihedral_8_table():
    rotation, flip = (1, 2, 3, 0), (0, 3, 2, 1)
    return _perm_table(sorted(_perm_closure([rotation, flip], 4)))


def _quaternion_table():
    # index 4 * s + u is (-1)^s times the unit u of 1, i, j, k
    units = {(0, 0): (0, 0), (1, 1): (1, 0), (2, 2): (1, 0), (3, 3): (1, 0),
             (1, 2): (0, 3), (2, 3): (0, 1), (3, 1): (0, 2),
             (2, 1): (1, 3), (3, 2): (1, 1), (1, 3): (1, 2)}
    for u in range(4):
        units[(0, u)] = units[(u, 0)] = (0, u)

    def mul(a, b):
        sign, unit = units[(a % 4, b % 4)]
        return 4 * ((a // 4 + b // 4 + sign) % 2) + unit

    return [[mul(a, b) for b in range(8)] for a in range(8)]


def _aut_table(p):
    return _perm_table([a.perm for a in GroupSpec.cp_c2_c2(p).aut_group()])


_LATTICE_TABLES = {
    "GL(3,2)": _gl2_table(3),
    "GL(2,2)": _gl2_table(2),
    "D_4": _dihedral_8_table(),
    "Q_8": _quaternion_table(),
    **{f"Aut(C_{p}xC_2xC_2)": _aut_table(p) for p in (3, 7, 13)},
    **{f"Z_{n}": [[(a + b) % n for b in range(n)] for a in range(n)] for n in (1, 8, 12, 30)},
}


@lru_cache(maxsize=None)
def _reference_lattice(name):
    """_lattice_member_by_member of one table of _LATTICE_TABLES, with its
    lookup count, built once per run for every test that reads it."""
    return _lattice_member_by_member(_LATTICE_TABLES[name])


@lru_cache(maxsize=None)
def _lattice(name):
    """_subgroup_lattice of one table of _LATTICE_TABLES, built once per run:
    GL(3, 2)'s takes about 54 ms."""
    return _subgroup_lattice(_LATTICE_TABLES[name])


@pytest.mark.parametrize("name", list(_LATTICE_TABLES))
def test_subgroup_lattice_matches_plain_cyclic_extension(name):
    # joining by numbered cosets must find exactly the subgroups that
    # building each coset member by member finds
    assert _lattice(name) == _reference_lattice(name)[0]


def test_gl32_constant_matches_the_computed_path():
    # the generated constant that (C_2)^3 reads, recomputed: the lattice of
    # GL(3, 2) sorted by order and then members, each subgroup with the
    # greedy generators of _generate under the index arithmetic
    g = GroupSpec.c2_cubed()
    mul, e = groups._aut_arithmetic(g)
    want = [(m, tuple(groups._generate(mul, {e}, m)[0]))
            for m in sorted(_lattice("GL(3,2)").values(), key=lambda m: (len(m), m))]
    got = list(groups._gl32_generators().items())
    assert len(got) == len(want) == 179
    for entry, expected in zip(got, want):
        assert entry == expected
    assert g.subgroups_of_aut() == tuple(m for m, _ in want)
    # any other member set, and the whole group as a range, as the closure
    # helpers pass it, read the same answers as the computed path
    for members in (range(168), [77, 76], (0, 1), (0, 1, 2, 3), range(0, 168, 5)):
        gens = tuple(groups._generate(mul, {e}, sorted(members))[0])
        assert aut_generating_subset(g, members) == gens


def test_quaternion_and_dihedral_tables_are_groups():
    for table, orders in ((_quaternion_table(), [1, 2, 4, 4, 4, 8]),
                          (_dihedral_8_table(), [1, 2, 2, 2, 2, 2, 4, 4, 4, 8])):
        n = len(table)
        assert all(sorted(row) == list(range(n)) for row in table)
        assert all(table[table[a][b]][c] == table[a][table[b][c]]
                   for a in range(n) for b in range(n) for c in range(n))
        assert sorted(len(m) for m in _subgroup_lattice(table).values()) == orders


class _CountingTable(list):
    """A product table that counts its row lookups."""

    lookups = 0

    def __getitem__(self, i):
        self.lookups += 1
        return super().__getitem__(i)


def test_reference_lattice_counts_its_lookups():
    # the count the reference returns is the one a counting table sees; GL(3, 2)
    # is left out, as its counted run alone takes most of a second
    for name, table in _LATTICE_TABLES.items():
        if name != "GL(3,2)":
            counted = _CountingTable(table)
            assert _lattice_member_by_member(counted)[1] == counted.lookups, name


def test_lattice_numbers_the_cosets_once_per_queued_subgroup():
    # each join ORs in whole cosets from masks computed once per queued
    # subgroup: on the 72 maps of Aut(C_13 x C_2 x C_2), 6,850 lookups
    # against 17,687 when each coset is built member by member
    name = "Aut(C_13xC_2xC_2)"
    counted = _CountingTable(_LATTICE_TABLES[name])
    plain, plain_lookups = _reference_lattice(name)
    assert _subgroup_lattice(counted) == plain
    assert 2 * counted.lookups < plain_lookups


def test_gl32_lattice_order_histogram():
    # GL(3, 2) = PSL(2, 7) has 179 subgroups: these are the known counts
    # by order (the 35 of order 4 are 21 cyclic and 14 Klein four-groups)
    subs = GroupSpec.c2_cubed().subgroups_of_aut()
    hist = {}
    for s in subs:
        hist[len(s)] = hist.get(len(s), 0) + 1
    assert hist == {1: 1, 2: 21, 3: 28, 4: 35, 6: 28, 7: 8, 8: 21, 12: 14,
                    21: 8, 24: 14, 168: 1}


def test_closure_keeps_greedy_generators():
    # the greedy generators of a subgroup are the members, in ascending
    # order, that the earlier ones do not generate; closing the whole set
    # under products, as a fixpoint, is the slow reference
    for g in (GroupSpec.cp_c2_c2(7), GroupSpec.c2_cubed(), GroupSpec.cp_c2(5)):
        def product_closure(seed):
            out = set(seed) | {0}
            while True:
                more = out | {g.mul_idx(i, j) for i in out for j in out}
                if more == out:
                    return out
                out = more

        for h in g.all_subgroups:
            generated, want = {0}, []
            for i in h.members:
                if i not in generated:
                    want.append(i)
                    generated = product_closure(generated | {i})
            assert h.generators == tuple(want)
            assert generated_subgroup(g, h.generators).members == h.members


def test_orbit_counts_match_on_both_sides():
    g = GroupSpec.cp_c2_c2(3)
    auts = g.aut_group()
    for sub in g.subgroups_of_aut():
        elem_orbits = _orbit_count([auts[i].perm for i in sub], g.order)
        char_orbits = _orbit_count([auts[i].char_perm for i in sub], g.order)
        assert elem_orbits == char_orbits


def _orbit_count(perms, n):
    seen, count = set(), 0
    for i in range(n):
        if i in seen:
            continue
        count += 1
        frontier = {i}
        while frontier:
            x = frontier.pop()
            if x in seen:
                continue
            seen.add(x)
            frontier.update(p[x] for p in perms)
    return count


def test_annihilator():
    g = GroupSpec.cp_c2_c2(5)
    for s in g.all_subgroups:
        ann = annihilator(g, s)
        assert len(ann) * s.order == g.order
        for ci in ann:
            chi = g.elements[ci]
            for gi in s.members:
                v = g.char_value(chi, g.elements[gi])
                assert (v == 1) if isinstance(v, int) else (v == CycInt.one(5))


def test_annihilator_reverses_inclusion():
    g = GroupSpec.cp_c2_c2(3)
    subs = g.all_subgroups
    for s in subs:
        for t in subs:
            if set(s.members) <= set(t.members):
                assert set(annihilator(g, t)) <= set(annihilator(g, s))


@pytest.mark.parametrize("g", [
    GroupSpec.cp(3), GroupSpec.cp(199), GroupSpec.cp_c2(13), GroupSpec.cp_c2_c2(5),
    GroupSpec.cp_c2_c2(7), GroupSpec.klein(), GroupSpec.c2_cubed(),
], ids=str)
def test_sigma_keys_are_exact(g):
    """The kernel's keys, over the full table and over the lead rows, match
    character sums taken from pairing_parts; no characters sum to zero."""
    rng = random.Random(g.order)
    n, lead = g.order, 2 << g.dim2
    for size in (0, 1, 2, 3, n // 2, n - 1, n):
        chars = rng.sample(range(n), size)
        values = []
        for x in range(n):
            counts = [0] * (g.p or 1)
            for c in chars:
                sign, t = g.pairing_parts(g.elements[c], g.elements[x])
                counts[t] += sign
            values.append(counts[0] if g.p is None
                          else CycInt.from_power_counts(g.p, counts))
        keys = g.sigma_keys(chars)
        assert [g.sigma_value(k) for k in keys] == values
        # sigma_value is a function, so equal counts make it a bijection
        assert len(set(keys)) == len(set(values))
        if not chars:
            assert keys == [0] * n
            assert g.lead_keys(chars) == [0] * lead
        if g.p is not None:
            assert [g.sigma_value(k) for k in g.lead_keys(chars)] == values[:lead]


@pytest.mark.parametrize("g", [
    GroupSpec.cp_c2_c2(3), GroupSpec.cp_c2_c2(13), GroupSpec.cp_c2_c2(199),
    GroupSpec.cp(13), GroupSpec.cp_c2(13),
], ids=str)
def test_lead_keys_match_sigma_keys(g):
    """The cached lead rows, summed per column, give the full loop's keys at
    the 2^(d+1) indices with p exponent 0 or 1."""
    rng = random.Random(g.order)
    n, d = g.order, g.dim2
    perm = g.multiplier_perm
    x = rng.randrange(1, n)
    orbit = {x}
    while perm[x] not in orbit:
        x = perm[x]
        orbit.add(x)
    blocks = [(0,), range(n), sorted(orbit)]
    blocks += [rng.sample(range(n), size) for size in (1, 2, 3, n // 2, n - 1)]
    for chars in blocks:
        assert g.lead_keys(chars) == g.sigma_keys(chars)[:2 << d]


@pytest.mark.parametrize("g", [
    GroupSpec.cp_c2_c2(3), GroupSpec.cp_c2_c2(13), GroupSpec.cp_c2_c2(199),
    GroupSpec.cp(13), GroupSpec.cp_c2(13),
], ids=str)
def test_lead_ids_intern_lead_keys(g):
    """The blocks of test_lead_keys_match_sigma_keys: two lead ids are equal
    exactly when their keys are, and a repeat call returns the same tuple."""
    rng = random.Random(g.order)
    n, d = g.order, g.dim2
    perm = g.multiplier_perm
    x = rng.randrange(1, n)
    orbit = {x}
    while perm[x] not in orbit:
        x = perm[x]
        orbit.add(x)
    blocks = [(0,), range(n), sorted(orbit)]
    blocks += [rng.sample(range(n), size) for size in (1, 2, 3, n // 2, n - 1)]
    id_of_key = {}
    for chars in map(tuple, blocks):
        ids = g.lead_ids(chars)
        assert len(ids) == 2 << d
        assert g.lead_ids(chars) is ids
        for key, i in zip(g.sigma_keys(chars)[:2 << d], ids):
            assert id_of_key.setdefault(key, i) == i
    # one key per id: equal ids mean equal keys
    assert len(set(id_of_key.values())) == len(id_of_key)


@pytest.mark.parametrize("p", [3, 5, 7, 13, 199])
def test_sigma_key_equality_is_value_equality(p):
    """Random signed multisets of powers of zeta_p, summed by the kernel of
    C_p x C_2 at the element (1, 1), a lead index: character (t, 0) gives
    +zeta^t there and (t, 1) gives -zeta^t.  Keys are equal exactly when the
    values are."""
    g = GroupSpec.cp_c2(p)
    at = g.index_of((1, 1))
    rng = random.Random(p)

    def char(code):  # code t is +zeta^t, code t + p is -zeta^t
        return g.index_of((code % p, code // p))

    def value(codes):
        counts = [0] * p
        for code in codes:
            counts[code % p] += 1 if code < p else -1
        return CycInt.from_power_counts(p, counts)

    every_power = list(range(p))  # sums to 0
    multisets = [[], every_power, [t + p for t in every_power]]
    for _ in range(40):
        size = rng.choice([1, 2, 3, p // 2, p, 2 * p])
        codes = [rng.randrange(2 * p) for _ in range(size)]
        multisets.append(codes)
        multisets.append(codes + every_power)  # the same value, shifted
        multisets.append(codes + [t + p for t in every_power] * 2)
        # most powers share one nonzero count
        multisets.append(codes[:2] + every_power * rng.choice([1, 3]))
    keys = [g.lead_keys([char(c) for c in codes])[at] for codes in multisets]
    values = [value(codes) for codes in multisets]
    assert [g.sigma_value(k) for k in keys] == values
    for i in range(len(multisets)):
        for j in range(i):
            assert (keys[i] == keys[j]) == (values[i] == values[j])
    assert len(set(keys)) < len({tuple(sorted(m)) for m in multisets})


def test_only_generate_and_the_aut_lattice_call_close():
    # _generate holds the one greedy generating loop; subgroups_of_aut closes
    # each (r^f, b) with its K in one call
    tree = ast.parse(Path(groups.__file__).read_text(encoding="utf-8"))
    callers = {f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
               for c in ast.walk(f)
               if isinstance(c, ast.Call) and getattr(c.func, "id", None) == "_close"}
    assert callers == {"_generate", "subgroups_of_aut"}


def test_only_the_gate_tests_primality():
    # GroupSpec.__init__ is the one gate for a group: from_family and the
    # factories reach trial division only through it
    tree = ast.parse(Path(groups.__file__).read_text(encoding="utf-8"))
    spec = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "GroupSpec")
    init = next(n for n in spec.body if isinstance(n, ast.FunctionDef) and n.name == "__init__")

    def calls(node):
        return [c for c in ast.walk(node)
                if isinstance(c, ast.Call) and getattr(c.func, "id", None) == "is_odd_prime"]

    assert len(calls(init)) == 1
    assert calls(tree) == calls(init)
