"""Group models, characters, subgroup machinery, and automorphism actions."""

import hashlib
import itertools
import random
import re

import pytest

from supercharacters import (
    AutMap,
    CycInt,
    GroupSpec,
    aut_generating_subset,
    close_aut_set,
)
from supercharacters.groups import _gl2_matrices, _gl2_table, _perm_table, _subgroup_lattice


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


@pytest.mark.parametrize("factors", [(4,), (9, 2), (2, 3), (3, 3), (2, 2, 2, 2), (3, 2, 2, 2)])
def test_invalid_factors(factors):
    with pytest.raises(ValueError):
        GroupSpec.of(factors)


def test_unknown_family():
    with pytest.raises(ValueError):
        GroupSpec.from_family("dihedral", 5)
    with pytest.raises(ValueError):
        GroupSpec.from_family("Cp", None)


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
        assert g.mul_idx(i, g.inverse_table[i]) == 0
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
        assert g.mul_idx(i, g.inverse_table[i]) == 0
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
    chi = g.character((1, 0, 0))
    assert g.char_value(chi, g.element((1, 0, 0))) == CycInt.root_power(5, 1)
    assert g.char_value(chi, g.element((0, 1, 0))) == CycInt.one(5)
    sign_char = g.character((0, 0, 1))
    assert g.char_value(sign_char, g.element((0, 0, 1))) == CycInt.from_int(5, -1)
    assert g.char_value(sign_char, g.element((0, 1, 0))) == CycInt.one(5)
    mixed = g.character((2, 1, 0))
    assert g.char_value(mixed, g.element((1, 1, 1))) == -CycInt.root_power(5, 2)


def test_character_values_are_ints_without_p_part():
    g = GroupSpec.klein()
    for ce in g.elements:
        for ge in g.elements:
            v = g.char_value(g.character(ce), g.element(ge))
            assert isinstance(v, int) and v in (-1, 1)


@pytest.mark.parametrize("g", [GroupSpec.klein(), GroupSpec.cp_c2_c2(3)])
def test_character_orthogonality(g):
    for ci in range(g.order):
        for cj in range(g.order):
            chi = g.character(g.elements[ci])
            psi = g.character(g.elements[cj])
            total = 0
            for ge in g.elements:
                e = g.element(ge)
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
            assert g.inverse_table[x] in members
            for y in s.members:
                assert g.mul_idx(x, y) in members
        assert set(g.generated_subgroup(s.generators).members) == members


def test_subgroup_validation():
    g = GroupSpec.cp(5)
    with pytest.raises(ValueError):
        g.subgroup((0, 1))  # not closed
    with pytest.raises(ValueError):
        g.subgroup((1, 2, 3, 4))  # missing identity
    s = g.subgroup((0, 1, 2, 3, 4))
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
            sets.append(h.members + tuple(x for x in range(g.order) if x not in h)[:1])
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
        assert a.perm == tuple(g.index_of(a.apply_exps(x)) for x in g.elements)


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
        for x in range(g.order):
            assert (g.sigma_keys((c,), (perm[x],))
                    == g.sigma_keys((perm[c],), (x,)))


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
    big = g.generated_subgroup((g.index_of((1, 0, 0)), g.index_of((0, 1, 0))))
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
        inv = a.inverse()
        for _ in range(25):
            ci, gi = rng.randrange(g.order), rng.randrange(g.order)
            chi = g.character(g.elements[ci])
            moved = g.character(g.elements[a.char_perm[ci]])
            elem = g.element(g.elements[gi])
            pulled = g.element(g.elements[inv.perm[gi]])
            assert g.char_value(moved, elem) == g.char_value(chi, pulled)


def test_act_on_character_swap():
    g = GroupSpec.cp_c2_c2(3)
    swap = g.aut_from_parts(1, ((0, 1), (1, 0)))
    chi = g.character((0, 1, 0))
    assert swap.act_on_character(chi).exps == (0, 0, 1)
    fixed = g.character((0, 1, 1))
    assert swap.act_on_character(fixed).exps == (0, 1, 1)


def test_aut_compose_inverse():
    g = GroupSpec.cp_c2_c2(5)
    rng = random.Random(4)
    auts = g.aut_group()
    ident = AutMap.identity(g)
    for _ in range(10):
        a, b = rng.choice(auts), rng.choice(auts)
        assert a.compose(a.inverse()) == ident
        ab = a.compose(b)
        for x in range(g.order):
            assert ab.perm[x] == a.perm[b.perm[x]]


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
    assert AutMap(g, ((6, 0, 0), (0, 3, 0), (5, 0, 1))) == AutMap.identity(g)


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


def test_close_aut_set():
    g = GroupSpec.cp_c2_c2(5)
    doubling = g.aut_from_parts(2, ((1, 0), (0, 1)))
    closure = close_aut_set((doubling,))
    assert len(closure) == 4
    swap = g.aut_from_parts(1, ((0, 1), (1, 0)))
    both = close_aut_set((doubling, swap))
    assert len(both) == 8
    for gens, got in (((doubling,), closure), ((doubling, swap), both)):
        assert {m.perm for m in got} == _perm_closure([a.perm for a in gens], g.order)
        assert [m.gen_images for m in got] == sorted(m.gen_images for m in got)


def test_aut_generating_subset():
    for g in (GroupSpec.klein(), GroupSpec.c2_cubed(), GroupSpec.cp(13),
              GroupSpec.cp_c2(7), GroupSpec.cp_c2_c2(3), GroupSpec.cp_c2_c2(7)):
        for sub in g.subgroups_of_aut():
            gens = aut_generating_subset(sub)
            perms = [m.perm for m in gens]
            assert _perm_closure(perms, g.order) == {m.perm for m in sub}
            # greedy in ascending order of generator images: each generator
            # is new to the closure of those before it
            assert [m.gen_images for m in gens] == sorted(m.gen_images for m in gens)
            for i, a in enumerate(gens):
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
    for s in subs:
        perms = {m.perm for m in s}
        for x in s:
            for y in s:
                assert x.compose(y).perm in perms


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
    # the lattice over the arithmetic product table must agree with
    # brute-force closure; the last two have automorphisms of order 6 and 12
    want = _exhaustive_subgroups([a.perm for a in g.aut_group()])
    got = {frozenset(m.perm for m in s) for s in g.subgroups_of_aut()}
    assert got == want


@pytest.mark.parametrize("p", [3, 7, 13])
def test_subgroup_lattice_agrees_with_goursat(p):
    # subgroups_of_aut() runs the lattice on an arithmetic product table
    # of Aut(G); running it on the composed permutations of the maps must
    # give the same subgroups
    g = GroupSpec.cp_c2_c2(p)
    perms = [a.perm for a in g.aut_group()]
    lattice = _subgroup_lattice(_perm_table(perms))
    for mask, members in lattice.items():
        assert mask == sum(1 << i for i in members)
    want = {frozenset(perms[i] for i in members) for members in lattice.values()}
    got = {frozenset(m.perm for m in s) for s in g.subgroups_of_aut()}
    assert len(want) == len(lattice)
    assert got == want


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


def _lattice_without_conjugation(table):
    """_subgroup_lattice as it read before the conjugacy-class step: every
    join found is queued and extended by every cyclic subgroup of
    prime-power order."""
    n = len(table)
    e = next(i for i in range(n) if table[i][i] == i)
    cyclic = {}
    for x in range(n):
        mask, y = 1 << e, x
        while y != e:
            mask |= 1 << y
            y = table[y][x]
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
                for s in k_gens:
                    y = table[r][s]
                    if not k >> y & 1:
                        reps.append(y)
                        for z in members:
                            k |= 1 << table[z][y]
                if 2 * len(members) * len(reps) > n:
                    k = (1 << n) - 1
                    break
            if k not in found:
                found[k] = (tuple(i for i in range(n) if k >> i & 1), k_gens)
                queue.append(k)
    return {k: members for k, (members, _) in found.items()}


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


@pytest.mark.parametrize("table", [
    pytest.param(_gl2_table(3), id="GL(3,2)"),
    pytest.param(_gl2_table(2), id="GL(2,2)"),
    pytest.param(_dihedral_8_table(), id="D_4"),
    pytest.param(_quaternion_table(), id="Q_8"),
    *(pytest.param(_aut_table(p), id=f"Aut(C_{p}xC_2xC_2)") for p in (3, 7, 13)),
    *(pytest.param([[(a + b) % n for b in range(n)] for a in range(n)], id=f"Z_{n}")
      for n in (1, 8, 12, 30)),
])
def test_subgroup_lattice_matches_plain_cyclic_extension(table):
    # extending one subgroup per conjugacy class must find exactly the
    # subgroups that extending every subgroup finds
    assert _subgroup_lattice(table) == _lattice_without_conjugation(table)


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


def test_gl32_lattice_extends_one_subgroup_per_class():
    # GL(3, 2) has 179 subgroups in 15 conjugacy classes; joining only one
    # per class must take far fewer table lookups than joining them all
    plain, reduced = _CountingTable(_gl2_table(3)), _CountingTable(_gl2_table(3))
    assert _subgroup_lattice(reduced) == _lattice_without_conjugation(plain)
    reduced_lookups, plain_lookups = reduced.lookups, plain.lookups
    assert 3 * reduced_lookups < plain_lookups


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
            assert g.generated_subgroup(h.generators).members == h.members


def test_orbit_counts_match_on_both_sides():
    g = GroupSpec.cp_c2_c2(3)
    for sub in g.subgroups_of_aut():
        elem_orbits = _orbit_count([a.perm for a in sub], g.order)
        char_orbits = _orbit_count([a.char_perm for a in sub], g.order)
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
        ann = g.annihilator(s)
        assert len(ann) * s.order == g.order
        for ci in ann:
            chi = g.character(g.elements[ci])
            for gi in s.members:
                v = g.char_value(chi, g.element(g.elements[gi]))
                assert (v == 1) if isinstance(v, int) else (v == CycInt.one(5))


def test_annihilator_reverses_inclusion():
    g = GroupSpec.cp_c2_c2(3)
    subs = g.all_subgroups
    for s in subs:
        for t in subs:
            if set(s.members) <= set(t.members):
                assert set(g.annihilator(t)) <= set(g.annihilator(s))


@pytest.mark.parametrize("g", [
    GroupSpec.cp(3), GroupSpec.cp(199), GroupSpec.cp_c2(13), GroupSpec.cp_c2_c2(5),
    GroupSpec.cp_c2_c2(7), GroupSpec.klein(), GroupSpec.c2_cubed(),
], ids=str)
def test_sigma_keys_are_exact(g):
    """The kernel's keys match character sums taken from pairing_parts."""
    rng = random.Random(g.order)
    n = g.order
    for size in (1, 2, 3, n // 2, n - 1, n):
        chars = rng.sample(range(n), size)
        values = []
        for x in range(n):
            counts = [0] * (g.p or 1)
            for c in chars:
                sign, t = g.pairing_parts(g.elements[c], g.elements[x])
                counts[t] += sign
            values.append(counts[0] if g.p is None
                          else CycInt.from_power_counts(g.p, counts))
        keys = g.sigma_keys(chars, range(n))
        assert [g.sigma_value(k) for k in keys] == values
        # sigma_value is a function, so equal counts make it a bijection
        assert len(set(keys)) == len(set(values))


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
        assert g.lead_keys(chars) == g.sigma_keys(chars, range(2 << d))


@pytest.mark.parametrize("p", [3, 5, 7, 13, 199])
def test_sigma_key_equality_is_value_equality(p):
    """Random signed multisets of powers of zeta_p, summed by the kernel of
    C_p x C_2 at the element (1, 1): character (t, 0) gives +zeta^t there
    and (t, 1) gives -zeta^t.  Keys are equal exactly when the values are."""
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
    keys = [g.sigma_keys([char(c) for c in codes], (at,))[0] for codes in multisets]
    values = [value(codes) for codes in multisets]
    assert [g.sigma_value(k) for k in keys] == values
    for i in range(len(multisets)):
        for j in range(i):
            assert (keys[i] == keys[j]) == (values[i] == values[j])
    assert len(set(keys)) < len({tuple(sorted(m)) for m in multisets})
