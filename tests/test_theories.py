"""Theory objects: verification, duality, restriction, tables, serialization."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from supercharacters import (
    GroupSpec,
    Partition,
    Theory,
    TheoryRecord,
    Violation,
    all_theories,
    canonical_key,
    dual,
    induced_character_partition,
    invariant_subgroups,
    maximal_theory,
    minimal_theory,
    refines,
    restriction,
    supercharacter_table,
    theory_from_classes,
    theory_from_json,
    theory_to_json,
    verify,
    verify_algebra,
)
from supercharacters.theories import _invariant, sort_key
from supercharacters import CycInt


def test_partition_canonicalization():
    p = Partition.from_blocks([(3, 1), (2,), (0, 4)], 5)
    assert p.blocks == ((0, 4), (1, 3), (2,))
    assert p.block_of == (0, 1, 2, 1, 0)
    assert len(p) == 3


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition.from_blocks([(0, 1), (1, 2)], 3)  # overlap
    with pytest.raises(ValueError):
        Partition.from_blocks([(0,), (2,)], 3)  # missing 1
    with pytest.raises(ValueError):
        Partition.from_blocks([(0,), ()], 1)  # empty block
    assert Partition.discrete(4).blocks == ((0,), (1,), (2,), (3,))


@pytest.mark.parametrize("blocks,size,message", [
    ([(0,), ()], 1, "empty block"),
    # the empty block is named before the overlap
    ([(0, 1), (1, 2), ()], 3, "empty block"),
    # two blocks with the same least member
    ([(0, 1), (0, 2)], 3, "blocks do not partition range(3)"),
    ([(0,), (2,)], 3, "blocks do not partition range(3)"),
])
def test_partition_validation_messages(blocks, size, message):
    with pytest.raises(ValueError) as info:
        Partition.from_blocks(blocks, size)
    assert str(info.value) == message


def test_partition_order_is_canonical_for_any_input_order():
    rng = random.Random(7)
    blocks = [(5, 2), (0,), (7, 1, 3), (4,), (6,)]
    want = ((0,), (1, 3, 7), (2, 5), (4,), (6,))
    for _ in range(10):
        rng.shuffle(blocks)
        shuffled = [rng.sample(b, len(b)) for b in blocks]
        assert Partition.from_blocks(shuffled, 8).blocks == want
        assert Partition.from_blocks(map(iter, shuffled), 8).blocks == want


@pytest.mark.parametrize("g", [
    GroupSpec.cp(5), GroupSpec.klein(), GroupSpec.cp_c2(3),
    GroupSpec.c2_cubed(), GroupSpec.cp_c2_c2(3),
])
def test_extremes_verify(g):
    assert verify(minimal_theory(g)) is None
    assert verify(maximal_theory(g)) is None
    assert len(minimal_theory(g).classes) == g.order
    assert len(maximal_theory(g).classes) == 2


def test_verify_condition_1():
    g = GroupSpec.cp(5)
    merged = Partition.from_blocks([(0, 1), (2, 3, 4)], 5)
    ok = Partition.from_blocks([(0,), (1, 4), (2, 3)], 5)
    v = verify(Theory(g, merged, merged))
    assert v is not None and v.condition == 1
    v = verify(Theory(g, ok, merged))
    assert v is not None and v.condition == 1


def test_verify_condition_2():
    g = GroupSpec.cp(5)
    three = Partition.from_blocks([(0,), (1, 4), (2, 3)], 5)
    two = Partition.from_blocks([(0,), (1, 2, 3, 4)], 5)
    v = verify(Theory(g, three, two))
    assert v is not None and v.condition == 2
    assert v.witness == (3, 2)


def test_verify_condition_3():
    g = GroupSpec.cp(5)
    classes = Partition.from_blocks([(0,), (1,), (2, 3, 4)], 5)
    v = verify(Theory(g, classes, classes))
    assert v is not None and v.condition == 3
    xi, k0, h = v.witness
    assert k0 != h


def test_verify_algebra_examples():
    g = GroupSpec.cp(5)
    assert verify_algebra(g, Partition.from_blocks([(0,), (1, 4), (2, 3)], 5)) is None
    assert verify_algebra(g, Partition.from_blocks([(0,), (1, 2, 3, 4)], 5)) is None
    bad = verify_algebra(g, Partition.from_blocks([(0,), (1,), (2, 3, 4)], 5))
    assert bad is not None and bad.condition == 3
    merged = verify_algebra(g, Partition.from_blocks([(0, 1), (2, 3, 4)], 5))
    assert merged is not None and merged.condition == 1


def test_induced_character_partition():
    g = GroupSpec.cp(5)
    classes = Partition.from_blocks([(0,), (1, 4), (2, 3)], 5)
    part = induced_character_partition(g, classes)
    assert part.blocks == ((0,), (1, 4), (2, 3))
    with pytest.raises(RuntimeError):
        induced_character_partition(
            g, Partition.from_blocks([(0,), (1,), (2, 3, 4)], 5)
        )


def test_theory_from_classes_verifies():
    g = GroupSpec.cp_c2(3)
    classes = Partition.from_blocks(
        [(0,), (g.index_of((0, 1)),), tuple(sorted((g.index_of((1, 0)), g.index_of((2, 0))))),
         tuple(sorted((g.index_of((1, 1)), g.index_of((2, 1)))))],
        g.order,
    )
    t = theory_from_classes(g, classes)
    assert verify(t) is None
    assert len(t.charparts) == 4


def test_supercharacter_table_values():
    t = maximal_theory(GroupSpec.cp(5))
    rows = supercharacter_table(t)
    assert rows[0] == [CycInt.one(5), CycInt.one(5)]
    assert rows[1] == [CycInt.from_int(5, 4), CycInt.from_int(5, -1)]


def test_supercharacter_table_rejects_invalid():
    g = GroupSpec.cp(5)
    classes = Partition.from_blocks([(0,), (1,), (2, 3, 4)], 5)
    with pytest.raises(ValueError):
        supercharacter_table(Theory(g, classes, classes))


def test_invariant_subgroups_extremes():
    g = GroupSpec.cp_c2_c2(3)
    assert len(invariant_subgroups(minimal_theory(g))) == len(g.all_subgroups)
    maxi = invariant_subgroups(maximal_theory(g))
    assert [h.order for h in maxi] == [1, g.order]


def test_restriction_of_minimal():
    g = GroupSpec.cp_c2_c2(3)
    t = minimal_theory(g)
    for h in g.all_subgroups:
        r = restriction(t, h)
        assert r == minimal_theory(r.group)


def test_restriction_needs_invariance():
    g = GroupSpec.cp_c2_c2(3)
    t = maximal_theory(g)
    proper = next(h for h in g.all_subgroups if 1 < h.order < g.order)
    with pytest.raises(ValueError):
        restriction(t, proper)


def test_dual_extremes():
    g = GroupSpec.cp_c2_c2(5)
    assert dual(minimal_theory(g)) == minimal_theory(g)
    assert dual(maximal_theory(g)) == maximal_theory(g)


def test_dual_is_involution_on_klein(klein_records):
    for rec in klein_records:
        t = rec.theory
        assert dual(dual(t)) == t


def test_refines():
    g = GroupSpec.cp(5)
    mini, maxi = minimal_theory(g), maximal_theory(g)
    mid = theory_from_classes(g, Partition.from_blocks([(0,), (1, 4), (2, 3)], 5))
    assert refines(mini, mid) and refines(mid, maxi) and refines(mini, maxi)
    assert not refines(maxi, mid) and not refines(mid, mini)
    assert refines(mid, mid)
    with pytest.raises(ValueError):
        refines(mini, minimal_theory(GroupSpec.cp(7)))


def test_canonical_key_and_sort_key():
    k = canonical_key(minimal_theory(GroupSpec.klein()))
    assert k == "2.2:0|1|2|3"
    assert canonical_key(maximal_theory(GroupSpec.klein())) == "2.2:0|1,2,3"
    g = GroupSpec.cp(5)
    keys = {canonical_key(minimal_theory(g)), canonical_key(maximal_theory(g))}
    assert len(keys) == 2
    assert sort_key(maximal_theory(g)) < sort_key(minimal_theory(g))


def test_json_round_trip(klein_records):
    for rec in klein_records:
        d = theory_to_json(rec)
        back = theory_from_json(d)
        assert back.theory == rec.theory
        assert back.tags == rec.tags
        assert back.provenance == rec.provenance
        assert d["tags"] == sorted(rec.tags)


def test_json_accepts_bare_theory():
    d = theory_to_json(maximal_theory(GroupSpec.cp(3)))
    assert d["group"] == {"family": "Cp", "p": 3}
    assert d["superclasses"] == [[[0]], [[1], [2]]]
    assert d["tags"] == [] and d["provenance"] == []


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("group"),
    lambda d: d["group"].pop("p"),
    lambda d: d["group"].update(family="Dihedral"),
    lambda d: d.update(superclasses="nope"),
    lambda d: d["superclasses"].append([]),
    lambda d: d["superclasses"][0].append([0]),  # duplicate identity
    lambda d: d["superclasses"][0][0].append(0),  # wrong exps length
    lambda d: d["superclasses"][0][0].__setitem__(0, 9),  # out of range
    lambda d: d.update(tags=[1, 2]),
    lambda d: d.update(provenance="nope"),
])
def test_json_rejects_malformed(mutate):
    d = theory_to_json(maximal_theory(GroupSpec.cp(5)))
    mutate(d)
    with pytest.raises(ValueError):
        theory_from_json(d)


_MALFORMED_EXPONENTS = pytest.mark.parametrize("exps,message", [
    ([True, 0, 1], "exponents out of range in superclasses: [True, 0, 1]"),
    ([1.0, 0, 1], "exponents out of range in superclasses: [1.0, 0, 1]"),
    ([-1, 0, 1], "exponents out of range in superclasses: [-1, 0, 1]"),
    ([3, 0, 1], "exponents out of range in superclasses: [3, 0, 1]"),
    (["1", 0, 1], "exponents out of range in superclasses: ['1', 0, 1]"),
    ([[1], 0, 1], "exponents out of range in superclasses: [[1], 0, 1]"),
    ([None, 0, 1], "exponents out of range in superclasses: [None, 0, 1]"),
    ([{}, 0, 1], "exponents out of range in superclasses: [{}, 0, 1]"),
    ("ab", "bad exponent vector 'ab' in superclasses"),
    ([0, 1], "bad exponent vector [0, 1] in superclasses"),
    (None, "bad exponent vector None in superclasses"),
], ids=["true", "float", "negative", "too-large", "string", "list", "null",
        "object", "string-vector", "short-vector", "null-vector"])


@_MALFORMED_EXPONENTS
def test_json_rejects_malformed_exponents(exps, message):
    # bools and floats equal to an exponent hash like it, and lists and
    # objects are unhashable: each must be rejected before any lookup
    d = theory_to_json(maximal_theory(GroupSpec.cp_c2_c2(3)))
    d["superclasses"][1][0] = exps
    with pytest.raises(ValueError) as info:
        theory_from_json(d)
    assert str(info.value) == message


@_MALFORMED_EXPONENTS
def test_json_names_a_bad_vector_in_the_last_block(exps, message):
    # the whole-partition check fails only at the last vector read, and the
    # message still names that vector and the partition
    d = theory_to_json(minimal_theory(GroupSpec.cp_c2_c2(3)))
    d["character_classes"][-1][-1] = exps
    with pytest.raises(ValueError) as info:
        theory_from_json(d)
    assert str(info.value) == message.replace("superclasses", "character_classes")


@pytest.mark.parametrize("mutate,message", [
    (lambda d: d["superclasses"][1].__setitem__(0, (1, 0, 1)),
     "bad exponent vector (1, 0, 1) in superclasses"),
    (lambda d: d["superclasses"].append([]),
     "superclasses blocks must be nonempty lists"),
    (lambda d: d["superclasses"].__setitem__(1, tuple(d["superclasses"][1])),
     "superclasses blocks must be nonempty lists"),
    (lambda d: d.update(superclasses=[]), "blocks do not partition range(12)"),
    (lambda d: d["superclasses"].append([[1, 0, 1]]), "blocks do not partition range(12)"),
], ids=["tuple-vector", "empty-block", "tuple-block", "no-blocks", "repeated-vector"])
def test_json_partition_messages(mutate, message):
    d = theory_to_json(maximal_theory(GroupSpec.cp_c2_c2(3)))
    mutate(d)
    with pytest.raises(ValueError) as info:
        theory_from_json(d)
    assert str(info.value) == message


def test_theory_size_mismatch():
    g = GroupSpec.cp(5)
    with pytest.raises(ValueError):
        Theory(g, Partition.discrete(4), Partition.discrete(5))


def test_record_defaults():
    rec = TheoryRecord(minimal_theory(GroupSpec.klein()))
    assert rec.tags == set() and rec.provenance == []


# -- the multiplier-reduced kernel against the full loop ---------------------


def _full_loop_verify(t):
    """verify as it reads with every character block summed at every element."""
    if (0,) not in t.classes.blocks:
        return Violation(1, (0,), "identity is not a singleton class")
    if (0,) not in t.charparts.blocks:
        return Violation(1, (0,), "trivial character is not a singleton block")
    if len(t.classes) != len(t.charparts):
        return Violation(
            2,
            (len(t.classes), len(t.charparts)),
            f"{len(t.classes)} classes vs {len(t.charparts)} character blocks",
        )
    g = t.group
    for xi, x in enumerate(t.charparts.blocks):
        keys = g.sigma_keys(x)
        for k in t.classes.blocks:
            for h in k[1:]:
                if keys[h] != keys[k[0]]:
                    return Violation(
                        3,
                        (xi, k[0], h),
                        f"sigma of character block {xi} differs at elements {k[0]} and {h}",
                    )
    return None


def _full_loop_induced(g, classes):
    """induced_character_partition with every class sum at every character,
    as (partition, None) or (None, error text)."""
    columns = [g.sigma_keys(b) for b in classes.blocks]
    sigs = {}
    for c, sig in enumerate(zip(*columns)):
        sigs.setdefault(sig, []).append(c)
    part = Partition.from_blocks(sigs.values(), g.order)
    if len(part) != len(classes):
        return None, (
            f"induced partition has {len(part)} blocks for {len(classes)} classes; "
            "the class partition is not convolution-closed"
        )
    return part, None


def _induced(g, classes):
    try:
        return induced_character_partition(g, classes), None
    except RuntimeError as exc:
        return None, str(exc)


def _moved(part, rng):
    """part with one nonidentity element moved into another nonidentity block,
    or None when there are fewer than two such blocks."""
    blocks = [list(b) for b in part.blocks if b != (0,)]
    if len(blocks) < 2:
        return None
    src, dst = rng.sample(range(len(blocks)), 2)
    x = rng.choice(blocks[src])
    blocks[src].remove(x)
    blocks[dst].append(x)
    return Partition.from_blocks([(0,)] + [b for b in blocks if b], part.size)


def _random_partition(rng, n, k):
    """k blocks: the identity alone and the rest spread over k - 1 blocks."""
    rest = list(range(1, n))
    rng.shuffle(rest)
    blocks = [[x] for x in rest[: k - 1]]
    for x in rest[k - 1 :]:
        rng.choice(blocks).append(x)
    return Partition.from_blocks([(0,)] + blocks, n)


def _random_invariant_partition(rng, g):
    """A partition fixed by the multipliers: the orbits of a random subgroup
    <r^j> of them, joined along a few random pairs and all their images."""
    n, p = g.order, g.p
    powers = [tuple(range(n))]
    for _ in range(p - 2):
        powers.append(tuple(g.multiplier_perm[i] for i in powers[-1]))
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    j = rng.choice([j for j in range(1, p) if (p - 1) % j == 0])
    for x in range(n):
        union(x, powers[j % (p - 1)][x])
    for _ in range(rng.randrange(4)):
        x, y = rng.sample(range(1, n), 2)
        for q in powers:
            union(q[x], q[y])
    blocks = {}
    for x in range(n):
        blocks.setdefault(find(x), []).append(x)
    return Partition.from_blocks(blocks.values(), n)


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_multiplier_kernel_matches_full_loop(p):
    rng = random.Random(1000 + p)
    tally = {"invariant valid": 0, "invariant invalid": 0, "not invariant": 0,
             "induced error": 0}
    for g in (GroupSpec.cp(p), GroupSpec.cp_c2(p), GroupSpec.cp_c2_c2(p)):
        n, perm = g.order, g.multiplier_perm
        theories = [rec.theory for rec in all_theories(g)]
        pairs = []  # (classes, charparts) to verify
        class_sides = []  # class partitions to complete
        for t in theories:
            pairs.append((t.classes, t.charparts))
            class_sides += [t.classes, t.charparts]
            for side in (0, 1):
                moved = _moved((t.classes, t.charparts)[side], rng)
                if moved is not None:
                    pairs.append((moved, t.charparts) if side == 0 else (t.classes, moved))
                    class_sides.append(moved)
        by_len = {}
        for t in theories:
            by_len.setdefault(len(t.classes), []).append(t)
        for group in by_len.values():
            for t1, t2 in zip(group, group[1:] + group[:1]):
                pairs.append((t1.classes, t2.charparts))
        for _ in range(40):
            k = rng.randrange(2, n + 1)
            classes = _random_partition(rng, n, k)
            pairs.append((classes, _random_partition(rng, n, k)))
            class_sides.append(classes)
        invariant = {}
        for _ in range(60):
            part = _random_invariant_partition(rng, g)
            invariant.setdefault(len(part), []).append(part)
            class_sides.append(part)
        for group in invariant.values():
            pairs += list(zip(group, group[1:]))

        for classes, charparts in pairs:
            t = Theory(g, classes, charparts)
            got = verify(t)
            assert got == _full_loop_verify(t), (classes, charparts)
            if not (_invariant(classes, perm) and _invariant(charparts, perm)):
                tally["not invariant"] += 1
            elif got is None:
                tally["invariant valid"] += 1
            else:
                tally["invariant invalid"] += 1
        for classes in class_sides:
            got = _induced(g, classes)
            assert got == _full_loop_induced(g, classes), classes
            tally["induced error"] += got[1] is not None
    assert all(count >= 20 for count in tally.values()), tally


def test_failing_invariant_theories_build_no_full_key_table():
    # verify locates the first violation of a theory whose partitions the
    # multipliers fix from the lead ids, so the n x n key table is left
    # unbuilt.  A fresh process, since other tests build these tables.
    code = (
        "from supercharacters import GroupSpec, Theory, all_theories, verify\n"
        "g = GroupSpec.cp_c2_c2(13)\n"
        "by_len = {}\n"
        "for rec in all_theories(g):\n"
        "    by_len.setdefault(len(rec.theory.classes), []).append(rec.theory)\n"
        "bad = [verify(Theory(g, t1.classes, t2.charparts))\n"
        "       for ts in by_len.values() for t1, t2 in zip(ts, ts[1:])]\n"
        "assert len(bad) == 189 and None not in bad\n"
        "assert {v.condition for v in bad} == {3}\n"
        "assert '_key_table' not in vars(g)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
