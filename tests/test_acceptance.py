"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL line."""

import json
import time
from contextlib import contextmanager

import pytest

from supercharacters import (
    GroupSpec,
    canonical_key,
    dual,
    from_automorphisms,
    invariant_subgroups,
    supercharacter_table,
    verify,
    wedge_decompositions,
)
from supercharacters.bruteforce import brute_force_count, brute_force_enumerate
from supercharacters.enumeration import all_scts_cp_c2_c2, divisor_count
from supercharacters.theories import theory_from_json, theory_to_json

from golden import GOLDEN_ORBIT_THEORIES
from subgroup_helpers import annihilator, generated_subgroup, wedge_annihilators

# Frozen counts for C_p x C_2 x C_2, computed by hand from the closed form
# total = 3k*d(3^l*n) + 2l*d(2^k*n) + 30*d(p-1) + 13 with p-1 = 2^k*3^l*n
# and independently confirmed by enumeration before being frozen here.
FROZEN = {
    # p: (total, automorphic, direct, overlap, wedge)
    3: (76, 13, 28, 10, 44),
    5: (109, 21, 39, 15, 63),
    7: (143, 30, 50, 20, 82),
    11: (139, 26, 50, 20, 82),
    13: (211, 48, 72, 30, 120),
}

TIME_LIMIT_PER_PRIME = 60.0
TIME_LIMIT_ORACLE = 300.0


@contextmanager
def reported(capsys, number: int, label: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number} ({label}): FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {number} ({label}): PASS")


@pytest.mark.fresh("times each prime's enumeration")
def test_criterion_1_counting_totals(capsys):
    with reported(capsys, 1, "closed-form totals for p in {3,5,7,11,13}"):
        for p in FROZEN:
            start = time.perf_counter()
            records, report = all_scts_cp_c2_c2(p)
            seconds = time.perf_counter() - start
            assert len(records) == report.total == FROZEN[p][0]
            assert report.predicted["total"] == FROZEN[p][0]
            assert seconds <= TIME_LIMIT_PER_PRIME, f"p={p} took {seconds:.1f}s"


def test_criterion_2_category_counts(enumerated, capsys):
    with reported(capsys, 2, "per-construction counts and wedge disjointness"):
        for p in FROZEN:
            records, report = enumerated.cp_c2_c2(p)
            got = (report.total, report.automorphic, report.direct,
                   report.overlap, report.wedge)
            assert got == FROZEN[p]
            assert report.maximal == 1
            assert report.matches()
            assert report.total == (report.automorphic + report.direct
                                    - report.overlap + report.wedge + 1)
            for rec in records:
                if "wedge" in rec.tags:
                    assert not ({"automorphic", "direct"} & rec.tags)


@pytest.mark.fresh("times the oracle")
def test_criterion_3_oracle_equivalence(enumerated, capsys):
    with reported(capsys, 3, "exhaustive search agrees with constructions"):
        start = time.perf_counter()
        oracle = {canonical_key(t) for t in brute_force_enumerate(GroupSpec.cp_c2_c2(3))}
        assert time.perf_counter() - start <= TIME_LIMIT_ORACLE
        constructive = {canonical_key(r.theory) for r in enumerated.cp_c2_c2(3)[0]}
        assert oracle == constructive and len(oracle) == 76

        cases = [
            (GroupSpec.klein(), 5),
            (GroupSpec.cp(3), divisor_count(2)),
            (GroupSpec.cp(5), divisor_count(4)),
            (GroupSpec.cp(7), divisor_count(6)),
            (GroupSpec.cp_c2(3), 3 * divisor_count(2) + 1),
            (GroupSpec.cp_c2(5), 3 * divisor_count(4) + 1),
            (GroupSpec.c2_cubed(), 100),
        ]
        for g, expected in cases:
            searched = {canonical_key(t) for t in enumerated.search(g)}
            constructed = {canonical_key(r.theory) for r in enumerated.theories(g)}
            assert searched == constructed, g.family
            assert len(searched) == expected, g.family


@pytest.mark.fresh("times the oracle")
def test_criterion_3_oracle_reaches_l_at_least_1(enumerated, capsys):
    # p - 1 = 2^k * 3^l * n: p = 7 and p = 13 have l = 1
    with reported(capsys, 3, "exhaustive search agrees at p in {5,7} and counts p=13"):
        budget = 10**5  # well above the nodes the search needs
        for p in (5, 7):
            start = time.perf_counter()
            g = GroupSpec.cp_c2_c2(p)
            oracle = {canonical_key(t) for t in brute_force_enumerate(g, budget)}
            assert time.perf_counter() - start <= TIME_LIMIT_ORACLE
            constructive = {canonical_key(r.theory) for r in enumerated.cp_c2_c2(p)[0]}
            assert oracle == constructive and len(oracle) == FROZEN[p][0]
        start = time.perf_counter()
        assert brute_force_count(GroupSpec.cp_c2_c2(13), budget) == FROZEN[13][0] == 211
        assert time.perf_counter() - start <= TIME_LIMIT_ORACLE


def test_criterion_4_golden_examples(capsys):
    with reported(capsys, 4, "worked orbit examples reproduced byte-identically"):
        for case in GOLDEN_ORBIT_THEORIES:
            g = GroupSpec.cp_c2_c2(case["p"])
            t = from_automorphisms(g, (g.aut_from_parts(case["u"], case["mat"]),))
            assert verify(t) is None, case["name"]
            built = [[list(g.elements[i]) for i in block] for block in t.classes.blocks]
            want = [[list(e) for e in block] for block in case["classes"]]
            assert json.dumps(built) == json.dumps(want), case["name"]


def _conj(v):
    return v.conjugate() if hasattr(v, "conjugate") else v


def test_criterion_5_axiom_suite(enumerated, capsys):
    with reported(capsys, 5, "axioms and dualities for every theory, p in {3,5,7}"):
        for p in (3, 5, 7):
            records = enumerated.cp_c2_c2(p)[0]
            g = GroupSpec.cp_c2_c2(p)
            order = g.order
            for rec in records:
                t = rec.theory
                assert verify(t) is None

                table = supercharacter_table(t)
                blocks = t.classes.blocks
                for ki, k in enumerate(blocks):
                    col = sum(row[ki] for row in table)
                    assert col == (order if k == (0,) else 0)
                for xi, x in enumerate(t.charparts.blocks):
                    for yi in range(xi, len(table)):
                        inner = sum(
                            len(k) * table[xi][ki] * _conj(table[yi][ki])
                            for ki, k in enumerate(blocks)
                        )
                        assert inner == (order * len(x) if xi == yi else 0)

                for k in blocks:
                    members = set(generated_subgroup(g, k).members)
                    for b in blocks:
                        assert set(b) <= members or not (set(b) & members)

                invs = invariant_subgroups(t)
                if len(blocks) == 2:
                    assert [h.order for h in invs] == [1, order]
                else:
                    assert any(1 < h.order < order for h in invs)

                d = dual(t)
                assert canonical_key(dual(d)) == canonical_key(t)
                wedges = wedge_annihilators(t)
                assert {n.members for n in wedge_decompositions(d)} == wedges
                assert bool(wedges) == ("wedge" in rec.tags)

                char_blocks = t.charparts.blocks
                anns = []
                for h in invs:
                    ann = set(annihilator(g, h))
                    assert len(ann) * h.order == order
                    assert all(set(b) <= ann or not (set(b) & ann) for b in char_blocks)
                    anns.append((set(h.members), ann))
                for m1, a1 in anns:
                    for m2, a2 in anns:
                        if m1 <= m2:
                            assert a2 <= a1


def test_criterion_6_cyclic_prime_class_structure(enumerated, capsys):
    with reported(capsys, 6, "equal class sizes and disjoint root supports on C_p"):
        for p in (3, 5, 7, 11, 13):
            g = GroupSpec.cp(p)
            for rec in enumerated.theories(g):
                t = rec.theory
                sizes = {len(b) for b in t.classes.blocks if b != (0,)}
                assert len(sizes) <= 1
                if sizes:
                    r = sizes.pop()
                    m = len(t.classes.blocks) - 1
                    assert r * m == p - 1
                for x in t.charparts.blocks:
                    if x == (0,):
                        continue
                    supports = []
                    for k in t.classes.blocks:
                        per_rep = {
                            frozenset(m * gi % p for (m,) in
                                      (g.elements[c] for c in x))
                            for (gi,) in (g.elements[i] for i in k)
                        }
                        assert len(per_rep) == 1
                        supports.append(per_rep.pop())
                    for i in range(len(supports)):
                        for j in range(i + 1, len(supports)):
                            assert not (supports[i] & supports[j])


@pytest.mark.fresh("compares two runs with the cached one")
def test_criterion_7_round_trip_determinism(enumerated, capsys):
    with reported(capsys, 7, "serialization round trip and repeatable output"):
        for p in (3, 5):
            records = enumerated.cp_c2_c2(p)[0]
            for rec in records:
                blob = json.dumps(theory_to_json(rec), sort_keys=True)
                back = theory_from_json(json.loads(blob))
                assert canonical_key(back.theory) == canonical_key(rec.theory)
                assert back.tags == rec.tags
                assert json.dumps(theory_to_json(back), sort_keys=True) == blob

        first, _ = all_scts_cp_c2_c2(3)
        second, _ = all_scts_cp_c2_c2(3)
        dump = lambda recs: "\n".join(
            json.dumps(theory_to_json(r), sort_keys=True) for r in recs
        )
        assert dump(first) == dump(second) == dump(enumerated.cp_c2_c2(3)[0])
