"""Family enumerators, tagging, and the closed-form counting identities."""

import time

import pytest

from supercharacters import (
    CountMismatchError,
    GroupSpec,
    Partition,
    Theory,
    WedgeSpec,
    all_scts_c2_cubed,
    all_scts_cp,
    all_scts_cp_c2,
    all_scts_klein,
    all_theories,
    canonical_key,
    divisor_count,
    factor_pm1,
    invariant_subgroups,
    minimal_theory,
    predicted_counts,
    theory_from_classes,
    verify,
    wedge,
)
from supercharacters import enumeration, theories
from supercharacters.enumeration import _Collector, all_scts_cp_c2_c2
from supercharacters.groups import DEFAULT_MAX_P
from supercharacters.theories import sort_key

# per-prime (total, automorphic, direct, overlap, wedge), worked out by hand
# from the closed forms before the enumerators existed
EXPECTED_COUNTS = {
    3: (76, 13, 28, 10, 44),
    5: (109, 21, 39, 15, 63),
    7: (143, 30, 50, 20, 82),
    11: (139, 26, 50, 20, 82),
    13: (211, 48, 72, 30, 120),
}


@pytest.mark.parametrize("n,d", [(1, 1), (2, 2), (4, 3), (6, 4), (10, 4), (12, 6), (36, 9)])
def test_divisor_count(n, d):
    assert divisor_count(n) == d


def test_divisor_count_rejects_nonpositive():
    with pytest.raises(ValueError):
        divisor_count(0)


@pytest.mark.parametrize("p,kln", [
    (3, (1, 0, 1)), (5, (2, 0, 1)), (7, (1, 1, 1)), (11, (1, 0, 5)), (13, (2, 1, 1)),
])
def test_factor_pm1(p, kln):
    k, l, n = factor_pm1(p)
    assert (k, l, n) == kln
    assert (2**k) * (3**l) * n == p - 1
    assert n % 2 and n % 3


def test_factor_pm1_rejects_nonprime():
    with pytest.raises(ValueError):
        factor_pm1(9)
    with pytest.raises(ValueError):
        factor_pm1(2)


@pytest.mark.parametrize("p", sorted(EXPECTED_COUNTS))
def test_predicted_counts_frozen(p):
    total, auto, direct, overlap, wedge = EXPECTED_COUNTS[p]
    rep = predicted_counts(p)
    assert rep.total == total
    assert rep.automorphic == auto
    assert rep.direct == direct
    assert rep.overlap == overlap
    assert rep.wedge == wedge
    assert rep.maximal == 1
    # inclusion-exclusion across the categories accounts for every theory
    assert total == auto + direct - overlap + wedge + 1


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_cp_enumeration(p):
    recs = all_scts_cp(p)
    assert len(recs) == divisor_count(p - 1)
    assert all("automorphic" in r.tags for r in recs)
    assert any("minimal" in r.tags for r in recs)
    assert any("maximal" in r.tags for r in recs)


def test_klein_enumeration():
    recs = all_scts_klein()
    keys = [canonical_key(r.theory) for r in recs]
    assert keys == [
        "2.2:0|1,2,3", "2.2:0|1,2|3", "2.2:0|1,3|2", "2.2:0|1|2,3", "2.2:0|1|2|3",
    ]
    tags = [sorted(r.tags) for r in recs]
    assert tags == [
        ["automorphic", "maximal"],
        ["automorphic", "wedge"],
        ["automorphic", "wedge"],
        ["automorphic", "wedge"],
        ["automorphic", "direct", "minimal"],
    ]


@pytest.mark.parametrize("p", [3, 5])
def test_cp_c2_enumeration(p, cpc2_records):
    recs = cpc2_records[p]
    assert len(recs) == 3 * divisor_count(p - 1) + 1
    # automorphism orbits and direct products give exactly the same theories
    auto = {canonical_key(r.theory) for r in recs if "automorphic" in r.tags}
    direct = {canonical_key(r.theory) for r in recs if "direct" in r.tags}
    assert auto == direct
    assert len(auto) == divisor_count(p - 1)
    wedges = [r for r in recs if "wedge" in r.tags]
    assert len(wedges) == 2 * divisor_count(p - 1)
    maxi = [r for r in recs if "maximal" in r.tags]
    assert len(maxi) == 1 and maxi[0].tags == {"maximal"}


def test_c2_cubed_enumeration(c2cubed_records):
    recs = c2cubed_records
    assert len(recs) == 100
    assert len({canonical_key(r.theory) for r in recs}) == 100
    assert sum(1 for r in recs if "maximal" in r.tags) == 1
    assert sum(1 for r in recs if "minimal" in r.tags) == 1


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cp_c2_c2_counts(p, records_by_p):
    recs, report = records_by_p[p]
    total, auto, direct, overlap, wedge = EXPECTED_COUNTS[p]
    assert report.matches()
    assert (report.total, report.automorphic, report.direct,
            report.overlap, report.wedge) == (total, auto, direct, overlap, wedge)
    assert len(recs) == total
    assert len({canonical_key(r.theory) for r in recs}) == total


# The first primes with l = 2 (37), k = 5 (97), l = 3 (109), l = 4 (163) and
# k = 6 (193), and DEFAULT_MAX_P.  Worked by hand from p - 1 = 2^k * 3^l * n:
# (k, l, n) and (total, automorphic, direct, overlap, wedge) with
#   total 3k*d(3^l n) + 2l*d(2^k n) + 30*d(p-1) + 13,
#   automorphic 3k*d(3^l n) + 2l*d(2^k n) + 5*d(p-1),
#   direct 11*d(p-1) + 6, overlap 5*d(p-1), wedge 19*d(p-1) + 6.
LARGE_PRIMES = {
    # 36 = 2^2 3^2: d(36) = 9, d(9) = d(4) = 3
    37: ((2, 2, 1), (313, 75, 105, 45, 177)),
    # 96 = 2^5 3: d(96) = 12, d(3) = 2, d(32) = 6
    97: ((5, 1, 1), (415, 102, 138, 60, 234)),
    # 108 = 2^2 3^3: d(108) = 12, d(27) = 4, d(4) = 3
    109: ((2, 3, 1), (415, 102, 138, 60, 234)),
    # 162 = 2 3^4: d(162) = 10, d(81) = 5, d(2) = 2
    163: ((1, 4, 1), (344, 81, 116, 50, 196)),
    # 192 = 2^6 3: d(192) = 14, d(3) = 2, d(64) = 7
    193: ((6, 1, 1), (483, 120, 160, 70, 272)),
    # 198 = 2 3^2 11: d(198) = 12, d(99) = 6, d(22) = 4
    199: ((1, 2, 11), (407, 94, 138, 60, 234)),
}
# seconds; 37 took about 0.6 s on a 2-core host, and 15 s is the bound README
# states next to --max-p 199
TIME_LIMITS = {37: 10.0, 199: 15.0}


@pytest.mark.parametrize("p", sorted(LARGE_PRIMES))
def test_cp_c2_c2_closed_form_at_large_primes(p):
    start = time.perf_counter()
    recs, report = all_scts_cp_c2_c2(p)
    seconds = time.perf_counter() - start
    assert DEFAULT_MAX_P == 199
    kln, counts = LARGE_PRIMES[p]
    assert (report.k, report.l, report.n) == factor_pm1(p) == kln
    formula = enumeration._formula(p)
    assert report.predicted == formula
    tags = ("total", "automorphic", "direct", "overlap", "wedge")
    assert tuple(formula[t] for t in tags) == counts
    assert {t: getattr(report, t) for t in formula} == formula
    assert report.maximal == 1
    assert len({canonical_key(r.theory) for r in recs}) == len(recs) == counts[0]
    if p in TIME_LIMITS:
        assert seconds <= TIME_LIMITS[p], f"p={p} took {seconds:.1f}s"


@pytest.mark.parametrize("p", [3, 5, 7])
def test_records_are_sorted_and_verified(p, records_by_p):
    recs, _ = records_by_p[p]
    keys = [sort_key(r.theory) for r in recs]
    assert keys == sorted(keys)
    for r in recs:
        assert verify(r.theory) is None


@pytest.mark.parametrize("p", [3, 5, 7])
def test_wedges_disjoint_from_other_constructions(p, records_by_p):
    recs, _ = records_by_p[p]
    for r in recs:
        if "wedge" in r.tags:
            assert "automorphic" not in r.tags and "direct" not in r.tags


@pytest.mark.parametrize("p", [3, 5, 7])
def test_maximal_theory_stands_alone(p, records_by_p):
    recs, _ = records_by_p[p]
    maxi = [r for r in recs if "maximal" in r.tags]
    assert len(maxi) == 1
    assert maxi[0].tags == {"maximal"}


@pytest.mark.parametrize("p", [3, 5])
def test_single_invariant_chain_forces_outer_coset_class(p, records_by_p):
    # when the only proper nontrivial invariant subgroups are one C_2p chain
    # (with possibly its C_2), everything outside the chain is a single class
    recs, _ = records_by_p[p]
    hits = 0
    for r in recs:
        inv = [h for h in invariant_subgroups(r.theory) if 1 < h.order < 4 * p]
        orders = sorted(h.order for h in inv)
        if orders not in ([2 * p], [2, 2 * p]):
            continue
        chain = next(h for h in inv if h.order == 2 * p)
        outside = tuple(sorted(set(range(4 * p)) - set(chain.members)))
        if len(inv) == 2 and not set(inv[0].members) <= set(chain.members):
            continue
        assert outside in r.theory.classes.blocks
        hits += 1
    assert hits > 0


@pytest.mark.parametrize("p", [3, 5])
def test_wedge_subgroups_nest(p, records_by_p):
    # all subgroups over which one theory decomposes as a wedge form a chain
    recs, _ = records_by_p[p]
    g = GroupSpec.cp_c2_c2(p)
    by_members = {h.members: set(h.members) for h in g.all_subgroups}
    for r in recs:
        used = [
            set(g.generated_subgroup([g.index_of(e) for e in prov["N"]]).members)
            for prov in r.provenance
            if prov.get("construction") == "wedge"
        ]
        for i, s in enumerate(used):
            for t in used[i + 1:]:
                assert s <= t or t <= s
    assert by_members


@pytest.mark.parametrize("p", [3, 5])
def test_direct_product_automorphic_iff_factors_are(p, records_by_p):
    recs, _ = records_by_p[p]
    factor_tags: dict[str, bool] = {}
    for fam in (GroupSpec.cp(p), GroupSpec.klein(), GroupSpec.cp_c2(p), GroupSpec.of((2,))):
        for fr in all_theories(fam):
            factor_tags[canonical_key(fr.theory)] = "automorphic" in fr.tags
    for r in recs:
        pairs = [pr for pr in r.provenance if pr.get("construction") == "direct"]
        if not pairs:
            continue
        some_aut_pair = any(
            factor_tags[a] and factor_tags[b] for a, b in (pr["factors"] for pr in pairs)
        )
        assert some_aut_pair == ("automorphic" in r.tags)


def test_provenance_shapes(records_by_p):
    recs, _ = records_by_p[3]
    for r in recs:
        assert r.provenance, canonical_key(r.theory)
        for prov in r.provenance:
            kind = prov["construction"]
            assert kind in {"aut", "direct", "wedge", "minimal", "maximal"}
            if kind == "aut":
                assert isinstance(prov["generators"], list)
            if kind == "direct":
                assert len(prov["pair"]) == 2 and len(prov["factors"]) == 2
            if kind == "wedge":
                assert {"N", "inner", "outer"} <= prov.keys()


def test_all_theories_dispatch():
    assert len(all_theories(GroupSpec.of(()))) == 1
    c2 = all_theories(GroupSpec.of((2,)))
    assert len(c2) == 1 and c2[0].tags == {"minimal", "maximal", "automorphic"}
    assert len(all_theories(GroupSpec.klein())) == 5
    assert len(all_theories(GroupSpec.cp(5))) == 3
    assert len(all_theories(GroupSpec.cp_c2(3))) == 7
    assert len(all_theories(GroupSpec.cp_c2_c2(3))) == 76


def test_prime_bounds():
    with pytest.raises(ValueError):
        all_scts_cp(9)
    with pytest.raises(ValueError):
        all_scts_cp(211, max_p=199)
    with pytest.raises(ValueError):
        all_scts_cp_c2(4)
    assert CountMismatchError is not None


def test_each_distinct_theory_is_verified_once(monkeypatch):
    calls = []
    real_verify = theories.verify

    def counted(t):
        calls.append(t)
        return real_verify(t)

    monkeypatch.setattr(theories, "verify", counted)
    enumeration._sub_theories.cache_clear()
    records, _ = all_scts_cp_c2_c2(5)
    assert len(calls) == len(set(calls))
    # every record of every enumerated group, and nothing else; C_2 and the
    # trivial group have fixed records
    sub_groups = (GroupSpec.cp_c2(5), GroupSpec.cp(5), GroupSpec.klein())
    assert len(calls) == len(records) + sum(len(all_theories(h)) for h in sub_groups)


def test_enumerator_derives_no_character_side(monkeypatch):
    # every construction builds its own character partition, so completing
    # a class partition is never needed, in the subgroups' enumerations too
    def refuse(g, classes):
        raise AssertionError("induced_character_partition called")

    monkeypatch.setattr(theories, "induced_character_partition", refuse)
    enumeration._sub_theories.cache_clear()
    records, report = all_scts_cp_c2_c2(5)
    assert report.matches() and len(records) == 109


def test_collector_rejects_a_wrong_character_partition():
    g = GroupSpec.cp(5)
    good = theory_from_classes(g, Partition.from_blocks([(0,), (1, 4), (2, 3)], 5))
    wrong = Theory(g, good.classes, Partition.from_blocks([(0,), (1, 2), (3, 4)], 5))
    with pytest.raises(RuntimeError, match="wedge fails verification"):
        _Collector().add(wrong, "wedge", {"construction": "wedge"})
    col = _Collector()
    col.add(good, "automorphic", {"construction": "aut"})
    with pytest.raises(RuntimeError, match="direct product fails verification"):
        col.add(wrong, "direct", {"construction": "direct"})
    col.add(good, "wedge", {"construction": "wedge"})
    rec, = col.finish()
    assert rec.theory == good and rec.tags == {"automorphic", "wedge"}


def test_collector_rejects_a_bad_wedge():
    # wedge(..., check=False) derives nothing, so only the gate can catch a
    # wrong character side: swap in a partition with as many blocks
    g = GroupSpec.cp_c2_c2(3)
    n = next(h for h in g.all_subgroups if h.order == 6)
    emb, quot = g.subgroup_embedding(n), g.quotient(n)
    ws = WedgeSpec(n, minimal_theory(emb.group), minimal_theory(quot.group))
    good = wedge(ws)
    assert verify(good) is None
    assert wedge(ws, check=False) == good
    other = next(r.theory.charparts for r in all_theories(g)
                 if len(r.theory.charparts) == len(good.charparts)
                 and r.theory.charparts != good.charparts)
    bad = Theory(g, good.classes, other)
    with pytest.raises(RuntimeError, match="wedge fails verification"):
        _Collector().add(bad, "wedge", {"construction": "wedge"})
    col = _Collector()
    col.add(good, "wedge", {"construction": "wedge"})
    with pytest.raises(RuntimeError, match="wedge fails verification"):
        col.add(bad, "wedge", {"construction": "wedge"})


def test_all_theories_returns_fresh_records():
    g = GroupSpec.cp_c2(5)
    first = all_theories(g)
    first[0].tags.add("mutated")
    first[0].provenance.append({"construction": "mutated"})
    second = all_theories(g)
    assert "mutated" not in second[0].tags
    assert {"construction": "mutated"} not in second[0].provenance
    assert [r.theory for r in first] == [r.theory for r in second]
