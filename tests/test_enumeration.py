"""Family enumerators, tagging, and the closed-form counting identities."""

import ast
import cProfile
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from supercharacters import (
    CycInt,
    GroupSpec,
    Partition,
    Theory,
    all_theories,
    canonical_key,
    divisor_count,
    factor_pm1,
    invariant_subgroups,
    is_odd_prime,
    minimal_theory,
    predicted_counts,
    theory_from_classes,
    verify,
    wedge,
)
from supercharacters import bruteforce, cyclotomic, enumeration, groups, theories
from supercharacters.enumeration import _Collector, all_scts_cp_c2_c2
from supercharacters.groups import DEFAULT_MAX_P
from supercharacters.theories import sort_key

from subgroup_helpers import generated_subgroup

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


def test_divisor_count_matches_brute_force():
    for n in range(1, 2001):
        assert divisor_count(n) == sum(1 for d in range(1, n + 1) if n % d == 0), n


def test_predicted_counts_at_a_large_prime_is_fast():
    # divisor_count pairs d with n // d: about 3,200 trial divisions at
    # p = 10,000,019, not ten million, even under the profiler
    profiler = cProfile.Profile()
    start = time.process_time()
    report = profiler.runcall(predicted_counts, 10_000_019)
    assert time.process_time() - start < 0.5
    # p - 1 = 2 * 7^2 * 67 * 1523: d(p - 1) = 24 and d(3^l * n) = 12
    assert (report.k, report.l, report.n) == (1, 0, 5_000_009)
    assert report.total == 3 * 12 + 30 * 24 + 13


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
def test_cp_enumeration(p, enumerated):
    recs = enumerated.theories(GroupSpec.cp(p))
    assert len(recs) == divisor_count(p - 1)
    assert all("automorphic" in r.tags for r in recs)
    assert any("minimal" in r.tags for r in recs)
    assert any("maximal" in r.tags for r in recs)


def test_klein_enumeration(enumerated):
    recs = enumerated.theories(GroupSpec.klein())
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
def test_cp_c2_enumeration(p, enumerated):
    recs = enumerated.theories(GroupSpec.cp_c2(p))
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


def test_c2_cubed_enumeration(enumerated):
    recs = enumerated.theories(GroupSpec.c2_cubed())
    assert len(recs) == 100
    assert len({canonical_key(r.theory) for r in recs}) == 100
    assert sum(1 for r in recs if "maximal" in r.tags) == 1
    assert sum(1 for r in recs if "minimal" in r.tags) == 1
    # the orbit step reaches every theory of (C_2)^3
    assert sum(1 for r in recs if "automorphic" in r.tags) == 100
    assert sum(1 for r in recs if "direct" in r.tags) == 50
    assert sum(1 for r in recs if "wedge" in r.tags) == 49
    assert sum(1 for r in recs if {"direct", "automorphic"} <= r.tags) == 50


@pytest.mark.fresh("enumerates with the blind search patched")
def test_c2_cubed_enumeration_runs_no_search(monkeypatch, enumerated):
    c2cubed_records = enumerated.theories(GroupSpec.c2_cubed())

    def refuse(*args):
        raise AssertionError("the enumerator ran the blind search")

    monkeypatch.setattr(bruteforce, "_search", refuse)
    recs = all_theories(GroupSpec.c2_cubed())
    assert [r.theory for r in recs] == [r.theory for r in c2cubed_records]


@pytest.mark.parametrize("p", sorted(EXPECTED_COUNTS))
def test_cp_c2_c2_counts(p, enumerated):
    recs, report = enumerated.cp_c2_c2(p)
    total, auto, direct, overlap, wedge = EXPECTED_COUNTS[p]
    assert report.matches()
    assert (report.total, report.automorphic, report.direct,
            report.overlap, report.wedge) == (total, auto, direct, overlap, wedge)
    assert len(recs) == total
    assert len({canonical_key(r.theory) for r in recs}) == total


# With EXPECTED_COUNTS, one prime for each shape (k, l, d(n)) of the closed
# form up to DEFAULT_MAX_P (see test_every_closed_form_shape_is_enumerated).
# Among them the first with l = 2 (19, as 18 = 2 * 3^2), k = 2 and l = 2
# together (37), k = 5 (97), l = 3 (109), l = 4 (163) and k = 6 (193), the
# prime below 200 with the most theories (181), and DEFAULT_MAX_P.  Worked by
# hand from p - 1 = 2^k * 3^l * n: (k, l, n) and (total, automorphic, direct,
# overlap, wedge) with
#   total 3k*d(3^l n) + 2l*d(2^k n) + 30*d(p-1) + 13,
#   automorphic 3k*d(3^l n) + 2l*d(2^k n) + 5*d(p-1),
#   direct 11*d(p-1) + 6, overlap 5*d(p-1), wedge 19*d(p-1) + 6.
# Each comment gives d(p-1), d(3^l n) and d(2^k n).
LARGE_PRIMES = {
    # 16 = 2^4: d(16) = 5, d(1) = 1, d(16) = 5
    17: ((4, 0, 1), (175, 37, 61, 25, 101)),
    # 18 = 2 3^2: d(18) = 6, d(9) = 3, d(2) = 2
    19: ((1, 2, 1), (210, 47, 72, 30, 120)),
    # 28 = 2^2 7: d(28) = 6, d(7) = 2, d(28) = 6
    29: ((2, 0, 7), (205, 42, 72, 30, 120)),
    # 30 = 2 3 5: d(30) = 8, d(15) = 4, d(10) = 4
    31: ((1, 1, 5), (273, 60, 94, 40, 158)),
    # 36 = 2^2 3^2: d(36) = 9, d(9) = d(4) = 3
    37: ((2, 2, 1), (313, 75, 105, 45, 177)),
    # 40 = 2^3 5: d(40) = 8, d(5) = 2, d(40) = 8
    41: ((3, 0, 5), (271, 58, 94, 40, 158)),
    # 60 = 2^2 3 5: d(60) = 12, d(15) = 4, d(20) = 6
    61: ((2, 1, 5), (409, 96, 138, 60, 234)),
    # 70 = 2 5 7: d(70) = 8, d(35) = 4, d(70) = 8
    71: ((1, 0, 35), (265, 52, 94, 40, 158)),
    # 72 = 2^3 3^2: d(72) = 12, d(9) = 3, d(8) = 4
    73: ((3, 2, 1), (416, 103, 138, 60, 234)),
    # 96 = 2^5 3: d(96) = 12, d(3) = 2, d(32) = 6
    97: ((5, 1, 1), (415, 102, 138, 60, 234)),
    # 100 = 2^2 5^2: d(100) = 9, d(25) = 3, d(100) = 9
    101: ((2, 0, 25), (301, 63, 105, 45, 177)),
    # 108 = 2^2 3^3: d(108) = 12, d(27) = 4, d(4) = 3
    109: ((2, 3, 1), (415, 102, 138, 60, 234)),
    # 112 = 2^4 7: d(112) = 10, d(7) = 2, d(112) = 10
    113: ((4, 0, 7), (337, 74, 116, 50, 196)),
    # 150 = 2 3 5^2: d(150) = 12, d(75) = 6, d(50) = 6
    151: ((1, 1, 25), (403, 90, 138, 60, 234)),
    # 162 = 2 3^4: d(162) = 10, d(81) = 5, d(2) = 2
    163: ((1, 4, 1), (344, 81, 116, 50, 196)),
    # 180 = 2^2 3^2 5: d(180) = 18, d(45) = 6, d(20) = 6
    181: ((2, 2, 5), (613, 150, 204, 90, 348)),
    # 192 = 2^6 3: d(192) = 14, d(3) = 2, d(64) = 7
    193: ((6, 1, 1), (483, 120, 160, 70, 272)),
    # 198 = 2 3^2 11: d(198) = 12, d(99) = 6, d(22) = 4
    199: ((1, 2, 11), (407, 94, 138, 60, 234)),
}
# seconds; 37 took about 0.6 s on a 2-core host, and 15 s is the bound the
# README states for count --p 199, at DEFAULT_MAX_P
TIME_LIMITS = {37: 10.0, 199: 15.0}


@pytest.mark.fresh("times the enumeration, or is the only reader of its prime")
@pytest.mark.parametrize("p", sorted(LARGE_PRIMES))
def test_cp_c2_c2_closed_form_at_large_primes(p):
    start = time.perf_counter()
    recs, report = all_scts_cp_c2_c2(p)
    seconds = time.perf_counter() - start
    assert DEFAULT_MAX_P == 199
    kln, counts = LARGE_PRIMES[p]
    assert (report.k, report.l, report.n) == factor_pm1(p) == kln
    formula = enumeration._formula(*kln)
    assert report.predicted == formula
    tags = ("total", "automorphic", "direct", "overlap", "wedge")
    assert tuple(formula[t] for t in tags) == counts
    assert {t: getattr(report, t) for t in formula} == formula
    assert report.maximal == 1
    assert len({canonical_key(r.theory) for r in recs}) == len(recs) == counts[0]
    if p in TIME_LIMITS:
        assert seconds <= TIME_LIMITS[p], f"p={p} took {seconds:.1f}s"


def test_every_closed_form_shape_is_enumerated():
    # d is multiplicative, so _formula depends on p only through (k, l, d(n))
    def shape(p):
        k, l, n = factor_pm1(p)
        return k, l, divisor_count(n)

    shapes = {shape(p) for p in range(3, DEFAULT_MAX_P + 1) if is_odd_prime(p)}
    assert len(shapes) == 23
    assert {shape(p) for p in (*EXPECTED_COUNTS, *LARGE_PRIMES)} == shapes


@pytest.mark.parametrize("p", [3, 5, 7])
def test_records_are_sorted_and_verified(p, enumerated):
    recs, _ = enumerated.cp_c2_c2(p)
    keys = [sort_key(r.theory) for r in recs]
    assert keys == sorted(keys)
    for r in recs:
        assert verify(r.theory) is None


@pytest.mark.parametrize("p", [3, 5, 7])
def test_wedges_disjoint_from_other_constructions(p, enumerated):
    recs, _ = enumerated.cp_c2_c2(p)
    for r in recs:
        if "wedge" in r.tags:
            assert "automorphic" not in r.tags and "direct" not in r.tags


@pytest.mark.parametrize("p", [3, 5, 7])
def test_maximal_theory_stands_alone(p, enumerated):
    recs, _ = enumerated.cp_c2_c2(p)
    maxi = [r for r in recs if "maximal" in r.tags]
    assert len(maxi) == 1
    assert maxi[0].tags == {"maximal"}


@pytest.mark.parametrize("p", [3, 5])
def test_single_invariant_chain_forces_outer_coset_class(p, enumerated):
    # when the only proper nontrivial invariant subgroups are one C_2p chain
    # (with possibly its C_2), everything outside the chain is a single class
    recs, _ = enumerated.cp_c2_c2(p)
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
def test_wedge_subgroups_nest(p, enumerated):
    # all subgroups over which one theory decomposes as a wedge form a chain
    recs, _ = enumerated.cp_c2_c2(p)
    g = GroupSpec.cp_c2_c2(p)
    by_members = {h.members: set(h.members) for h in g.all_subgroups}
    for r in recs:
        used = [
            set(generated_subgroup(g, [g.index_of(e) for e in prov["N"]]).members)
            for prov in r.provenance
            if prov.get("construction") == "wedge"
        ]
        for i, s in enumerate(used):
            for t in used[i + 1:]:
                assert s <= t or t <= s
    assert by_members


@pytest.mark.parametrize("p", [3, 5])
def test_direct_product_automorphic_iff_factors_are(p, enumerated):
    recs, _ = enumerated.cp_c2_c2(p)
    factor_tags: dict[str, bool] = {}
    for fam in (GroupSpec.cp(p), GroupSpec.klein(), GroupSpec.cp_c2(p), GroupSpec.of((2,))):
        for fr in enumerated.theories(fam):
            factor_tags[canonical_key(fr.theory)] = "automorphic" in fr.tags
    for r in recs:
        pairs = [pr for pr in r.provenance if pr.get("construction") == "direct"]
        if not pairs:
            continue
        some_aut_pair = any(
            factor_tags[a] and factor_tags[b] for a, b in (pr["factors"] for pr in pairs)
        )
        assert some_aut_pair == ("automorphic" in r.tags)


def test_provenance_shapes(enumerated):
    recs, _ = enumerated.cp_c2_c2(3)
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


def test_all_theories_dispatch(enumerated):
    # the trivial group and C_2 pass the gate like every other family: the
    # identity orbit of the trivial Aut(G) gives their one theory
    for factors in ((), (2,)):
        rec, = enumerated.theories(GroupSpec.of(factors))
        assert rec.tags == {"minimal", "maximal", "automorphic"}
        assert rec.provenance == [{"construction": "aut", "generators": []},
                                  {"construction": "minimal"}, {"construction": "maximal"}]
    assert len(enumerated.theories(GroupSpec.klein())) == 5
    assert len(enumerated.theories(GroupSpec.cp(5))) == 3
    assert len(enumerated.theories(GroupSpec.cp_c2(3))) == 7
    assert len(enumerated.theories(GroupSpec.cp_c2_c2(3))) == 76


def test_prime_bounds():
    with pytest.raises(ValueError):
        GroupSpec.cp(9)
    with pytest.raises(ValueError):
        GroupSpec.cp_c2(4)
    # GroupSpec refuses an odd factor past the one p bound, however it is made
    for factors in ((211,), (211, 2), (211, 2, 2)):
        with pytest.raises(ValueError, match="exceeds the bound"):
            all_theories(GroupSpec.of(factors))


def test_bound_is_checked_before_any_trial_division(monkeypatch):
    def no_trial_division(p):
        raise AssertionError(f"trial division reached for p={p}")

    monkeypatch.setattr(groups, "is_odd_prime", no_trial_division)
    monkeypatch.setattr(cyclotomic, "is_odd_prime", no_trial_division)
    with pytest.raises(ValueError, match="exceeds the bound 199"):
        GroupSpec.of((2**61 - 1, 2, 2))
    with pytest.raises(ValueError, match="exceeds the bound 199"):
        GroupSpec((10**30 + 57,))
    with pytest.raises(ValueError, match="coefficients"):
        CycInt(2**61 - 1, ())


def _identifiers(tree) -> set[str]:
    """Every name a module defines, imports, assigns or reads."""
    out = set()
    for n in ast.walk(tree):
        out |= {getattr(n, "id", None), getattr(n, "attr", None)}
        if isinstance(n, (ast.ClassDef, ast.FunctionDef)):
            out.add(n.name)
        elif isinstance(n, ast.ImportFrom):
            out |= {a.name for a in n.names}
    return out


def test_gate_has_one_home():
    # the gate is defined in enumeration and constructed only by
    # all_theories, which takes its group as given; no other module names it
    src = Path(enumeration.__file__).parent
    trees = {f.stem: ast.parse(f.read_text()) for f in src.glob("*.py")}
    for name, tree in trees.items():
        if name != "enumeration":
            assert not {"_Collector", "_BUILT_BY"} & _identifiers(tree), name
    tree = trees["enumeration"]
    top = {n.name for n in tree.body if isinstance(n, (ast.ClassDef, ast.FunctionDef))}
    top |= {t.id for n in tree.body if isinstance(n, ast.Assign) for t in n.targets}
    assert {"_Collector", "_BUILT_BY"} <= top
    body = next(n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == "all_theories")

    def builds(node):
        return sum(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_Collector"
                   for n in ast.walk(node))

    assert builds(tree) == builds(body) == 1
    assert "from_family" not in _identifiers(body)


def test_tests_enumerate_through_the_one_cache():
    # conftest.py's `enumerated` is the only caller of the three that a test
    # merely reads; elsewhere a call lies in a test marked fresh, or under
    # pytest.raises, where it is refused before it enumerates anything
    callees = {"all_theories", "all_scts_cp_c2_c2", "brute_force_enumerate"}
    calls = {"conftest": [], "fresh": [], "stray": []}

    def scan(node, where, name):
        if isinstance(node, ast.FunctionDef) and any(
                isinstance(d, ast.Call) and ast.unparse(d.func) == "pytest.mark.fresh"
                for d in node.decorator_list):
            where = "fresh"
        elif isinstance(node, ast.With) and any(
                isinstance(i.context_expr, ast.Call)
                and ast.unparse(i.context_expr.func) == "pytest.raises"
                for i in node.items):
            return
        elif isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)) in callees:
            calls[where].append((name, node.lineno, ast.unparse(node.func)))
        for child in ast.iter_child_nodes(node):
            scan(child, where, name)

    for f in sorted(Path(__file__).parent.glob("*.py")):
        scan(ast.parse(f.read_text()), "conftest" if f.stem == "conftest" else "stray", f.name)
    assert calls["stray"] == []
    assert {c[2] for c in calls["conftest"]} == callees
    assert {c[2].rpartition(".")[2] for c in calls["fresh"]} == callees


@pytest.mark.fresh("patches verify, clears _sub_theories")
def test_each_distinct_theory_is_verified_once(monkeypatch, enumerated):
    calls = []
    real_verify = theories.verify

    def counted(t):
        calls.append(t)
        return real_verify(t)

    monkeypatch.setattr(theories, "verify", counted)
    enumeration._sub_theories.cache_clear()
    records, _ = all_scts_cp_c2_c2(5)
    assert len(calls) == len(set(calls))
    # every record of every enumerated group, and nothing else; the one
    # theory of C_2 passes the gate too
    sub_groups = (GroupSpec.cp_c2(5), GroupSpec.cp(5), GroupSpec.klein(), GroupSpec.of((2,)))
    assert len(calls) == len(records) + sum(len(enumerated.theories(h)) for h in sub_groups)


@pytest.mark.fresh("patches induced_character_partition, clears _sub_theories")
def test_enumerator_derives_no_character_side(monkeypatch):
    # every construction builds its own character partition, so completing
    # a class partition is never needed, in the subgroups' enumerations too
    def refuse(g, classes):
        raise AssertionError("induced_character_partition called")

    monkeypatch.setattr(theories, "induced_character_partition", refuse)
    enumeration._sub_theories.cache_clear()
    records, report = all_scts_cp_c2_c2(5)
    assert report.matches() and len(records) == 109


@pytest.mark.fresh("enumerates in a child process")
def test_enumerator_builds_no_full_key_table():
    # the enumerator reads only the lead rows; the n x n key table of a
    # group with a p part (633,616 entries at p = 199) is left unbuilt.  A
    # fresh process, since other tests build these tables.
    code = (
        "from supercharacters import GroupSpec\n"
        "from supercharacters.enumeration import all_scts_cp_c2_c2\n"
        "records, report = all_scts_cp_c2_c2(13)\n"
        "assert report.matches()\n"
        "assert '_lead_rows' in vars(GroupSpec.of((13, 2, 2)))\n"
        "for f in ((13, 2, 2), (13, 2), (13,)):\n"
        "    assert '_key_table' not in vars(GroupSpec.of(f)), f\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_collector_rejects_a_wrong_character_partition():
    g = GroupSpec.cp(5)
    good = theory_from_classes(g, Partition(5, [(0,), (1, 4), (2, 3)]))
    wrong = Theory(g, good.classes, Partition(5, [(0,), (1, 2), (3, 4)]))
    with pytest.raises(RuntimeError, match="wedge fails verification"):
        _Collector().add(wrong, {"construction": "wedge"})
    col = _Collector()
    col.add(good, {"construction": "aut"})
    with pytest.raises(RuntimeError, match="direct product fails verification"):
        col.add(wrong, {"construction": "direct"})
    col.add(good, {"construction": "wedge"})
    # the tag is read from the provenance entry; an extreme's entry adds none
    col.add(good, {"construction": "minimal"})
    rec, = col.finish()
    assert rec.theory == good and rec.tags == {"automorphic", "wedge"}
    assert [e["construction"] for e in rec.provenance] == ["aut", "wedge", "minimal"]


def test_collector_rejects_a_bad_wedge(enumerated):
    # wedge derives no character side from the classes, so only the gate
    # can catch a wrong one: swap in a partition with as many blocks
    g = GroupSpec.cp_c2_c2(3)
    n = next(h for h in g.all_subgroups if h.order == 6)
    emb, quot = g.subgroup_embedding(n), g.quotient(n)
    good = wedge(n, minimal_theory(emb.group), minimal_theory(quot.group))
    assert verify(good) is None
    other = next(r.theory.charparts for r in enumerated.theories(g)
                 if len(r.theory.charparts) == len(good.charparts)
                 and r.theory.charparts != good.charparts)
    bad = Theory(g, good.classes, other)
    with pytest.raises(RuntimeError, match="wedge fails verification"):
        _Collector().add(bad, {"construction": "wedge"})
    col = _Collector()
    col.add(good, {"construction": "wedge"})
    with pytest.raises(RuntimeError, match="wedge fails verification"):
        col.add(bad, {"construction": "wedge"})


@pytest.mark.fresh("compares two runs, one of them mutated")
def test_all_theories_returns_fresh_records():
    g = GroupSpec.cp_c2(5)
    first = all_theories(g)
    first[0].tags.add("mutated")
    first[0].provenance.append({"construction": "mutated"})
    second = all_theories(g)
    assert "mutated" not in second[0].tags
    assert {"construction": "mutated"} not in second[0].provenance
    assert [r.theory for r in first] == [r.theory for r in second]
