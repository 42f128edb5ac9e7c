"""Complete enumeration of supercharacter theories per supported family, with
the closed-form counts each run must reproduce.

For G = C_p x C_2 x C_2 write p - 1 = 2^k * 3^l * n with gcd(n, 6) = 1 and
d() for the divisor-count function.  Then the enumeration must produce

    total       = 3k*d(3^l*n) + 2l*d(2^k*n) + 30*d(p-1) + 13
    automorphic = 3k*d(3^l*n) + 2l*d(2^k*n) + 5*d(p-1)
    direct      = 11*d(p-1) + 6
    overlap     = 5*d(p-1)          (direct and automorphic)
    wedge       = 19*d(p-1) + 6    (disjoint from direct and automorphic)
    maximal     = 1

and every theory is produced by tagged constructions plus the maximal one.
"""

from __future__ import annotations

from functools import lru_cache

from .bruteforce import brute_force_count
from .constructions import WedgeSpec, direct_product, from_automorphisms, wedge
from .groups import DEFAULT_MAX_P, GroupSpec, Subgroup, _Frozen, _set, aut_generating_subset
from .cyclotomic import is_odd_prime
from .theories import (
    TheoryRecord,
    Theory,
    canonical_key,
    generators_to_json,
    maximal_theory,
    minimal_theory,
    require_valid,
    shape_tags,
    sort_key,
)


def divisor_count(n: int) -> int:
    """Number of positive divisors of n >= 1."""
    if n < 1:
        raise ValueError(f"divisor_count needs n >= 1, got {n}")
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def factor_pm1(p: int) -> tuple[int, int, int]:
    """(k, l, n) with p - 1 = 2^k * 3^l * n and gcd(n, 6) = 1."""
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    m = p - 1
    k = 0
    while m % 2 == 0:
        m //= 2
        k += 1
    l = 0
    while m % 3 == 0:
        m //= 3
        l += 1
    return k, l, m


class CountReport(_Frozen):
    """Actual per-tag counts for one prime next to the closed-form values."""

    _fields = ("p", "k", "l", "n", "total", "automorphic", "direct", "overlap", "wedge",
               "maximal", "predicted")

    def __init__(self, p: int, k: int, l: int, n: int, total: int, automorphic: int,
                 direct: int, overlap: int, wedge: int, maximal: int, predicted: dict):
        _set(self, "p", p)
        _set(self, "k", k)
        _set(self, "l", l)
        _set(self, "n", n)
        _set(self, "total", total)
        _set(self, "automorphic", automorphic)
        _set(self, "direct", direct)
        _set(self, "overlap", overlap)
        _set(self, "wedge", wedge)
        _set(self, "maximal", maximal)
        _set(self, "predicted", predicted)

    def to_json(self) -> dict:
        """Every field in constructor order, the predicted counts copied."""
        out = {f: getattr(self, f) for f in self._fields}
        out["predicted"] = dict(self.predicted)
        return out

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.to_json() == other.to_json()

    def __hash__(self):
        # raises TypeError, as the predicted dict is unhashable
        return hash(tuple(self.to_json().values()))

    def matches(self) -> bool:
        return all(getattr(self, key) == val for key, val in self.predicted.items())


class CountMismatchError(Exception):
    """Enumerated counts disagree with the closed-form values."""

    def __init__(self, report: CountReport, keys_by_tag: dict):
        self.report = report
        self.keys_by_tag = keys_by_tag
        diffs = [
            f"{key}: predicted {val}, got {getattr(report, key)}"
            for key, val in report.predicted.items()
            if getattr(report, key) != val
        ]
        super().__init__("count mismatch at p=%d: %s" % (report.p, "; ".join(diffs)))


def _formula(p: int) -> dict:
    k, l, n = factor_pm1(p)
    d = divisor_count
    m = p - 1
    return {
        "total": 3 * k * d(3**l * n) + 2 * l * d(2**k * n) + 30 * d(m) + 13,
        "automorphic": 3 * k * d(3**l * n) + 2 * l * d(2**k * n) + 5 * d(m),
        "direct": 11 * d(m) + 6,
        "overlap": 5 * d(m),
        "wedge": 19 * d(m) + 6,
        "maximal": 1,
    }


def predicted_counts(p: int) -> CountReport:
    """The closed-form counts alone, before any enumeration."""
    k, l, n = factor_pm1(p)
    f = _formula(p)
    return CountReport(p, k, l, n, **f, predicted=f)


# What a construction's candidates are called when they fail verification.
_BUILT_BY = {
    "aut": "orbit theory",
    "direct": "direct product",
    "wedge": "wedge",
    "minimal": "minimal theory",
    "maximal": "maximal theory",
}


class _Collector:
    """Deduplicates theories by their class blocks, merging tags and
    witnesses; the canonical key is rendered only for the distinct theories,
    to sort them at finish.  A collector holds the theories of one group.

    This is the one verification gate of the enumerator, which calls the
    constructions with check=False: a candidate is verified when its class
    blocks are new, or when its character partition differs from the one
    recorded for them.  The classes of a theory determine its character
    partition, so such a second partition fails verification and raises."""

    def __init__(self):
        self.by_blocks: dict[tuple, TheoryRecord] = {}

    def add(self, t: Theory, tag: str | None, prov: dict) -> None:
        rec = self.by_blocks.get(t.classes.blocks)
        if rec is None or rec.theory.charparts != t.charparts:
            require_valid(t, _BUILT_BY[prov["construction"]])
        if rec is None:
            rec = TheoryRecord(t)
            self.by_blocks[t.classes.blocks] = rec
        if tag:
            rec.tags.add(tag)
        if prov not in rec.provenance:
            rec.provenance.append(prov)

    def finish(self) -> list[TheoryRecord]:
        for rec in self.by_blocks.values():
            rec.tags |= shape_tags(rec.theory)
        return sorted(self.by_blocks.values(), key=lambda r: sort_key(r.theory))


def _add_aut_theories(col: _Collector, g: GroupSpec) -> None:
    for subgroup in g.subgroups_of_aut():
        gens = aut_generating_subset(subgroup)
        t = from_automorphisms(g, gens, check=False)
        col.add(t, "automorphic", {
            "construction": "aut",
            "generators": generators_to_json(gens),
        })


@lru_cache(maxsize=None)
def _sub_theories(g: GroupSpec) -> tuple[tuple[Theory, str], ...]:
    """Every theory of a subgroup or quotient with its canonical key, in
    all_theories order; enumerated once per group and never mutated."""
    return tuple((r.theory, canonical_key(r.theory)) for r in all_theories(g))


def _add_direct_theories(col: _Collector, g: GroupSpec) -> None:
    for h1, h2 in g.complementary_pairs():
        e1, e2 = g.subgroup_embedding(h1), g.subgroup_embedding(h2)
        for t1, key1 in _sub_theories(e1.group):
            for t2, key2 in _sub_theories(e2.group):
                t = direct_product(t1, t2, h1, h2, check=False)
                col.add(t, "direct", {
                    "construction": "direct",
                    "pair": [h1.generator_exps(), h2.generator_exps()],
                    "factors": [key1, key2],
                })


def _add_wedge_theories(col: _Collector, g: GroupSpec) -> None:
    for n in g.all_subgroups:
        if not 1 < n.order < g.order:
            continue
        emb = g.subgroup_embedding(n)
        quot = g.quotient(n)
        for ti, key_i in _sub_theories(emb.group):
            for to, key_o in _sub_theories(quot.group):
                t = wedge(WedgeSpec(n, ti, to), check=False)
                col.add(t, "wedge", {
                    "construction": "wedge",
                    "N": n.generator_exps(),
                    "inner": key_i,
                    "outer": key_o,
                })


def _add_extremes(col: _Collector, g: GroupSpec) -> None:
    col.add(minimal_theory(g), None, {"construction": "minimal"})
    col.add(maximal_theory(g), None, {"construction": "maximal"})


def all_scts_cp(p: int, max_p: int = DEFAULT_MAX_P) -> list[TheoryRecord]:
    """Every theory of C_p; there are d(p-1), all from automorphism orbits."""
    _check_p(p, max_p)
    g = GroupSpec.cp(p)
    col = _Collector()
    _add_aut_theories(col, g)
    _add_extremes(col, g)
    return col.finish()


def all_scts_klein() -> list[TheoryRecord]:
    """Every theory of C_2 x C_2; there are 5."""
    g = GroupSpec.klein()
    col = _Collector()
    _add_aut_theories(col, g)
    _add_direct_theories(col, g)
    _add_wedge_theories(col, g)
    _add_extremes(col, g)
    return col.finish()


def all_scts_cp_c2(p: int, max_p: int = DEFAULT_MAX_P) -> list[TheoryRecord]:
    """Every theory of C_p x C_2; there are 3*d(p-1) + 1, and the automorphic
    ones are exactly the direct products."""
    _check_p(p, max_p)
    g = GroupSpec.cp_c2(p)
    col = _Collector()
    _add_aut_theories(col, g)
    _add_direct_theories(col, g)
    _add_wedge_theories(col, g)
    _add_extremes(col, g)
    return col.finish()


def all_scts_c2_cubed() -> list[TheoryRecord]:
    """Every theory of (C_2)^3 from wedges, direct products, and the extremes;
    the count is checked against the brute-force search."""
    g = GroupSpec.c2_cubed()
    col = _Collector()
    _add_direct_theories(col, g)
    _add_wedge_theories(col, g)
    _add_extremes(col, g)
    records = col.finish()
    oracle = brute_force_count(g)
    if len(records) != oracle:
        raise RuntimeError(
            f"constructions give {len(records)} theories of (C_2)^3, search gives {oracle}"
        )
    return records


def all_scts_cp_c2_c2(
    p: int, max_p: int = DEFAULT_MAX_P
) -> tuple[list[TheoryRecord], CountReport]:
    """Every theory of C_p x C_2 x C_2, with the count report; raises
    CountMismatchError when any actual count differs from its formula."""
    _check_p(p, max_p)
    g = GroupSpec.cp_c2_c2(p)
    col = _Collector()
    _add_aut_theories(col, g)
    _add_direct_theories(col, g)
    _add_wedge_theories(col, g)
    _add_extremes(col, g)
    records = col.finish()

    k, l, n = factor_pm1(p)
    counts = {
        "total": len(records),
        "automorphic": sum(1 for r in records if "automorphic" in r.tags),
        "direct": sum(1 for r in records if "direct" in r.tags),
        "overlap": sum(1 for r in records if {"direct", "automorphic"} <= r.tags),
        "wedge": sum(1 for r in records if "wedge" in r.tags),
        "maximal": sum(1 for r in records if "maximal" in r.tags),
    }
    report = CountReport(p, k, l, n, **counts, predicted=_formula(p))
    if not report.matches():
        keys_by_tag = {
            tag: [canonical_key(r.theory) for r in records if tag in r.tags]
            for tag in ("automorphic", "direct", "wedge", "maximal")
        }
        keys_by_tag["all"] = [canonical_key(r.theory) for r in records]
        raise CountMismatchError(report, keys_by_tag)
    return records, report


def all_theories(g: GroupSpec, max_p: int = DEFAULT_MAX_P) -> list[TheoryRecord]:
    """Dispatch to the enumerator for the family of g."""
    fam = g.family
    if fam == "Trivial":
        rec = TheoryRecord(minimal_theory(g), {"minimal", "maximal"}, [])
        return [rec]
    if fam == "C2":
        rec = TheoryRecord(minimal_theory(g), {"minimal", "maximal", "automorphic"},
                           [{"construction": "minimal"}, {"construction": "maximal"}])
        return [rec]
    if fam == "Cp":
        return all_scts_cp(g.p, max_p)
    if fam == "Klein":
        return all_scts_klein()
    if fam == "CpC2":
        return all_scts_cp_c2(g.p, max_p)
    if fam == "C2cubed":
        return all_scts_c2_cubed()
    if fam == "CpC2C2":
        return all_scts_cp_c2_c2(g.p, max_p)[0]
    raise ValueError(f"no enumerator for family {fam}")


def _check_p(p: int, max_p: int) -> None:
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if p > max_p:
        raise ValueError(f"p={p} exceeds the bound {max_p}")
