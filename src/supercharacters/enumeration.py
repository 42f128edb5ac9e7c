"""Complete enumeration of supercharacter theories per supported family, and
the closed-form counts of C_p x C_2 x C_2 that all_scts_cp_c2_c2 checks it
against.

all_theories(g) is the one enumerator.  It collects the orbit theories of
the subgroups of Aut(G), the direct products over complementary pairs, the
wedges over proper nontrivial subgroups and the two extremes, and passes
each distinct theory once through the verify gate of _Collector.  The gate
is defined here and built only by all_theories; the constructions verify
nothing.  On the trivial group, C_2 and C_p the direct and wedge steps find
nothing to combine.

For G = C_p x C_2 x C_2 write p - 1 = 2^k * 3^l * n with gcd(n, 6) = 1 and
d() for the divisor-count function.  Then all_theories must produce

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

from .constructions import (
    _aut_subgroup_gens,
    _pair_maps,
    _wedge_maps,
    direct_product,
    from_automorphisms,
    wedge,
)
from .groups import GroupSpec, _Frozen
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
    count = 0
    d = 1
    # each divisor d <= sqrt(n) pairs with n // d, which is d itself only
    # when d * d == n
    while d * d <= n:
        if n % d == 0:
            count += 1 if d * d == n else 2
        d += 1
    return count


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

    def to_json(self) -> dict:
        """Every field in constructor order, the predicted counts copied."""
        out = {f: getattr(self, f) for f in self._fields}
        out["predicted"] = dict(self.predicted)
        return out

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


def _formula(k: int, l: int, n: int) -> dict:
    """The closed-form counts from p - 1 = 2^k * 3^l * n, as factor_pm1
    gives it."""
    d = divisor_count
    m = 2**k * 3**l * n
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
    f = _formula(k, l, n)
    return CountReport(p, k, l, n, **f, predicted=f)


# Per provenance construction: what its candidates are called when they fail
# verification, and the tag they carry.
_BUILT_BY = {
    "aut": ("orbit theory", "automorphic"),
    "direct": ("direct product", "direct"),
    "wedge": ("wedge", "wedge"),
    "minimal": ("minimal theory", None),
    "maximal": ("maximal theory", None),
}


class _Collector:
    """Deduplicates theories by their class blocks, merging tags and
    witnesses; the canonical key is rendered only for the distinct theories,
    to sort them at finish.  A collector holds the theories of one group.

    This is the one verification gate, since the constructions verify
    nothing: a candidate is verified when its class blocks are new, or when
    its character partition differs from the one recorded for them.  The
    classes of a theory determine its character partition, so such a second
    partition fails verification and raises."""

    def __init__(self):
        self.by_blocks: dict[tuple, TheoryRecord] = {}

    def add(self, t: Theory, prov: dict) -> None:
        """Records t with its provenance entry and the tag that the entry's
        construction gives, if any."""
        what, tag = _BUILT_BY[prov["construction"]]
        rec = self.by_blocks.get(t.classes.blocks)
        if rec is None or rec.theory.charparts != t.charparts:
            require_valid(t, what)
        if rec is None:
            rec = TheoryRecord(t)
            self.by_blocks[t.classes.blocks] = rec
        if tag:
            rec.tags.add(tag)
        # each entry names one Aut(G) subgroup, one factor pair, one wedge
        # or one extreme, so an entry never comes twice
        rec.provenance.append(prov)

    def finish(self) -> list[TheoryRecord]:
        for rec in self.by_blocks.values():
            rec.tags |= shape_tags(rec.theory)
        return sorted(self.by_blocks.values(), key=lambda r: sort_key(r.theory))


@lru_cache(maxsize=None)
def _sub_theories(g: GroupSpec) -> tuple[tuple[Theory, str], ...]:
    """Every theory of a subgroup or quotient with its canonical key, in
    all_theories order; enumerated once per group and never mutated."""
    return tuple((r.theory, canonical_key(r.theory)) for r in all_theories(g))


def _add_aut_theories(col: _Collector, g: GroupSpec) -> None:
    for gens in _aut_subgroup_gens(g):
        col.add(from_automorphisms(g, gens), {
            "construction": "aut",
            "generators": generators_to_json(gens),
        })


def _add_direct_theories(col: _Collector, g: GroupSpec) -> None:
    for h1, h2 in g.complementary_pairs():
        sub1, sub2 = _pair_maps(h1, h2)[:2]
        for t1, key1 in _sub_theories(sub1):
            for t2, key2 in _sub_theories(sub2):
                t = direct_product(t1, t2, h1, h2)
                col.add(t, {
                    "construction": "direct",
                    "pair": [h1.generator_exps(), h2.generator_exps()],
                    "factors": [key1, key2],
                })


def _add_wedge_theories(col: _Collector, g: GroupSpec) -> None:
    for n in g.all_subgroups:
        if not 1 < n.order < g.order:
            continue
        sub, quo = _wedge_maps(n)[:2]
        for ti, key_i in _sub_theories(sub):
            for to, key_o in _sub_theories(quo):
                t = wedge(n, ti, to)
                col.add(t, {
                    "construction": "wedge",
                    "N": n.generator_exps(),
                    "inner": key_i,
                    "outer": key_o,
                })


def all_scts_cp_c2_c2(p: int) -> tuple[list[TheoryRecord], CountReport]:
    """Every theory of C_p x C_2 x C_2, with the count report; raises
    CountMismatchError when any actual count differs from its formula."""
    records = all_theories(GroupSpec.cp_c2_c2(p))

    k, l, n = factor_pm1(p)
    counts = {
        "total": len(records),
        "automorphic": sum(1 for r in records if "automorphic" in r.tags),
        "direct": sum(1 for r in records if "direct" in r.tags),
        "overlap": sum(1 for r in records if {"direct", "automorphic"} <= r.tags),
        "wedge": sum(1 for r in records if "wedge" in r.tags),
        "maximal": sum(1 for r in records if "maximal" in r.tags),
    }
    report = CountReport(p, k, l, n, **counts, predicted=_formula(k, l, n))
    if not report.matches():
        keys_by_tag = {
            tag: [canonical_key(r.theory) for r in records if tag in r.tags]
            for tag in ("automorphic", "direct", "wedge", "maximal")
        }
        keys_by_tag["all"] = [canonical_key(r.theory) for r in records]
        raise CountMismatchError(report, keys_by_tag)
    return records, report


def all_theories(g: GroupSpec) -> list[TheoryRecord]:
    """Every theory of g that the three constructions and the two extremes
    give, each verified once at the gate, in sort_key order."""
    col = _Collector()
    _add_aut_theories(col, g)
    _add_direct_theories(col, g)
    _add_wedge_theories(col, g)
    col.add(minimal_theory(g), {"construction": "minimal"})
    col.add(maximal_theory(g), {"construction": "maximal"})
    return col.finish()
