"""Supercharacter theories as paired partitions of a group and its characters.

A theory is valid when the identity and the trivial character sit in singleton
blocks, both partitions have the same number of blocks, and for every
character block X the function sigma_X = sum of the characters in X is
constant on every class block.  Partitions are stored canonically: each block
sorted ascending, blocks ordered by least member, so equal theories compare
equal and render identically.
"""

from __future__ import annotations

import json
from functools import cached_property, lru_cache, partial
from itertools import chain, islice, repeat
from operator import itemgetter

from .groups import GroupSpec, Subgroup, _Frozen, _set, _Value


class Partition(_Frozen):
    """A set partition of range(size) in canonical block order."""

    _fields = ("size", "blocks")

    def __init__(self, size: int, blocks: tuple[tuple[int, ...], ...]):
        _set(self, "size", size)
        _set(self, "blocks", blocks)

    @classmethod
    def from_blocks(cls, blocks, size: int) -> "Partition":
        """Blocks are any iterables of points.  Sorted blocks that are
        disjoint differ in their least members, so sorting them as tuples
        orders them by least member."""
        cleaned = list(map(tuple, map(sorted, blocks)))
        if not all(cleaned):
            raise ValueError("empty block")
        canon = tuple(sorted(cleaned))
        if sorted(chain.from_iterable(canon)) != list(range(size)):
            raise ValueError(f"blocks do not partition range({size})")
        return cls(size, canon)

    @classmethod
    def discrete(cls, size: int) -> "Partition":
        return cls.from_blocks([(i,) for i in range(size)], size)

    @cached_property
    def block_of(self) -> tuple[int, ...]:
        """Index of the block containing each point."""
        out = [0] * self.size
        for bi, b in enumerate(self.blocks):
            for i in b:
                out[i] = bi
        return tuple(out)

    def __len__(self) -> int:
        return len(self.blocks)


class Theory(_Frozen):
    """A pair of partitions: superclasses of G and blocks of Irr(G)."""

    _fields = ("group", "classes", "charparts")

    def __init__(self, group: GroupSpec, classes: Partition, charparts: Partition):
        n = group.order
        if classes.size != n or charparts.size != n:
            raise ValueError("partition sizes do not match the group order")
        _set(self, "group", group)
        _set(self, "classes", classes)
        _set(self, "charparts", charparts)


class Violation(_Frozen):
    """Which defining condition failed, with a minimal witness."""

    _fields = ("condition", "witness", "message")

    def __init__(self, condition: int, witness: tuple, message: str):
        _set(self, "condition", condition)
        _set(self, "witness", witness)
        _set(self, "message", message)


class TheoryRecord(_Value):
    """A theory with the constructions that produced it and their witnesses;
    mutable, so unhashable.  Omitted tags and provenance start empty."""

    _fields = ("theory", "tags", "provenance")

    def __init__(self, theory: Theory, tags: set[str] | None = None,
                 provenance: list[dict] | None = None):
        self.theory = theory
        self.tags = set() if tags is None else tags
        self.provenance = [] if provenance is None else provenance


def minimal_theory(g: GroupSpec) -> Theory:
    n = g.order
    return Theory(g, Partition.discrete(n), Partition.discrete(n))


def maximal_theory(g: GroupSpec) -> Theory:
    n = g.order
    if n == 1:
        return minimal_theory(g)
    two = Partition.from_blocks([(0,), tuple(range(1, n))], n)
    return Theory(g, two, two)


def shape_tags(t: Theory) -> set[str]:
    """"minimal" when every class is one element, "maximal" when there are
    at most two classes."""
    tags = set()
    if all(len(b) == 1 for b in t.classes.blocks):
        tags.add("minimal")
    if len(t.classes.blocks) <= 2:
        tags.add("maximal")
    return tags


def canonical_key(t: Theory) -> str:
    """Deterministic rendering of the class partition; equal iff theories equal."""
    head = ".".join(map(str, t.group.factors))
    body = "|".join([",".join(map(str, b)) for b in t.classes.blocks])
    return f"{head}:{body}"


def sort_key(t: Theory) -> tuple[int, str]:
    return (len(t.classes), canonical_key(t))


def verify(t: Theory) -> Violation | None:
    """Check the defining conditions; None when valid, else the first failure.

    Condition 3 walks the character blocks in order through _block_sums and
    reports the first block whose sums are not constant on the class
    blocks, at the first class block and member where they break.  When the
    multipliers fix both partitions, as Schur's multiplier theorem says they
    do for every theory of an abelian group, the walk stops after the blocks
    holding a lead index (p exponent 0 or 1): those come first in block
    order, and every other block is the image aX of one of them under a
    unit a.  Its sums are sigma_{aX}(x) = sigma_X(a*x), constant on every
    class block K when sigma_X is constant on aK, a class block too.  So the
    Violation returned is always the first in block order."""
    classes, chars = t.classes, t.charparts
    if (0,) not in classes.blocks:
        return Violation(1, (0,), "identity is not a singleton class")
    if (0,) not in chars.blocks:
        return Violation(1, (0,), "trivial character is not a singleton block")
    if len(classes) != len(chars):
        return Violation(
            2,
            (len(classes), len(chars)),
            f"{len(classes)} classes vs {len(chars)} character blocks",
        )
    g = t.group
    leaders = _leaders(classes)
    fixed, sums = _block_sums(g, chars)
    # _invariant(classes, perm), reusing the leader map
    if fixed and _constant(list(map(classes.block_of.__getitem__, g.multiplier_perm)), leaders):
        sums = islice(sums, max(chars.block_of[: 2 << g.dim2]) + 1)
    for xi, keys in enumerate(sums):
        if not _constant(keys, leaders):
            k, h = _first_break(keys, classes)
            return Violation(
                3,
                (xi, k, h),
                f"sigma of character block {xi} differs at elements {k} and {h}",
            )
    return None


def _first_break(keys, classes: Partition) -> tuple[int, int] | None:
    """(k[0], h) for the first class block k and member h where keys[h]
    differs from keys[k[0]]; None when keys are constant on every block."""
    for k in classes.blocks:
        ref = keys[k[0]]
        for h in k[1:]:
            if keys[h] != ref:
                return k[0], h
    return None


def _leaders(part: Partition) -> list[int]:
    """The least member of each point's block, per point."""
    heads = [b[0] for b in part.blocks]
    return list(map(heads.__getitem__, part.block_of))


def _constant(values: list, leaders: list[int]) -> bool:
    """True when values, indexed by points, is constant on every block of
    the partition whose leader map is leaders: when each value equals the
    one at its block's least member."""
    return values == list(map(values.__getitem__, leaders))


def _invariant(part: Partition, perm) -> bool:
    """True when perm maps every block into one block, that is when the
    block of perm[i] is constant on every block; perm being a bijection,
    it then maps the blocks onto the blocks."""
    return _constant(list(map(part.block_of.__getitem__, perm)), _leaders(part))


def _block_sums(g: GroupSpec, part: Partition):
    """(fixed, sums): whether the multipliers fix part, and, lazily in block
    order, sigma over each block at every index, as keys or as ids that are
    equal exactly when the keys are.  The pairing is symmetric, so this
    sums characters over a character block and elements over a class block.

    A unit a acts on index (e, v) as (a*e % p, v), on elements and on
    characters alike, and chi_(b,w)(a*e, v) = chi_(a*b,w)(e, v), so
    sigma_X(a, v) = sigma_{aX}(1, v) for a != 0.  When the multipliers fix
    part, aX is a block, so the lead ids of the blocks (GroupSpec.lead_ids,
    read once per partition) give every entry: if X holds (b, w), aX is the
    block of (a*b, w), which is X itself when b = 0.  Otherwise the sums
    are GroupSpec.sigma_keys of the blocks, read off the full key table."""
    perm = g.multiplier_perm
    if perm is None or not _invariant(part, perm):
        return False, map(g.sigma_keys, part.blocks)
    p, d, mask = g._split
    half = mask + 1
    cols = list(map(g.lead_ids, part.blocks))
    tails = list(map(itemgetter(slice(half, None)), cols))
    block_of = part.block_of

    def expand(col, least):
        b = least >> d
        if not b:
            return [*col[:half], *col[half:] * (p - 1)]
        # the blocks of (a, w) for a = 1 .. p - 1, then of (a*b, w)
        orbit = block_of[half | least & mask :: half]
        if b > 1:
            orbit = _times(p, b)(orbit)
        return [*col[:half], *chain.from_iterable(map(tails.__getitem__, orbit))]

    return True, map(expand, cols, map(itemgetter(0), part.blocks))


@lru_cache(maxsize=None)
def _times(p: int, b: int) -> itemgetter:
    """Reads a list indexed by a - 1, for a = 1 .. p - 1, at a*b % p - 1."""
    return itemgetter(*[a * b % p - 1 for a in range(1, p)])


def require_valid(t: Theory, what: str) -> Theory:
    """t itself when it verifies; otherwise RuntimeError naming `what`."""
    bad = verify(t)
    if bad is not None:
        raise RuntimeError(f"{what} fails verification: {bad.message}")
    return t


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

    This is the one verification gate, since the constructions verify
    nothing: a candidate is verified when its class blocks are new, or when
    its character partition differs from the one recorded for them.  The
    classes of a theory determine its character partition, so such a second
    partition fails verification and raises."""

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


def verify_algebra(g: GroupSpec, classes: Partition) -> Violation | None:
    """Check that the span of the class sums is closed under convolution:
    the product of any two block sums must be constant on every block."""
    if (0,) not in classes.blocks:
        return Violation(1, (0,), "identity is not a singleton class")
    table = g.mult_table
    n = g.order
    blocks = classes.blocks
    for i, bi in enumerate(blocks):
        for j in range(i, len(blocks)):
            bj = blocks[j]
            coeff = [0] * n
            for x in bi:
                row = table[x]
                for y in bj:
                    coeff[row[y]] += 1
            for k, bk in enumerate(blocks):
                ref = coeff[bk[0]]
                for h in bk[1:]:
                    if coeff[h] != ref:
                        return Violation(
                            3,
                            (i, j, k, bk[0], h),
                            f"product of blocks {i},{j} is not constant on block {k}",
                        )
    return None


def induced_character_partition(g: GroupSpec, classes: Partition) -> Partition:
    """Group characters by their values on all class sums.

    For a convolution-closed class partition this yields the unique character
    partition completing it to a theory, with the same number of blocks.

    The class sums come from _block_sums: read off the lead ids when the
    multipliers fix the class partition, as Schur's multiplier theorem says
    they do for every theory, else off the full key table.  Ids are equal
    exactly when keys are, so both give the same partition or error."""
    n = g.order
    sigs = zip(*_block_sums(g, classes)[1])
    by_sig: dict[tuple, list[int]] = {}
    for c, sig in enumerate(sigs):
        by_sig.setdefault(sig, []).append(c)
    part = Partition.from_blocks(by_sig.values(), n)
    if len(part) != len(classes):
        raise RuntimeError(
            f"induced partition has {len(part)} blocks for {len(classes)} classes; "
            "the class partition is not convolution-closed"
        )
    return part


def theory_from_classes(g: GroupSpec, classes: Partition) -> Theory:
    """Complete a convolution-closed class partition to a theory."""
    return Theory(g, classes, induced_character_partition(g, classes))


def supercharacter_table(t: Theory):
    """Matrix of sigma_X values, one row per character block, one column per
    class block, recomputed at every element to confirm constancy."""
    g = t.group
    rows = []
    for xi, x in enumerate(t.charparts.blocks):
        keys = g.sigma_keys(x)
        bad = _first_break(keys, t.classes)
        if bad is not None:
            raise ValueError(
                f"sigma not constant: character block {xi}, elements {bad[0]}, {bad[1]}"
            )
        rows.append([g.sigma_value(keys[k[0]]) for k in t.classes.blocks])
    return rows


def invariant_subgroups(t: Theory) -> list[Subgroup]:
    """Subgroups that are unions of class blocks, smallest first."""
    out = []
    block_of = t.classes.block_of
    for h in t.group.all_subgroups:
        covered = sum(len(t.classes.blocks[b]) for b in {block_of[i] for i in h.members})
        if covered == h.order:
            out.append(h)
    return out


def restriction(t: Theory, n: Subgroup) -> Theory:
    """The theory on an invariant subgroup formed by the classes inside it."""
    if n not in invariant_subgroups(t):
        raise ValueError("subgroup is not a union of classes")
    emb = t.group.subgroup_embedding(n)
    blocks = [
        tuple(sorted(emb.from_parent[i] for i in b))
        for b in t.classes.blocks
        if all(i in emb.from_parent for i in b)
    ]
    classes = Partition.from_blocks(blocks, emb.group.order)
    return theory_from_classes(emb.group, classes)


def dual(t: Theory) -> Theory:
    """Swap the two partitions across the exponent-vector identification of
    G with its character group; valid for every valid theory."""
    return require_valid(Theory(t.group, t.charparts, t.classes), "transported partition")


def refines(t1: Theory, t2: Theory) -> bool:
    """True when every class of t1 lies inside a class of t2."""
    if t1.group != t2.group:
        raise ValueError("theories live on different groups")
    block_of = t2.classes.block_of
    return all(
        all(block_of[i] == block_of[b[0]] for i in b) for b in t1.classes.blocks
    )


# -- serialization ----------------------------------------------------------


def group_to_json(g: GroupSpec) -> dict:
    fam = g.family
    if g.p is not None:
        return {"family": fam, "p": g.p}
    return {"family": fam}


def group_from_json(d) -> GroupSpec:
    if not isinstance(d, dict) or not isinstance(d.get("family"), str):
        raise ValueError("group must be an object with a family")
    return GroupSpec.from_family(d["family"], d.get("p"))


def generators_to_json(gens) -> list:
    """The generator images of each automorphism as exponent lists."""
    return [[list(img) for img in a.gen_images] for a in gens]


def _partition_to_lists(g: GroupSpec, part: Partition) -> list:
    return [[list(g.elements[i]) for i in b] for b in part.blocks]


def _partition_from_lists(g: GroupSpec, data, what: str) -> Partition:
    """Read a partition stored as lists of exponent vectors.

    The whole partition is checked at once: every block a nonempty list,
    every vector a list of len(g.factors) entries, every entry a plain int,
    and every vector, as a tuple, a key of g's exponent-to-index map.  The
    type test comes before the lookup because True and 1.0 hash like 1 and
    would be found, and an unhashable entry would raise TypeError.  Only
    when that check fails does the loop below run, vector by vector, to name
    the first bad one: a block that is not a nonempty list, a vector that is
    not a list of the right length ("bad exponent vector"), or one whose
    type test fails or whose key is missed ("exponents out of range")."""
    if not isinstance(data, list):
        raise ValueError(f"{what} must be a list of blocks")
    index, width = g._index, len(g.factors)
    if set(map(type, data)) == {list} and all(data):
        vecs = list(chain.from_iterable(data))
        if (set(map(type, vecs)) == {list} and set(map(len, vecs)) == {width}
                and set(map(type, chain.from_iterable(vecs))) == {int}):
            found = list(map(index.get, map(tuple, vecs)))
            if None not in found:
                # from_blocks sorts the blocks one after another, so each
                # islice takes the next len(block) indices off one iterator
                return Partition.from_blocks(
                    map(islice, repeat(iter(found)), map(len, data)), g.order)
    ints = (int,) * width
    blocks = []
    for b in data:
        if not isinstance(b, list) or not b:
            raise ValueError(f"{what} blocks must be nonempty lists")
        block = []
        for exps in b:
            if not isinstance(exps, list) or len(exps) != width:
                raise ValueError(f"bad exponent vector {exps!r} in {what}")
            i = index.get(tuple(exps)) if tuple(map(type, exps)) == ints else None
            if i is None:
                raise ValueError(f"exponents out of range in {what}: {exps!r}")
            block.append(i)
        blocks.append(block)
    return Partition.from_blocks(blocks, g.order)


def theory_to_json(rec: "TheoryRecord | Theory") -> dict:
    """The JSON record of a theory, sharing no list with rec: the
    provenance, JSON data holding nested generator lists, is copied through
    a JSON round trip."""
    if isinstance(rec, Theory):
        rec = TheoryRecord(rec)
    t = rec.theory
    return {
        "group": group_to_json(t.group),
        "superclasses": _partition_to_lists(t.group, t.classes),
        "character_classes": _partition_to_lists(t.group, t.charparts),
        "tags": sorted(rec.tags),
        "provenance": json.loads(_dumps(rec.provenance)),
    }


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _partition_text(part: Partition, elems: list[str]) -> str:
    """_dumps(_partition_to_lists(g, part)), joined from elems."""
    rows = map(",".join, map(partial(map, elems.__getitem__), part.blocks))
    return "[[" + "],[".join(rows) + "]]"


def _theory_line(rec: TheoryRecord, texts: dict) -> str:
    """_dumps(theory_to_json(rec)), with the exponent lists joined from
    text rendered once per group: texts, which the caller keeps across
    calls, maps each group met to the JSON of its elements in index order.
    theory_to_json still builds its own exponent lists, so a caller that
    changes them never reaches this text."""
    t = rec.theory
    g = t.group
    if g not in texts:
        texts[g] = list(map(_dumps, g.elements))
    elems = texts[g]
    return (f'{{"group":{_dumps(group_to_json(g))},'
            f'"superclasses":{_partition_text(t.classes, elems)},'
            f'"character_classes":{_partition_text(t.charparts, elems)},'
            f'"tags":{_dumps(sorted(rec.tags))},"provenance":{_dumps(rec.provenance)}}}')


def theory_from_json(d) -> TheoryRecord:
    if not isinstance(d, dict):
        raise ValueError("theory must be a JSON object")
    g = group_from_json(d.get("group"))
    classes = _partition_from_lists(g, d.get("superclasses"), "superclasses")
    charparts = _partition_from_lists(g, d.get("character_classes"), "character_classes")
    tags = d.get("tags", [])
    prov = d.get("provenance", [])
    if not isinstance(tags, list) or not all(isinstance(s, str) for s in tags):
        raise ValueError("tags must be a list of strings")
    if not isinstance(prov, list):
        raise ValueError("provenance must be a list")
    return TheoryRecord(Theory(g, classes, charparts), set(tags), list(prov))
