"""Supercharacter theories as paired partitions of a group and its characters.

A theory is valid when the identity and the trivial character sit in singleton
blocks, both partitions have the same number of blocks, and for every
character block X the function sigma_X = sum of the characters in X is
constant on every class block.  Partitions are stored canonically: each block
sorted ascending, blocks ordered by least member, so equal theories compare
equal and render identically.
"""

from __future__ import annotations

from functools import cached_property

from .groups import DEFAULT_MAX_P, GroupSpec, Subgroup, _Frozen, _set, _Value


class Partition(_Frozen):
    """A set partition of range(size) in canonical block order."""

    _fields = ("size", "blocks")

    def __init__(self, size: int, blocks: tuple[tuple[int, ...], ...]):
        _set(self, "size", size)
        _set(self, "blocks", blocks)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.size == other.size and self.blocks == other.blocks

    def __hash__(self):
        return hash((self.size, self.blocks))

    @classmethod
    def from_blocks(cls, blocks, size: int) -> "Partition":
        cleaned = [tuple(sorted(b)) for b in blocks]
        if any(not b for b in cleaned):
            raise ValueError("empty block")
        canon = tuple(sorted(cleaned, key=lambda b: b[0]))
        seen: list[int] = []
        for b in canon:
            seen.extend(b)
        if sorted(seen) != list(range(size)):
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

    def __contains__(self, block) -> bool:
        return tuple(sorted(block)) in set(self.blocks)


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

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.group == other.group and self.classes == other.classes
                and self.charparts == other.charparts)

    def __hash__(self):
        return hash((self.group, self.classes, self.charparts))


class Violation(_Frozen):
    """Which defining condition failed, with a minimal witness."""

    _fields = ("condition", "witness", "message")

    def __init__(self, condition: int, witness: tuple, message: str):
        _set(self, "condition", condition)
        _set(self, "witness", witness)
        _set(self, "message", message)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.condition == other.condition and self.witness == other.witness
                and self.message == other.message)

    def __hash__(self):
        return hash((self.condition, self.witness, self.message))


class TheoryRecord(_Value):
    """A theory with the constructions that produced it and their witnesses;
    mutable, so unhashable.  Omitted tags and provenance start empty."""

    _fields = ("theory", "tags", "provenance")

    def __init__(self, theory: Theory, tags: set[str] | None = None,
                 provenance: list[dict] | None = None):
        self.theory = theory
        self.tags = set() if tags is None else tags
        self.provenance = [] if provenance is None else provenance

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.theory == other.theory and self.tags == other.tags
                and self.provenance == other.provenance)


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
    head = ".".join(str(f) for f in t.group.factors)
    body = "|".join(",".join(str(i) for i in b) for b in t.classes.blocks)
    return f"{head}:{body}"


def sort_key(t: Theory) -> tuple[int, str]:
    return (len(t.classes), canonical_key(t))


def verify(t: Theory) -> Violation | None:
    """Check the defining conditions; None when valid, else the first failure.

    Condition 3 is read off the multipliers when they fix both partitions,
    as Schur's multiplier theorem says they do for every theory of an
    abelian group: the keys at the 2^(d+1) indices with p exponent 0 or 1
    give every key, and one character block per multiplier orbit is checked
    (see _constant_by_multipliers).  When a partition is not fixed, or that
    check fails, the full loop runs over every character block at every
    element, so the Violation returned is always the full loop's first."""
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
    if _constant_by_multipliers(t):
        return None
    g = t.group
    for xi, x in enumerate(t.charparts.blocks):
        bad = _first_break(g.sigma_keys(x, range(g.order)), t.classes)
        if bad is not None:
            return Violation(
                3,
                (xi, *bad),
                f"sigma of character block {xi} differs at elements {bad[0]} and {bad[1]}",
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


def _invariant(part: Partition, perm) -> bool:
    """True when perm maps every block into one block; perm being a
    bijection, it then maps the blocks onto the blocks."""
    block_of = part.block_of
    for b in part.blocks:
        target = block_of[perm[b[0]]]
        for i in b[1:]:
            if block_of[perm[i]] != target:
                return False
    return True


def _constant_by_multipliers(t: Theory) -> bool:
    """True when both partitions are invariant under the multipliers and
    every sigma_X is constant on every class block; False when a partition
    is not invariant or some sigma_X is not constant.

    A unit a acts on index (e, v) as (a*e % p, v), on elements and on
    characters alike, and chi_(b,w)(a*e, v) = chi_(a*b,w)(e, v).  So for
    a != 0, sigma_X(a, v) = sigma_{aX}(1, v), and with the character
    partition invariant aX is a block: the keys of every block at the
    2^(d+1) indices with p exponent 0 or 1 give all keys.  With the class
    partition invariant too, the K^(a) are the class blocks, so "sigma_X is
    constant on every K" carries over to every aX: one character block per
    orbit is checked, and there are at most 2^(d+1) orbits."""
    g = t.group
    perm = g.multiplier_perm
    if perm is None or not (_invariant(t.classes, perm) and _invariant(t.charparts, perm)):
        return False
    p, d, mask = g._split
    block_of = t.charparts.block_of
    cols = [g.lead_keys(x) for x in t.charparts.blocks]
    done: set[int] = set()
    for xi, x in enumerate(t.charparts.blocks):
        if xi in done:
            continue
        b, w = x[0] >> d, x[0] & mask
        orbit = [block_of[a * b % p << d | w] for a in range(1, p)]
        done.update(orbit)
        keys = cols[xi][: mask + 1]
        for yi in orbit:
            keys += cols[yi][mask + 1 :]
        if _first_break(keys, t.classes) is not None:
            return False
    return True


def require_valid(t: Theory, what: str) -> Theory:
    """t itself when it verifies; otherwise RuntimeError naming `what`."""
    bad = verify(t)
    if bad is not None:
        raise RuntimeError(f"{what} fails verification: {bad.message}")
    return t


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

    When the multipliers fix the class partition, as Schur's multiplier
    theorem says they do for every theory, the class sums are evaluated only
    at the 2^(d+1) characters with p exponent 0 or 1: the pairing is
    symmetric, so sigma_K(a, v) = sigma_{aK}(1, v) for a != 0, and aK is a
    class block.  Otherwise every class sum is evaluated at every character.
    Both give the same signatures, hence the same partition or error."""
    n = g.order
    perm = g.multiplier_perm
    if perm is not None and _invariant(classes, perm):
        sigs = _signatures_by_multipliers(g, classes)
    else:
        sigs = zip(*(g.sigma_keys(k, range(n)) for k in classes.blocks))
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


def _signatures_by_multipliers(g: GroupSpec, classes: Partition):
    """The keys of every class sum at each character in index order, for a
    class partition invariant under the multipliers."""
    p, d, mask = g._split
    block_of = classes.block_of
    lead = [(k[0] >> d, k[0] & mask) for k in classes.blocks]
    # small ids for the keys, which are equal exactly when the keys are,
    # so that the signatures hash quickly
    ids: dict[int, int] = {}
    cols = [[ids.setdefault(key, len(ids)) for key in g.lead_keys(k)]
            for k in classes.blocks]
    yield from zip(*(col[: mask + 1] for col in cols))
    ones = [col[mask + 1 :] for col in cols]
    for a in range(1, p):
        # sigma_K(a, v) = sigma_{aK}(1, v)
        yield from zip(*[ones[block_of[a * e % p << d | v]] for e, v in lead])


def theory_from_classes(g: GroupSpec, classes: Partition) -> Theory:
    """Complete a convolution-closed class partition to a theory."""
    return Theory(g, classes, induced_character_partition(g, classes))


def supercharacter_table(t: Theory):
    """Matrix of sigma_X values, one row per character block, one column per
    class block, recomputed at every element to confirm constancy."""
    g = t.group
    rows = []
    for xi, x in enumerate(t.charparts.blocks):
        keys = g.sigma_keys(x, range(g.order))
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
    p = d.get("p")
    if p is not None:
        if not _is_int(p):
            raise ValueError(f"p must be an integer, got {p!r}")
        if p > DEFAULT_MAX_P:
            raise ValueError(f"p={p} exceeds the bound {DEFAULT_MAX_P}")
    return GroupSpec.from_family(d["family"], p)


def generators_to_json(gens) -> list:
    """The generator images of each automorphism as exponent lists."""
    return [[list(img) for img in a.gen_images] for a in gens]


def _is_int(x) -> bool:
    """A JSON integer; bool is an int subclass but true/false are not numbers."""
    return isinstance(x, int) and not isinstance(x, bool)


def _partition_to_lists(g: GroupSpec, part: Partition) -> list:
    return [[list(g.elements[i]) for i in b] for b in part.blocks]


def _partition_from_lists(g: GroupSpec, data, what: str) -> Partition:
    """Read a partition stored as lists of exponent vectors.

    Each vector is checked in one pass: a list of len(g.factors) entries
    ("bad exponent vector" otherwise), every entry a plain int, and the
    tuple a key of g's exponent-to-index map; a failed type test or a missed
    key is "exponents out of range".  The type test, one comparison of the
    entries' types with (int,) * width, comes first because True and 1.0
    hash like 1 and would be found, and an unhashable entry would raise
    TypeError."""
    if not isinstance(data, list):
        raise ValueError(f"{what} must be a list of blocks")
    index, width = g._index, len(g.factors)
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
    if isinstance(rec, Theory):
        rec = TheoryRecord(rec)
    t = rec.theory
    return {
        "group": group_to_json(t.group),
        "superclasses": _partition_to_lists(t.group, t.classes),
        "character_classes": _partition_to_lists(t.group, t.charparts),
        "tags": sorted(rec.tags),
        "provenance": rec.provenance,
    }


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
