"""Supercharacter theories as paired partitions of a group and its characters.

A theory is valid when the identity and the trivial character sit in singleton
blocks, both partitions have the same number of blocks, and for every
character block X the function sigma_X = sum of the characters in X is
constant on every class block.  Partitions are stored canonically: each block
sorted ascending, blocks ordered by least member, so equal theories compare
equal and render identically.  Partition(size, blocks) builds one from
blocks in any order and checks them, so a Partition is always a partition;
only the program's own producers skip the checks, through
Partition._canonical.
"""

from __future__ import annotations

import json
from functools import cached_property, lru_cache
from itertools import chain, islice
from operator import itemgetter

from .groups import GroupSpec, Subgroup, _Frozen, _Value


def _sorted_blocks(blocks) -> tuple[tuple, ...]:
    """Blocks, any iterables of points, in canonical order: each sorted in
    turn, then ordered by least member.  Sorted blocks that are disjoint
    differ in their least members, so sorting them as tuples does that."""
    return tuple(sorted(map(tuple, map(sorted, blocks))))


class Partition(_Frozen):
    """A set partition of range(size) in canonical block order.

    Partition(size, blocks) is the one public constructor: it canonicalises
    blocks given in any order and checks them, so every Partition a caller
    holds is a real partition.  The program's own producers, whose blocks
    partition range(size) by construction, build through _canonical, which
    skips the checks."""

    _fields = ("size", "blocks")

    def __init__(self, size: int, blocks):
        """Refuses a size that is not a plain int or is negative, an empty
        block, and points that are not exactly range(size), each a plain int
        (1.0 and True equal 1, so only their type tells them apart).  The
        blocks are consumed lazily, one after another."""
        if type(size) is not int:
            raise ValueError("partition size must be a plain int")
        if size < 0:
            raise ValueError("partition size must not be negative")
        blocks = _sorted_blocks(blocks)
        if not all(blocks):
            raise ValueError("empty block")
        points = sorted(chain.from_iterable(blocks))
        if points != list(range(size)):
            raise ValueError(f"blocks do not partition range({size})")
        if list(map(type, points)).count(int) != size:
            raise ValueError("block points must be plain ints")
        super().__init__(size, blocks)

    @classmethod
    def _canonical(cls, size: int, blocks) -> "Partition":
        """The partition of the given blocks, unchecked: for the program's
        own producers, whose blocks already partition range(size).  It skips
        __init__, as groups._aut_map does for an AutMap."""
        part = cls.__new__(cls)
        _Frozen.__init__(part, size, _sorted_blocks(blocks))
        return part

    @classmethod
    def discrete(cls, size: int) -> "Partition":
        return cls._canonical(size, ((i,) for i in range(size)))

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
        _require_size(group, classes, charparts)
        super().__init__(group, classes, charparts)

    @cached_property
    def _invariant_subgroups(self) -> tuple[tuple[Subgroup, int], ...]:
        """invariant_subgroups(self), each with the number of classes inside
        it, computed once per theory: classify reads it for both the direct
        and the wedge decompositions."""
        blocks, block_of = self.classes.blocks, self.classes.block_of
        met = ((h, {block_of[i] for i in h.members}) for h in self.group.all_subgroups)
        return tuple((h, len(bs)) for h, bs in met
                     if sum(len(blocks[b]) for b in bs) == h.order)


def _require_size(g: GroupSpec, *parts: Partition) -> None:
    """ValueError unless every partition is one of range(g.order)."""
    if any(part.size != g.order for part in parts):
        raise ValueError("partition sizes do not match the group order")


class Violation(_Frozen):
    """Which defining condition failed, with a minimal witness."""

    _fields = ("condition", "witness", "message")


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
    two = Partition._canonical(n, ((0,), range(1, n)))
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
    multipliers fix the character partition, as Schur's multiplier theorem
    says they do for every theory of an abelian group, the walk stops after
    the blocks holding a lead index (p exponent 0 or 1): those come first
    in block order, and every other block is the image aX of one of them
    under a unit a.  Its sums are Galois conjugates, sigma_{aX}(x) =
    sigma_a(sigma_X(x)), and sigma_a is injective, so aX is constant on a
    class block exactly when X is, whatever the class partition.  A block
    aX fails exactly when its lead block X fails, at the same class block
    and member, and X comes first, so the Violation returned is always the
    first in block order.  Condition 0, a side whose points are not
    range(size) each once, comes first: the Partition constructor refuses
    such blocks, so only a producer bug behind Partition._canonical can
    reach it, and the gate still catches that.  The class side's leader
    getter (_lead) is built once per call and not kept: a Partition keeps
    only block_of."""
    classes, chars = t.classes, t.charparts
    for side, part in (("class", classes), ("character", chars)):
        if sorted(chain.from_iterable(part.blocks)) != list(range(part.size)):
            return Violation(0, (side,), f"{side} blocks do not partition range({part.size})")
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
    lead = _lead(classes)
    fixed, sums = _block_sums(g, chars)
    if fixed:
        sums = islice(sums, max(chars.block_of[: 2 << g.dim2]) + 1)
    for xi, keys in enumerate(sums):
        # the getter reads the list of keys as a tuple
        if tuple(keys) != lead(keys):
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


def _leaders(part: Partition) -> tuple[int, ...]:
    """The least member of each point's block, per point."""
    heads = [b[0] for b in part.blocks]
    # an itemgetter of one index returns the item, not a 1-tuple
    return itemgetter(*part.block_of)(heads) if part.size > 1 else tuple(heads)


def _lead(part: Partition):
    """A getter that reads a sequence indexed by points at the least member
    of each point's block, as a tuple: a tuple of keys is constant on every
    block exactly when it equals _lead(part)(keys)."""
    return itemgetter(*_leaders(part)) if part.size > 1 else tuple


def _invariant(part: Partition, perm) -> bool:
    """True when perm maps every block into one block, that is when the
    block of perm[i] is constant on every block; perm being a bijection,
    it then maps the blocks onto the blocks.  The leader getter of part
    (_lead) is built on each call and not kept."""
    moved = itemgetter(*perm)(part.block_of)
    return moved == _lead(part)(moved)


def _block_sums(g: GroupSpec, part: Partition):
    """(fixed, sums): whether the multipliers fix part, tested by
    _invariant on each call, and, lazily in block order, sigma over each
    block at every index, as keys or as ids that are equal exactly when the
    keys are.  The pairing is symmetric, so this sums characters over a
    character block and elements over a class block.

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


def verify_algebra(g: GroupSpec, classes: Partition) -> Violation | None:
    """Check that the span of the class sums is closed under convolution:
    the product of any two block sums must be constant on every block."""
    _require_size(g, classes)
    if (0,) not in classes.blocks:
        return Violation(1, (0,), "identity is not a singleton class")
    blocks = classes.blocks
    for i, bi in enumerate(blocks):
        for j in range(i, len(blocks)):
            coeff = g.convolve(bi, blocks[j])
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
    _require_size(g, classes)
    sigs = zip(*_block_sums(g, classes)[1])
    by_sig: dict[tuple, list[int]] = {}
    for c, sig in enumerate(sigs):
        by_sig.setdefault(sig, []).append(c)
    part = Partition._canonical(g.order, by_sig.values())
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
    return [h for h, _ in t._invariant_subgroups]


def restriction(t: Theory, n: Subgroup) -> Theory:
    """The theory on an invariant subgroup formed by the classes inside it."""
    if n not in invariant_subgroups(t):
        raise ValueError("subgroup is not a union of classes")
    emb = t.group.subgroup_embedding(n)
    blocks = [
        [emb.from_parent[i] for i in b]
        for b in t.classes.blocks
        if all(i in emb.from_parent for i in b)
    ]
    classes = Partition._canonical(emb.group.order, blocks)
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


def _partition_from_lists(g: GroupSpec, data, what: str) -> Partition:
    """Read a partition stored as lists of exponent vectors, vector by
    vector, naming the first bad one: a block that is not a nonempty list,
    a vector that is not a list of the right length ("bad exponent
    vector"), or one whose entries are not all plain ints or that is no
    key of g's exponent-to-index map ("exponents out of range").  The type
    test comes before the lookup because True and 1.0 hash like 1 and
    would be found, and an unhashable entry would raise TypeError.  A read
    comes here only for a line that _theory_from_line does not accept."""
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
    return Partition(g.order, blocks)


def theory_to_json(rec: "TheoryRecord | Theory") -> dict:
    """The JSON record of a theory, or of a record: the parse of the line
    _theory_line writes, so every list in it is fresh.  Most of its time is
    json.loads; no command calls it."""
    if isinstance(rec, Theory):
        rec = TheoryRecord(rec)
    return json.loads(_theory_line(rec))


def _dumps(obj) -> str:
    """The package's one JSON encoder: compact, with no spaces."""
    return json.dumps(obj, separators=(",", ":"))


class _BlockTexts(dict):
    """Block -> the JSON of its members, joined by commas, rendered from
    _element_texts(g) on the first lookup of the block.  A writer keeps one
    per group for one write: a file closed under duality holds each
    partition twice, and at p = 199 it holds 7,444 distinct blocks among
    57,284."""

    def __init__(self, g: GroupSpec):
        super().__init__()
        self.elems = _element_texts(g)

    def __missing__(self, block: tuple[int, ...]) -> str:
        text = self[block] = ",".join(map(self.elems.__getitem__, block))
        return text


def _partition_text(part: Partition, rows: _BlockTexts) -> str:
    """The blocks of part as JSON lists of exponent vectors, joined from
    rows, the _BlockTexts of part's group."""
    return "[[" + "],[".join(map(rows.__getitem__, part.blocks)) + "]]"


@lru_cache(maxsize=None)
def _element_texts(g: GroupSpec) -> tuple[str, ...]:
    """The JSON of each element of g, in index order."""
    return tuple(map(_dumps, g.elements))


def _theory_line(rec: TheoryRecord, texts: dict | None = None) -> str:
    """The JSON record of rec as one line of compact JSON: the one writer of
    the record layout, which the CLI writes and theory_to_json parses.  The
    exponent lists are joined from the element text of _element_texts,
    rendered once per group.  texts, a dict that a writer keeps over the
    lines of one write, holds the _BlockTexts of each group written, so a
    block written again is joined once."""
    t = rec.theory
    g = t.group
    if texts is None:
        texts = {}
    rows = texts.get(g)
    if rows is None:
        rows = texts[g] = _BlockTexts(g)
    return (f'{{"group":{_dumps(group_to_json(g))},'
            f'"superclasses":{_partition_text(t.classes, rows)},'
            f'"character_classes":{_partition_text(t.charparts, rows)},'
            f'"tags":{_dumps(sorted(rec.tags))},"provenance":{_dumps(rec.provenance)}}}')


def theory_from_json(d) -> TheoryRecord:
    if not isinstance(d, dict):
        raise ValueError("theory must be a JSON object")
    g = group_from_json(d.get("group"))
    classes = _partition_from_lists(g, d.get("superclasses"), "superclasses")
    charparts = _partition_from_lists(g, d.get("character_classes"), "character_classes")
    return _record(g, classes, charparts, d.get("tags", []), d.get("provenance", []))


def _record(g: GroupSpec, classes: Partition, charparts: Partition, tags, prov) -> TheoryRecord:
    """The record of a theory read from outside, once its tags and
    provenance, as JSON decoded them, pass their checks."""
    if not isinstance(tags, list) or not all(isinstance(s, str) for s in tags):
        raise ValueError("tags must be a list of strings")
    if not isinstance(prov, list):
        raise ValueError("provenance must be a list")
    return TheoryRecord(Theory(g, classes, charparts), set(tags), list(prov))


@lru_cache(maxsize=None)
def _element_index(g: GroupSpec) -> dict[str, int]:
    """The inverse of _element_texts(g): the index of each element, keyed
    by its JSON text without the brackets, which is what remains of a
    vector when a partition's text is split at the brackets around it."""
    return {text[1:-1]: i for i, text in enumerate(_element_texts(g))}


def _partition_from_text(g: GroupSpec, text: str, known: tuple[dict, dict]) -> Partition:
    """The partition whose text _partition_text writes: "[[[" and "]]]"
    around the blocks, joined by "]],[[", each the element texts of its
    members without brackets, joined by "],[".  KeyError for a piece that
    is no element's text, ValueError for text not framed so or blocks that
    Partition refuses.

    known, a pair of dicts kept for one group, maps each partition text
    already read to its Partition and each block text to its index tuple,
    so a text seen again is decoded and checked once.  A block text is
    stored once each of its pieces is found, a partition text only once
    Partition accepts it."""
    parts, rows = known
    part = parts.get(text)
    if part is None:
        # no shorter text passes: "[[[" and "]]]" cannot overlap
        if text[:3] != "[[[" or text[-3:] != "]]]":
            raise ValueError("partition text not in the written layout")
        lookup = _element_index(g).__getitem__
        blocks = []
        for row in text[3:-3].split("]],[["):
            block = rows.get(row)
            if block is None:
                block = rows[row] = tuple(map(lookup, row.split("],[")))
            blocks.append(block)
        part = parts[text] = Partition(g.order, blocks)
    return part


# what precedes each value in the line _theory_line writes
_LINE_HEAD = '{"group":'
_LINE_KEYS = (',"superclasses":', ',"character_classes":', ',"tags":', ',"provenance":')


def _theory_from_line(line: str, memo: dict | None = None) -> TheoryRecord | None:
    """The record of a JSONL line in the exact layout that _theory_line
    writes, read from its text; None for a line in any other layout and for
    one that any check refuses, which the caller then reads with json.loads
    and theory_from_json, for the same record or the message naming the
    fault.  memo, a dict that a reader keeps over the lines it reads, maps
    each group text that group_from_json accepted to the group and the
    texts _partition_from_text has decoded for it, so a line of a group
    already read decodes no JSON for its group, and a partition written
    again is one object and is checked once.

    The line is cut at the first occurrence of each key, in the order
    written.  The group, the tags and the provenance each go through
    json.loads; the two partitions go through _partition_from_text, whose
    element texts hold only digits and commas.  So when every value passes,
    the line is one JSON object with exactly these five keys, and
    theory_from_json(json.loads(line)) gives an equal record."""
    if not line.startswith(_LINE_HEAD) or not line.endswith("}"):
        return None
    values, start = [], len(_LINE_HEAD)
    for key in _LINE_KEYS:
        end = line.find(key, start)
        if end < 0:
            return None
        values.append(line[start:end])
        start = end + len(key)
    group, classes, charparts, tags = values
    if memo is None:
        memo = {}
    try:
        found = memo.get(group)
        if found is None:
            found = memo[group] = (group_from_json(json.loads(group)), ({}, {}))
        g, known = found
        return _record(g, _partition_from_text(g, classes, known),
                       _partition_from_text(g, charparts, known),
                       json.loads(tags), json.loads(line[start:-1]))
    except (ValueError, KeyError, RecursionError):
        return None
