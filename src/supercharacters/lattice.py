"""Refinement order on a family of theories and its DOT rendering."""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress

from .theories import TheoryRecord, canonical_key, sort_key


def refinement_edges(theories) -> list[tuple[int, int]]:
    """Covering pairs (i, j): theory i refines theory j with nothing strictly
    between; indices follow the canonical (block count, key) order.  Raises
    ValueError when the theories live on different groups, or when two of
    them have the same classes."""
    return _covers(sorted(theories, key=sort_key))


# Elements per round of the pair test in _covers.
_CHUNK = 64


def _covers(ts) -> list[tuple[int, int]]:
    """refinement_edges of theories already in canonical order.

    Theory i refines j (the relation of theories.refines, taken over
    i != j) exactly when the block of i holding x lies inside the block of
    j holding x, for every element x.  With those blocks as bitmasks, one
    field per element, packed into one int c per theory, that is
    c_i & c_j == c_i.  The elements go in rounds of _CHUNK, one packed int
    per theory and round, and each round keeps only the pairs that passed
    the ones before, so a pair that fails early costs little, and only one
    round's packed ints are held at a time.  A j with more blocks than i cannot be
    refined by i, so only the prefix of theories with at most as many
    blocks is a candidate.  The pairs form int bitsets up[i], and the
    covers of i are up[i] minus every up[k] with k in up[i]."""
    if any(t.group != ts[0].group for t in ts):
        raise ValueError("theories live on different groups")
    # equal classes sort next to each other, and would refine each other
    for t, u in zip(ts, ts[1:]):
        if t.classes == u.classes:
            raise ValueError(f"theory {canonical_key(t)} is repeated")
    sizes = [len(t.classes) for t in ts]
    cells = list(map(_cells, ts))
    cands = [range(bisect_right(sizes, k)) for k in sizes]
    for lo in range(0, len(cells[0]) if ts else 0, _CHUNK):
        packed = [int.from_bytes(b"".join(c[lo:lo + _CHUNK]), "little") for c in cells]
        for i, c in enumerate(packed):
            pairs = map(c.__and__, map(packed.__getitem__, cands[i]))
            cands[i] = list(compress(cands[i], map(c.__eq__, pairs)))
    up = [sum(map((1).__lshift__, js)) & ~(1 << i) for i, js in enumerate(cands)]
    edges = []
    for i, bits in enumerate(up):
        above = 0
        for k in _bits(bits):
            above |= up[k]
        edges.extend((i, j) for j in _bits(bits & ~above))
    return edges


def _cells(t) -> list[bytes]:
    """For each element, the bitmask of the class block holding it, as
    little-endian bytes of one width for the whole group."""
    width = (t.group.order + 7) // 8
    masks = [sum(map((1).__lshift__, b)).to_bytes(width, "little")
             for b in t.classes.blocks]
    return list(map(masks.__getitem__, t.classes.block_of))


def _bits(mask: int):
    """The set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _color(tags: set[str]) -> str:
    if "wedge" in tags:
        return "lightblue"
    if "direct" in tags and "automorphic" in tags:
        return "orange"
    if "direct" in tags:
        return "gold"
    if "automorphic" in tags:
        return "palegreen"
    if "maximal" in tags:
        return "lightcoral"
    return "white"


def lattice_dot(records: list[TheoryRecord]) -> str:
    """DOT digraph of covering refinements, nodes colored by tags.

    Each record's tags are written inside one quoted DOT string, where the
    only escape is a backslash before a double quote, so a tag that ends
    in a backslash could not be quoted at all.  ValueError names a tag
    that holds a double quote, a backslash or a character below U+0020."""
    recs = sorted(records, key=lambda r: sort_key(r.theory))
    edges = _covers([r.theory for r in recs])
    lines = ["digraph refinement {", "  rankdir=BT;"]
    for i, rec in enumerate(recs):
        names = sorted(rec.tags)
        for tag in names:
            if any(c in '"\\' or c < " " for c in tag):
                raise ValueError(f"tag {tag!r} cannot be quoted in DOT")
        tags = ",".join(names)
        k = len(rec.theory.classes)
        lines.append(
            f'  n{i} [label="{k} classes" tags="{tags}" style=filled '
            f'fillcolor="{_color(rec.tags)}"];'
        )
    for i, j in edges:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
