"""Refinement order on a family of theories and its DOT rendering."""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress

from .theories import TheoryRecord, _invariant, canonical_key, sort_key


def refinement_edges(theories) -> list[tuple[int, int]]:
    """Covering pairs (i, j): theory i refines theory j with nothing strictly
    between; indices follow the canonical (block count, key) order.  Raises
    ValueError when the theories live on different groups, when two of them
    have the same classes, or when the multipliers do not fix the classes
    of one of them."""
    return _covers(sorted(theories, key=sort_key))


def _covers(ts) -> list[tuple[int, int]]:
    """refinement_edges of theories already in canonical order.

    Theory i refines j (the relation of theories.refines, taken over
    i != j) exactly when the block of i holding x lies inside the block of
    j holding x, for every element x.  By Schur's multiplier theorem the
    multipliers fix the classes of every theory: the block of a*x is then
    a times the block of x, so the inclusion holds at a*x exactly when it
    holds at x.  Each element (e, v) is (0, v) or e times (1, v), so the
    min(n, 2 << d) lead points x < 2 << d decide refinement (all n points
    of a 2-group, whose one multiplier is the identity).  ValueError names
    the first theory, in canonical order, whose classes it does not fix.

    With the blocks at the lead points as bitmasks, one field per point,
    packed into one int c per theory (_cells), i refines j exactly when
    c_i & c_j == c_i.  A j with more blocks than i cannot be refined by i,
    and one with as many only if it has the same classes, so only the
    prefix of theories with fewer blocks is a candidate.  The pairs form
    int bitsets up[i], and the covers of i are up[i] minus every up[k]
    with k in up[i]."""
    if any(t.group != ts[0].group for t in ts):
        raise ValueError("theories live on different groups")
    # equal classes sort next to each other, and would refine each other
    for t, u in zip(ts, ts[1:]):
        if t.classes == u.classes:
            raise ValueError(f"theory {canonical_key(t)} is repeated")
    for t in ts:
        if not _invariant(t.classes, t.group.multiplier_perm):
            raise ValueError(f"theory {canonical_key(t)} is not fixed by the multipliers")
    sizes = [len(t.classes) for t in ts]
    cells = list(map(_cells, ts))
    up = []
    for i, c in enumerate(cells):
        below = cells[:bisect_left(sizes, sizes[i])]
        js = compress(range(len(below)), map(c.__eq__, map(c.__and__, below)))
        up.append(sum(map((1).__lshift__, js)))
    edges = []
    for i, bits in enumerate(up):
        above = 0
        for k in _bits(bits):
            above |= up[k]
        edges.extend((i, j) for j in _bits(bits & ~above))
    return edges


def _cells(t) -> int:
    """The bitmask of the class block holding each lead point x <
    min(n, 2 << d), as n-bit fields packed into one int, point x in field
    x; the mask of each block is formed once."""
    n, blocks = t.group.order, t.classes.blocks
    lead = t.classes.block_of[:min(n, 2 << t.group.dim2)]
    masks = {b: sum(map((1).__lshift__, blocks[b])) for b in set(lead)}
    return sum(masks[b] << x * n for x, b in enumerate(lead))


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
