"""Refinement order on a family of theories and its DOT rendering."""

from __future__ import annotations

from .theories import TheoryRecord, sort_key


def refinement_edges(theories) -> list[tuple[int, int]]:
    """Covering pairs (i, j): theory i refines theory j with nothing strictly
    between; indices follow the canonical (block count, key) order.

    Each theory's class blocks are int bitmasks, and cell[x] is the mask of
    the block holding x.  Theory i refines j (the relation of
    theories.refines, taken over i != j) when every block mask m of i, with
    least member x, has m & ~cell_j[x] == 0; a j with more blocks than i
    cannot be refined by i and is skipped.  The pairs form int bitsets
    up[i], and the covers of i are up[i] minus every up[k] with k in up[i].
    Raises ValueError when the theories live on different groups."""
    ts = sorted(theories, key=sort_key)
    if any(t.group != ts[0].group for t in ts):
        raise ValueError("theories live on different groups")
    masks, cells = [], []
    for t in ts:
        ms = [sum(1 << x for x in b) for b in t.classes.blocks]
        masks.append([(b[0], m) for b, m in zip(t.classes.blocks, ms)])
        cells.append([ms[k] for k in t.classes.block_of])
    up = []
    for i, blocks in enumerate(masks):
        bits = 0
        for j, cell in enumerate(cells):
            if j != i and len(masks[j]) <= len(blocks) and all(
                    not m & ~cell[x] for x, m in blocks):
                bits |= 1 << j
        up.append(bits)
    edges = []
    for i, bits in enumerate(up):
        above = 0
        for k in _bits(bits):
            above |= up[k]
        edges.extend((i, j) for j in _bits(bits & ~above))
    return edges


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
    """DOT digraph of covering refinements, nodes colored by tags."""
    recs = sorted(records, key=lambda r: sort_key(r.theory))
    edges = refinement_edges([r.theory for r in recs])
    lines = ["digraph refinement {", "  rankdir=BT;"]
    for i, rec in enumerate(recs):
        tags = ",".join(sorted(rec.tags))
        k = len(rec.theory.classes)
        lines.append(
            f'  n{i} [label="{k} classes" tags="{tags}" style=filled '
            f'fillcolor="{_color(rec.tags)}"];'
        )
    for i, j in edges:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
