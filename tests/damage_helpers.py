"""Fixed damage to the class partitions of an enumeration, shared by the
tests of the CLI and of the refinement order."""

from supercharacters import Partition, Theory, canonical_key


def damaged(part: Partition) -> list[Partition]:
    """Fixed damage to a class partition: the last element of the last class
    moved into the class before it, the last two classes merged, and the
    identity merged into the next class."""
    blocks = [list(b) for b in part.blocks]
    out = []
    if len(blocks) >= 3:
        if len(blocks[-1]) > 1:
            out.append(blocks[:-2] + [blocks[-2] + blocks[-1][-1:], blocks[-1][:-1]])
        out.append(blocks[:-2] + [blocks[-2] + blocks[-1]])
    if len(blocks) >= 2:
        out.append([blocks[0] + blocks[1]] + blocks[2:])
    return [Partition(part.size, b) for b in out]


def damaged_theories(records) -> list[Theory]:
    """The damaged classes of each record, each with the record's character
    partition, that the records do not hold: the enumeration being complete,
    none of them is a theory."""
    keys = {canonical_key(rec.theory) for rec in records}
    out = []
    for rec in records:
        for classes in damaged(rec.theory.classes):
            t = Theory(rec.theory.group, classes, rec.theory.charparts)
            if canonical_key(t) not in keys:
                out.append(t)
    return out
