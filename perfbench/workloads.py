"""The four benchmark workloads: their CLI operations, set-up, and the checks
each operation's output must pass.

Expected values are computed here from first principles (divisor counts, the
closed form, partition and refinement checks on the JSON records) and never
by importing the library under test.  The only program output used as an
expectation is the enumerator's own tags, which `classify` must reproduce.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Oracle budget for groups beyond the exhaustive limit; no op comes close.
ORACLE_BUDGET = 10**9

# Totals fixed by the paper for C_p x C_2 x C_2.
FROZEN_TOTALS = {3: 76, 5: 109, 7: 143, 11: 139, 13: 211}

CENSUS_PRIMES = (5, 7, 11, 13, 19)

# Pairs of records whose character partitions are swapped in `recheck`.
CORRUPT_PAIRS = 3


@dataclass
class OpOutput:
    """What one child process left behind."""

    returncode: int
    stdout: bytes
    stderr: bytes


@dataclass
class Op:
    """One CLI invocation and the check its output must pass.

    `check` returns None when the output is right, else a one-line reason.
    """

    id: str
    argv: list[str]
    check: Callable[[OpOutput], str | None]
    # False when the output depends on the seed, so no reference digest applies.
    stable_output: bool = True


@dataclass
class Workload:
    name: str
    why: str
    small_op: str
    big_op: str
    # setup(spawn, work_dir, seed) -> ops; spawn runs one CLI call for set-up.
    setup: Callable[..., list[Op]]


# -- number theory, independent of the library -------------------------------


def divisor_count(n: int) -> int:
    count = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            count += 1 if d * d == n else 2
        d += 1
    return count


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def split_pm1(p: int) -> tuple[int, int, int]:
    """(k, l, n) with p - 1 = 2^k * 3^l * n and gcd(n, 6) = 1."""
    m, k, l = p - 1, 0, 0
    while m % 2 == 0:
        m, k = m // 2, k + 1
    while m % 3 == 0:
        m, l = m // 3, l + 1
    return k, l, m


def closed_form(p: int) -> dict:
    """Per-tag theory counts of C_p x C_2 x C_2 from the paper's formulas."""
    k, l, n = split_pm1(p)
    d = divisor_count
    return {
        "total": 3 * k * d(3**l * n) + 2 * l * d(2**k * n) + 30 * d(p - 1) + 13,
        "automorphic": 3 * k * d(3**l * n) + 2 * l * d(2**k * n) + 5 * d(p - 1),
        "direct": 11 * d(p - 1) + 6,
        "overlap": 5 * d(p - 1),
        "wedge": 19 * d(p - 1) + 6,
        "maximal": 1,
    }


def expected_count_report(p: int) -> dict:
    """The exact object `count --p P --json` must print."""
    k, l, n = split_pm1(p)
    form = closed_form(p)
    if p in FROZEN_TOTALS and form["total"] != FROZEN_TOTALS[p]:
        raise AssertionError(f"closed form gives {form['total']} at p={p}")
    return {"p": p, "k": k, "l": l, "n": n, **form, "predicted": dict(form)}


# -- JSONL records ------------------------------------------------------------

_FAMILY_FACTORS = {
    "Cp": lambda p: (p,),
    "Klein": lambda p: (2, 2),
    "CpC2": lambda p: (p, 2),
    "C2cubed": lambda p: (2, 2, 2),
    "CpC2C2": lambda p: (p, 2, 2),
}


def _canon_partition(blocks) -> tuple:
    return tuple(sorted(tuple(sorted(tuple(x) for x in b)) for b in blocks))


def _partition_error(blocks, factors: tuple[int, ...]) -> str | None:
    n = 1
    for f in factors:
        n *= f
    seen = set()
    for b in blocks:
        if not b:
            return "empty block"
        for x in b:
            if len(x) != len(factors) or any(not 0 <= e < f for e, f in zip(x, factors)):
                return f"bad element {x}"
            seen.add(tuple(x))
    if len(seen) != n or sum(len(b) for b in blocks) != n:
        return "blocks do not partition the group"
    if [[0] * len(factors)] not in blocks:
        return "identity is not a singleton block"
    return None


def parse_records(text: str, family: str, p: int | None) -> tuple[list[dict], str | None]:
    """Parse JSONL theories of one group and check each is a well-formed pair of
    partitions with equal block counts, distinct and in block-count order."""
    factors = _FAMILY_FACTORS[family](p)
    group = {"family": family, "p": p} if p is not None else {"family": family}
    records = []
    for i, line in enumerate(text.splitlines()):
        try:
            rec = json.loads(line)
        except ValueError:
            return records, f"line {i} is not JSON"
        if rec.get("group") != group:
            return records, f"line {i}: group {rec.get('group')} != {group}"
        for key in ("superclasses", "character_classes"):
            err = _partition_error(rec.get(key) or [], factors)
            if err:
                return records, f"line {i}: {key}: {err}"
        if len(rec["superclasses"]) != len(rec["character_classes"]):
            return records, f"line {i}: block counts differ"
        records.append(rec)
    keys = [_canon_partition(r["superclasses"]) for r in records]
    if len(set(keys)) != len(keys):
        return records, "duplicate theories"
    sizes = [len(r["superclasses"]) for r in records]
    if sizes != sorted(sizes):
        return records, "records are not in block-count order"
    return records, None


def _expect_records(family: str, p: int | None, count: int, extra=None):
    def check(out: OpOutput) -> str | None:
        if out.returncode != 0:
            return f"exit {out.returncode}"
        records, err = parse_records(out.stdout.decode(), family, p)
        if err:
            return err
        if len(records) != count:
            return f"{len(records)} theories, expected {count}"
        return extra(records) if extra else None
    return check


def _cp_block_counts(p: int):
    """C_p theories are orbit theories of the subgroups of Aut(C_p) = C_(p-1):
    one with (p-1)/e + 1 classes for each divisor e of p-1."""
    want = sorted((p - 1) // e + 1 for e in divisors(p - 1))

    def extra(records):
        got = sorted(len(r["superclasses"]) for r in records)
        return None if got == want else f"block counts {got}, expected {want}"
    return extra


def _expect_count(p: int) -> Callable[[OpOutput], str | None]:
    want = expected_count_report(p)

    def check(out: OpOutput) -> str | None:
        if out.returncode != 0:
            return f"exit {out.returncode}"
        try:
            got = json.loads(out.stdout.decode().splitlines()[-1])
        except (ValueError, IndexError):
            return "no JSON report"
        return None if got == want else f"report {got} != {want}"
    return check


# -- refinement lattice, independent of the library ---------------------------


def _index_of(factors: tuple[int, ...]):
    def index(x) -> int:
        i = 0
        for e, f in zip(x, factors):
            i = i * f + e
        return i
    return index


def covering_edges(records: list[dict], factors: tuple[int, ...]) -> set[tuple[int, int]]:
    """Covering pairs (i, j) of the refinement order on class partitions, with
    i finer than j and indices in record order."""
    index = _index_of(factors)
    blocks = [[[index(x) for x in b] for b in r["superclasses"]] for r in records]
    block_of = []
    for bs in blocks:
        owner = {}
        for bi, b in enumerate(bs):
            for x in b:
                owner[x] = bi
        block_of.append(owner)
    n = len(records)
    finer = [set() for _ in range(n)]  # finer[i] = {j : i strictly refines j}
    for i in range(n):
        for j in range(n):
            if len(blocks[i]) <= len(blocks[j]):
                continue
            owner = block_of[j]
            if all(owner[x] == owner[b[0]] for b in blocks[i] for x in b):
                finer[i].add(j)
    return {
        (i, j)
        for i in range(n)
        for j in finer[i]
        if not any(j in finer[k] for k in finer[i])
    }


_NODE = re.compile(r'^  n(\d+) \[label="(\d+) classes" tags="([^"]*)"')
_EDGE = re.compile(r"^  n(\d+) -> n(\d+);$")


def _expect_lattice(records: list[dict], factors: tuple[int, ...]):
    want_edges = covering_edges(records, factors)
    want_nodes = [(len(r["superclasses"]), ",".join(sorted(r["tags"]))) for r in records]

    def check(out: OpOutput) -> str | None:
        if out.returncode != 0:
            return f"exit {out.returncode}"
        nodes, edges = [], set()
        for line in out.stdout.decode().splitlines():
            if m := _NODE.match(line):
                if int(m.group(1)) != len(nodes):
                    return f"node n{m.group(1)} out of order"
                nodes.append((int(m.group(2)), m.group(3)))
            elif m := _EDGE.match(line):
                edges.add((int(m.group(1)), int(m.group(2))))
        if nodes != want_nodes:
            return f"{len(nodes)} nodes differ from the {len(want_nodes)} records"
        if edges != want_edges:
            return f"{len(edges)} edges, expected {len(want_edges)} covering pairs"
        return None
    return check


def _expect_dual(records: list[dict], family: str, p: int | None):
    want = Counter(
        (_canon_partition(r["character_classes"]), _canon_partition(r["superclasses"]))
        for r in records
    )

    def check(out: OpOutput) -> str | None:
        if out.returncode != 0:
            return f"exit {out.returncode}"
        got, err = parse_records(out.stdout.decode(), family, p)
        if err:
            return err
        if any(r["provenance"][0].get("construction") != "dual" for r in got):
            return "record without dual provenance"
        pairs = Counter(
            (_canon_partition(r["superclasses"]), _canon_partition(r["character_classes"]))
            for r in got
        )
        return None if pairs == want else "dual partitions are not the swapped inputs"
    return check


_CLASSIFY = re.compile(r"^theory (\d+): classes=(\d+) tags=(\S+)")


def _expect_classify(records: list[dict], added: set[str]):
    want = [
        (len(r["superclasses"]), set(r["tags"]) | added) for r in records
    ]

    def check(out: OpOutput) -> str | None:
        if out.returncode != 0:
            return f"exit {out.returncode}"
        lines = out.stdout.decode().splitlines()
        if len(lines) != len(want):
            return f"{len(lines)} lines for {len(want)} records"
        for i, (line, (k, tags)) in enumerate(zip(lines, want)):
            m = _CLASSIFY.match(line)
            if not m or int(m.group(1)) != i:
                return f"line {i} malformed"
            got = set() if m.group(3) == "-" else set(m.group(3).split(","))
            if int(m.group(2)) != k or got != tags:
                return f"theory {i}: tags {sorted(got)}, expected {sorted(tags)}"
        return None
    return check


def _expect_verify(corrupt: set[int], total: int):
    def check(out: OpOutput) -> str | None:
        want_rc = 2 if corrupt else 0
        if out.returncode != want_rc:
            return f"exit {out.returncode}, expected {want_rc}"
        lines = out.stdout.decode().splitlines()
        if len(lines) != total:
            return f"{len(lines)} lines for {total} records"
        for i, line in enumerate(lines):
            prefix = (f"theory {i}: violation condition=3:" if i in corrupt
                      else f"theory {i}: ok")
            if not line.startswith(prefix) or (i not in corrupt and line != prefix):
                return f"line {i}: {line[:60]!r}, expected {prefix!r}"
        return None
    return check


def _expect_oracle(family: str, p: int | None, count: int):
    records_ok = _expect_records(family, p, count)

    def check(out: OpOutput) -> str | None:
        err = records_ok(out)
        if err:
            return err
        if f"count {count}" not in out.stderr.decode():
            return "stderr lacks the count line"
        return None
    return check


def make_corrupt(records: list[dict], rng: random.Random) -> list[dict]:
    """Swap the character partitions of CORRUPT_PAIRS pairs of records with the
    same block count.  A class partition has exactly one completing character
    partition, so every result violates condition 3 and nothing earlier."""
    by_size: dict[int, list[int]] = {}
    for i, r in enumerate(records):
        by_size.setdefault(len(r["superclasses"]), []).append(i)
    buckets = sorted(s for s, idx in by_size.items() if len(idx) >= 2)
    out, used = [], set()
    while len(out) < 2 * CORRUPT_PAIRS:
        if not buckets:
            raise RuntimeError("too few records of equal block count to corrupt")
        size = rng.choice(buckets)
        free = [i for i in by_size[size] if i not in used]
        if len(free) < 2:
            buckets.remove(size)
            continue
        a, b = rng.sample(free, 2)
        used.update((a, b))
        ra, rb = records[a], records[b]
        out.append({**ra, "character_classes": rb["character_classes"]})
        out.append({**rb, "character_classes": ra["character_classes"]})
    return out


# -- set-up per workload ------------------------------------------------------


def _setup_census(spawn, work: Path, seed: int) -> list[Op]:
    return [Op(f"count-{p}", ["count", "--p", str(p), "--json"], _expect_count(p))
            for p in CENSUS_PRIMES]


def _setup_large_p(spawn, work: Path, seed: int) -> list[Op]:
    return [
        Op("enum-cp-199", ["enumerate", "--group", "cp", "--p", "199"],
           _expect_records("Cp", 199, divisor_count(198), _cp_block_counts(199))),
        Op("enum-cpc2-127", ["enumerate", "--group", "cpc2", "--p", "127"],
           _expect_records("CpC2", 127, 3 * divisor_count(126) + 1)),
    ]


def _enumerate_input(spawn, work: Path, name: str, group_args: list[str],
                     family: str, p: int | None, count: int) -> tuple[Path, list[dict]]:
    path = work / f"{name}.jsonl"
    out = spawn(["enumerate", *group_args, "--out", str(path)])
    if out.returncode != 0:
        raise RuntimeError(f"set-up enumerate {name} exited {out.returncode}: "
                           f"{out.stderr.decode()[-200:]}")
    records, err = parse_records(path.read_text(encoding="utf-8"), family, p)
    if err or len(records) != count:
        raise RuntimeError(f"set-up enumerate {name}: {err or len(records)} "
                           f"records, expected {count}")
    return path, records


def _write_jsonl(path: Path, records: list[dict]) -> None:
    path.write_text("".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records),
                    encoding="utf-8")


def _setup_recheck(spawn, work: Path, seed: int) -> list[Op]:
    rng = random.Random(seed)
    p13, recs13 = _enumerate_input(spawn, work, "cpc2c2-13", ["--group", "cpc2c2", "--p", "13"],
                                   "CpC2C2", 13, FROZEN_TOTALS[13])
    p3, recs3 = _enumerate_input(spawn, work, "cpc2c2-3", ["--group", "cpc2c2", "--p", "3"],
                                 "CpC2C2", 3, FROZEN_TOTALS[3])
    c2c, recs_c2c = _enumerate_input(spawn, work, "c2cubed", ["--group", "c2cubed"],
                                     "C2cubed", None, 100)

    mixed = list(recs13)
    corrupt = make_corrupt(recs13, rng)
    for rec in corrupt:
        mixed.insert(rng.randrange(len(mixed) + 1), rec)
    corrupt_ids = {id(r) for r in corrupt}
    corrupt_at = {i for i, r in enumerate(mixed) if id(r) in corrupt_ids}
    mixed_path = work / "cpc2c2-13-mixed.jsonl"
    _write_jsonl(mixed_path, mixed)

    return [
        Op("verify-p13", ["verify", str(mixed_path)],
           _expect_verify(corrupt_at, len(mixed)), stable_output=False),
        Op("dual-p13", ["dual", str(p13)], _expect_dual(recs13, "CpC2C2", 13)),
        Op("lattice-p13", ["lattice", "--dot", "-", str(p13)],
           _expect_lattice(recs13, (13, 2, 2))),
        # The enumerator never tags (C_2)^3 theories automorphic, while classify
        # finds an Aut(G) witness for every one of them.
        Op("classify-c2cubed", ["classify", str(c2c)],
           _expect_classify(recs_c2c, {"automorphic"})),
        Op("classify-p3", ["classify", str(p3)], _expect_classify(recs3, set())),
    ]


def _oracle_op(group: str, family: str, p: int | None, count: int, budget: bool) -> Op:
    argv = ["oracle", "--group", group]
    if p is not None:
        argv += ["--p", str(p)]
    if budget:
        argv += ["--budget", str(ORACLE_BUDGET)]
    name = f"oracle-{group}" + (f"-{p}" if p is not None else "")
    return Op(name, argv, _expect_oracle(family, p, count))


def _setup_oracle(spawn, work: Path, seed: int) -> list[Op]:
    d = divisor_count
    return [
        _oracle_op("klein", "Klein", None, 5, False),
        _oracle_op("c2cubed", "C2cubed", None, 100, False),
        _oracle_op("cpc2c2", "CpC2C2", 3, FROZEN_TOTALS[3], False),
        _oracle_op("cpc2c2", "CpC2C2", 5, FROZEN_TOTALS[5], True),
        _oracle_op("cpc2", "CpC2", 11, 3 * d(10) + 1, True),
        _oracle_op("cp", "Cp", 23, d(22), True),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("census", "count at five primes: many theories, small groups; "
                 "enumeration, the three constructions and verify",
                 "count-5", "count-19", _setup_census),
        Workload("large_p", "enumerate C_199 and C_127 x C_2: few theories, large n; "
                 "the Z[zeta_p] kernel and the only growing memory",
                 "enum-cp-199", "enum-cpc2-127", _setup_large_p),
        Workload("recheck", "verify, dual, lattice and classify on stored JSONL with "
                 "seeded corrupt records; JSON I/O, witnesses and the Aut(G) lattice",
                 "verify-p13", "classify-c2cubed", _setup_recheck),
        Workload("oracle", "blind search on six groups up to order 23; search "
                 "pruning and theory completion only",
                 "oracle-klein", "oracle-cp-23", _setup_oracle),
    )
}
