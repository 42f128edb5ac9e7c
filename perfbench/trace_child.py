"""Run the supercharacters CLI once with spans and counters at its layer
boundaries, then write them as JSON.

Usage: python3 trace_child.py TRACE_OUT OP_ID CLI_ARG...

Before `cli.main` runs, each traced function is replaced by a wrapper in every
module of the package that holds it (for example `verify` in `theories`,
`constructions` and `cli`), and traced methods are replaced on their class.
Spans (id, parent id, name, start ns, end ns) stay in memory until exit.  The
hottest entry points only count calls, because a span there would cost more
than the work it measures.  A target missing from the program is skipped and
listed under "missing", so a refactor degrades the trace instead of the run.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import Counter

PACKAGE = "supercharacters"

# (module, attribute) -> span name; the module is where the function is defined.
SPANS = {
    ("theories", "verify"): "theories.verify",
    ("theories", "induced_character_partition"): "theories.induced",
    ("constructions", "from_automorphisms"): "constructions.aut",
    ("constructions", "direct_product"): "constructions.direct",
    ("constructions", "wedge"): "constructions.wedge",
    ("constructions", "automorphism_witness"): "constructions.witness",
    ("constructions", "direct_decompositions"): "constructions.decompose",
    ("constructions", "wedge_decompositions"): "constructions.decompose",
    ("groups", "aut_generating_subset"): "groups.gen_subset",
    ("enumeration", "all_theories"): "enumeration.all_theories",
    ("bruteforce", "brute_force_enumerate"): "bruteforce.enumerate",
    ("bruteforce", "brute_force_count"): "bruteforce.count",
    ("bruteforce", "_search"): "bruteforce.search",
    ("lattice", "refinement_edges"): "lattice.edges",
    ("cli", "_read_records"): "cli.read",
    ("cli", "_write_records"): "cli.write",
}

# Entry points called up to millions of times per op: counted, not timed.
COUNTERS = {
    ("cyclotomic", "is_odd_prime"): "cyclotomic.prime_tests",
    ("theories", "refines"): "lattice.refines_calls",
}
METHOD_COUNTERS = {
    ("cyclotomic", "CycInt", "__init__"): "cyclotomic.cycint_new",
    ("groups", "GroupSpec", "pairing_parts"): "groups.pairing_calls",
    ("enumeration", "_Collector", "add"): "enumeration.candidates",
}


class Tracer:
    """Spans and counters for one CLI call, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.stack = [0]
        self.next_id = 1
        self.counts: Counter = Counter()
        self.ticks: dict[str, itertools.count] = {}
        self.verified: set = set()
        self.aut_groups: set = set()
        self.enumerated: set = set()
        self.missing: list[str] = []

    def open(self) -> tuple[int, int, int]:
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1]
        self.stack.append(sid)
        return sid, parent, time.perf_counter_ns()

    def close(self, name: str, sid: int, parent: int, start: int) -> None:
        end = time.perf_counter_ns()
        self.stack.pop()
        self.spans.append((sid, parent, name, start, end))

    def span(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            sid, parent, start = self.open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(name, sid, parent, start)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def counter(self, name: str, fn):
        # itertools.count ticks in C, at under half the cost of a dict update.
        tick = self.ticks.setdefault(name, itertools.count()).__next__

        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)
        return wrapper

    def all_counts(self) -> Counter:
        counts = Counter(self.counts)
        for name, ticks in self.ticks.items():
            counts[name] += next(ticks)
        return counts


def _modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _rebind(original, wrapper) -> None:
    """Point every package-level name bound to `original` at `wrapper`."""
    for mod in _modules():
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, wrapper)


def _after_hooks(tr: Tracer) -> dict:
    """Extra facts read from a traced call's arguments and result."""

    def verify(args, _result):
        t = args[0]
        tr.verified.add((t.group.factors, t.classes.blocks, t.charparts.blocks))

    def read(_args, result):
        tr.counts["cli.records_in"] += len(result)

    def write(args, _result):
        tr.counts["cli.records_out"] += len(args[0])

    def found_list(_args, result):
        tr.counts["bruteforce.found"] += len(result)

    def found_int(_args, result):
        tr.counts["bruteforce.found"] += result

    def all_theories(args, _result):
        g = args[0]
        if g in tr.enumerated:
            tr.counts["enumeration.subenum_repeats"] += 1
        tr.enumerated.add(g)

    return {
        "theories.verify": verify,
        "cli.read": read,
        "cli.write": write,
        "bruteforce.enumerate": found_list,
        "bruteforce.count": found_int,
        "enumeration.all_theories": all_theories,
    }


def install(tr: Tracer) -> None:
    mods = {m.__name__.rpartition(".")[2]: m for m in _modules()}
    hooks = _after_hooks(tr)

    def lookup(mod_name: str, attr: str):
        fn = getattr(mods.get(mod_name), attr, None)
        if fn is None:
            tr.missing.append(f"{mod_name}.{attr}")
        return fn

    for (mod_name, attr), name in SPANS.items():
        fn = lookup(mod_name, attr)
        if fn is not None:
            _rebind(fn, tr.span(name, fn, hooks.get(name)))
    for (mod_name, attr), name in COUNTERS.items():
        fn = lookup(mod_name, attr)
        if fn is not None:
            _rebind(fn, tr.counter(name, fn))
    for (mod_name, cls_name, attr), name in METHOD_COUNTERS.items():
        cls = lookup(mod_name, cls_name)
        if cls is not None and hasattr(cls, attr):
            setattr(cls, attr, tr.counter(name, getattr(cls, attr)))
        elif cls is not None:
            tr.missing.append(f"{mod_name}.{cls_name}.{attr}")

    collector = getattr(mods.get("enumeration"), "_Collector", None)
    if collector is not None and hasattr(collector, "finish"):
        finish = collector.finish

        def counted_finish(self, *args, **kwargs):
            result = finish(self, *args, **kwargs)
            tr.counts["enumeration.distinct"] += len(result)
            return result
        collector.finish = counted_finish

    # Only the first call per group builds the lattice; later calls hit a cache.
    spec = getattr(mods.get("groups"), "GroupSpec", None)
    if spec is not None and hasattr(spec, "subgroups_of_aut"):
        subgroups_of_aut = spec.subgroups_of_aut

        def first_lattice(self, *args, **kwargs):
            if self in tr.aut_groups:
                return subgroups_of_aut(self, *args, **kwargs)
            tr.aut_groups.add(self)
            sid, parent, start = tr.open()
            try:
                result = subgroups_of_aut(self, *args, **kwargs)
            finally:
                tr.close("groups.aut_lattice", sid, parent, start)
            tr.counts["groups.aut_subgroups"] += len(result)
            return result
        spec.subgroups_of_aut = first_lattice
    else:
        tr.missing.append("groups.GroupSpec.subgroups_of_aut")


def main(argv: list[str]) -> int:
    out_path, op_id, cli_args = argv[0], argv[1], argv[2:]
    start = time.perf_counter_ns()
    from supercharacters import cli
    import_ns = time.perf_counter_ns() - start

    tr = Tracer()
    install(tr)
    code = 1
    try:
        code = tr.span("cli.main", cli.main)(cli_args)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({
                "op": op_id,
                "import_ns": import_ns,
                "spans": tr.spans,
                "counts": tr.all_counts(),
                "verify_distinct": len(tr.verified),
                "missing": tr.missing,
            }, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
