"""Command-line interface.

Subcommands: count, enumerate, verify, dual, classify, oracle, lattice.
Theories travel as JSON Lines, one record per line, ordered by (number of
classes, canonical key).  Exit codes: 0 success, 2 verification failure,
3 count mismatch, 4 bad input, 5 search budget exhausted, 141 stdout closed
by its reader (as in `| head`; 128 + SIGPIPE, with no message).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from contextlib import nullcontext
from itertools import chain

from .bruteforce import BudgetExhaustedError, brute_force_enumerate
from .constructions import (
    automorphism_witness,
    direct_decompositions,
    wedge_decompositions,
)
from .enumeration import CountMismatchError, all_scts_cp_c2_c2, all_theories
from .groups import GroupSpec, _FAMILY_SHAPES
from .lattice import lattice_dot
from .theories import (
    TheoryRecord,
    _dumps,
    _theory_from_line,
    _theory_line,
    canonical_key,
    dual,
    generators_to_json,
    require_valid,
    shape_tags,
    sort_key,
    theory_from_classes,
    theory_from_json,
    verify,
)

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_COUNT = 3
EXIT_INPUT = 4
EXIT_BUDGET = 5
EXIT_PIPE = 141

# the CLI name of a family is its name in lower case; the trivial group and
# C_2 have none
_FAMILIES = {f.lower(): f for f in _FAMILY_SHAPES if f not in ("Trivial", "C2")}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; these are bad input here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _group_from_args(args) -> GroupSpec:
    family = _FAMILIES[args.group]
    if None in _FAMILY_SHAPES[family] and args.p is None:
        raise ValueError(f"--p is required for --group {args.group}")
    return GroupSpec.from_family(family, args.p)


def _open_out(path: str | None):
    """stdout for no path or "-", else the file opened for writing; either
    one as a context manager, and only the file is closed on exit."""
    if path is None or path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _read_records(path: str | None) -> list[TheoryRecord]:
    """Parse JSONL records line by line, skipping blank lines; a bad record,
    including one that is not UTF-8 or is nested too deep for the JSON
    decoder, raises ValueError naming its 1-based line number.

    Lines are read as bytes and decoded one by one, from a file and from
    stdin alike.  bytes.splitlines ends a line at "\n", "\r\n" or a bare
    "\r", as text mode does.  A line in the layout this program writes is
    read from its text by _theory_from_line; any other goes through
    json.loads and theory_from_json.  The partition and block texts that
    _theory_from_line decodes are kept, per group, for this read only: a
    file closed under duality writes each partition twice."""
    stdin = path is None or path == "-"
    records, memo = [], {}
    with nullcontext(sys.stdin.buffer) if stdin else open(path, "rb") as chunks:
        lines = chain.from_iterable(map(bytes.splitlines, chunks))
        for lineno, raw in enumerate(lines, start=1):
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                rec = _theory_from_line(line, memo)
                records.append(theory_from_json(json.loads(line)) if rec is None else rec)
            except (ValueError, RecursionError) as e:
                raise ValueError(f"line {lineno}: {e}") from None
    return records


def _write_records(records, path: str | None) -> None:
    with _open_out(path) as out:
        for rec in records:
            out.write(_theory_line(rec))
            out.write("\n")


def _cmd_count(args) -> int:
    _records, report = all_scts_cp_c2_c2(args.p)
    if args.json:
        print(_dumps(report.to_json()))
    else:
        print(f"p={report.p} (k={report.k}, l={report.l}, n={report.n})")
        for key in ("automorphic", "direct", "overlap", "wedge", "maximal", "total"):
            print(f"{key} {getattr(report, key)} (predicted {report.predicted[key]})")
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    g = _group_from_args(args)
    records = all_theories(g)
    _write_records(records, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    records = _read_records(args.file)
    failures = 0
    for i, rec in enumerate(records):
        v = verify(rec.theory)
        if v is None:
            print(f"theory {i}: ok")
        else:
            failures += 1
            print(f"theory {i}: violation condition={v.condition}: {v.message}")
    return EXIT_VERIFY if failures else EXIT_OK


def _cmd_dual(args) -> int:
    records = _read_records(args.file)
    out = []
    for rec in records:
        d = dual(rec.theory)
        out.append(TheoryRecord(
            d, set(), [{"construction": "dual", "source": canonical_key(rec.theory)}],
        ))
    out.sort(key=lambda r: sort_key(r.theory))
    _write_records(out, args.out)
    return EXIT_OK


def _classify_one(t) -> tuple[set[str], dict]:
    """Recompute construction tags with explicit decomposition witnesses."""
    tags = shape_tags(t)
    witness: dict = {}
    gens = automorphism_witness(t)
    if gens is not None:
        tags.add("automorphic")
        witness["aut"] = generators_to_json(gens)
    else:
        # the shape tests below assume that the class partition completes to
        # a theory, as an orbit theory's does; a record whose partition does
        # not gets no direct or wedge tag
        try:
            require_valid(theory_from_classes(t.group, t.classes), "class partition")
        except RuntimeError:
            return tags, witness
    pairs = direct_decompositions(t)
    if pairs:
        h1, h2 = pairs[0]
        tags.add("direct")
        witness["direct"] = [h1.generator_exps(), h2.generator_exps()]
    wedges = wedge_decompositions(t)
    if wedges:
        tags.add("wedge")
        witness["wedge"] = {"N": wedges[0].generator_exps()}
    return tags, witness


def _cmd_classify(args) -> int:
    records = _read_records(args.file)
    for i, rec in enumerate(records):
        tags, witness = _classify_one(rec.theory)
        parts = [f"theory {i}:", f"classes={len(rec.theory.classes)}",
                 "tags=" + (",".join(sorted(tags)) or "-")]
        for name in ("aut", "direct", "wedge"):
            if name in witness:
                parts.append(f"{name}={_dumps(witness[name])}")
        print(" ".join(parts))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    g = _group_from_args(args)
    theories = brute_force_enumerate(g, args.budget)
    records = [TheoryRecord(t, set(), [{"construction": "search"}]) for t in theories]
    _write_records(records, args.out)
    print(f"count {len(records)}", file=sys.stderr)
    return EXIT_OK


def _cmd_lattice(args) -> int:
    records = _read_records(args.file)
    groups = {rec.theory.group for rec in records}
    if len(groups) != 1:
        raise ValueError("lattice needs records from exactly one group")
    text = lattice_dot(records)
    with _open_out(args.dot) as out:
        out.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="supercharacters", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="enumerate C_p x C_2 x C_2 and check the formulas")
    p_count.add_argument("--p", type=int, required=True)
    p_count.add_argument("--json", action="store_true")
    p_count.set_defaults(func=_cmd_count)

    p_enum = sub.add_parser("enumerate", help="list every theory of a group as JSONL")
    p_enum.add_argument("--group", choices=sorted(_FAMILIES), required=True)
    p_enum.add_argument("--p", type=int)
    p_enum.add_argument("--out", help="output file (default stdout)")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_verify = sub.add_parser("verify", help="check each JSONL theory")
    p_verify.add_argument("file", nargs="?", help="JSONL input (default stdin)")
    p_verify.set_defaults(func=_cmd_verify)

    p_dual = sub.add_parser("dual", help="swap class and character partitions")
    p_dual.add_argument("file", nargs="?", help="JSONL input (default stdin)")
    p_dual.add_argument("--out", help="output file (default stdout)")
    p_dual.set_defaults(func=_cmd_dual)

    p_classify = sub.add_parser("classify", help="recompute construction tags with witnesses")
    p_classify.add_argument("file", nargs="?", help="JSONL input (default stdin)")
    p_classify.set_defaults(func=_cmd_classify)

    p_oracle = sub.add_parser("oracle", help="brute-force search for all theories")
    p_oracle.add_argument("--group", choices=sorted(_FAMILIES), required=True)
    p_oracle.add_argument("--p", type=int)
    p_oracle.add_argument("--budget", type=int, help="search node budget")
    p_oracle.add_argument("--out", help="output file (default stdout)")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_lattice = sub.add_parser("lattice", help="DOT digraph of covering refinements")
    p_lattice.add_argument("file", nargs="?", help="JSONL input (default stdin)")
    p_lattice.add_argument("--dot", required=True, help="output DOT file ('-' for stdout)")
    p_lattice.set_defaults(func=_cmd_lattice)

    return parser


def _drop_stdout() -> None:
    """Points the file descriptor of stdout at os.devnull, so that what is
    still buffered for a closed pipe is dropped at exit instead of failing
    there again; a stdout without a descriptor is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # written here, so that a reader gone before the last block is seen
        # below and not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _drop_stdout()
        return EXIT_PIPE
    except BudgetExhaustedError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except CountMismatchError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_COUNT
    except (ValueError, OSError) as e:
        # OSError: an input file that cannot be read or an output path
        # that cannot be written
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VERIFY


def run() -> int:
    """Entry point of `python -m supercharacters.cli` and of the installed
    `supercharacters` script: gc.disable(), main() on sys.argv, then
    gc.freeze().  With the collector off, a command that allocates
    containers fast, as an enumeration does, no longer walks the objects
    of the imports and the group tables again and again; one command is
    short and leaves few cycles.  The collection that the interpreter makes
    at exit, even under gc.disable(), then skips every object left from
    start-up and the command; walking them cost 6-10 ms of CPU per call.
    main(argv) leaves the collector alone, since tests call it in-process."""
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
