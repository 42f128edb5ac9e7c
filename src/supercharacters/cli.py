"""Command-line interface.

Commands: count, enumerate, verify, dual, classify, oracle, lattice.
Theories travel as JSON Lines, one record per line, ordered by (number of
classes, canonical key).  Options are given by their full names, as
`--name value` or `--name=value`; `-` names stdin or stdout.  Exit codes:
0 success and help (-h, --help), 2 verification failure, 3 count mismatch,
4 bad input and usage errors, 5 search budget exhausted, 141 stdout closed
by its reader (as in `| head`; 128 + SIGPIPE, with no message).
"""

from __future__ import annotations

import gc
import json
import os
import sys
from contextlib import nullcontext
from itertools import chain
from types import SimpleNamespace

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
    json.loads and theory_from_json.  The group, partition and block texts
    that _theory_from_line decodes are kept, per group text, for this read
    only: a file closed under duality writes each partition twice."""
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
    """One line per record; the text of each block, per group, is joined
    once for this write only."""
    texts = {}
    with _open_out(path) as out:
        for rec in records:
            out.write(_theory_line(rec, texts))
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
    for i, rec in enumerate(records):
        try:
            d = dual(rec.theory)
        except RuntimeError as e:
            # the 0-based index that verify prints
            raise RuntimeError(f"theory {i}: {e}") from None
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
        # not gets no direct or wedge tag.  Either side of a theory determines
        # the other, so a record that verifies is that completion, and only
        # one that does not is rebuilt from its classes
        try:
            require_valid(t, "record")
        except RuntimeError:
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


# The seven commands: the handler, a one-line help, whether the command reads
# one optional JSONL file (default stdin), and its options.  An option is
# (name, kind, required, help); kind is int, str for a path, the tuple of
# choices, or bool for a flag.  Parsing follows argparse's grammar without
# prefix abbreviations, and builds no parser object: importing argparse and
# building its parsers cost about 4 ms of every call's start-up.
_GROUP = ("--group", tuple(sorted(_FAMILIES)), True, "group family")
_P = ("--p", int, False, "odd prime p, at most 199 (cp* families)")
_OUT = ("--out", str, False, "output file (default stdout)")
_COMMANDS = {
    "count": (_cmd_count, "enumerate C_p x C_2 x C_2 and check the formulas", False, (
        ("--p", int, True, "odd prime p, at most 199"),
        ("--json", bool, False, "print the report as one JSON object"))),
    "enumerate": (_cmd_enumerate, "list every theory of a group as JSONL", False,
                  (_GROUP, _P, _OUT)),
    "verify": (_cmd_verify, "check each JSONL theory", True, ()),
    "dual": (_cmd_dual, "swap class and character partitions", True, (_OUT,)),
    "classify": (_cmd_classify, "recompute construction tags with witnesses", True, ()),
    "oracle": (_cmd_oracle, "brute-force search for all theories", False, (
        _GROUP, _P, ("--budget", int, False, "search node budget"), _OUT)),
    "lattice": (_cmd_lattice, "DOT digraph of covering refinements", True, (
        ("--dot", str, True, "output DOT file ('-' for stdout)"),)),
}
_HELP_LINE = ("-h, --help", "show this help message and exit")


def _option_word(name: str, kind) -> str:
    """An option as usage shows it: `--json`, `--p P`, `--group {cp,...}`."""
    if kind is bool:
        return name
    if type(kind) is tuple:
        return f"{name} {{{','.join(kind)}}}"
    return f"{name} {name[2:].upper()}"


def _invalid_choice(value: str, choices) -> str:
    return f"invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})"


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: supercharacters [-h] {%s} ..." % ",".join(_COMMANDS)
    _, _, takes_file, options = _COMMANDS[command]
    words = ["usage: supercharacters", command, "[-h]"]
    for name, kind, required, _ in options:
        word = _option_word(name, kind)
        words.append(word if required else f"[{word}]")
    if takes_file:
        words.append("[file]")
    return " ".join(words)


def _usage_error(command: str | None, message: str):
    """Usage, then one error line, on stderr; bad input, so exit 4."""
    prog = "supercharacters" if command is None else f"supercharacters {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(EXIT_INPUT)


def _help(command: str | None):
    """Usage, description and one line per command or option, on stdout."""
    if command is None:
        text, sections = __doc__.strip(), [
            ("commands:", [(name, row[1]) for name, row in _COMMANDS.items()]),
            ("options:", [_HELP_LINE])]
    else:
        _, text, takes_file, options = _COMMANDS[command]
        sections = [("options:", [_HELP_LINE] + [
            (_option_word(name, kind), help_) for name, kind, _, help_ in options])]
        if takes_file:
            sections.insert(0, ("positional arguments:",
                                [("file", "JSONL input (default stdin)")]))
    lines = [_usage(command), "", text]
    for title, rows in sections:
        lines += ["", title]
        for left, help_ in rows:
            # a long left column puts its help on the next line, as argparse does
            lines.append(f"  {left:<20}  {help_}" if len(left) <= 20
                         else f"  {left}\n{'':24}{help_}")
    sys.stdout.write("\n".join(lines) + "\n")
    raise SystemExit(EXIT_OK)


def _parse(argv: list[str]):
    """The handler of argv's command and a namespace of its option values
    (None if not given, False for an absent flag) and, for a command that
    reads records, its file.  A usage error prints usage and one error line
    on stderr and exits 4; -h or --help prints help on stdout and exits 0.

    After the command, in any order: `--name value` or `--name=value`, whose
    value is the next token even if it starts with "-"; a flag alone; `-`
    or a token not starting with "-" is the file; after `--` every token
    is.  A repeated option keeps its last value."""
    if not argv:
        _usage_error(None, "the following arguments are required: command")
    command, *rest = argv
    if command in ("-h", "--help"):
        _help(None)
    if command not in _COMMANDS:
        if command.startswith("-") and command != "-":
            _usage_error(None, f"unrecognized arguments: {command}")
        _usage_error(None, f"argument command: {_invalid_choice(command, _COMMANDS)}")
    handler, _, takes_file, options = _COMMANDS[command]
    kinds = {name: kind for name, kind, _, _ in options}
    values = {name[2:]: False if kind is bool else None for name, kind in kinds.items()}
    if takes_file:
        values["file"] = None
    unrecognized, tokens, positional = [], iter(rest), False
    for token in tokens:
        if positional or token == "-" or not token.startswith("-"):
            if takes_file and values["file"] is None:
                values["file"] = token
            else:
                unrecognized.append(token)
            continue
        if token == "--":
            positional = True
            continue
        if token in ("-h", "--help"):
            _help(command)
        name, eq, value = token.partition("=")
        kind = kinds.get(name)
        if kind is None:
            unrecognized.append(token)
        elif kind is bool:
            if eq:
                _usage_error(command, f"argument {name}: ignored explicit argument {value!r}")
            values[name[2:]] = True
        else:
            if not eq:
                value = next(tokens, None)
                if value is None:
                    _usage_error(command, f"argument {name}: expected one argument")
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    _usage_error(command, f"argument {name}: invalid int value: {value!r}")
            elif kind is not str and value not in kind:
                _usage_error(command, f"argument {name}: {_invalid_choice(value, kind)}")
            values[name[2:]] = value
    missing = [name for name, _, required, _ in options
               if required and values[name[2:]] is None]
    if missing:
        _usage_error(command, f"the following arguments are required: {', '.join(missing)}")
    if unrecognized:
        _usage_error(command, f"unrecognized arguments: {' '.join(unrecognized)}")
    return handler, SimpleNamespace(**values)


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
    handler, args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        code = handler(args)
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
