"""Command-line behavior: subcommands, exit codes, JSONL piping, determinism."""

import ast
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from supercharacters import (
    CountMismatchError,
    GroupSpec,
    Partition,
    Theory,
    TheoryRecord,
    aut_generating_subset,
    canonical_key,
    cli,
    direct_decompositions,
    from_automorphisms,
    maximal_theory,
    theory_from_json,
    theory_to_json,
    wedge_decompositions,
)
from supercharacters import constructions, enumeration, groups, theories

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _stdin(data: bytes):
    """A text stream over data with the binary buffer beneath it, as
    sys.stdin has; the CLI reads records from the buffer."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def test_cli_import_loads_no_class_generator():
    # every CLI call is a fresh process that pays this import; -S skips
    # site, so no .pth file of the host can load one of these modules first
    code = ("import sys\nimport supercharacters.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'argparse', 'gettext'}"
            " & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_enumerate_klein_stdout(capsys):
    code, out, _ = run(capsys, ["enumerate", "--group", "klein"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    first = json.loads(lines[0])
    assert first["group"] == {"family": "Klein"}
    assert first["superclasses"][0] == [[0, 0]]
    counts = [len(json.loads(line)["superclasses"]) for line in lines]
    assert counts == sorted(counts)


def test_enumerate_to_file_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert cli.main(["enumerate", "--group", "cpc2c2", "--p", "3", "--out", str(a)]) == 0
    assert cli.main(["enumerate", "--group", "cpc2c2", "--p", "3", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text().splitlines()) == 76


def test_count_human_output(capsys):
    code, out, _ = run(capsys, ["count", "--p", "7"])
    assert code == 0
    assert "total 143 (predicted 143)" in out
    assert "automorphic 30 (predicted 30)" in out
    assert "wedge 82 (predicted 82)" in out


def test_count_json_output(capsys):
    code, out, _ = run(capsys, ["count", "--p", "5", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["p"] == 5 and data["total"] == 109
    assert data["predicted"]["total"] == 109
    assert data["overlap"] == 15


def test_verify_accepts_enumerated_records(tmp_path, capsys):
    path = tmp_path / "klein.jsonl"
    cli.main(["enumerate", "--group", "klein", "--out", str(path)])
    capsys.readouterr()
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 0
    assert out.strip().splitlines() == [f"theory {i}: ok" for i in range(5)]


def test_verify_reads_stdin(capsys, monkeypatch):
    cli.main(["enumerate", "--group", "cp", "--p", "5"])
    out = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", _stdin(out.encode()))
    code, out2, _ = run(capsys, ["verify"])
    assert code == 0
    assert all(line.endswith("ok") for line in out2.strip().splitlines())


def test_verify_flags_invalid_theory(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    cli.main(["enumerate", "--group", "klein", "--out", str(path)])
    capsys.readouterr()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    bad = records[0]
    merged = [bad["superclasses"][0][0]] + bad["superclasses"][1][:]
    bad["superclasses"] = [merged] + bad["superclasses"][2:] if len(bad["superclasses"]) > 2 else [merged]
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 2
    assert "violation condition=1" in out


def test_verify_cpc2_records(tmp_path, capsys):
    path = tmp_path / "recs.jsonl"
    cli.main(["enumerate", "--group", "cpc2", "--p", "3", "--out", str(path)])
    capsys.readouterr()
    code, out, _ = run(capsys, ["verify", str(path)])
    assert code == 0
    assert out.strip().splitlines() == [f"theory {i}: ok" for i in range(7)]


def test_dual_round_trip(tmp_path, capsys):
    src = tmp_path / "src.jsonl"
    once = tmp_path / "once.jsonl"
    twice = tmp_path / "twice.jsonl"
    cli.main(["enumerate", "--group", "cpc2c2", "--p", "3", "--out", str(src)])
    assert cli.main(["dual", str(src), "--out", str(once)]) == 0
    assert cli.main(["dual", str(once), "--out", str(twice)]) == 0
    capsys.readouterr()

    def payload(path):
        return sorted(
            (json.dumps(json.loads(line)["superclasses"]),
             json.dumps(json.loads(line)["character_classes"]))
            for line in path.read_text().splitlines()
        )

    assert payload(src) == payload(twice)
    # the dual swaps the two partitions
    assert payload(src) == sorted((b, a) for a, b in payload(once))


def test_classify_matches_enumeration_tags(tmp_path, capsys):
    path = tmp_path / "klein.jsonl"
    cli.main(["enumerate", "--group", "klein", "--out", str(path)])
    want = [
        sorted(json.loads(line)["tags"]) for line in path.read_text().splitlines()
    ]
    capsys.readouterr()
    code, out, _ = run(capsys, ["classify", str(path)])
    assert code == 0
    got = []
    for line in out.strip().splitlines():
        tagfield = next(f for f in line.split() if f.startswith("tags="))
        got.append(sorted(tagfield[len("tags="):].split(",")))
    assert got == want


def test_classify_verifies_each_class_partition_once(tmp_path, capsys, monkeypatch):
    # the witness index builds only orbit partitions and verifies nothing;
    # an automorphic record has the classes of one, so only the other
    # records are completed and verified at the class-partition gate
    g = GroupSpec.cp_c2_c2(3)
    path = tmp_path / "theories.jsonl"
    assert cli.main(["enumerate", "--group", "cpc2c2", "--p", "3", "--out", str(path)]) == 0
    auts = g.aut_group()
    orbit_keys = {canonical_key(from_automorphisms(
                      g, [auts[i] for i in aut_generating_subset(g, s)]))
                  for s in g.subgroups_of_aut()}
    records = [theory_from_json(json.loads(line)) for line in path.read_text().splitlines()]
    others = sum(canonical_key(rec.theory) not in orbit_keys for rec in records)
    assert 0 < others < len(records)
    calls = []
    verify = theories.verify

    def counting_verify(t):
        calls.append(t)
        return verify(t)

    monkeypatch.setattr(theories, "verify", counting_verify)
    constructions._witness_index.cache_clear()
    capsys.readouterr()
    code, _, _ = run(capsys, ["classify", str(path)])
    assert code == 0
    assert len(calls) == others


def test_reading_records_of_one_group_tests_its_p_once(tmp_path, capsys, monkeypatch):
    # GroupSpec.of interns the group of the first record, and only the gate
    # in GroupSpec.__init__ runs trial division, so the other records
    # reach none
    calls = []
    is_odd_prime = groups.is_odd_prime

    def counting(p):
        calls.append(p)
        return is_odd_prime(p)

    monkeypatch.setattr(groups, "is_odd_prime", counting)
    n = 20
    path = tmp_path / "c7.jsonl"
    path.write_text(n * ('{"group":{"family":"Cp","p":7},"superclasses":[[[0]],'
                         '[[1],[2],[3],[4],[5],[6]]],"character_classes":[[[0]],'
                         '[[1],[2],[3],[4],[5],[6]]]}\n'))
    code, out, err = run(capsys, ["verify", str(path)])
    assert code == 0 and err == ""
    assert out.splitlines() == [f"theory {i}: ok" for i in range(n)]
    assert len(calls) <= 1


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError,
    and its descriptor is a file the test can read back."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("argv", [["enumerate", "--group", "klein"],
                                  ["count", "--p", "3"]])
def test_closed_stdout_exits_141_without_a_message(tmp_path, capsys, monkeypatch, argv):
    # as in `supercharacters enumerate ... | head -1`: not bad input (exit 4)
    # and no traceback, but 128 + SIGPIPE with nothing on stderr; the
    # descriptor of stdout then points at os.devnull, so what is still
    # buffered is dropped at exit
    path = tmp_path / "stdout"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        assert cli.main(argv) == cli.EXIT_PIPE == 141
        os.write(fd, b"dropped")
    finally:
        os.close(fd)
    assert path.read_bytes() == b""
    assert capsys.readouterr().err == ""


def test_closed_pipe_exits_141_in_a_child():
    # a pipe whose read end is closed before the child starts, so every
    # write fails with EPIPE, also the flush of the last block at exit
    r, w = os.pipe()
    os.close(r)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run([sys.executable, "-m", "supercharacters.cli", "enumerate",
                               "--group", "klein"], stdout=w, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_stdout_without_a_descriptor_still_exits_141(capsys, monkeypatch):
    class NoDescriptor(_ClosedPipe):
        def fileno(self):
            raise io.UnsupportedOperation("fileno")

    monkeypatch.setattr(sys, "stdout", NoDescriptor(None))
    assert cli.main(["enumerate", "--group", "klein"]) == cli.EXIT_PIPE
    assert capsys.readouterr().err == ""


def test_oracle_output(tmp_path, capsys):
    code, out, err = run(capsys, ["oracle", "--group", "klein"])
    assert code == 0
    assert len(out.strip().splitlines()) == 5
    assert "count 5" in err
    rec = json.loads(out.splitlines()[0])
    assert rec["provenance"] == [{"construction": "search"}]


def test_oracle_budget_codes(capsys):
    code, _, err = run(capsys, ["oracle", "--group", "cpc2c2", "--p", "29"])
    assert code == 4 and "budget" in err
    code, _, err = run(capsys, ["oracle", "--group", "cpc2c2", "--p", "29", "--budget", "20"])
    assert code == 5 and "budget exhausted" in err
    for budget in ("0", "-1"):
        code, _, err = run(capsys, ["oracle", "--group", "klein", "--budget", budget])
        assert code == 4 and "budget" in err and len(err.splitlines()) == 1


def test_lattice_dot(tmp_path, capsys):
    path = tmp_path / "klein.jsonl"
    cli.main(["enumerate", "--group", "klein", "--out", str(path)])
    capsys.readouterr()
    code, out, _ = run(capsys, ["lattice", str(path), "--dot", "-"])
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("->") == 6  # 4 covers up from minimal-ish layers
    code2, out2, _ = run(capsys, ["lattice", str(path), "--dot", "-"])
    assert out2 == out


def test_lattice_rejects_mixed_groups(tmp_path, capsys):
    path = tmp_path / "mixed.jsonl"
    cli.main(["enumerate", "--group", "klein", "--out", str(path)])
    text = path.read_text()
    cli.main(["enumerate", "--group", "cp", "--p", "3", "--out", str(path)])
    text += path.read_text()
    path.write_text(text)
    capsys.readouterr()
    code, _, err = run(capsys, ["lattice", str(path), "--dot", "-"])
    assert code == 4 and "exactly one group" in err


def test_lattice_rejects_a_repeated_theory(tmp_path, capsys):
    # a repeat used to give two nodes that cover each other and no edge
    # from either to the maximal theory
    path = tmp_path / "c2cubed.jsonl"
    cli.main(["enumerate", "--group", "c2cubed", "--out", str(path)])
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:3] + lines[1:2]))
    capsys.readouterr()
    code, out, err = run(capsys, ["lattice", str(path), "--dot", "-"])
    assert code == 4 and out == ""
    assert err.splitlines() == ["error: theory 2.2.2:0|1,2,3,4,5,6|7 is repeated"]
    path.write_text("".join(lines[:3]))
    code, out, _ = run(capsys, ["lattice", str(path), "--dot", "-"])
    assert code == 0 and out.endswith("  n1 -> n0;\n  n2 -> n0;\n}\n")


def test_bad_inputs_exit_4(tmp_path, capsys):
    code, _, err = run(capsys, ["enumerate", "--group", "cp"])
    assert code == 4 and "--p is required" in err
    code, _, err = run(capsys, ["enumerate", "--group", "klein", "--p", "3"])
    assert code == 4 and "does not apply" in err
    code, _, err = run(capsys, ["enumerate", "--group", "cp", "--p", "4"])
    assert code == 4
    # p = 2 would build a 2-group under the wrong family name
    for argv in (["enumerate", "--group", "cpc2c2", "--p", "2"],
                 ["oracle", "--group", "cp", "--p", "2"]):
        code, out, err = run(capsys, argv)
        assert code == 4 and out == ""
        assert err == "error: p must be an odd prime, got 2\n"
    code, _, err = run(capsys, ["count", "--p", "211"])
    assert code == 4 and "exceeds" in err
    garbled = tmp_path / "garbled.jsonl"
    garbled.write_text('{"group": {"family": "Klein"}\n')
    code, _, err = run(capsys, ["verify", str(garbled)])
    assert code == 4 and "line 1" in err


@pytest.mark.parametrize("argv", [
    # an input file that does not exist
    lambda d: ["verify", str(d / "absent.jsonl")],
    # a directory given as the input file
    lambda d: ["classify", str(d)],
    # output paths that cannot be opened for writing
    lambda d: ["enumerate", "--group", "klein", "--out", str(d / "absent" / "out.jsonl")],
    lambda d: ["lattice", str(d / "klein.jsonl"), "--dot", str(d)],
], ids=["verify-missing", "classify-directory", "enumerate-out", "lattice-dot"])
def test_file_errors_exit_4_with_one_line(tmp_path, capsys, argv):
    cli.main(["enumerate", "--group", "klein", "--out", str(tmp_path / "klein.jsonl")])
    capsys.readouterr()
    code, out, err = run(capsys, argv(tmp_path))
    assert code == 4 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _verify_input(source, tmp_path, monkeypatch, data: bytes) -> list[str]:
    """The argv of `verify` reading data from a file or from stdin."""
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", _stdin(data))
        return ["verify"]
    path = tmp_path / "input.jsonl"
    path.write_bytes(data)
    return ["verify", str(path)]


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_bad_record_after_blank_line_names_its_line(tmp_path, capsys, monkeypatch, source):
    cli.main(["enumerate", "--group", "klein"])
    good = capsys.readouterr().out.splitlines()
    text = "\n".join([good[0], "", good[1][:-1], good[2]]) + "\n"
    code, out, err = run(capsys, _verify_input(source, tmp_path, monkeypatch, text.encode()))
    assert code == 4 and out == ""
    assert err.startswith("error: line 3: ") and err.count("\n") == 1


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_record_not_in_utf8_names_its_line(tmp_path, capsys, monkeypatch, source):
    # both sources decode each line as strict UTF-8, so a byte that is not
    # UTF-8 makes a bad record like any other
    cli.main(["enumerate", "--group", "klein"])
    good = capsys.readouterr().out.encode().splitlines()
    bad = good[1].replace(b'"tags":[', b'"tags":["\xff",', 1)
    at = bad.index(b"\xff")
    data = good[0] + b"\n" + bad + b"\n"
    code, out, err = run(capsys, _verify_input(source, tmp_path, monkeypatch, data))
    assert code == 4 and out == ""
    assert err == (f"error: line 2: 'utf-8' codec can't decode byte 0xff in position {at}: "
                   "invalid start byte\n")


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_bare_cr_ends_a_line(tmp_path, capsys, monkeypatch, source):
    # as in text mode, "\r", "\r\n" and "\n" each end one line
    cli.main(["enumerate", "--group", "klein"])
    good = capsys.readouterr().out.splitlines()
    text = good[0] + "\r" + good[1] + "\r\n" + good[2] + "\n\r" + good[3] + "\r"
    code, out, err = run(capsys, _verify_input(source, tmp_path, monkeypatch, text.encode()))
    assert (code, out, err) == (0, "".join(f"theory {i}: ok\n" for i in range(4)), "")
    text = text.replace(good[3], good[3][:-1])
    code, out, err = run(capsys, _verify_input(source, tmp_path, monkeypatch, text.encode()))
    assert code == 4 and out == "" and err.startswith("error: line 5: ")


_FILE = "theories.jsonl"
_ORACLE_DEFAULTS = {"p": None, "budget": None, "out": None}


# argv -> (handler, fields), or the error line of a usage error; each
# accepted row's namespace holds exactly its command's fields
_PARSES = [
    # the forms the README shows
    (["count", "--p", "7"], (cli._cmd_count, {"p": 7, "json": False})),
    (["count", "--p", "7", "--json"], (cli._cmd_count, {"p": 7, "json": True})),
    (["enumerate", "--group", "cpc2c2", "--p", "5", "--out", _FILE],
     (cli._cmd_enumerate, {"group": "cpc2c2", "p": 5, "out": _FILE})),
    (["verify", _FILE], (cli._cmd_verify, {"file": _FILE})),
    (["verify"], (cli._cmd_verify, {"file": None})),
    (["dual", _FILE], (cli._cmd_dual, {"file": _FILE, "out": None})),
    (["classify", _FILE], (cli._cmd_classify, {"file": _FILE})),
    (["oracle", "--group", "klein"], (cli._cmd_oracle, dict(_ORACLE_DEFAULTS, group="klein"))),
    (["oracle", "--group", "cpc2c2", "--p", "5", "--budget", "10000"],
     (cli._cmd_oracle, dict(_ORACLE_DEFAULTS, group="cpc2c2", p=5, budget=10000))),
    (["lattice", _FILE, "--dot", "lattice.dot"],
     (cli._cmd_lattice, {"file": _FILE, "dot": "lattice.dot"})),
    # --name=value, a value and a file of "-", options after the file
    (["count", "--p=7"], (cli._cmd_count, {"p": 7, "json": False})),
    (["oracle", "--budget=10", "--group=klein"],
     (cli._cmd_oracle, dict(_ORACLE_DEFAULTS, group="klein", budget=10))),
    (["lattice", _FILE, "--dot", "-"], (cli._cmd_lattice, {"file": _FILE, "dot": "-"})),
    (["lattice", "--dot", "-", "-"], (cli._cmd_lattice, {"file": "-", "dot": "-"})),
    (["dual", "--out", "-", "-"], (cli._cmd_dual, {"file": "-", "out": "-"})),
    # a repeated option keeps its last value; a value may start with "-"
    # (GroupSpec refuses p = -3, not the parser); after "--" a token is a file
    (["count", "--p", "3", "--p", "5"], (cli._cmd_count, {"p": 5, "json": False})),
    (["count", "--p", "-3"], (cli._cmd_count, {"p": -3, "json": False})),
    (["verify", "--", "-x.jsonl"], (cli._cmd_verify, {"file": "-x.jsonl"})),
    # refused: usage errors, with argparse's wording
    ([], "supercharacters: error: the following arguments are required: command"),
    (["no-such-command"], "supercharacters: error: argument command: invalid choice: "
     "'no-such-command' (choose from 'count', 'enumerate', 'verify', 'dual', "
     "'classify', 'oracle', 'lattice')"),
    (["--json", "count", "--p", "3"], "supercharacters: error: unrecognized arguments: --json"),
    (["count", "--p", "3", "--max-p", "211"],
     "supercharacters count: error: unrecognized arguments: --max-p 211"),
    (["count", "--js", "--p", "3"], "supercharacters count: error: unrecognized arguments: --js"),
    (["count"], "supercharacters count: error: the following arguments are required: --p"),
    (["enumerate"],
     "supercharacters enumerate: error: the following arguments are required: --group"),
    (["lattice", _FILE],
     "supercharacters lattice: error: the following arguments are required: --dot"),
    (["count", "--p"], "supercharacters count: error: argument --p: expected one argument"),
    (["count", "--p", "x"], "supercharacters count: error: argument --p: invalid int value: 'x'"),
    (["enumerate", "--group", "frobnicate"], "supercharacters enumerate: error: argument "
     "--group: invalid choice: 'frobnicate' (choose from 'c2cubed', 'cp', 'cpc2', "
     "'cpc2c2', 'klein')"),
    (["verify", _FILE, "second.jsonl"],
     "supercharacters verify: error: unrecognized arguments: second.jsonl"),
    (["count", "--p", "3", _FILE],
     f"supercharacters count: error: unrecognized arguments: {_FILE}"),
    (["count", "--json=1", "--p", "3"],
     "supercharacters count: error: argument --json: ignored explicit argument '1'"),
]


@pytest.mark.parametrize("argv,expected", _PARSES,
                         ids=[" ".join(argv) or "none" for argv, _ in _PARSES])
def test_parse(capsys, argv, expected):
    if isinstance(expected, tuple):
        handler, fields = expected
        parsed, args = cli._parse(argv)
        assert parsed is handler and vars(args) == fields
        return
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert info.value.code == 4 and out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: supercharacters") and error == expected


# what perfbench's preflight needs of --help: exit 0, usage on stdout; help
# follows the command anywhere
_HELPS = [
    (["--help"], ["count", "enumerate", "verify", "dual", "classify", "oracle", "lattice"]),
    (["count", "--help"], ["--p", "--json"]),
    (["enumerate", "-h"], ["--group", "--p", "--out"]),
    (["verify", "--help"], ["file"]),
    (["dual", "--help"], ["file", "--out"]),
    (["classify", "--help"], ["file"]),
    (["oracle", "--group", "klein", "--help"], ["--group", "--p", "--budget", "--out"]),
    (["lattice", _FILE, "--dot", "-", "-h"], ["file", "--dot"]),
]


@pytest.mark.parametrize("argv,names", _HELPS, ids=[" ".join(argv) for argv, _ in _HELPS])
def test_help_exits_0_on_stdout(argv, names):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "supercharacters.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("usage: supercharacters")
    assert "-h, --help" in done.stdout
    for name in names:
        assert name in done.stdout


def test_count_mismatch_exit_code_is_reserved():
    assert cli.EXIT_COUNT == 3
    assert cli.EXIT_BUDGET == 5


@pytest.mark.fresh("enumerates with _formula patched")
def test_count_mismatch_exits_3(capsys, monkeypatch):
    real_formula = enumeration._formula

    def one_too_many(k, l, n):
        f = dict(real_formula(k, l, n))
        if (k, l, n) == (1, 0, 1):  # p = 3
            f["total"] += 1
        return f

    monkeypatch.setattr(enumeration, "_formula", one_too_many)
    with pytest.raises(CountMismatchError) as info:
        enumeration.all_scts_cp_c2_c2(3)
    assert len(info.value.keys_by_tag["all"]) == 76
    code, out, err = run(capsys, ["count", "--p", "3"])
    assert code == 3 and out == ""
    assert err == "error: count mismatch at p=3: total: predicted 77, got 76\n"


def _no_trial_division(p):
    raise AssertionError(f"trial division reached for p={p}")


# the one bound on p, DEFAULT_MAX_P = 199, holds for every way in: CLI
# arguments, the enumerators behind them, the oracle and JSONL records; it is
# tested before primality, so a 31-digit p is refused at once
@pytest.mark.parametrize("p", [211, 10**30 + 57], ids=["211", "31-digit"])
@pytest.mark.parametrize("argv,prefix", [
    (lambda f, p: ["count", "--p", str(p)], ""),
    (lambda f, p: ["enumerate", "--group", "cp", "--p", str(p)], ""),
    (lambda f, p: ["enumerate", "--group", "cpc2", "--p", str(p)], ""),
    (lambda f, p: ["enumerate", "--group", "cpc2c2", "--p", str(p)], ""),
    (lambda f, p: ["oracle", "--group", "cp", "--p", str(p)], ""),
    (lambda f, p: ["verify", str(f)], "line 1: "),
], ids=["count", "enumerate-cp", "enumerate-cpc2", "enumerate-cpc2c2", "oracle", "verify"])
def test_p_past_the_bound_exits_4_with_one_line(tmp_path, capsys, monkeypatch, argv, prefix, p):
    monkeypatch.setattr(groups, "is_odd_prime", _no_trial_division)
    record = tmp_path / "cp.jsonl"
    record.write_text('{"group":{"family":"Cp","p":%d},"superclasses":[[[0]]],'
                      '"character_classes":[[[0]]]}\n' % p)
    code, out, err = run(capsys, argv(record, p))
    assert code == 4 and out == ""
    assert err == f"error: {prefix}p={p} exceeds the bound 199\n"


def test_max_p_option_is_gone(capsys):
    for argv in (["count", "--p", "3", "--max-p", "211"],
                 ["enumerate", "--group", "cp", "--p", "3", "--max-p", "199"],
                 ["oracle", "--group", "cp", "--p", "3", "--max-p", "199"]):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 4
        assert "unrecognized arguments: --max-p" in capsys.readouterr().err


def test_round_trip_at_the_bound(tmp_path, capsys):
    path = tmp_path / "cp199.jsonl"
    assert cli.main(["enumerate", "--group", "cp", "--p", "199", "--out", str(path)]) == 0
    capsys.readouterr()
    code, out, err = run(capsys, ["verify", str(path)])
    assert code == 0 and err == ""
    # d(198) = 12 theories of C_199
    assert out.splitlines() == [f"theory {i}: ok" for i in range(12)]


_TRIVIAL_BLOCKS = '"superclasses":[[[0,0,0]]],"character_classes":[[[0,0,0]]]'
_KLEIN_GROUP = '"group":{"family":"Klein"}'
_KLEIN_CHARS = '"character_classes":[[[0,0]],[[1,0],[0,1],[1,1]]]'


def _klein(superclasses="[[[0,0]],[[1,0],[0,1],[1,1]]]", extra=""):
    """A record line of the Klein theory with two classes, with the given
    superclasses text and extra fields."""
    return ("{" + _KLEIN_GROUP + ',"superclasses":' + superclasses + ","
            + _KLEIN_CHARS + extra + "}")


def _cpc2c2(p_field):
    """A record line of C_p x C_2 x C_2 whose group object ends in p_field."""
    return '{"group":{"family":"CpC2C2"' + p_field + "}," + _TRIVIAL_BLOCKS + "}"


# the maximal theory of C_13 x C_2 x C_2 as the program writes it; the rows
# built from it keep that layout, so the reader tries them by their text
# first, and its last superclass element is [12,1,1]
_P13_LINE = theories._theory_line(TheoryRecord(maximal_theory(GroupSpec.cp_c2_c2(13))))


@pytest.mark.parametrize("line,reason", [
    ('{"group":{"family":"CpC2C2","p":"13"},' + _TRIVIAL_BLOCKS + "}",
     "p must be an integer"),
    ('{"group":{"family":"CpC2C2","p":true},' + _TRIVIAL_BLOCKS + "}",
     "p must be an integer"),
    # a valid Klein theory apart from its boolean exponents
    ('{"group":{"family":"Klein"},"superclasses":[[[false,false]],'
     '[[true,false],[false,true],[true,true]]],'
     '"character_classes":[[[0,0]],[[1,0],[0,1],[1,1]]]}',
     "exponents"),
    ('{"group":{"family":"Cp","p":10007},"superclasses":[[[0]]],'
     '"character_classes":[[[0]]]}',
     "exceeds the bound 199"),
    ('{"group":{"family":"Cp","p":15},"superclasses":[[[0]]],'
     '"character_classes":[[[0]]]}',
     "prime"),
    ('{"group":{"family":"Cp","p":2},"superclasses":[[[0]]],'
     '"character_classes":[[[0]]]}',
     "p must be an odd prime, got 2"),
    ('{"group":{"family":"Klein","p":3},"superclasses":[[[0,0]]],'
     '"character_classes":[[[0,0]]]}',
     "p does not apply to family Klein"),
    # 1.0 hashes like 1, so only a type test before the lookup rejects it
    ('{"group":{"family":"Klein"},"superclasses":[[[0,0]],'
     '[[1.0,0],[0,1],[1,1]]],"character_classes":[[[0,0]],[[1,0],[0,1],[1,1]]]}',
     "exponents out of range in superclasses: [1.0, 0]"),
    # json.loads raises RecursionError, not ValueError, on deep nesting
    ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
    ("[1,2]", "theory must be a JSON object"),
    ('"x"', "theory must be a JSON object"),
    ("null", "theory must be a JSON object"),
    ("7", "theory must be a JSON object"),
    (_klein()[:40], "Unterminated string"),
    (_klein().replace(_KLEIN_GROUP, '"group":["Klein"]'), "group must be an object"),
    (_klein().replace(_KLEIN_GROUP, '"group":{}'), "group must be an object"),
    (_klein().replace(_KLEIN_GROUP, '"group":{"family":3}'), "group must be an object"),
    (_klein().replace(_KLEIN_GROUP, '"group":{"family":"S3"}'), "unknown family 'S3'"),
    ("{" + _KLEIN_GROUP + "," + _KLEIN_CHARS + "}", "superclasses must be a list"),
    (_klein('{"a":1}'), "superclasses must be a list"),
    (_klein("[[[0,0]],[],[[1,0],[0,1],[1,1]]]"), "blocks must be nonempty lists"),
    (_klein("[[[0,0]],[[1],[0,1],[1,1]]]"), "bad exponent vector [1] in superclasses"),
    (_klein("[[[0,0]],[[0,0,0],[1,0],[0,1],[1,1]]]"),
     "bad exponent vector [0, 0, 0] in superclasses"),
    (_klein("[[[0,0]],[[1,0],[1,0],[0,1],[1,1]]]"), "blocks do not partition range(4)"),
    (_klein("[[[0,0]],[[1,0],[0,1]]]"), "blocks do not partition range(4)"),
    (_klein("[[[0,0]],[[null,0],[0,1],[1,1]]]"), "exponents out of range in superclasses"),
    (_klein("[[[0,0]],[[[1],0],[0,1],[1,1]]]"), "exponents out of range in superclasses"),
    (_klein("[[[0,0]],[[-1,0],[0,1],[1,1]]]"), "exponents out of range in superclasses"),
    (_klein(extra=',"tags":"x"'), "tags must be a list of strings"),
    (_klein(extra=',"tags":[1]'), "tags must be a list of strings"),
    (_klein(extra=',"provenance":{}'), "provenance must be a list"),
    (_cpc2c2(',"p":3.0'), "p must be an integer, got 3.0"),
    (_cpc2c2(""), "family CpC2C2 needs p"),
    # json.loads reads NaN as a float
    (_cpc2c2(',"p":NaN'), "p must be an integer, got nan"),
    # past the interpreter's limit on the digits of an int read from text
    (_klein("[[[0,0]],[[1" + "0" * 4999 + ",0],[0,1],[1,1]]]"), "Exceeds the limit"),
    (_cpc2c2(',"p":-7'), "p must be an odd prime, got -7"),
    (_cpc2c2(',"p":0'), "p must be an odd prime, got 0"),
    (_cpc2c2(',"p":1'), "p must be an odd prime, got 1"),
    (_P13_LINE.replace("[12,1,1]", "[13,0,0]", 1),
     "exponents out of range in superclasses: [13, 0, 0]"),
    (_P13_LINE.replace("[12,1,1]", "[12,1,0]", 1), "blocks do not partition range(52)"),
    (_P13_LINE.replace(",[12,1,1]", "", 1), "blocks do not partition range(52)"),
    (_P13_LINE.replace("[[[0,0,0]],", "[[[0,0,0]],[],", 1),
     "superclasses blocks must be nonempty lists"),
    # the column is the whole line's, not one counted within a value
    (_P13_LINE + " {}",
     f"Extra data: line 1 column {len(_P13_LINE) + 2} (char {len(_P13_LINE) + 1})"),
    (_P13_LINE[:-1] + "]",
     f"Expecting ',' delimiter: line 1 column {len(_P13_LINE)} (char {len(_P13_LINE) - 1})"),
    (_P13_LINE.replace('"superclasses":[[[', '"superclasses":{[[', 1),
     "Expecting property name enclosed in double quotes: line 1 column 53 (char 52)"),
    (_P13_LINE.replace(']]],"character_classes"', ']]},"character_classes"', 1),
     "Expecting ',' delimiter: line 1 column 484 (char 483)"),
    (_P13_LINE.replace('"tags":[]', '"tags":[1]', 1), "tags must be a list of strings"),
    (_P13_LINE.replace('"provenance":[]', '"provenance":{}', 1), "provenance must be a list"),
    # a good line, then a refused one whose partition texts the reader has
    # already decoded: the second still gets the JSON path's message
    (_P13_LINE + "\n" + _P13_LINE.replace('"tags":[]', '"tags":[1]', 1),
     "tags must be a list of strings"),
    (_P13_LINE + "\n" + _P13_LINE.replace('"provenance":[]', '"provenance":{}', 1),
     "provenance must be a list"),
    # every element text of p = 13 is one of p = 17, too few to cover it
    (_P13_LINE + "\n" + _P13_LINE.replace('"p":13', '"p":17', 1),
     "blocks do not partition range(68)"),
    (_P13_LINE + "\n" + _P13_LINE.replace('"p":13', '"p":11', 1),
     "exponents out of range in superclasses: [11, 0, 0]"),
], ids=["string-p", "bool-p", "bool-exponent", "huge-p", "nonprime-p", "two-p", "klein-p",
        "float-exponent", "deep-nesting", "array-line", "string-line", "null-line",
        "number-line", "truncated", "group-list", "group-empty", "family-int", "family-s3",
        "no-superclasses", "dict-superclasses", "empty-block", "short-vector",
        "long-vector", "duplicate-vector", "missing-vector", "null-exponent", "list-exponent",
        "negative-exponent", "string-tags", "int-tags", "dict-provenance", "float-p",
        "missing-p", "nan-p", "huge-exponent", "negative-p", "zero-p", "one-p",
        "written-out-of-range", "written-repeated", "written-missing",
        "written-empty-block", "written-trailing-data", "written-bracket-close",
        "written-brace-frame", "written-brace-close", "written-int-tags",
        "written-dict-provenance", "repeated-int-tags", "repeated-dict-provenance",
        "repeated-p17", "repeated-p11"])
def test_hostile_records_exit_4(tmp_path, capsys, line, reason):
    """Every command that reads records refuses a hostile line, the last of
    the file, with exit 4, one stderr line naming it and nothing on stdout."""
    path = tmp_path / "hostile.jsonl"
    path.write_text(line + "\n")
    lineno = line.count("\n") + 1
    for argv in (["verify"], ["dual"], ["classify"], ["lattice", "--dot", "-"]):
        code, out, err = run(capsys, [argv[0], str(path), *argv[1:]])
        assert code == 4 and out == "", argv
        assert err.startswith(f"error: line {lineno}: ") and err.count("\n") == 1
        assert reason in err


# sha256 of `enumerate` stdout, recorded from the code before the shared
# sigma kernel, the single verify gate and the sub-enumeration memo
ENUMERATE_SHA256 = {
    ("cp", 3): "c46fb03a3b6c4cca2ffc03b542ebf8653eefc820acbecdd6c256b3cd46c9211d",
    ("cp", 5): "e01228a42a294c5a13751eea1966768a563e5d66b557253339bdc275e9aeafb6",
    ("cp", 7): "e776416223dad695e11e1b997e12777a00254a2db48da64dca98c5035ee6c054",
    ("cp", 11): "6d72f5be29d32fd42985372c4620a3436e2ee36267f82ba7991b46190f275206",
    ("cp", 13): "c192f34c171b6c77a1a0dcea32bfbc97751dc5228013d00b1af2e5c79c2651c0",
    ("cpc2", 3): "7da734be61ed030449e200fb7a49ba3326a8cf130c49af7fe22a44c461e6a1a9",
    ("cpc2", 5): "e3be8f0f2b8c87f86a950ebf4fca52d76c04ecab5146f7422cb975e9e71ca2f1",
    ("cpc2", 7): "cc31606fec539dacec1ce9a0a545d2a98c0719367782c9648b5f74e97814aef8",
    ("cpc2", 11): "fa5512caa818b192acb8a2f0efbf60b91ea0aa48089db83a7da56194cd2dac2a",
    ("cpc2", 13): "c5d4ab3f7bd38b0c74769452eaebbea50974bf101e63c0d0f75303718663cf7f",
    ("cpc2c2", 3): "c766d782eb8156dc4eba8966271274afc3327d97fdc180e482960779a1a4d5f0",
    ("cpc2c2", 5): "3ee13324b612e5f3b8403c23a2ab95e8421aca06f6e269c1a212961049af1b92",
    ("cpc2c2", 7): "55e2c2de91f6a435adcf873d289b755ad000070509776e44591cc5b6ec383b58",
    ("cpc2c2", 11): "42bb5c2a0895aa4392557f18c07f77676ad6c760968a1e0d893a385a0479e263",
    ("cpc2c2", 13): "a2eef60355fa9a6558afb676343e3be22d3e279a36ce47ff21fd9fac5237e075",
    ("klein", None): "845a4acf3c44fd9995399939f15c5e036a1f33e150f9a7daa477ae0d881a0ef9",
    # re-recorded when (C_2)^3 gained the Aut(G) orbit step: each record
    # gained the automorphic tag and its aut provenance, and nothing else
    # changed (test_c2cubed_enumeration_changed_only_in_tags_and_provenance)
    ("c2cubed", None): "d63c080ce8492ccfaf054b958e16b1143895a7ffc565616d817528619189a765",
}


@pytest.mark.parametrize("group,p", sorted(ENUMERATE_SHA256, key=str))
def test_enumerate_output_is_pinned(capsys, group, p):
    argv = ["enumerate", "--group", group] + ([] if p is None else ["--p", str(p)])
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_SHA256[(group, p)]


def test_enumerate_does_not_check_the_closed_form(capsys, monkeypatch):
    # count and all_scts_cp_c2_c2 check the enumeration against the closed
    # form; enumerate writes the theories whatever the formula says
    real_formula = enumeration._formula
    monkeypatch.setattr(enumeration, "_formula",
                        lambda *kln: {**real_formula(*kln), "total": real_formula(*kln)["total"] + 1})
    code, out, _ = run(capsys, ["enumerate", "--group", "cpc2c2", "--p", "3"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_SHA256[("cpc2c2", 3)]
    code, out, err = run(capsys, ["count", "--p", "3"])
    assert code == 3 and out == ""
    assert err == "error: count mismatch at p=3: total: predicted 77, got 76\n"


# sha256 of `enumerate --group c2cubed` stdout with "tags" and "provenance"
# dropped from each record, one compact JSON line each, recorded from the code
# that ran the blind search in place of the orbit step on (C_2)^3
C2CUBED_THEORIES_SHA256 = "30f90b1400ba453ad07b12641b4883a4b2add8b5e792b8ca89d68726d964f84e"


def test_c2cubed_enumeration_changed_only_in_tags_and_provenance(capsys):
    # the same theories in the same order as before the orbit step
    code, out, _ = run(capsys, ["enumerate", "--group", "c2cubed"])
    assert code == 0
    stripped = []
    for line in out.splitlines():
        rec = json.loads(line)
        del rec["tags"], rec["provenance"]
        stripped.append(json.dumps(rec, separators=(",", ":")) + "\n")
    assert hashlib.sha256("".join(stripped).encode()).hexdigest() == C2CUBED_THEORIES_SHA256


# the groups of ENUMERATE_SHA256, with the trivial group and C_2
_PINNED_GROUPS = [
    *(GroupSpec.from_family(cli._FAMILIES[group], p)
      for group, p in sorted(ENUMERATE_SHA256, key=str)),
    GroupSpec.of(()), GroupSpec.of((2,)),
]


@pytest.mark.parametrize("g", _PINNED_GROUPS, ids=str)
def test_enumerated_tags_match_classify(g, enumerated):
    # every family runs the same constructions, so the enumerator tags each
    # theory with exactly the constructions classify finds a witness for
    for rec in enumerated.theories(g):
        assert rec.tags == cli._classify_one(rec.theory)[0], canonical_key(rec.theory)


@pytest.mark.parametrize("g", _PINNED_GROUPS, ids=str)
def test_witness_index_is_the_gated_orbit_theories(g, enumerated):
    # the index builds orbit partitions outside the gate: its keys are the
    # classes of exactly the records the enumerator tags automorphic, and
    # each value is the generator list of that record's first aut entry
    auts = {rec.theory.classes.blocks: rec for rec in enumerated.theories(g)
            if "automorphic" in rec.tags}
    index = constructions._witness_index(g)
    assert set(index) == set(auts)
    for blocks, gens in index.items():
        first = next(e for e in auts[blocks].provenance if e["construction"] == "aut")
        assert theories.generators_to_json(gens) == first["generators"]


def test_no_provenance_entry_repeats(enumerated):
    # the collector appends each entry unchecked: an Aut(G) subgroup, a factor
    # pair with its factor keys, a wedge (N, inner, outer) or an extreme names
    # one theory once
    for group, p in sorted(ENUMERATE_SHA256, key=str):
        for rec in enumerated.theories(GroupSpec.from_family(cli._FAMILIES[group], p)):
            entries = [json.dumps(e, sort_keys=True) for e in rec.provenance]
            assert len(set(entries)) == len(entries), (group, p, canonical_key(rec.theory))


# sha256 of `dual` and of `lattice --dot -` stdout on each group's
# enumeration, recorded from the code before the stored-record path joined
# its output from per-group element text and packed the refinement test.
DUAL_SHA256 = {
    ("c2cubed", None): "9d550353ebb217df5c97331ed43c1aea1b9010796bd4a44f533432811df29747",
    ("cpc2c2", 13): "e446f81b2f5eae5aa933d8508e83f06b557cb1eb811a31c80ee99d37c0750fe7",
}
LATTICE_SHA256 = {
    # re-recorded with ENUMERATE_SHA256's c2cubed entry: node labels carry tags
    ("c2cubed", None): "afa9f57ee884dd2bc4ff3fcef22d6ad997b8fbbbe33db5521f2e94823df89ffd",
    ("cpc2c2", 13): "456bec1bcb2b47bbdf51f494f0a2817accdff418c735feb5edefc5f81e34f7e9",
}


def _group_argv(group, p):
    return ["--group", group] + ([] if p is None else ["--p", str(p)])


@pytest.mark.parametrize("group,p", sorted(DUAL_SHA256, key=str))
def test_dual_and_lattice_output_is_pinned(tmp_path, capsys, group, p):
    path = tmp_path / "theories.jsonl"
    assert cli.main(["enumerate", *_group_argv(group, p), "--out", str(path)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, ["dual", str(path)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DUAL_SHA256[(group, p)]
    code, out, _ = run(capsys, ["lattice", str(path), "--dot", "-"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LATTICE_SHA256[(group, p)]


@pytest.mark.parametrize("group,p", sorted(ENUMERATE_SHA256, key=str))
def test_enumerated_records_round_trip(capsys, enumerated, group, p):
    # each line is theory_to_json's dict as compact JSON, and reads back as
    # the record it was written from
    code, out, _ = run(capsys, ["enumerate", *_group_argv(group, p)])
    assert code == 0
    lines = out.splitlines()
    records = enumerated.theories(GroupSpec.from_family(cli._FAMILIES[group], p))
    assert len(lines) == len(records)
    for line, rec in zip(lines, records):
        assert line == json.dumps(theory_to_json(rec), separators=(",", ":"))
        back = theory_from_json(json.loads(line))
        assert back.theory == rec.theory
        assert back.tags == rec.tags and back.provenance == rec.provenance


@pytest.mark.parametrize("g", _PINNED_GROUPS, ids=str)
def test_written_lines_are_read_by_their_text(tmp_path, monkeypatch, enumerated, g):
    # every line the writer lays out takes the text path: json.loads sees
    # its group, tags and provenance and no partition, the record equals
    # the JSON path's, and the CLI reader never needs theory_from_json
    lines = [theories._theory_line(rec) for rec in enumerated.theories(g)]
    expected = [theory_from_json(json.loads(line)) for line in lines]
    loaded = []
    real_loads = json.loads
    monkeypatch.setattr(json, "loads", lambda s: loaded.append(s) or real_loads(s))
    read = [theories._theory_from_line(line) for line in lines]
    monkeypatch.undo()
    assert read == expected
    group = theories._dumps(theories.group_to_json(g))
    assert loaded == [text for rec in expected for text in (
        group, theories._dumps(sorted(rec.tags)), theories._dumps(rec.provenance))]
    path = tmp_path / "written.jsonl"
    path.write_text("".join(line + "\n" for line in lines))

    def refuse(d):
        raise AssertionError("a written line took the JSON path")

    monkeypatch.setattr(cli, "theory_from_json", refuse)
    assert cli._read_records(str(path)) == expected


def test_reading_decodes_each_partition_text_once(tmp_path, enumerated):
    # the theories of a group are closed under duality, so each partition
    # text is written twice; one read hands out one Partition per text and
    # records equal to the JSON path's, and the next read starts afresh
    lines = [theories._theory_line(rec) for rec in enumerated.theories(GroupSpec.cp_c2_c2(13))]
    path = tmp_path / "p13.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    read = cli._read_records(str(path))
    assert len(read) == len(lines)
    for line, rec in zip(lines, read):
        assert rec == theory_from_json(json.loads(line))
    parts = [part for rec in read for part in (rec.theory.classes, rec.theory.charparts)]
    assert len(parts) == 422
    assert len({id(part) for part in parts}) == len(set(parts)) == 211
    again = cli._read_records(str(path))
    assert again == read and again[0].theory.classes is not read[0].theory.classes


def test_reading_keeps_each_groups_texts_apart(tmp_path, monkeypatch, enumerated):
    # C_3 x C_2 x C_2 and (C_2)^3 write some vectors, such as [0,0,1], with
    # one text and one index; a file that alternates their lines with
    # Klein's reads every line on the text path as the JSON path does, each
    # partition of its own group's order, and the reader keeps each group's
    # texts apart
    gs = [GroupSpec.cp_c2_c2(3), GroupSpec.c2_cubed(), GroupSpec.klein()]
    assert theories._element_index(gs[0])["0,0,1"] == theories._element_index(gs[1])["0,0,1"]
    written = [[theories._theory_line(rec) for rec in enumerated.theories(g)] for g in gs]
    lines = [texts[i % len(texts)] for i in range(max(map(len, written))) for texts in written]
    expected = [theory_from_json(json.loads(line)) for line in lines]
    memo = {}
    assert [theories._theory_from_line(line, memo) for line in lines] == expected
    assert list(memo) == gs
    for g, (parts, rows) in memo.items():
        assert {part.size for part in parts.values()} == {g.order}
        assert max(map(max, rows.values())) < g.order
    path = tmp_path / "mixed.jsonl"
    path.write_text("".join(line + "\n" for line in lines))

    def refuse(d):
        raise AssertionError("a written line took the JSON path")

    monkeypatch.setattr(cli, "theory_from_json", refuse)
    read = cli._read_records(str(path))
    assert read == expected
    for i, rec in enumerate(read):
        t = rec.theory
        assert t.group == gs[i % 3]
        assert t.classes.size == t.charparts.size == t.group.order


def _repeat_superclasses(line: str, g: GroupSpec) -> str:
    """line with the discrete partition as its superclasses, and its own
    superclasses again after the provenance, where json.loads keeps the
    last value of a repeated key."""
    head, _, rest = line.partition(',"superclasses":')
    classes, _, rest = rest.partition(',"character_classes":')
    discrete = theories._partition_text(Partition.discrete(g.order), theories._element_texts(g))
    return (f'{head},"superclasses":{discrete},"character_classes":{rest[:-1]},'
            f'"superclasses":{classes}}}')


@pytest.mark.parametrize("relayout,by_text", [
    (lambda line, g: json.dumps(json.loads(line)) + "\n", False),
    (lambda line, g: json.dumps(dict(reversed(json.loads(line).items())),
                                separators=(",", ":")) + "\n", False),
    # the line ends before "\r\n", so its text is the writer's
    (lambda line, g: line + "\r\n", True),
    # the group goes through json.loads on both paths, escapes and all
    (lambda line, g: line.replace('"CpC2C2"', '"\\u0043pC2C2"', 1) + "\n", True),
    (lambda line, g: _repeat_superclasses(line, g) + "\n", False),
], ids=["spaces", "key-order", "crlf", "escaped-family", "repeated-superclasses"])
def test_other_layouts_read_as_before(tmp_path, enumerated, relayout, by_text):
    # a line in another layout than the writer's goes through json.loads and
    # theory_from_json; on either path it reads as the record it encodes
    g = GroupSpec.cp_c2_c2(3)
    rec = next(r for r in enumerated.theories(g)
               if r.tags and any(e["construction"] == "aut" for e in r.provenance))
    text = relayout(theories._theory_line(rec), g)
    assert (theories._theory_from_line(text.rstrip("\r\n")) is not None) == by_text
    path = tmp_path / "relaid.jsonl"
    path.write_bytes(text.encode())
    assert cli._read_records(str(path)) == [rec]


def _mutate_all(obj) -> None:
    """Change every list and dict nested in obj, innermost first."""
    if isinstance(obj, list):
        for x in obj:
            _mutate_all(x)
        obj.append(99)
    elif isinstance(obj, dict):
        for x in list(obj.values()):
            _mutate_all(x)
        obj["mutated"] = True


def test_mutating_theory_to_json_leaves_enumerate_output(capsys, enumerated):
    # the writer joins cached per-group element text; theory_to_json must
    # still hand out lists that share nothing with that cache or the records
    pinned = [("cp", 3), ("klein", None), ("cpc2", 3), ("c2cubed", None), ("cpc2c2", 3)]
    for group, p in pinned:
        code, out, _ = run(capsys, ["enumerate", *_group_argv(group, p)])
        assert code == 0
        g = GroupSpec.from_family(cli._FAMILIES[group], p)
        for rec in enumerated.theories(g):
            _mutate_all(theory_to_json(rec))
    for group, p in pinned:
        code, out, _ = run(capsys, ["enumerate", *_group_argv(group, p)])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_SHA256[(group, p)]


def test_theory_to_json_copies_provenance(enumerated):
    # provenance entries hold nested generator lists: the dict must share
    # none of them with the record, at any depth
    g = GroupSpec.cp_c2_c2(3)
    rec = next(r for r in enumerated.theories(g)
               if any(e["construction"] == "aut" for e in r.provenance))
    before = json.loads(json.dumps(rec.provenance))
    d = theory_to_json(rec)
    assert d["provenance"] == rec.provenance
    d["provenance"].append({"construction": "extra"})
    entry = next(e for e in d["provenance"] if e["construction"] == "aut")
    entry["generators"][0].append([9, 9, 9])
    entry["generators"][0][0][0] = 99
    assert rec.provenance == before


def test_only_dumps_encodes_json():
    # theories._dumps is the package's one JSON encoder: every record line,
    # count --json report and classify witness goes through it
    def calls(node):
        return [c for c in ast.walk(node) if isinstance(c, ast.Call)
                and (getattr(c.func, "attr", None) == "dumps"
                     or getattr(c.func, "id", None) == "dumps")]

    found = {}
    for path in sorted((SRC / "supercharacters").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found[path.stem] = calls(tree)
        if path.stem == "theories":
            dumps = next(n for n in tree.body
                         if isinstance(n, ast.FunctionDef) and n.name == "_dumps")
            assert calls(dumps) == found["theories"]
    assert {stem: len(c) for stem, c in found.items() if c} == {"theories": 1}


# sha256 of `classify` stdout on each group's enumeration, recorded from the
# code before automorphism_witness became an index lookup.
CLASSIFY_SHA256 = {
    ("c2cubed", None): "4f264cb22d7c77b410cbe086507bceef08b29d3743c1d62d61e56c5c16fdc955",
    ("cpc2c2", 3): "a0f10ad526d8468941ef97759bd8abf6d0179d54d5c8469c3c314709ff42f8bb",
    ("cpc2c2", 13): "de4a9c23bc24e8390075e84c4ac624cb3bb20aca5664e2de3674e566660f2899",
}


@pytest.mark.parametrize("group,p", sorted(CLASSIFY_SHA256, key=str))
def test_classify_output_is_pinned(tmp_path, capsys, group, p):
    path = tmp_path / "theories.jsonl"
    argv = ["enumerate", "--group", group] + ([] if p is None else ["--p", str(p)])
    assert cli.main(argv + ["--out", str(path)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, ["classify", str(path)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_SHA256[(group, p)]


def _damaged(part: Partition) -> list[Partition]:
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


# sha256 of `classify` stdout on the damaged records below, recorded from the
# code that rebuilt every direct product and wedge before tagging it.
DAMAGED_CLASSIFY_SHA256 = "395bad9c0d5965d95362af9eafaf3cc9cb0b9a1cb0523cea873e2233cc105715"


def test_classify_tags_no_construction_on_damaged_classes(tmp_path, capsys, enumerated):
    records = enumerated.theories(GroupSpec.cp_c2_c2(3))
    keys = {canonical_key(rec.theory) for rec in records}
    damaged = []
    for rec in records:
        for classes in _damaged(rec.theory.classes):
            t = Theory(rec.theory.group, classes, rec.theory.charparts)
            # the enumeration is complete, so a key outside it is not a theory
            if canonical_key(t) not in keys:
                damaged.append(t)
    assert len(damaged) == 166
    # the partition shape alone would tag some of them
    assert sum(bool(direct_decompositions(t) or wedge_decompositions(t))
               for t in damaged) == 36
    path = tmp_path / "damaged.jsonl"
    path.write_text("".join(json.dumps(theory_to_json(t)) + "\n" for t in damaged))
    code, out, _ = run(capsys, ["classify", str(path)])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(damaged)
    for line in lines:
        tags = next(f for f in line.split() if f.startswith("tags="))
        assert not {"direct", "wedge"} & set(tags[len("tags="):].split(","))
    assert hashlib.sha256(out.encode()).hexdigest() == DAMAGED_CLASSIFY_SHA256
