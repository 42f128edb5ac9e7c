"""Command-line behavior: subcommands, exit codes, JSONL piping, determinism."""

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
    all_theories,
    aut_generating_subset,
    canonical_key,
    cli,
    direct_decompositions,
    from_automorphisms,
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


def test_cli_import_loads_no_class_generator():
    # every CLI call is a fresh process that pays this import; -S skips
    # site, so no .pth file of the host can load either module first
    code = ("import sys\nimport supercharacters.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
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
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
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
    # the witness index verifies each distinct orbit theory once; an
    # automorphic record has the classes of one, so only the other records
    # are completed and verified at the class-partition gate
    g = GroupSpec.cp_c2_c2(3)
    path = tmp_path / "theories.jsonl"
    assert cli.main(["enumerate", "--group", "cpc2c2", "--p", "3", "--out", str(path)]) == 0
    orbit_keys = {canonical_key(from_automorphisms(g, aut_generating_subset(s)))
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
    assert len(calls) == len(orbit_keys) + others


def test_oracle_output(tmp_path, capsys):
    code, out, err = run(capsys, ["oracle", "--group", "klein"])
    assert code == 0
    assert len(out.strip().splitlines()) == 5
    assert "count 5" in err
    rec = json.loads(out.splitlines()[0])
    assert rec["provenance"] == [{"construction": "search"}]


def test_oracle_budget_codes(capsys):
    code, _, err = run(capsys, ["oracle", "--group", "cpc2c2", "--p", "13"])
    assert code == 4 and "budget" in err
    code, _, err = run(capsys, ["oracle", "--group", "cpc2c2", "--p", "13", "--budget", "20"])
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


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_bad_record_after_blank_line_names_its_line(tmp_path, capsys, monkeypatch, source):
    cli.main(["enumerate", "--group", "klein"])
    good = capsys.readouterr().out.splitlines()
    text = "\n".join([good[0], "", good[1][:-1], good[2]]) + "\n"
    path = tmp_path / "gap.jsonl"
    path.write_text(text)
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, ["verify"] + ([str(path)] if source == "file" else []))
    assert code == 4 and out == ""
    assert err.startswith("error: line 3: ") and err.count("\n") == 1


def test_usage_errors_exit_4(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["enumerate", "--group", "frobnicate"])
    assert info.value.code == 4
    with pytest.raises(SystemExit) as info:
        cli.main(["no-such-command"])
    assert info.value.code == 4
    capsys.readouterr()


def test_count_mismatch_exit_code_is_reserved():
    assert cli.EXIT_COUNT == 3
    assert cli.EXIT_BUDGET == 5


def test_count_mismatch_exits_3(capsys, monkeypatch):
    real_formula = enumeration._formula

    def one_too_many(p):
        f = dict(real_formula(p))
        if p == 3:
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
], ids=["string-p", "bool-p", "bool-exponent", "huge-p", "nonprime-p", "two-p", "klein-p",
        "float-exponent", "deep-nesting", "array-line", "string-line", "null-line",
        "number-line", "truncated", "group-list", "group-empty", "family-int", "family-s3",
        "no-superclasses", "dict-superclasses", "empty-block", "short-vector",
        "duplicate-vector", "missing-vector", "null-exponent", "list-exponent",
        "negative-exponent", "string-tags", "int-tags", "dict-provenance", "float-p",
        "missing-p", "nan-p", "huge-exponent"])
def test_hostile_records_exit_4(tmp_path, capsys, line, reason):
    """Every command that reads records refuses a hostile line with exit 4,
    one stderr line and nothing on stdout."""
    path = tmp_path / "hostile.jsonl"
    path.write_text(line + "\n")
    for argv in (["verify"], ["dual"], ["classify"], ["lattice", "--dot", "-"]):
        code, out, err = run(capsys, [argv[0], str(path), *argv[1:]])
        assert code == 4 and out == "", argv
        assert err.startswith("error: line 1: ") and err.count("\n") == 1
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
    ("c2cubed", None): "a6414583ad950d79cb4bdd8b2ac4ea47e0e1d8a8471e201351464ee5fcb3c5b1",
}


@pytest.mark.parametrize("group,p", sorted(ENUMERATE_SHA256, key=str))
def test_enumerate_output_is_pinned(capsys, group, p):
    argv = ["enumerate", "--group", group] + ([] if p is None else ["--p", str(p)])
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_SHA256[(group, p)]


# sha256 of `dual` and of `lattice --dot -` stdout on each group's
# enumeration, recorded from the code before the stored-record path joined
# its output from per-group element text and packed the refinement test.
DUAL_SHA256 = {
    ("c2cubed", None): "9d550353ebb217df5c97331ed43c1aea1b9010796bd4a44f533432811df29747",
    ("cpc2c2", 13): "e446f81b2f5eae5aa933d8508e83f06b557cb1eb811a31c80ee99d37c0750fe7",
}
LATTICE_SHA256 = {
    ("c2cubed", None): "12b273e38f58f5f6519ee7f7f024b8b7f02cd1f69920befe8ae80a5e75c3159b",
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
def test_enumerated_records_round_trip(capsys, group, p):
    # each line is theory_to_json's dict as compact JSON, and reads back as
    # the record it was written from
    code, out, _ = run(capsys, ["enumerate", *_group_argv(group, p)])
    assert code == 0
    lines = out.splitlines()
    records = all_theories(GroupSpec.from_family(cli._FAMILIES[group], p))
    assert len(lines) == len(records)
    for line, rec in zip(lines, records):
        assert line == json.dumps(theory_to_json(rec), separators=(",", ":"))
        back = theory_from_json(json.loads(line))
        assert back.theory == rec.theory
        assert back.tags == rec.tags and back.provenance == rec.provenance


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


def test_mutating_theory_to_json_leaves_enumerate_output(capsys):
    # the writer joins cached per-group element text; theory_to_json must
    # still hand out lists that share nothing with that cache or the records
    pinned = [("cp", 3), ("klein", None), ("cpc2", 3), ("c2cubed", None), ("cpc2c2", 3)]
    for group, p in pinned:
        code, out, _ = run(capsys, ["enumerate", *_group_argv(group, p)])
        assert code == 0
        g = GroupSpec.from_family(cli._FAMILIES[group], p)
        for rec in all_theories(g):
            _mutate_all(theory_to_json(rec))
    for group, p in pinned:
        code, out, _ = run(capsys, ["enumerate", *_group_argv(group, p)])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_SHA256[(group, p)]


def test_theory_to_json_copies_provenance():
    # provenance entries hold nested generator lists: the dict must share
    # none of them with the record, at any depth
    g = GroupSpec.cp_c2_c2(3)
    rec = next(r for r in all_theories(g)
               if any(e["construction"] == "aut" for e in r.provenance))
    before = json.loads(json.dumps(rec.provenance))
    d = theory_to_json(rec)
    assert d["provenance"] == rec.provenance
    d["provenance"].append({"construction": "extra"})
    entry = next(e for e in d["provenance"] if e["construction"] == "aut")
    entry["generators"][0].append([9, 9, 9])
    entry["generators"][0][0][0] = 99
    assert rec.provenance == before


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
    return [Partition.from_blocks(b, part.size) for b in out]


# sha256 of `classify` stdout on the damaged records below, recorded from the
# code that rebuilt every direct product and wedge before tagging it.
DAMAGED_CLASSIFY_SHA256 = "395bad9c0d5965d95362af9eafaf3cc9cb0b9a1cb0523cea873e2233cc105715"


def test_classify_tags_no_construction_on_damaged_classes(tmp_path, capsys, records_by_p):
    records = records_by_p[3][0]
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
