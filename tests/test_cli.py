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
    GroupSpec,
    Partition,
    Theory,
    aut_generating_subset,
    canonical_key,
    cli,
    direct_decompositions,
    from_automorphisms,
    theory_from_json,
    theory_to_json,
    wedge_decompositions,
)
from supercharacters import constructions, theories

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


def test_bad_inputs_exit_4(tmp_path, capsys):
    code, _, err = run(capsys, ["enumerate", "--group", "cp"])
    assert code == 4 and "--p is required" in err
    code, _, err = run(capsys, ["enumerate", "--group", "klein", "--p", "3"])
    assert code == 4 and "does not apply" in err
    code, _, err = run(capsys, ["enumerate", "--group", "cp", "--p", "4"])
    assert code == 4
    code, _, err = run(capsys, ["count", "--p", "211"])
    assert code == 4 and "exceeds" in err
    garbled = tmp_path / "garbled.jsonl"
    garbled.write_text('{"group": {"family": "Klein"}\n')
    code, _, err = run(capsys, ["verify", str(garbled)])
    assert code == 4 and "line 1" in err


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


_TRIVIAL_BLOCKS = '"superclasses":[[[0,0,0]]],"character_classes":[[[0,0,0]]]'


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
    # 1.0 hashes like 1, so only a type test before the lookup rejects it
    ('{"group":{"family":"Klein"},"superclasses":[[[0,0]],'
     '[[1.0,0],[0,1],[1,1]]],"character_classes":[[[0,0]],[[1,0],[0,1],[1,1]]]}',
     "exponents out of range in superclasses: [1.0, 0]"),
    # json.loads raises RecursionError, not ValueError, on deep nesting
    ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
], ids=["string-p", "bool-p", "bool-exponent", "huge-p", "nonprime-p", "float-exponent",
        "deep-nesting"])
def test_hostile_records_exit_4(tmp_path, capsys, line, reason):
    path = tmp_path / "hostile.jsonl"
    path.write_text(line + "\n")
    code, out, err = run(capsys, ["verify", str(path)])
    assert code == 4 and out == ""
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
