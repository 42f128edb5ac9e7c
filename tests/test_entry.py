"""The process entry cli.run: the same output as cli.main, one target for
both launch paths, and a collector left alone by in-process calls."""

import ast
import gc
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from supercharacters import cli

ROOT = Path(__file__).resolve().parent.parent


def _swapped_p3_file(tmp_path):
    """The records of C_3 x C_2 x C_2, where the first record of three
    classes takes the character partition of the next one, which no
    theory pairs with its classes."""
    path = tmp_path / "p3.jsonl"
    assert cli.main(["enumerate", "--group", "cpc2c2", "--p", "3", "--out", str(path)]) == 0
    records = [json.loads(line) for line in path.read_text().splitlines()]
    i = next(i for i, r in enumerate(records) if len(r["superclasses"]) == 3)
    assert len(records[i + 1]["superclasses"]) == 3
    records[i]["character_classes"] = records[i + 1]["character_classes"]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


def _hostile_file(tmp_path):
    path = tmp_path / "hostile.jsonl"
    path.write_text('{"group":{"family":"Cp","p":15},"superclasses":[[[0]]],'
                    '"character_classes":[[[0]]]}\n')
    return path


@pytest.mark.parametrize("argv,make,code", [
    (["count", "--p", "5", "--json"], None, cli.EXIT_OK),
    (["oracle", "--group", "klein"], None, cli.EXIT_OK),
    (["verify"], _swapped_p3_file, cli.EXIT_VERIFY),
    (["verify"], _hostile_file, cli.EXIT_INPUT),
    (["oracle", "--group", "cpc2c2", "--p", "5", "--budget", "1"], None, cli.EXIT_BUDGET),
], ids=["count", "oracle", "verify-swapped", "hostile", "budget"])
def test_child_entry_matches_main(tmp_path, capsys, argv, make, code):
    if make is not None:
        argv = [*argv, str(make(tmp_path))]
    capsys.readouterr()
    assert cli.main(argv) == code
    inproc = capsys.readouterr()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run([sys.executable, "-m", "supercharacters.cli", *argv],
                           capture_output=True, env=env, timeout=120)
    assert (child.returncode, child.stdout.decode(), child.stderr.decode()) == (
        code, inproc.out, inproc.err)


def test_main_leaves_the_collector_unfrozen(capsys):
    before = gc.get_freeze_count()
    assert cli.main(["count", "--p", "3", "--json"]) == cli.EXIT_OK
    assert cli.main(["oracle", "--group", "cp", "--p", "3", "--budget", "0"]) == cli.EXIT_INPUT
    capsys.readouterr()
    assert gc.get_freeze_count() == before
    assert gc.isenabled()


def test_run_freezes_after_main_returns(capsys, monkeypatch):
    events = []
    main = cli.main

    def logged_main():
        code = main()
        events.append("main returned")
        return code

    monkeypatch.setattr(cli, "main", logged_main)
    # patched, so that the test process keeps its collector
    monkeypatch.setattr(gc, "disable", lambda: events.append("disable"))
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(sys, "argv", ["supercharacters", "oracle", "--group", "cp", "--p", "3"])
    assert cli.run() == cli.EXIT_OK
    assert events == ["disable", "main returned", "freeze"]
    assert capsys.readouterr().err == "count 2\n"


def test_script_and_main_block_share_one_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["supercharacters"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    # the function that the `if __name__ == "__main__":` block of cli.py calls
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    block = next(node for node in tree.body if isinstance(node, ast.If)
                 and ast.unparse(node.test) == "__name__ == '__main__'")
    called = {node.func.id for node in ast.walk(block)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert called == {"run"} and entry is cli.run
