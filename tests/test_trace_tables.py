"""The names perfbench/trace_child.py traces all exist in the package.

The tracer skips a name it cannot find and only lists it under "missing", so
a renamed or moved function would drop its layer from a trace unnoticed."""

import ast
import importlib
from pathlib import Path

import pytest

TRACE_CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "trace_child.py"


def _tables() -> dict:
    """SPANS, COUNTERS and METHOD_COUNTERS, read as literals from the file."""
    tree = ast.parse(TRACE_CHILD.read_text(encoding="utf-8"))
    return {node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and getattr(node.targets[0], "id", None) in {"SPANS", "COUNTERS",
                                                         "METHOD_COUNTERS"}}


TABLES = _tables()


def test_all_three_tables_are_read():
    assert sorted(TABLES) == ["COUNTERS", "METHOD_COUNTERS", "SPANS"]
    assert all(TABLES.values())


@pytest.mark.parametrize("target", [
    *TABLES["SPANS"], *TABLES["COUNTERS"], *TABLES["METHOD_COUNTERS"],
], ids=".".join)
def test_traced_name_resolves(target):
    mod_name, *path = target
    obj = importlib.import_module(f"supercharacters.{mod_name}")
    for attr in path:
        assert hasattr(obj, attr), f"{'.'.join(target)} is missing"
        obj = getattr(obj, attr)
