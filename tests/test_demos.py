"""The demos and README's library tour run to completion as standalone scripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

QUICK_DEMOS = [
    "01_cyclotomic_and_characters.py",
    "02_build_verify_dualize.py",
    "03_constructions.py",
    "04_counting_table.py",
    "05_oracle_crosscheck.py",
    "06_refinement_lattice.py",
]


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_runs(name, tmp_path):
    # in a scratch directory, since demo 06 writes refinement.dot to its cwd
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_readme_library_tour_runs(tmp_path):
    # the first python block after the "Library tour" heading, so the
    # documented API cannot drift from the code
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = text[text.index("## Library tour"):]
    start = tour.index("```python\n") + len("```python\n")
    code = tour[start:tour.index("```", start)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
