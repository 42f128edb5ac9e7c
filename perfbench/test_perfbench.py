"""Tests of the benchmark itself: its independent expected values, its checks
rejecting wrong output, and the quick self-check against the real CLI.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import OpOutput  # noqa: E402

RUN = Path(__file__).resolve().parent / "run.py"


def test_closed_form_matches_frozen_totals():
    for p, total in workloads.FROZEN_TOTALS.items():
        assert workloads.closed_form(p)["total"] == total
    assert [workloads.divisor_count(n) for n in (1, 12, 22, 126, 198)] == [1, 6, 4, 12, 12]


def _count_output(report: dict, code: int = 0) -> OpOutput:
    return OpOutput(code, (json.dumps(report, separators=(",", ":")) + "\n").encode(), b"")


def test_count_check_rejects_a_wrong_total():
    check = workloads._expect_count(13)
    good = workloads.expected_count_report(13)
    assert check(_count_output(good)) is None
    assert check(_count_output({**good, "total": 210})) is not None
    assert check(_count_output(good, code=3)) is not None


def _klein_records() -> list[dict]:
    e = [[0, 0], [0, 1], [1, 0], [1, 1]]
    group = {"family": "Klein"}
    minimal = [[x] for x in e]
    maximal = [[e[0]], e[1:]]
    return [
        {"group": group, "superclasses": maximal, "character_classes": maximal,
         "tags": ["maximal"], "provenance": []},
        {"group": group, "superclasses": minimal, "character_classes": minimal,
         "tags": ["minimal"], "provenance": []},
    ]


def test_lattice_edges_are_covering_pairs():
    recs = _klein_records()
    middle = dict(recs[0], superclasses=[[[0, 0]], [[0, 1]], [[1, 0], [1, 1]]])
    ordered = [recs[0], middle, recs[1]]
    assert workloads.covering_edges(ordered, (2, 2)) == {(1, 0), (2, 1)}


def test_corrupt_records_swap_characters_within_a_block_count():
    # make_corrupt reads only the block count and moves character partitions,
    # so markers stand in for them.
    sizes = [2, 3, 3, 3, 4, 4, 5, 5, 5, 5]
    recs = [{"superclasses": [[i]] * k, "character_classes": f"chars{i}"}
            for i, k in enumerate(sizes)]
    out = workloads.make_corrupt(recs, random.Random(7))
    assert len(out) == 2 * workloads.CORRUPT_PAIRS
    sources = []
    for a, b in zip(out[::2], out[1::2]):
        ia, ib = a["superclasses"][0][0], b["superclasses"][0][0]
        assert sizes[ia] == sizes[ib]
        assert (a["character_classes"], b["character_classes"]) == \
            (f"chars{ib}", f"chars{ia}")
        sources += [ia, ib]
    assert len(set(sources)) == len(sources)


def test_verify_check_wants_violations_exactly_at_corrupt_lines():
    check = workloads._expect_verify({1}, 3)
    good = b"theory 0: ok\ntheory 1: violation condition=3: x\ntheory 2: ok\n"
    assert check(OpOutput(2, good, b"")) is None
    assert check(OpOutput(0, good, b"")) is not None
    shifted = b"theory 0: violation condition=3: x\ntheory 1: ok\ntheory 2: ok\n"
    assert check(OpOutput(2, shifted, b"")) is not None


def test_clock_scale_uses_probes_during_and_around_an_interval():
    clock = run.Clock()
    ref = run.PROBE_REF_S
    clock.starts = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    clock.times = [ref, ref / 2, ref / 4, ref / 4, ref / 2, ref]
    # The probes at 1 and 5 bracket [1.5, 4.5]; those at 2, 3 and 4 are inside.
    assert clock.scale(1.5, 4.5) == (2 + 4 + 4 + 2 + 1) / 5
    # A short interval between two probes takes just those two.
    assert clock.scale(0.2, 0.8) == (1 + 2) / 2


def test_quick_self_check_passes_on_this_checkout():
    done = subprocess.run([sys.executable, str(RUN), "--quick"], capture_output=True,
                          text=True, timeout=170, check=False)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.WORKLOADS)
