"""Summarise stored benchmark results across runs.

    python3 perfbench/report.py [RESULT.json ...]

With no arguments it reads every file in perfbench/out/results/.  For each
workload it prints every end-to-end metric by name with its unit, the number
of runs and of samples, the median over runs, the quartiles and their
distance as a share of the median, set against the metric's bound in
BENCHMARK.json, and then each op's reference seconds beside its raw wall and
CPU seconds.  Traced runs add the median of every per-layer metric and the
tracing overhead.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RESULTS = BENCH_DIR / "out" / "results"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(paths: list[str]) -> int:
    files = [Path(p) for p in paths] or sorted(RESULTS.glob("*.json"))
    runs = [json.loads(f.read_text(encoding="utf-8")) for f in files]
    if not runs:
        print("no results", file=sys.stderr)
        return 1
    try:
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    except (OSError, ValueError, KeyError):
        bounds = {}

    for workload in sorted({r["workload"] for r in runs}):
        plain = [r for r in runs if r["workload"] == workload and not r["trace"]]
        traced = [r for r in runs if r["workload"] == workload and r["trace"]]
        seeds = sorted({r["seed"] for r in plain})
        print(f"== {workload}: {len(plain)} runs (seeds {seeds}), {len(traced)} traced")
        if plain:
            print(f"  {'metric':<14}{'unit':<7}{'runs':>5}{'samples':>8}"
                  f"{'median':>11}{'q1':>11}{'q3':>11}{'spread':>8}{'bound':>7}")
        for name in plain[0]["end_to_end"] if plain else []:
            values = [r["end_to_end"][name]["value"] for r in plain]
            samples = sum(r["end_to_end"][name]["samples"] for r in plain)
            unit = plain[0]["end_to_end"][name]["unit"]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  > bound/3"
            print(f"  {name:<14}{unit:<7}{len(values):>5}{samples:>8}{med:>11.4f}"
                  f"{q1:>11.4f}{q3:>11.4f}{spread:>8.3f}"
                  f"{bound if bound is not None else '-':>7}{flag}")
        ops = [o for r in plain for o in r["ops"]]
        for op in sorted({o["op"] for o in ops}):
            mine = [o for o in ops if o["op"] == op]
            refs = [o["ref_s"] for o in mine]
            q1, med, q3 = quartiles(refs)
            print(f"  op {op:<18} n={len(refs):<4} median {med:8.3f} s "
                  f"(q1 {q1:.3f}, q3 {q3:.3f}, min {min(refs):.3f}, max {max(refs):.3f})  "
                  f"raw wall {statistics.median(o['wall_s'] for o in mine):.3f} s  "
                  f"cpu {statistics.median(o['cpu_s'] for o in mine):.3f} s  "
                  f"rss {max(o['maxrss_mb'] for o in mine):.1f} MB")
        fails = sum(len([o for o in r["ops"] if o["error"]]) for r in plain + traced)
        differ = sorted({op for r in plain + traced for op in r["digests"]["differ"]})
        print(f"  failed ops: {fails}; outputs differing from the reference: {differ or 'none'}")
        if traced:
            print(f"  per-layer medians over {len(traced)} traced runs:")
            for name in traced[0]["per_layer"]:
                values = [r["per_layer"][name]["value"] for r in traced]
                unit = traced[0]["per_layer"][name]["unit"]
                print(f"    {name:<34}{statistics.median(values):>14.6g} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
