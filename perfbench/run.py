"""Benchmark of the supercharacters CLI, stdlib only.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --quick            # smallest op of every workload once
    python3 perfbench/run.py --record-reference # rewrite reference_digests.json

One client drives the CLI in a closed loop: each operation is a fresh child
process (`python3 -m supercharacters.cli ...` against `src/` of this
checkout), started only after the previous one ended, because every CLI user
pays the package's cache warm-up on every call.  The run first sets up (a CLI
preflight, the workload's inputs and its expected values) several times and
reports the median.  It then repeats passes over the workload's ops, in an
order drawn from the seed, while another pass fits in --seconds; there is
always one pass, however long.  Every output is checked and digested.

The benchmark and its children run on one CPU, whose speed on a shared host
steps by a third from one second to the next.  A fixed pure-Python probe is
timed on that CPU after every child and, every PROBE_GAP_S, while a child
runs; each op's CPU time is scaled by the probe times around and during it to
"reference seconds", the time at a speed where the probe takes PROBE_REF_S.

With --trace 1 the run makes one untraced pass and one traced pass, where
each child runs through trace_child.py, and reports per-layer metrics of the
traced pass and the tracing overhead.  The last line of stdout is the result
JSON; results also go to perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Op, OpOutput

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference_digests.json"

SETUP_REPEATS = 3
OP_TIMEOUT_S = 150
RUN_LIMIT_S = 170

# The probe's CPU time at reference speed, about that of a 2-core Xeon host
# in its faster state; only a scale, so it never changes.
PROBE_REF_S = 0.010
# A child still running after PROBE_FIRST_S is probed every PROBE_GAP_S, so
# short ops run undisturbed and long ones are sampled throughout.
PROBE_FIRST_S = 0.5
PROBE_GAP_S = 0.1
# Extra runs of the smallest op after each other op last this long.
SMALL_REPEAT_S = 0.5


def probe_work() -> int:
    """Fixed interpreter work like the library's: tuple-keyed dicts, sorting,
    frozensets of small ints."""
    d: dict = {}
    for i in range(12000):
        k = ((i * 7919) % 10007, i & 15)
        d[k] = d.get(k, 0) + i
    s = sorted(d.values(), reverse=True)
    fs = {frozenset(range(j % 97, j % 97 + 5)) | {j} for j in range(3000)}
    return len(s) + len(fs)


class Clock:
    """Probe samples of the CPU's speed: (start, CPU seconds of probe_work).
    CPU time, not wall time, so a probe that a child preempts still reads
    the speed and not the scheduler."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        cpu = time.thread_time()
        probe_work()
        took = time.thread_time() - cpu
        self.starts.append(start)
        self.times.append(took)
        self.spent += took

    def scale(self, t0: float, t1: float) -> float:
        """The mean over the probes in [t0, t1], and the last before t0 and
        the first after it, of PROBE_REF_S over the probe's time: how much
        faster than reference speed the CPU ran then."""
        lo = max(bisect.bisect_left(self.starts, t0) - 1, 0)
        hi = bisect.bisect_right(self.starts, t1) + 1
        return statistics.fmean(PROBE_REF_S / t for t in self.times[lo:hi])


@dataclass
class Child:
    """One finished child process, with its own resource usage from wait4."""

    wall_s: float
    cpu_s: float
    ref_s: float
    maxrss_kb: int
    output: OpOutput


class Runner:
    """Starts CLI children one at a time and waits for each to end."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        # The child environment does not depend on the caller's: no interpreter
        # settings (children write bytecode caches, as an installed package
        # has them) and the CLI's default thread count.
        self.env = {k: v for k, v in os.environ.items()
                    if k != "SUPERCHAR_THREADS" and (k == "PYTHONHOME" or not k.startswith("PYTHON"))}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PYTHONHASHSEED"] = "0"
        self.calls = 0
        self.child_cpu_s = 0.0
        self.clock = Clock()
        self.clock.sample()

    def run(self, argv: list[str]) -> Child:
        self.calls += 1
        out_path = self.work / f"child{self.calls}.out"
        err_path = self.work / f"child{self.calls}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, env=self.env, cwd=self.work)
            try:
                status, usage = self._wait(proc)
            except BaseException:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
                raise
            end = time.perf_counter()
        self.clock.sample()
        output = OpOutput(os.waitstatus_to_exitcode(status),
                          out_path.read_bytes(), err_path.read_bytes())
        out_path.unlink()
        err_path.unlink()
        cpu = usage.ru_utime + usage.ru_stime
        self.child_cpu_s += cpu
        return Child(end - start, cpu, cpu * self.clock.scale(start, end),
                     usage.ru_maxrss, output)

    def _wait(self, proc: subprocess.Popen):
        """Probe while the child runs, then wait4 for this child alone:
        RUSAGE_CHILDREN would be a running maximum over every child so far."""
        timeout = min(OP_TIMEOUT_S, self.deadline - time.perf_counter())
        give_up = time.perf_counter() + timeout
        fd = os.pidfd_open(proc.pid)
        try:
            wait = PROBE_FIRST_S
            while not select.select([fd], [], [], max(min(wait, give_up - time.perf_counter()), 0))[0]:
                if time.perf_counter() >= give_up:
                    raise TimeoutError(f"{proc.args[1:]} still running after {timeout:.0f} s")
                self.clock.sample()
                wait = PROBE_GAP_S
        finally:
            os.close(fd)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return status, usage

    def cli(self, args: list[str]) -> OpOutput:
        return self.run(["-m", "supercharacters.cli", *args]).output


def preflight(runner: Runner) -> None:
    out = runner.cli(["--help"])
    if out.returncode != 0 or b"usage" not in out.stdout:
        raise RuntimeError("the supercharacters CLI does not start from "
                           f"{ROOT / 'src'}: {out.stderr.decode()[-300:]}")


def set_up(workload, runner: Runner, seed: int, repeats: int) -> tuple[list[Op], list[float]]:
    """Preflight, inputs and expected values, `repeats` times over.  Each
    time is the CPU time of set-up, the benchmark's own (less its probes)
    and its children's, in reference seconds."""
    times, ops = [], []
    clock = runner.clock
    for _ in range(repeats):
        start, cpu, probes, children = (time.perf_counter(), time.process_time(),
                                         clock.spent, runner.child_cpu_s)
        preflight(runner)
        ops = workload.setup(runner.cli, runner.work, seed)
        spent = (time.process_time() - cpu - (clock.spent - probes)
                 + runner.child_cpu_s - children)
        times.append(spent * clock.scale(start, time.perf_counter()))
    return ops, times


@dataclass
class OpResult:
    op: str
    pass_no: int
    traced: bool
    wall_s: float
    cpu_s: float
    ref_s: float
    maxrss_mb: float
    returncode: int
    sha256: str
    error: str | None
    trace: dict | None = None


def run_op(runner: Runner, op: Op, pass_no: int, traced: bool) -> OpResult:
    if traced:
        trace_path = runner.work / "trace.json"
        child = runner.run([str(BENCH_DIR / "trace_child.py"), str(trace_path), op.id, *op.argv])
    else:
        child = runner.run(["-m", "supercharacters.cli", *op.argv])
    out = child.output
    try:
        error = op.check(out)
    except Exception as e:  # a malformed output must fail the op, not the run
        error = f"check raised {type(e).__name__}: {e}"
    trace = None
    if traced:
        try:
            trace = json.loads(trace_path.read_text(encoding="utf-8"))
            trace_path.unlink()
        except (OSError, ValueError) as e:
            error = error or f"no trace written: {e}"
    return OpResult(op.id, pass_no, traced, child.wall_s, child.cpu_s, child.ref_s,
                    child.maxrss_kb / 1024, out.returncode,
                    hashlib.sha256(out.stdout).hexdigest(), error, trace)


def run_pass(runner: Runner, workload, ops: list[Op], rng: random.Random, pass_no: int,
             traced: bool = False, extra_small: bool = True) -> list[OpResult]:
    """Every op once, in seeded order, after the smallest op.  With extra_small
    the smallest op runs again after every other op, outside the pass (pass
    number -1), as often as fits in SMALL_REPEAT_S and at least once: one
    sample of a short op mostly measures the machine's state of that moment,
    and many samples spread over the pass average it out."""
    small = next(op for op in ops if op.id == workload.small_op)
    rest = [op for op in ops if op is not small]
    rng.shuffle(rest)
    results = [run_op(runner, small, pass_no, traced)]
    for op in rest:
        results.append(run_op(runner, op, pass_no, traced))
        until = time.perf_counter() + SMALL_REPEAT_S
        while extra_small:
            results.append(run_op(runner, small, -1, traced))
            if time.perf_counter() >= until:
                break
    return results


def pass_time(results: list[OpResult], pass_no: int) -> float:
    return sum(r.ref_s for r in results if r.pass_no == pass_no)


def measure(workload, runner: Runner, ops: list[Op], seed: int, seconds: float,
            trace: bool) -> list[OpResult]:
    rng = random.Random(seed)
    results: list[OpResult] = []
    if trace:
        results += run_pass(runner, workload, ops, rng, 0, extra_small=False)
        results += run_pass(runner, workload, ops, rng, 1, traced=True, extra_small=False)
        return results
    end = time.perf_counter() + seconds
    pass_no = 0
    longest = 0.0
    while pass_no == 0 or time.perf_counter() + longest <= end:
        start = time.perf_counter()
        results += run_pass(runner, workload, ops, rng, pass_no)
        longest = max(longest, time.perf_counter() - start)
        pass_no += 1
    return results


# -- metrics ------------------------------------------------------------------


def end_to_end(workload, results: list[OpResult], setup_times: list[float]) -> dict:
    """Times are reference seconds.  pass_s is one pass: the sum over the
    workload's ops of each op's median."""
    by_op: dict[str, list[float]] = {}
    for r in results:
        by_op.setdefault(r.op, []).append(r.ref_s)
    big = by_op[workload.big_op]
    small = by_op[workload.small_op]
    ok = sum(1 for r in results if r.error is None)
    return {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "pass_s": (sum(statistics.median(v) for v in by_op.values()), "s",
                   min(len(v) for v in by_op.values())),
        "big_op_s": (statistics.median(big), "s", len(big)),
        "small_op_s": (statistics.median(small), "s", len(small)),
        "peak_rss_mb": (max(r.maxrss_mb for r in results), "MB", len(results)),
        "ok_ratio": (ok / len(results), "ratio", len(results)),
    }


def _span_times(traces: list[dict]) -> tuple[dict, dict, dict]:
    """Calls, total and self seconds per span name, summed over ops.  Self time
    is a span's duration minus that of its direct children; one thread runs
    each child, so child spans never overlap."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for tr in traces:
        child_ns: dict[int, int] = {}
        for _sid, parent, _name, start, end in tr["spans"]:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
        for sid, _parent, name, start, end in tr["spans"]:
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start) / 1e9
            self_s[name] = self_s.get(name, 0.0) + (end - start - child_ns.get(sid, 0)) / 1e9
    return calls, total, self_s


def _completion_s(traces: list[dict]) -> float:
    """Time in brute_force_enumerate outside its search: completing each found
    class partition to a theory, and sorting."""
    total_ns = 0
    for tr in traces:
        outside = {sid: end - start for sid, _parent, name, start, end in tr["spans"]
                   if name == "bruteforce.enumerate"}
        for _sid, parent, name, start, end in tr["spans"]:
            if name == "bruteforce.search" and parent in outside:
                outside[parent] -= end - start
        total_ns += sum(outside.values())
    return total_ns / 1e9


# Per-layer metric -> (what is read, span or counter name).  "count" is a
# counter, "calls" a span count, "total" and "self" span seconds.
LAYER_SOURCES = {
    "cyclotomic.cycint_new": ("count", "cyclotomic.cycint_new"),
    "cyclotomic.prime_tests": ("count", "cyclotomic.prime_tests"),
    "groups.pairing_calls": ("count", "groups.pairing_calls"),
    "groups.aut_lattice_s": ("total", "groups.aut_lattice"),
    "groups.aut_subgroups": ("count", "groups.aut_subgroups"),
    "groups.gen_subset_calls": ("calls", "groups.gen_subset"),
    "groups.gen_subset_s": ("total", "groups.gen_subset"),
    "theories.verify_calls": ("calls", "theories.verify"),
    "theories.verify_s": ("self", "theories.verify"),
    "theories.induced_calls": ("calls", "theories.induced"),
    "theories.induced_s": ("self", "theories.induced"),
    "constructions.aut_calls": ("calls", "constructions.aut"),
    "constructions.aut_s": ("self", "constructions.aut"),
    "constructions.direct_calls": ("calls", "constructions.direct"),
    "constructions.direct_s": ("self", "constructions.direct"),
    "constructions.wedge_calls": ("calls", "constructions.wedge"),
    "constructions.wedge_s": ("self", "constructions.wedge"),
    "constructions.witness_calls": ("calls", "constructions.witness"),
    "constructions.witness_s": ("total", "constructions.witness"),
    "constructions.decompose_s": ("total", "constructions.decompose"),
    "enumeration.all_theories_calls": ("calls", "enumeration.all_theories"),
    "enumeration.subenum_repeats": ("count", "enumeration.subenum_repeats"),
    "bruteforce.search_s": ("total", "bruteforce.search"),
    "bruteforce.found": ("count", "bruteforce.found"),
    "lattice.edges_s": ("total", "lattice.edges"),
    "lattice.refines_calls": ("count", "lattice.refines_calls"),
    "cli.read_s": ("total", "cli.read"),
    "cli.write_s": ("total", "cli.write"),
    "cli.records_in": ("count", "cli.records_in"),
    "cli.records_out": ("count", "cli.records_out"),
}


def per_layer(results: list[OpResult]) -> dict:
    traces = [r.trace for r in results if r.traced and r.trace]
    calls, total, self_s = _span_times(traces)
    counts: dict[str, int] = {}
    for tr in traces:
        for k, v in tr["counts"].items():
            counts[k] = counts.get(k, 0) + v
    read = {"count": (counts, "count"), "calls": (calls, "count"),
            "total": (total, "s"), "self": (self_s, "s")}
    metrics = {}
    for metric, (kind, name) in LAYER_SOURCES.items():
        table, unit = read[kind]
        metrics[metric] = (table.get(name, 0), unit)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    untraced = pass_time(results, 0)
    traced = pass_time(results, 1)
    metrics.update({
        "theories.verify_distinct_ratio": (ratio(sum(tr["verify_distinct"] for tr in traces),
                                                 calls.get("theories.verify", 0)), "ratio"),
        "enumeration.dedup_ratio": (ratio(counts.get("enumeration.distinct", 0),
                                          counts.get("enumeration.candidates", 0)), "ratio"),
        "bruteforce.complete_s": (_completion_s(traces), "s"),
        "cli.import_s": (statistics.median(tr["import_ns"] for tr in traces) / 1e9
                         if traces else 0.0, "s"),
        "trace.untraced_pass_s": (untraced, "s"),
        "trace.traced_pass_s": (traced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
    })
    return metrics


# -- digests and environment --------------------------------------------------


def digest_report(ops: list[Op], results: list[OpResult]) -> dict:
    """Compare each op's stdout digest with the one recorded at the seed commit.
    A difference is reported, not counted as a failure."""
    try:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["ops"]
    except (OSError, ValueError, KeyError):
        reference = {}
    stable = {op.id for op in ops if op.stable_output}
    report = {"match": [], "differ": [], "no_reference": []}
    for op_id in sorted({r.op for r in results}):
        digests = {r.sha256 for r in results if r.op == op_id}
        if op_id not in stable or op_id not in reference:
            report["no_reference"].append(op_id)
        elif digests == {reference[op_id]}:
            report["match"].append(op_id)
        else:
            report["differ"].append(op_id)
    return report


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


# -- entry points -------------------------------------------------------------


@contextlib.contextmanager
def runner_in(tag: str):
    """A Runner working in a fresh directory under perfbench/out, removed after."""
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{tag}-{os.getpid()}"
    work.mkdir()
    try:
        yield Runner(work, time.perf_counter() + RUN_LIMIT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _fmt(metrics: dict) -> dict:
    return {name: {"value": v[0], "unit": v[1]} for name, v in metrics.items()}


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workload = WORKLOADS[name]
    env = environment()
    with runner_in(name) as runner:
        # A traced run reports no setup_s, so it sets up once.
        ops, setup_times = set_up(workload, runner, seed, 1 if trace else SETUP_REPEATS)
        results = measure(workload, runner, ops, seed, seconds, trace)
    env["loadavg_end"] = os.getloadavg()

    e2e = end_to_end(workload, [r for r in results if not r.traced], setup_times)
    layers = per_layer(results) if trace else None
    metrics = layers if trace else {k: v[:2] for k, v in e2e.items()}
    failed = [r for r in results if r.error is not None]
    digests = digest_report(ops, results)

    for key, (value, unit, samples) in e2e.items():
        print(f"{name} {key} = {value:.6g} {unit} (n={samples})")
    if trace:
        for key, (value, unit) in metrics.items():
            print(f"{name} {key} = {value:.6g} {unit}")
    for r in failed:
        print(f"FAILED {r.op} (pass {r.pass_no}): {r.error}")
    print(f"digests: {len(digests['match'])} match the reference, "
          f"differ: {digests['differ'] or 'none'}, "
          f"seed-dependent or unrecorded: {digests['no_reference']}")
    missing = sorted({m for r in results if r.trace for m in r.trace["missing"]})
    if missing:
        print(f"trace targets missing from the program: {missing}")

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env,
        "end_to_end": {k: {"value": v[0], "unit": v[1], "samples": v[2]}
                       for k, v in e2e.items()},
        "per_layer": _fmt(layers) if trace else None,
        "digests": digests,
        "ops": [{k: v for k, v in vars(r).items() if k != "trace"} for r in results],
    }
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{name}-seed{seed}-trace{int(trace)}-{time.time_ns()}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return {"correct": not failed, "attempted": len(results), "failed": len(failed),
            "metrics": _fmt(metrics)}


def quick(seed: int) -> dict:
    """The smallest op of every workload, once: a self-check, not a measurement."""
    results = []
    with runner_in("quick") as runner:
        preflight(runner)
        for workload in WORKLOADS.values():
            ops = workload.setup(runner.cli, runner.work, seed)
            op = next(o for o in ops if o.id == workload.small_op)
            r = run_op(runner, op, 0, False)
            print(f"{workload.name} {op.id}: {r.ref_s:.3f} s "
                  f"{'ok' if r.error is None else 'FAILED: ' + r.error}")
            results.append((workload.name, r))
    failed = sum(1 for _, r in results if r.error is not None)
    return {"correct": not failed, "attempted": len(results), "failed": failed,
            "metrics": {f"{name}.small_op_s": {"value": r.ref_s, "unit": "s"}
                        for name, r in results}}


def record_reference() -> dict:
    """Digest one untraced pass of every workload into reference_digests.json."""
    ops_digests = {}
    attempted = failed = 0
    for name, workload in WORKLOADS.items():
        with runner_in("reference") as runner:
            preflight(runner)
            for op in workload.setup(runner.cli, runner.work, 0):
                r = run_op(runner, op, 0, False)
                attempted += 1
                failed += r.error is not None
                if op.stable_output and r.error is None:
                    ops_digests[op.id] = r.sha256
                print(f"{name} {op.id}: {r.sha256} {r.error or 'ok'}")
    if not failed:
        REFERENCE.write_text(json.dumps({"git_sha": _git_sha(), "ops": ops_digests},
                                        indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return {"correct": not failed, "attempted": attempted, "failed": failed,
            "metrics": {}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true",
                      help="run the smallest op of each workload once")
    mode.add_argument("--record-reference", action="store_true",
                      help="rewrite the reference output digests")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # One CPU for the benchmark and its children, so the probe reads the
    # speed of the CPU the ops run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (args.quick or args.record_reference or args.workload):
        parser.error("--workload is required")
    try:
        if args.quick:
            result = quick(args.seed)
        elif args.record_reference:
            result = record_reference()
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, TimeoutError, OSError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
