"""swapkit benchmark: one closed-loop client, one process, no threads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program under test is imported from
`src/`.  The benchmark generates every input from the seed, times only the
calls into swapkit, checks each output right after its op, and prints as its
last stdout line one JSON object with `correct`, `attempted`, `failed` and
`metrics`.

`--trace 0` reports the end-to-end metrics.  Each op is timed alone, so
`ops_per_s` is completed ops over the time spent inside them.  Times are
divided by the machine's speed over the run, measured with a fixed
reference task (see `speed.py`).  `setup_s` is the median over several
set-ups, the first ones in fresh interpreters: import of swapkit plus the
workload's warm builds.  `peak_rss_mb` is the workload process's
`ru_maxrss` (for `cold_cli`, the largest child's).

`--trace 1` reports the per-layer metrics.  The set-up runs with the tracer
installed and under tracemalloc, which gives `multialg.bytes_per_cell`.  The
ops then run for S/2 seconds untraced, and the same ops run again traced;
`trace.overhead_ops_per_s` is traced minus untraced `ops_per_s`.  Spans are
written to `.perfbench_out/`.  A layer that the workload must cross but did
not, or one predicted idle that saw calls, fails the run.

Every run also prints `latency_p99_ms` (once 1000 ops ran, so that ten
samples lie beyond it), `error_rate`, the unscaled times and the machine it
ran on, and writes them all to `.perfbench_out/`.  They stay out of the last
line because a reported metric must exist, and be non-zero, on every run.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("decide", "characterize", "structures", "cold_cli")
#: Ops needed before the 99th percentile has ten samples beyond it.
P99_MIN_OPS = 1000
SETUP_TIMEOUT = 150
#: Op time between two samples of the reference task.
REFERENCE_EVERY_S = 0.02
#: Set-ups per untraced run (fresh interpreters, then the run's own); the
#: structures set-up takes seconds, the others a fraction of one.
SETUP_RUNS = {"decide": 9, "characterize": 9, "structures": 3, "cold_cli": 9}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "load_avg": list(os.getloadavg()),
        "git_commit": commit,
        "src_sha256": source_digest(),
    }


def source_digest() -> str:
    """Hash of the program's sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 1]."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


class Loop:
    """Runs ops 0, 1, 2, ... one after another, timing each alone and
    checking its result right after.

    Every REFERENCE_EVERY_S of op time it also times the reference task, so
    that `speed` can divide the machine's slow spells out of the run."""

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        # a compact array: the run's own bookkeeping must not grow the peak
        # RSS with the number of ops, or a faster program would read larger
        self.latencies = array.array("d")
        self.reference = array.array("d", [speed.reference_task()])
        self._since_reference = 0.0
        self.failed: dict[int, str] = {}
        self.cli_times: list[tuple[float, float]] = []
        self.child_traces: list[dict] = []

    def run_op(self) -> None:
        i = len(self.latencies)
        op = self.wl.op(i)
        if self.tracer is not None:
            self.tracer.op_id = i
        started = time.perf_counter()
        try:
            result = self.wl.run(op)
        except Exception:  # one failing op must not end the run
            self.record(time.perf_counter() - started)
            self.failed[i] = traceback.format_exc(limit=3).strip()
            return
        finally:
            if self.tracer is not None:
                self.tracer.op_id = None
        self.record(time.perf_counter() - started)
        reason = self.wl.check(i, op, result)
        if reason is not None:
            self.failed[i] = reason
        if isinstance(result, dict) and "import_s" in result:
            self.cli_times.append((result["import_s"], result["run_s"]))
            if "trace" in result:
                self.child_traces.append(result["trace"])

    def record(self, latency: float) -> None:
        self.latencies.append(latency)
        self._since_reference += latency
        if self._since_reference >= REFERENCE_EVERY_S:
            self._since_reference = 0.0
            self.reference.append(speed.reference_task())

    def speed(self) -> float:
        """How much slower than nominal the machine ran, over this loop."""
        return speed.factor(self.reference)

    def for_seconds(self, seconds: float) -> None:
        """Run whole cycles of the workload's strata until time is up."""
        end = time.perf_counter() + seconds
        cycle = self.wl.cycle
        while (time.perf_counter() < end or not self.latencies
               or len(self.latencies) % cycle):
            self.run_op()

    def for_ops(self, count: int) -> None:
        while len(self.latencies) < count:
            self.run_op()

    def ops_per_s(self) -> float:
        """Completed ops per second of op time, at nominal speed."""
        return len(self.latencies) / sum(self.latencies) * self.speed()


def import_and_setup(name: str, seed: int):
    import workloads
    wl = workloads.make(name, seed, ROOT)
    wl.setup()
    return wl


def untraced(args, problems: list[str]) -> tuple[dict, dict, int, int]:
    import child
    setups = []
    for _ in range(SETUP_RUNS[args.workload] - 1):
        setups.append(child.spawn(ROOT, ["setup", args.workload],
                                  SETUP_TIMEOUT)["setup_s"])
    wl, parent_setup = speed.timed(
        lambda: import_and_setup(args.workload, args.seed))
    setups.append(parent_setup)

    loop = Loop(wl)
    loop.for_seconds(args.seconds)
    peak_rss_mb = wl.peak_rss_mb()
    failed = loop.failed
    problems.extend(wl.digest_errors())
    report_failures(failed)

    raw = sorted(loop.latencies)
    n = len(raw)
    factor = loop.speed()
    lat = [x / factor * 1e3 for x in raw]
    metrics = {
        "ops_per_s": (loop.ops_per_s(), "1/s"),
        "latency_p50_ms": (percentile(lat, 0.50), "ms"),
        "latency_p90_ms": (percentile(lat, 0.90), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {
        "latency_p99_ms": (percentile(lat, 0.99), "ms")
        if n >= P99_MIN_OPS else (None, "ms"),
        "error_rate": (len(failed) / n, "ratio"),
        "speed_factor": (factor, "x"),
        "raw_ops_per_s": (n / sum(raw), "1/s"),
        "raw_latency_p50_ms": (percentile(raw, 0.50) * 1e3, "ms"),
        "raw_latency_p90_ms": (percentile(raw, 0.90) * 1e3, "ms"),
        "setup_samples_s": (setups, "s"),
    }
    return metrics, extra, n, len(failed)


def traced(args, problems: list[str]) -> tuple[dict, dict, int, int]:
    import tracer as tracing
    import workloads
    wl = workloads.make(args.workload, args.seed, ROOT)
    tracer = tracing.Tracer()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    tracer.install()
    try:
        wl.setup()
    finally:
        tracer.uninstall()
    retained = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    setup_cells = tracer.cells_built.get(None, 0)

    plain = Loop(wl)
    plain.for_seconds(args.seconds / 2)
    count = len(plain.latencies)

    wl.trace_children = True
    again = Loop(wl, tracer)
    tracer.install()
    try:
        again.for_ops(count)
    finally:
        tracer.uninstall()

    summary = tracing.summary(tracer)
    for child_summary in again.child_traces:
        tracing.merge_summaries(summary, child_summary)
    import_s = [t[0] for t in plain.cli_times]
    run_s = [t[1] for t in plain.cli_times]

    OUT.mkdir(exist_ok=True)
    tracing.write_spans(OUT / f"spans_{args.workload}_seed{args.seed}.csv",
                        tracer.spans)
    problems.extend(tracing.guard_errors(summary["layers"], wl.hit, wl.zero))

    failed, failed_again = plain.failed, again.failed
    problems.extend(wl.digest_errors())
    report_failures(failed)
    report_failures(failed_again)

    metrics = tracing.layer_metrics(
        summary,
        bytes_per_cell=retained / setup_cells if setup_cells else 0.0,
        cli_import_s=statistics.median(import_s) if import_s else 0.0,
        cli_run_s=statistics.median(run_s) if run_s else 0.0,
        overhead_ops_per_s=again.ops_per_s() - plain.ops_per_s())
    extra = {"untraced_ops_per_s": (plain.ops_per_s(), "1/s"),
             "traced_ops_per_s": (again.ops_per_s(), "1/s"),
             "setup_cells": (setup_cells, "count"),
             "setup_retained_bytes": (retained, "B")}
    return metrics, extra, 2 * count, len(failed) + len(failed_again)


def report_failures(failed: dict[int, str], limit: int = 5) -> None:
    for i in sorted(failed)[:limit]:
        print(f"op {i} failed: {failed[i]}", file=sys.stderr)
    if len(failed) > limit:
        print(f"... and {len(failed) - limit} more failed ops", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "swapkit" / "__init__.py").is_file():
        print(f"error: no swapkit sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if not (ROOT / "tests" / "golden").is_dir():
        print("error: tests/golden is missing from the checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    machine = machine_info()

    problems: list[str] = []
    measure = traced if args.trace else untraced
    metrics, extra, attempted, failed = measure(args, problems)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    print(f"{args.workload} seed {args.seed}, trace {args.trace}: "
          f"{attempted} ops, {failed} failed (closed loop, one client)")
    for name, (value, unit) in {**metrics, **extra}.items():
        shown = "n/a" if value is None else value
        print(f"  {name:34s} {shown} {unit}")
    print(f"  machine: {json.dumps(machine)}")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine, "problems": problems,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in {**metrics, **extra}.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
