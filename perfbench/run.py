"""Benchmark of appvirtsim: end-to-end and per-layer metrics on three workloads.

    python3 perfbench/run.py --workload corpus_matrix --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the run times items with tracing off and prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
blocks of the same items and prints the per-layer metrics. Either way every
item's output is checked, header lines starting with ``#`` come first, and
the last line of standard output is one JSON object. The exit code is 1
when any output is wrong or any item failed. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 5
MAX_TRACEBACKS = 3
# The traced run stops early, at a block boundary, once it holds this many
# spans (about 60 MB).
MAX_SPANS = 400_000


def import_program():
    """Import the program from this checkout's ``src`` with the benchmark's modules;
    returns those modules and the seconds the import took."""
    if not (SRC / "appvirtsim").is_dir():
        raise SystemExit(f"no program to measure: {SRC / 'appvirtsim'} is missing")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    workloads = importlib.import_module("workloads")
    tracer = importlib.import_module("tracer")
    elapsed = time.perf_counter() - start
    program = Path(sys.modules["appvirtsim"].__file__).resolve()
    if SRC.resolve() not in program.parents:
        raise SystemExit(f"appvirtsim was imported from {program}, not from {SRC}")
    return workloads, tracer, elapsed


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Tally:
    """Attempts, failures, output checks and the verdict digest of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.digest = hashlib.sha256()
        self.attempted = 0
        self.failed = 0
        self.exfil_records = 0
        self.problems: list[str] = []
        self.tracebacks = 0

    def item(self, k: int, call) -> float | None:
        """Run item ``k`` through ``call``; returns its host time in seconds,
        or None when it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = call(k)
        except Exception:  # a world build or tick raised: the item failed
            self.failed += 1
            if self.tracebacks < MAX_TRACEBACKS:
                self.tracebacks += 1
                print(f"item {k} raised:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            return None
        elapsed = time.perf_counter() - start
        checked = self.workload.check(k, result)
        for row in checked.rows:
            self.digest.update(row.encode() + b"\n")
        self.failed += checked.failed
        self.exfil_records += checked.exfil_records
        if checked.problem is not None:
            self.problems.append(checked.problem)
        return elapsed

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def measure_setup(workload) -> list[float]:
    durations = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        workload.setup()
        durations.append(time.perf_counter() - start)
    return durations


def timed_run(workload, tally: Tally, seconds: float, max_items: int | None) -> list[float]:
    times = []
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline and (max_items is None or k < max_items):
        elapsed = tally.item(k, workload.run_item)
        if elapsed is not None:
            times.append(elapsed)
        k += 1
    return times


def traced_run(workload, tracer, tally: Tally, seconds: float) -> tuple[int, float, float]:
    """Alternate an untraced and a traced block of the same items until
    ``seconds`` have passed; returns the items traced, and the untraced and
    traced items per second."""
    block = range(workload.trace_block)
    untraced_s = traced_s = 0.0
    blocks = 0
    deadline = time.perf_counter() + seconds
    while True:
        for k in block:
            untraced_s += tally.item(k, workload.run_item) or 0.0
        tracer.install()
        try:
            for k in block:
                traced_s += tally.item(k, lambda k: tracer.run_item(k, workload.run_item, k)) or 0.0
        finally:
            tracer.uninstall()
        blocks += 1
        if time.perf_counter() >= deadline or len(tracer.spans) >= MAX_SPANS:
            items = blocks * workload.trace_block
            return items, items / untraced_s, items / traced_s


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(times: list[float], setup_s: float) -> dict:
    ms = sorted(t * 1000.0 for t in times)
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
    return {
        "items_per_s": metric(len(times) / sum(times), "1/s"),
        "item_ms_p50": metric(statistics.median(ms), "ms"),
        "item_ms_p90": metric(p90, "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--items", type=int, default=None,
                        help="stop the untraced run after this many items")
    args = parser.parse_args(argv)

    workloads, tracer_mod, import_s = import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    # first_run round-trips the payload document through a temporary
    # directory; keep it inside the checkout.
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(OUT / "tmp")

    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    workload.load_expected()
    setup_reps = measure_setup(workload)
    setup_s = import_s + statistics.median(setup_reps)
    gc.collect()

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# python={platform.python_version()} platform={platform.platform()} "
          f"nproc={os.cpu_count()} commit={git_commit()}")
    print(f"# corpus pool={workloads.POOL_SIZE} victims (seed {workloads.POOL_SEED}), "
          f"ticks={workloads.TICKS}, closed loop, 1 caller")
    print(f"# setup import={import_s:.4f}s reps={[round(s, 4) for s in setup_reps]}")

    tally = Tally(workload)
    if args.trace:
        tracer = tracer_mod.Tracer()
        traced_items, untraced_rate, traced_rate = traced_run(
            workload, tracer, tally, args.seconds)
        metrics, report = tracer_mod.layer_metrics(
            tracer, traced_items, tally.exfil_records / tally.attempted,
            untraced_rate, traced_rate)
        OUT.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        tracer.write(OUT / f"spans-{stem}.csv.gz")
        (OUT / f"layers-{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
        print(f"# traced {traced_items} items in blocks of {workload.trace_block}: "
              f"untraced {report['untraced_items_per_s']:.2f} items/s, "
              f"traced {report['traced_items_per_s']:.2f} items/s, "
              f"overhead {report['overhead_pct']:.1f}%")
        print(f"# spans and self times: {OUT.relative_to(ROOT)}/spans-{stem}.csv.gz, "
              f"layers-{stem}.json")
    else:
        times = timed_run(workload, tally, args.seconds, args.items)
        if not times:
            print("no item completed", file=sys.stderr)
            return 1
        metrics = end_to_end(times, setup_s)
        print(f"# samples={len(times)} for items_per_s, item_ms_p50 and item_ms_p90")

    print(f"# attempted={tally.attempted} failed={tally.failed} "
          f"failed_frac={tally.failed / tally.attempted:.6f}")
    print(f"# digest sha256={tally.digest.hexdigest()}")
    for problem in tally.problems[:10]:
        print(f"mismatch: {problem}", file=sys.stderr)
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
