"""Self-test of the benchmark, at a tiny size.

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs for at most a second per mode. The tests check that the
result line holds exactly the metrics BENCHMARK.json declares, that outputs
are correct and digests repeat, that traced self times are sound, and that
the benchmark fails without the program.
"""

from __future__ import annotations

import csv
import gzip
import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("matrix_default", "corpus_matrix", "addon_deploy")
TIMEOUT = 120


def declared(kind: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec[kind]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=TIMEOUT)


def result(proc: subprocess.CompletedProcess) -> tuple[dict, dict[str, str]]:
    """The JSON result line and the ``# key=value`` header fields."""
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    header = {}
    for line in lines[:-1]:
        for field in line.lstrip("# ").split():
            key, sep, value = field.partition("=")
            if sep:
                header[key] = value
    return json.loads(lines[-1]), header


def test_workloads_are_declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_is_correct_and_repeats(workload):
    args = ("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0",
            "--items", "3")
    first, header1 = result(bench(*args))
    second, header2 = result(bench(*args))
    for res in (first, second):
        assert res["correct"] is True
        assert res["attempted"] == 3 and res["failed"] == 0
        assert list(res["metrics"]) == declared("end_to_end")
        assert all(m["value"] > 0 for m in res["metrics"].values())
    assert header1["sha256"] == header2["sha256"]
    assert header1["seed"] == "3" and header1["nproc"] and header1["commit"]


def test_other_seed_checks_against_the_same_reference():
    res, _ = result(bench("--workload", "corpus_matrix", "--seed", "11", "--seconds", "1",
                          "--trace", "0", "--items", "2"))
    assert res["correct"] is True


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_self_times(workload):
    res, header = result(bench("--workload", workload, "--seed", "5", "--seconds", "1",
                               "--trace", "1"))
    assert res["correct"] is True and res["failed"] == 0
    assert list(res["metrics"]) == declared("per_layer")

    spans = HERE / "out" / f"spans-{workload}-seed5.csv.gz"
    with gzip.open(spans, "rt", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    duration = {}
    children = defaultdict(int)
    item_spans = []
    for row in rows:
        dur = int(row["end_ns"]) - int(row["start_ns"])
        duration[row["span"]] = dur
        children[row["parent"]] += dur
        if row["layer"] == "item":
            item_spans.append(row)
    for row in rows:
        own = duration[row["span"]] - children[row["span"]]
        assert own == int(row["self_ns"]) and own >= 0, row
    layer_self = defaultdict(int)
    for row in rows:
        if row["layer"] != "item":
            layer_self[row["item"]] += int(row["self_ns"])
    item_time = defaultdict(int)
    for row in item_spans:
        item_time[row["item"]] += duration[row["span"]]
    assert item_time and all(layer_self[i] <= t for i, t in item_time.items())

    self_us = json.loads((HERE / "out" / f"layers-{workload}-seed5.json").read_text())[
        "self_us_per_item"]
    if workload == "addon_deploy":
        assert "probes.isolate_us" not in self_us
        assert res["metrics"]["probes.isolate_pct"]["value"] == 0.0
    else:
        others = [v for k, v in self_us.items()
                  if k != "item" and not k.startswith("probes.isolate_us")]
        assert self_us["probes.isolate_us"] > max(others)
        assert res["metrics"]["probes.cells"]["value"] == 57


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "matrix_default", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
