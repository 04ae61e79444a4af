"""The benchmark's three workloads: inputs, one item, and the check of its output.

Each workload is a closed loop with one caller: the next item starts only
after the previous one returned and was checked.

* ``matrix_default`` runs ``probes.run_matrix`` on the built-in scenario.
  Every item has identical inputs, so caching keyed on inputs would show
  here first. Its verdicts must equal ``tests/data/expected_matrix.json``.
* ``corpus_matrix`` runs one matrix per victim of a seeded corpus. No two
  items of a run share inputs, so caching keyed on inputs gains nothing.
* ``addon_deploy`` parses a victim's manifest document, builds the cloaked
  world for it (customize, install, hooks, first run) and ticks the payload
  services. It runs no probe and no per-probe clone, so a change to probe
  isolation must show no change here.

The corpus is a fixed pool of ``POOL_SIZE`` victims drawn by
``corpus.corpus_manifest`` from ``POOL_SEED``; its first 100 victims are the
corpus ``appvirtsim gen-corpus --count 100 --seed 7`` writes. The run seed
shuffles the pool and seeds the data stores, so every item of any run can be
checked against the stored per-victim reference in ``reference.json``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import NamedTuple

from appvirtsim import container, corpus, defaults, manifest, probes, worlds

POOL_SEED = 7
POOL_SIZE = 2048
# Half the pool's add-ons carry no payload service (the victim lacks
# INTERNET), so the exfiltration ticks split item times into two clusters.
# At 100 ticks the median falls in the gap between them and jumps from run
# to run; at 20 the clusters overlap.
TICKS = 20

ENVIRONMENTS = ("native", "naive_container", "cloaked_container")
PROBES = tuple(str(n) for n in range(1, 19)) + ("hotness",)
CELLS = tuple((env, probe) for env in ENVIRONMENTS for probe in PROBES)
LETTERS = {"clean": "C", "virtual_detected": "V", "inconclusive": "I", "error": "E"}

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"


class Mismatch(Exception):
    """The reference does not fit this benchmark, or a matrix has the wrong cells."""


class Checked(NamedTuple):
    """The check of one item's output."""

    rows: list[str]          # digest rows, one per verdict or deployed add-on
    failed: bool             # the item produced an ``error`` cell
    exfil_records: int
    problem: str | None      # how the output differs from its reference


def matrix_cells(reports) -> list[tuple[str, str, str]]:
    return [(r.environment, o.probe, o.verdict.value) for r in reports for o in r.outcomes]


def verdict_letters(cells) -> str:
    """The reference encoding of one matrix: one letter per cell, in CELLS order."""
    if [(env, probe) for env, probe, _ in cells] != list(CELLS):
        raise Mismatch(f"matrix has cells {[(e, p) for e, p, _ in cells]}, "
                       f"expected the {len(CELLS)} cells of {ENVIRONMENTS} x {PROBES}")
    return "".join(LETTERS[verdict] for _, _, verdict in cells)


def _check_matrix(workload: str, ident: str, reports, want: str) -> Checked:
    cells = matrix_cells(reports)
    rows = [f"{workload}|{ident}|{env}|{probe}|{verdict}" for env, probe, verdict in cells]
    failed = any(verdict == "error" for _, _, verdict in cells)
    try:
        got = verdict_letters(cells)
    except Mismatch as exc:
        return Checked(rows, failed, 0, f"{ident}: {exc}")
    diffs = [f"{env}/{probe}: expected {w}, got {g}"
             for (env, probe), g, w in zip(CELLS, got, want) if g != w]
    return Checked(rows, failed, 0, f"{ident}: {'; '.join(diffs)}" if diffs else None)


def load_reference() -> dict:
    ref = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    pool = ref["pool"]
    if (pool["seed"], pool["size"], pool["ticks"]) != (POOL_SEED, POOL_SIZE, TICKS):
        raise Mismatch(f"{REFERENCE_PATH.name} was made for pool {pool}")
    return ref


def generate_pool() -> list:
    rng = random.Random(POOL_SEED)
    return [corpus.corpus_manifest(i, rng) for i in range(POOL_SIZE)]


class Workload:
    """One workload. ``setup`` makes the inputs and warms up, ``run_item``
    is the timed call, ``check`` validates its result outside the timing.

    ``check`` compares the result with the reference and never raises for
    a wrong output: it reports it in ``Checked.problem``.
    """

    name = ""
    # Items per block of the traced run; every traced block runs the same
    # items, so counts per item repeat exactly.
    trace_block = 1
    warmup_items = 3

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root

    def load_expected(self) -> None:
        """Read the expected outputs into ``self.expected`` (not set-up time)."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run_item(self, k: int):
        raise NotImplementedError

    def check(self, k: int, result) -> Checked:
        raise NotImplementedError

    def _warm_up(self) -> None:
        """Run the item's code on the built-in scenario, which no run times."""
        sc = worlds.default_scenario(self.seed)
        for _ in range(self.warmup_items):
            probes.run_matrix(sc)


class MatrixDefault(Workload):
    name = "matrix_default"
    trace_block = 2

    def load_expected(self) -> None:
        golden_path = self.root / "tests" / "data" / "expected_matrix.json"
        golden = json.loads(golden_path.read_text(encoding="utf-8"))["environments"]
        self.expected = "".join(LETTERS[golden[env][probe]] for env, probe in CELLS)

    def setup(self) -> None:
        self.scenario = worlds.default_scenario(self.seed)
        self._warm_up()

    def run_item(self, k: int):
        return probes.run_matrix(self.scenario)

    def check(self, k, result) -> Checked:
        return _check_matrix(self.name, str(k), result, self.expected)


class _PoolWorkload(Workload):
    def setup(self) -> None:
        self.pool = generate_pool()
        self.order = list(range(POOL_SIZE))
        random.Random(self.seed).shuffle(self.order)
        self.template = defaults.default_template()
        self.catalog = defaults.default_catalog()
        self.companion = defaults.default_companion()
        self.make_inputs()
        self._warm_up()

    def make_inputs(self) -> None:
        raise NotImplementedError

    def load_expected(self) -> None:
        self.expected = load_reference()[self.name]

    def victim_index(self, k: int) -> int:
        return self.order[k % POOL_SIZE]

    def item_id(self, k: int) -> str:
        return self.pool[self.victim_index(k)].package

    def scenario(self, victim) -> worlds.MatrixScenario:
        return worlds.MatrixScenario(victim, self.template, self.catalog,
                                     self.companion, seed=self.seed)


class CorpusMatrix(_PoolWorkload):
    name = "corpus_matrix"
    trace_block = 8

    def make_inputs(self) -> None:
        self.scenarios = [self.scenario(v) for v in self.pool]

    def run_item(self, k: int):
        return probes.run_matrix(self.scenarios[self.victim_index(k)])

    def outcome(self, result) -> str:
        return verdict_letters(matrix_cells(result))

    def check(self, k, result) -> Checked:
        return _check_matrix(self.name, self.item_id(k), result,
                             self.expected[self.victim_index(k)])


class AddonDeploy(_PoolWorkload):
    name = "addon_deploy"
    trace_block = 50
    warmup_items = 20

    def make_inputs(self) -> None:
        self.documents = [manifest.serialize_manifest(v) for v in self.pool]

    def _warm_up(self) -> None:
        document = manifest.serialize_manifest(defaults.default_victim())
        for _ in range(self.warmup_items):
            self.deploy(document)

    def deploy(self, document: str):
        victim = manifest.parse_manifest(document)
        world = worlds.build_cloaked_world(self.scenario(victim))
        for _ in range(TICKS):
            container.tick_services(world.os, world.container)
        return world

    def run_item(self, k: int):
        return self.deploy(self.documents[self.victim_index(k)])

    def outcome(self, world) -> str:
        plugins = ",".join(sorted(world.container.plugin_processes))
        return f"{world.probe_manifest.package}|{plugins}|{len(world.os.exfil_sink)}"

    def check(self, k, world) -> Checked:
        got = self.outcome(world)
        want = self.expected[self.victim_index(k)]
        problem = None if got == want else f"{self.item_id(k)}: expected {want}, got {got}"
        return Checked([f"{self.name}|{got}"], False, len(world.os.exfil_sink), problem)


WORKLOADS = {w.name: w for w in (MatrixDefault, CorpusMatrix, AddonDeploy)}
