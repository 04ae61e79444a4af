"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete. Every tolerance is pinned here, not deferred.
"""

import random
import statistics
import time
from contextlib import contextmanager
from dataclasses import replace

from appvirtsim import artmodel, permissions as perms
from appvirtsim.container import (
    CLOAK_HOOK_LABELS,
    HOOK_EXEC_PS,
    install_cloaking_hookset,
    plugin_syscall,
)
from appvirtsim.corpus import corpus_manifest
from appvirtsim.customization import customize
from appvirtsim.defaults import (
    default_catalog,
    default_companion,
    default_template,
    default_victim,
)
from appvirtsim.probes import PROBE_IDS, Verdict, run_matrix, run_probe, run_probes_on_world
from appvirtsim.simos import ApiCall
from appvirtsim.worlds import (
    CLOAKED_ENV,
    NAIVE_ENV,
    NATIVE_ENV,
    EnvHandle,
    MatrixScenario,
    build_cloaked_world,
    build_naive_world,
    build_native_world,
    default_scenario,
)
from conftest import load_golden, unhooked
from raw_oracles import ORACLES
from test_oracle_equivalence import random_world

EXTRAS = set(perms.ADDON_EXTRA_PERMISSIONS)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_1_bypass_matrix():
    with criterion(1, "bypass matrix matches golden; runtime < 5 s"):
        golden = load_golden("expected_matrix.json")["environments"]
        start = time.perf_counter()
        reports = {r.environment: r for r in run_matrix(default_scenario())}
        elapsed = time.perf_counter() - start

        for environment, report in reports.items():
            assert report.verdicts() == golden[environment], environment

        detected = {env: r.summary()["virtual_detected"] for env, r in reports.items()}
        assert detected[NATIVE_ENV] == 0
        assert detected[NAIVE_ENV] == 17  # 16 classic mechanisms + hotness
        assert reports[NAIVE_ENV].verdicts()["hotness"] == "virtual_detected"
        assert detected[CLOAKED_ENV] == 1  # hotness only
        assert reports[CLOAKED_ENV].verdicts()["hotness"] == "virtual_detected"
        assert elapsed < 5.0, f"matrix took {elapsed:.2f}s"


def test_criterion_2_customization_laws_on_corpus():
    with criterion(2, "customization laws on 100-manifest corpus x10; mean < 100 ms"):
        rng = random.Random(1234)
        victims = [corpus_manifest(i, rng) for i in range(100)]
        template, catalog = default_template(), default_catalog()
        repeats = 10
        per_addon_means = []
        for victim in victims:
            durations = []
            for _ in range(repeats):
                start = time.perf_counter()
                result = customize(victim, template, catalog)
                durations.append((time.perf_counter() - start) * 1000.0)
                assert result.addon.permissions == victim.permissions | EXTRAS
                assert result.malicious.permissions <= victim.permissions
                addon_pairs = {(c.kind, c.name) for c in result.addon.components()}
                for comp in victim.components():
                    assert (comp.kind, comp.name) in addon_pairs
            per_addon_means.append(statistics.fmean(durations))
        mean_ms = statistics.fmean(per_addon_means)
        assert mean_ms < 100.0, f"mean per-addon duration {mean_ms:.3f} ms"
        assert mean_ms < 10_000.0


def test_criterion_3_uid_and_path_semantics():
    with criterion(3, "shared uid, distinct pid, plugin dir pattern over 200 scenarios"):
        template, catalog, companion = (default_template(), default_catalog(),
                                        default_companion())
        for seed in range(200):
            rng = random.Random(seed)
            scenario = MatrixScenario(
                victim=corpus_manifest(seed, rng),
                template=template,
                catalog=catalog,
                companion=companion,
                seed=seed,
            )
            world = unhooked(build_cloaked_world(scenario), CLOAK_HOOK_LABELS)
            os, c = world.os, world.container
            addon_uid = os.registry[c.addon.manifest.package].uid
            assert c.plugin_processes, "first run loaded no plugins"
            for package, pid in c.plugin_processes.items():
                assert os.processes[pid].uid == addon_uid
                assert pid != c.container_pid
                info = plugin_syscall(os, c, pid, ApiCall(
                    "get_application_info", package=package))
                assert info["data_dir"] == (
                    f"/data/data/{c.addon.manifest.package}/Plugin/{package}"
                )
            install_cloaking_hookset(c, scenario.victim.package)
            for package, pid in c.plugin_processes.items():
                info = plugin_syscall(os, c, pid, ApiCall(
                    "get_application_info", package=package))
                assert info["data_dir"] == f"/data/data/{package}"


def test_criterion_4_hook_monotonicity():
    with criterion(4, "hookset removal flips {7,8,9,11,12}; exec hook alone flips {8}"):
        golden = load_golden("expected_hook_flips.json")
        scenario = default_scenario()
        world = build_cloaked_world(scenario)
        hooked = run_probes_on_world(world).verdicts()
        bare = run_probes_on_world(unhooked(world, CLOAK_HOOK_LABELS)).verdicts()
        no_exec = run_probes_on_world(unhooked(world, (HOOK_EXEC_PS,))).verdicts()

        flips_all = sorted((p for p in PROBE_IDS if hooked[p] != bare[p]),
                           key=lambda p: int(p) if p.isdigit() else 99)
        flips_exec = sorted((p for p in PROBE_IDS if hooked[p] != no_exec[p]),
                            key=lambda p: int(p) if p.isdigit() else 99)
        assert flips_all == golden["remove_all_cloaking_hooks"], flips_all
        assert flips_exec == golden["remove_exec_hook_only"], flips_exec
        for probe_id in flips_all:
            assert hooked[probe_id] == "clean"
            assert bare[probe_id] == "virtual_detected"


def test_criterion_5_exfiltration_soundness():
    with criterion(5, "3 contact records and 0 sms records exfiltrated end to end"):
        from appvirtsim.container import tick_services

        victim = replace(
            default_victim(),
            permissions=frozenset({perms.READ_CONTACTS, perms.INTERNET}),
        )
        scenario = MatrixScenario(
            victim=victim, template=default_template(), catalog=default_catalog(),
            companion=default_companion(),
        )
        world = build_cloaked_world(scenario)
        tick_services(world.os, world.container)
        contacts = [r for tag, r in world.os.exfil_sink if tag == "contacts"]
        sms = [r for tag, r in world.os.exfil_sink
               if tag in ("sms", "sms_intercept")]
        assert len(contacts) == 3, world.os.exfil_sink
        assert contacts == list(world.os.data_stores["contacts"])  # store oracle
        assert sms == []


def test_criterion_6_runtime_counter_model():
    with criterion(6, "AoT counter pinned at 0; hybrid closed form; detector verdicts"):
        rng = random.Random(99)
        for _ in range(1000):
            rt = artmodel.RuntimeModel(artmodel.VIRTUAL)
            for _ in range(rng.randint(0, 30)):
                rt.record_invocation("m", rng.randint(0, 10))
            record = rt.methods.get("m")
            assert record is None or record.hotness_count == 0

        for _ in range(200):
            rt = artmodel.RuntimeModel(artmodel.NATIVE)
            loops = [rng.randint(0, 10) for _ in range(rng.randint(1, 30))]
            for l in loops:
                rt.record_invocation("m", l)
            assert rt.method("m").hotness_count == sum(1 + l for l in loops)

        scenario = default_scenario()
        native = build_native_world(scenario)
        assert run_probe(EnvHandle(native), "hotness").verdict == Verdict.CLEAN
        for world in (build_naive_world(scenario), build_cloaked_world(scenario)):
            assert run_probe(EnvHandle(world), "hotness").verdict == (
                Verdict.VIRTUAL_DETECTED
            )


def test_criterion_7_oracle_equivalence():
    with criterion(7, "probes agree with raw-state oracles on 50 worlds each"):
        from appvirtsim.probes import run_probe
        from appvirtsim.worlds import EnvHandle

        for mechanism in sorted(ORACLES, key=int):
            for i in range(50):
                world = random_world(seed=500_000 + int(mechanism) * 100 + i)
                expected = ORACLES[mechanism](world)
                outcome = run_probe(EnvHandle(world), mechanism)
                assert outcome.verdict.value == expected, (
                    mechanism, i, world.environment, outcome.evidence
                )
