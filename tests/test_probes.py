import copy

import pytest

from appvirtsim.container import CLOAK_HOOK_LABELS
from appvirtsim.outcomes import Verdict
from appvirtsim.probes import (
    PROBE_IDS,
    run_matrix,
    run_probe,
    run_probes_on_world,
)
from appvirtsim.worlds import (
    CLOAKED_ENV,
    ENVIRONMENTS,
    NAIVE_ENV,
    NATIVE_ENV,
    WORLD_BUILDERS,
    EnvHandle,
    build_cloaked_world,
    build_naive_world,
    build_native_world,
)
from conftest import load_golden


@pytest.fixture(scope="module")
def worlds_by_env():
    from appvirtsim.worlds import default_scenario

    sc = default_scenario()
    return {
        NATIVE_ENV: build_native_world(sc),
        NAIVE_ENV: build_naive_world(sc),
        CLOAKED_ENV: build_cloaked_world(sc),
    }


def probe_in(worlds_by_env, env, probe_id):
    return run_probe(EnvHandle(copy.deepcopy(worlds_by_env[env])), probe_id)


def test_probe_ids_exhaustive():
    assert PROBE_IDS == tuple(str(n) for n in range(1, 19)) + ("hotness",)


def test_mechanism_4_examples(worlds_by_env):
    naive = probe_in(worlds_by_env, NAIVE_ENV, "4")
    assert naive.verdict == Verdict.VIRTUAL_DETECTED
    cloaked = probe_in(worlds_by_env, CLOAKED_ENV, "4")
    assert cloaked.verdict == Verdict.CLEAN


def test_mechanism_9_naive_evidence_shows_plugin_dir(worlds_by_env):
    outcome = probe_in(worlds_by_env, NAIVE_ENV, "9")
    assert outcome.verdict == Verdict.VIRTUAL_DETECTED
    assert "/Plugin/" in outcome.evidence


def test_mechanism_8_rewritten_shell_parses_clean(worlds_by_env):
    outcome = probe_in(worlds_by_env, CLOAKED_ENV, "8")
    assert outcome.verdict == Verdict.CLEAN
    assert "0 process line" in outcome.evidence


def test_mechanism_11_denial_counts_as_clean(worlds_by_env):
    outcome = probe_in(worlds_by_env, CLOAKED_ENV, "11")
    assert outcome.verdict == Verdict.CLEAN
    assert "denied" in outcome.evidence


def test_mechanisms_6_and_18_always_inconclusive(worlds_by_env):
    for env in ENVIRONMENTS:
        for probe_id in ("6", "18"):
            assert probe_in(worlds_by_env, env, probe_id).verdict == Verdict.INCONCLUSIVE


def test_every_native_probe_is_sound(worlds_by_env):
    report = run_probes_on_world(worlds_by_env[NATIVE_ENV])
    for outcome in report.outcomes:
        assert outcome.verdict != Verdict.VIRTUAL_DETECTED, outcome
        if outcome.probe not in ("6", "18"):
            assert outcome.verdict == Verdict.CLEAN, outcome


def test_bypass_theorem(worlds_by_env):
    report = run_probes_on_world(worlds_by_env[CLOAKED_ENV])
    for outcome in report.outcomes:
        if outcome.probe == "hotness":
            assert outcome.verdict == Verdict.VIRTUAL_DETECTED
        else:
            assert outcome.verdict != Verdict.VIRTUAL_DETECTED, outcome


def test_report_completeness(worlds_by_env):
    for env, world in worlds_by_env.items():
        report = run_probes_on_world(world)
        assert [o.probe for o in report.outcomes] == list(PROBE_IDS)


def test_probes_run_on_fresh_clones(worlds_by_env):
    # The same probe twice against one world gives identical outcomes:
    # state mutated by the first run never leaks into the second.
    for probe_id in ("13", "15", "17"):
        first = probe_in(worlds_by_env, NAIVE_ENV, probe_id)
        second = probe_in(worlds_by_env, NAIVE_ENV, probe_id)
        assert first == second


def world_state(world):
    """Everything a probe's calls can change, as values that compare by content."""
    os, c = world.os, world.container
    return {
        # SimProcess rows compare by value, running services and tasks included.
        "processes": os.processes,
        "dynamic_receivers": os.dynamic_receivers,
        "native_blobs": os.native_blobs,
        "exfil_sink": os.exfil_sink,
        "shortcuts": os.shortcuts,
        "fs_dirs": os.fs_dirs,
        "stub_assignments": c and c.stub_assignments,
        "hook_labels": c and [h.label for h in c.hooks],
        "plugin_pids": c and c.plugin_processes,
        "runtime_counters": world.runtime.methods,
    }


def test_matrix_leaves_each_world_unprobed(scenario):
    # Every probe runs on its own clone, so after a full matrix the world
    # each report carries still equals a freshly built one.
    changed = [
        report.environment for report in run_matrix(scenario)
        if world_state(report.world)
        != world_state(WORLD_BUILDERS[report.environment](scenario))
    ]
    assert changed == []


def test_modelled_failure_is_an_error_verdict(worlds_by_env):
    world = copy.deepcopy(worlds_by_env[NATIVE_ENV])
    del world.os.processes[world.probe_pid]
    outcome = run_probe(EnvHandle(world), "4")
    assert outcome.verdict == Verdict.ERROR
    assert outcome.evidence == f"UnknownProcessError: no such pid: {world.probe_pid}"


def test_python_error_in_probe_propagates(worlds_by_env):
    # Broken bookkeeping is a bug, not a modelled failure: no error cell.
    world = copy.deepcopy(worlds_by_env[NAIVE_ENV])
    del world.container.plugin_data_dirs[world.probe_manifest.package]
    with pytest.raises(KeyError):
        run_probe(EnvHandle(world), "9")


def test_matrix_matches_golden(scenario):
    golden = load_golden("expected_matrix.json")["environments"]
    reports = run_matrix(scenario)
    for report in reports:
        assert report.verdicts() == golden[report.environment], report.environment


def test_matrix_summary_counts(scenario):
    reports = {r.environment: r.summary() for r in run_matrix(scenario)}
    assert reports[NATIVE_ENV]["virtual_detected"] == 0
    assert reports[NAIVE_ENV]["virtual_detected"] == 17  # 16 classics + hotness
    assert reports[CLOAKED_ENV]["virtual_detected"] == 1  # hotness only


def test_hook_monotonicity(scenario):
    golden = load_golden("expected_hook_flips.json")
    hooked = run_probes_on_world(build_cloaked_world(scenario)).verdicts()
    unhooked = run_probes_on_world(
        build_cloaked_world(scenario, drop_hook_labels=CLOAK_HOOK_LABELS)).verdicts()
    flipped = sorted((p for p in PROBE_IDS if hooked[p] != unhooked[p]), key=int)
    assert flipped == golden["remove_all_cloaking_hooks"]
    for probe_id in flipped:
        assert hooked[probe_id] == "clean"
        assert unhooked[probe_id] == "virtual_detected"


def test_unknown_probe_id_rejected(worlds_by_env):
    with pytest.raises(ValueError):
        run_probe(EnvHandle(copy.deepcopy(worlds_by_env[NATIVE_ENV])), "99")


def test_detection_report_serialization(worlds_by_env):
    report = run_probes_on_world(worlds_by_env[NATIVE_ENV])
    doc = report.to_dict()
    assert doc["environment"] == NATIVE_ENV
    assert len(doc["outcomes"]) == 19
    assert sum(doc["summary"].values()) == 19
    assert all(o["evidence"] for o in doc["outcomes"])
