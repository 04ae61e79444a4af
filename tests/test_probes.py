import ast
import copy
import inspect
import random
import textwrap
from dataclasses import fields, is_dataclass, replace

import pytest
from hypothesis import given, settings, strategies as st

from appvirtsim import container, worlds
from appvirtsim.container import (
    CLOAK_HOOK_LABELS,
    HOOK_DATA_DIR,
    HOOK_EXEC_PS,
    HOOK_PROC_MAPS,
    HOOK_PROCESS_NAMES,
    PROXY,
    REPLACE,
    AlreadyLoadedError,
    HookSpec,
    first_run,
    install_hook,
    tick_services,
)
from appvirtsim.corpus import corpus_manifest
from appvirtsim.defaults import default_catalog, default_companion, default_template
from appvirtsim.manifest import COMPONENT_KINDS
from appvirtsim.permissions import ALL_PERMISSIONS, STORE_NAMES
from appvirtsim.probes import (
    PROBE_FUNCS,
    PROBE_IDS,
    Verdict,
    run_matrix,
    run_probe,
    run_probes_on_world,
)
from appvirtsim.simos import API_KINDS, ApiCall, SimOsError
from appvirtsim.worlds import (
    CLOAKED_ENV,
    ENVIRONMENTS,
    NAIVE_ENV,
    NATIVE_ENV,
    WORLD_BUILDERS,
    EnvHandle,
    MatrixScenario,
    build_cloaked_world,
    build_naive_world,
    build_native_world,
    unprobed_world,
)
from conftest import counted_builds, load_golden, unhooked


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
    return run_probe(EnvHandle(worlds_by_env[env].fork()), probe_id)


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


def test_mechanism_6_names_a_service_started_under_a_stub(worlds_by_env):
    # In the naive container the victim's service runs under the template's
    # service stub; the running-services reply names it as the victim does.
    h = EnvHandle(worlds_by_env[NAIVE_ENV].fork())
    assert h.call(ApiCall("start_service", name=".SyncService")) == ".SyncService"
    assert h.call(ApiCall("get_running_services")) == [".SyncService"]
    assert run_probe(h, "6").verdict == Verdict.INCONCLUSIVE


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
    """Every table a fork copies, as values that compare by content."""
    os, c = world.os, world.container
    return {
        # PackageRecords compare by value, grants and static receivers included.
        "registry": os.registry,
        # SimProcess rows compare by value, running services and tasks included.
        "processes": os.processes,
        "next_pid": os.next_pid,
        "next_uid": os.next_uid,
        "dynamic_receivers": os.dynamic_receivers,
        "data_stores": os.data_stores,
        "native_blobs": os.native_blobs,
        "exfil_sink": os.exfil_sink,
        "shortcuts": os.shortcuts,
        "fs_dirs": os.fs_dirs,
        # PluginRecords compare by value: manifest, pid, code path and data dir.
        "plugins": c and c.plugins,
        "stub_assignments": c and c.stub_assignments,
        "foreground_plugin": c and c.foreground_plugin,
        "hook_labels": c and [h.label for h in c.hooks],
        "run_log": c and c.run_log,
        "runtime_counters": world.runtime.methods,
    }


def test_matrix_leaves_each_world_unprobed(scenario):
    # Every probe runs on its own fork: after a full matrix each cached build
    # still equals a fresh one, and so does a world probed directly. The fresh
    # state is copied before the probes run, so a table that a fork wrongly
    # shares with its parent, and so with every build, cannot change it too.
    run_matrix(scenario)
    changed = [env for env in ENVIRONMENTS
               if world_state(unprobed_world(scenario, env))
               != world_state(WORLD_BUILDERS[env](scenario))]
    for env in ENVIRONMENTS:
        fresh = copy.deepcopy(world_state(WORLD_BUILDERS[env](scenario)))
        world = WORLD_BUILDERS[env](scenario)
        run_probes_on_world(world)
        if world_state(world) != fresh:
            changed.append(f"{env}, probed directly")
    assert changed == []


def test_matrix_seeds_one_device(scenario, monkeypatch):
    # Two matrices on one scenario seed the data stores once: every
    # environment of both is built on a fork of that one cached device.
    worlds._pristine_device.cache_clear()
    seeded = []
    real = worlds.seed_stores
    monkeypatch.setattr(worlds, "seed_stores", lambda *args: seeded.append(args) or real(*args))
    run_matrix(scenario)
    run_matrix(scenario)
    assert len(seeded) == 1


def test_one_environment_builds_one_world(scenario, monkeypatch):
    # What ``run-matrix --mode native`` runs: only the native world is built.
    built = counted_builds(monkeypatch)
    reports = run_matrix(scenario, (NATIVE_ENV,))
    assert built == [NATIVE_ENV]
    assert [r.environment for r in reports] == [NATIVE_ENV]


def test_two_matrices_on_one_scenario_build_each_world_once(scenario, monkeypatch):
    built = counted_builds(monkeypatch)
    first, second = run_matrix(scenario), run_matrix(scenario)
    assert built == list(ENVIRONMENTS)
    assert [r.outcomes for r in first] == [r.outcomes for r in second]


def test_a_replaced_scenario_is_built_again(scenario, monkeypatch):
    # The cache keys on identity: an equal scenario is still another one.
    built = counted_builds(monkeypatch)
    run_matrix(scenario)
    equal = replace(scenario)
    assert equal == scenario
    run_matrix(equal)
    assert built == list(ENVIRONMENTS) * 2


def test_a_full_matrix_builds_only_the_worlds_not_yet_built(scenario, monkeypatch):
    built = counted_builds(monkeypatch)
    run_matrix(scenario, (NATIVE_ENV,))
    assert built == [NATIVE_ENV]
    run_matrix(scenario)
    assert built == [NATIVE_ENV, NAIVE_ENV, CLOAKED_ENV]


def test_writing_into_a_report_world_leaves_the_next_matrix_alone(scenario):
    # unprobed_world hands out forks of the cached build, so the caller may
    # change one: unhook, tick, kill the container, touch the file system.
    run_matrix(scenario)
    for env in ENVIRONMENTS:
        world = unprobed_world(scenario, env)
        c = world.container
        before = world_state(world)
        world.os.mkdir("/data/local/tmp/written")
        if c is not None:
            container.uninstall_hooks(c, [h.label for h in c.hooks])
            tick_services(world.os, c)
            world.os.syscall(world.probe_pid, ApiCall("kill_background_processes",
                                                      package=c.addon_package))
            assert c.container_pid not in world.os.processes
        assert world_state(world) != before
    fresh = {env: build(scenario) for env, build in WORLD_BUILDERS.items()}
    again = run_matrix(scenario)
    assert ([r.outcomes for r in again]
            == [run_probes_on_world(fresh[env]).outcomes for env in ENVIRONMENTS])
    assert ([world_state(unprobed_world(scenario, env)) for env in ENVIRONMENTS]
            == [world_state(fresh[env]) for env in ENVIRONMENTS])


def test_second_first_run_changes_nothing(worlds_by_env):
    # A repeated first run is refused before its first system call: no
    # second shortcut, no killed process, no run-log entry.
    parent = worlds_by_env[CLOAKED_ENV]
    fork = parent.fork()
    with pytest.raises(AlreadyLoadedError):
        first_run(fork.os, fork.container, fork.probe_manifest.package,
                  fork.container.plugins[default_catalog().package].manifest)
    assert world_state(fork) == world_state(parent)


TICK = "tick"


def operations(world):
    """Any call the probe app can make, with arguments drawn from the names
    it knows and a few it does not; container worlds can also tick."""
    os, c = world.os, world.container
    packages = sorted(set(os.registry) | set(c.plugins if c else ()))
    packages.append("org.absent.app")
    declared = world.probe_manifest
    absent = [".Absent"]
    receivers = [r.name for r in declared.receivers] + absent
    natives = sorted(declared.native_components) + absent
    names_by_kind = {
        "register_receiver": receivers, "unregister_receiver": receivers,
        "native_blob_write": natives, "native_blob_read": natives,
    }
    components = [comp.name for comp in declared.components()] + absent
    actions = sorted({a for r in declared.receivers for a in r.intents})
    actions.append("org.absent.ACTION")

    def call_of(kind):
        if kind == TICK:
            return st.just(TICK)
        return st.builds(
            ApiCall,
            kind=st.just(kind),
            package=st.sampled_from(packages),
            permission=st.sampled_from(sorted(ALL_PERMISSIONS)),
            store=st.sampled_from(STORE_NAMES + ("absent",)),
            cmd=st.sampled_from(("ps", "ls", "rm")),
            name=st.sampled_from(names_by_kind.get(kind, components)),
            component_kind=st.sampled_from(COMPONENT_KINDS),
            action=st.sampled_from(actions),
            actions=st.lists(st.sampled_from(actions), max_size=2),
            label=st.sampled_from(("Label", "Other")),
            icon=st.just("ic.png"),
            target_package=st.sampled_from(packages),
            token=st.sampled_from(("t1", "t2")),
        )

    kinds = sorted(API_KINDS) + ([TICK] if c else [])
    return st.sampled_from(kinds).flatmap(call_of)


def apply(world, op):
    """One operation's reply, or the type and message of the OS error it raised."""
    try:
        if op == TICK:
            return tick_services(world.os, world.container)
        return EnvHandle(world).call(op)
    except SimOsError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("env", ENVIRONMENTS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fork_behaves_like_deepcopy(worlds_by_env, env, data):
    # deepcopy is the reference isolation here: a fork must answer every
    # call the same way, end in the same state, and leave its parent alone.
    # The parent is itself a deep copy, so a leaky fork cannot spoil the
    # module's world for later examples.
    pristine = worlds_by_env[env]
    parent = copy.deepcopy(pristine)
    fork, reference = parent.fork(), copy.deepcopy(parent)
    for op in data.draw(st.lists(operations(parent), min_size=1, max_size=20)):
        assert apply(fork, op) == apply(reference, op), op
    assert world_state(fork) == world_state(reference)
    assert world_state(parent) == world_state(pristine)


def immutable(value) -> bool:
    """Whether nothing reachable from ``value`` can change; a hook's fn may be any callable."""
    if value is None or isinstance(value, (bool, int, str)):
        return True
    if isinstance(value, (tuple, frozenset)):
        return all(map(immutable, value))
    if is_dataclass(value) and type(value).__dataclass_params__.frozen:
        return all((isinstance(value, HookSpec) and f.name == "fn")
                   or immutable(getattr(value, f.name)) for f in fields(value))
    return False


@pytest.mark.parametrize("env", ENVIRONMENTS)
def test_fork_shares_only_immutable_values(worlds_by_env, env):
    # A fork copies each table shallowly and shares everything else, the
    # tables' contents included, which is safe only if all of that is
    # immutable all the way down. Run-log entries are plain dicts that
    # nothing changes once appended.
    parent = worlds_by_env[env]
    fork = parent.fork()
    pairs = [(parent.os, fork.os), (parent.runtime, fork.runtime)]
    if parent.container is not None:
        pairs.append((parent.container, fork.container))
    for original, copied in pairs:
        for name, value in vars(copied).items():
            if isinstance(value, (dict, list, set)):
                assert value is not getattr(original, name), name
                shared = value.items() if isinstance(value, dict) else value
                assert name == "run_log" or all(map(immutable, shared)), name
            else:
                assert immutable(value), name


def test_modelled_failure_is_an_error_verdict(worlds_by_env):
    world = worlds_by_env[NATIVE_ENV].fork()
    del world.os.processes[world.probe_pid]
    outcome = run_probe(EnvHandle(world), "4")
    assert outcome.verdict == Verdict.ERROR
    assert outcome.evidence == f"UnknownProcessError: no such pid: {world.probe_pid}"


def test_python_error_in_probe_propagates(worlds_by_env):
    # A broken world is a bug, not a modelled failure: no error cell. Here a
    # hook answers application info without the private directory.
    world = worlds_by_env[NAIVE_ENV].fork()
    install_hook(world.container, HookSpec(PROXY, "get_application_info", REPLACE,
                                           lambda call: {"package": call.package}))
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
    world = build_cloaked_world(scenario)
    hooked = run_probes_on_world(world).verdicts()
    bare = run_probes_on_world(unhooked(world, CLOAK_HOOK_LABELS)).verdicts()
    flipped = sorted((p for p in PROBE_IDS if hooked[p] != bare[p]), key=int)
    assert flipped == golden["remove_all_cloaking_hooks"]
    for probe_id in flipped:
        assert hooked[probe_id] == "clean"
        assert bare[probe_id] == "virtual_detected"


def test_cloaked_build_calls_no_hooked_kind(scenario, monkeypatch):
    # A cloaked world without some hooks is a fork of the built one with
    # them uninstalled only while the build calls nothing a hook targets.
    kinds = []
    real = container.plugin_syscall
    monkeypatch.setattr(container, "plugin_syscall",
                        lambda os, c, pid, call: kinds.append(call.kind) or real(os, c, pid, call))
    world = build_cloaked_world(scenario)
    assert kinds
    assert not set(kinds) & world.container.hooks_by_target.keys(), kinds


def test_unknown_probe_id_rejected(worlds_by_env):
    with pytest.raises(ValueError):
        run_probe(EnvHandle(worlds_by_env[NATIVE_ENV].fork()), "99")


def test_detection_report_serialization(worlds_by_env):
    report = run_probes_on_world(worlds_by_env[NATIVE_ENV])
    doc = report.to_dict()
    assert doc["environment"] == NATIVE_ENV
    assert len(doc["outcomes"]) == 19
    assert sum(doc["summary"].values()) == 19
    assert all(o["evidence"] for o in doc["outcomes"])


# Mechanisms a naive container gives away for every corpus victim.
NAIVE_DETECTS = {"2", "4", "5", "7", "8", "9", "10", "11", "12", "14", "16", "hotness"}


@settings(max_examples=100, deadline=None)
@given(index=st.integers(0, 9999), seed=st.integers(0, 2**32 - 1), webview=st.booleans())
def test_matrix_laws_over_corpus_victims(index, seed, webview):
    victim = corpus_manifest(index, random.Random(seed))
    if webview:
        victim = replace(victim, native_components=frozenset({"webview"}))
    scenario = MatrixScenario(victim, default_template(), default_catalog(),
                              default_companion(), seed=seed)
    native, naive, cloaked = (report.verdicts() for report in run_matrix(scenario))
    mechanisms = PROBE_IDS[:-1]
    assert not {"virtual_detected", "error"} & set(native.values()), native
    assert {p: cloaked[p] for p in mechanisms} == {p: native[p] for p in mechanisms}
    assert (native["hotness"], naive["hotness"], cloaked["hotness"]) == (
        "clean", "virtual_detected", "virtual_detected")
    detected = {p for p, verdict in naive.items() if verdict == "virtual_detected"}
    assert NAIVE_DETECTS <= detected, naive
    assert ("17" in detected) == webview


# The cells each bypass hook keeps clean, the same for every victim.
HOOK_FLIPS = {
    HOOK_PROCESS_NAMES: {"7"},
    HOOK_EXEC_PS: {"8"},
    HOOK_DATA_DIR: {"9"},
    HOOK_PROC_MAPS: {"11", "12"},
}


def test_per_hook_flip_law_over_corpus_victims():
    # Dropping one hook flips exactly its cells; dropping all four flips
    # exactly their union. Sixty victims, every second one with webview.
    rng = random.Random(23)
    template, catalog, companion = default_template(), default_catalog(), default_companion()
    for index in range(60):
        victim = corpus_manifest(index, rng)
        if index % 2:
            victim = replace(victim, native_components=frozenset({"webview"}))
        scenario = MatrixScenario(victim, template, catalog, companion, seed=index)
        world = build_cloaked_world(scenario)
        hooked = run_probes_on_world(world).verdicts()

        def flipped(dropped):
            verdicts = run_probes_on_world(unhooked(world, dropped)).verdicts()
            return {p for p in PROBE_IDS if verdicts[p] != hooked[p]}

        for label, cells in HOOK_FLIPS.items():
            assert flipped((label,)) == cells, (victim.package, label)
        assert flipped(CLOAK_HOOK_LABELS) == set().union(*HOOK_FLIPS.values()), victim.package


HANDLE_SURFACE = {"call", "declared", "own_package", "runtime"}


def handle_misuses(fn) -> list[str]:
    """Every use of ``fn``'s handle argument other than ``.call(...)``,
    ``.declared``, ``.own_package`` or ``.runtime``, as source text."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    func = tree.body[0]
    handle = func.args.args[0].arg
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    misuses = []
    for node in ast.walk(func):
        if not (isinstance(node, ast.Name) and node.id == handle):
            continue
        attr = parents[node]
        ok = isinstance(attr, ast.Attribute) and attr.attr in HANDLE_SURFACE
        if ok and attr.attr == "call":
            call = parents.get(attr)
            ok = isinstance(call, ast.Call) and call.func is attr
        if not ok:
            misuses.append(ast.unparse(attr) if isinstance(attr, ast.Attribute) else handle)
    return misuses


def test_probes_see_only_their_handle():
    assert list(PROBE_FUNCS) == list(PROBE_IDS)
    assert {probe: handle_misuses(fn) for probe, fn in PROBE_FUNCS.items()} == {
        probe: [] for probe in PROBE_IDS}

    def peeking_probe(h):
        h.call(ApiCall("get_installed_packages"))
        return h._world.os.registry, h, h.call

    assert sorted(handle_misuses(peeking_probe)) == ["h", "h._world", "h.call"]
