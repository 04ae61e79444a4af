import functools
import random
import re
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from appvirtsim import permissions as perms
from appvirtsim.container import (
    AFTER,
    BEFORE,
    CLOAK_HOOK_LABELS,
    LAYERS,
    MODES,
    REPLACE,
    AlreadyLoadedError,
    CatalogFetchError,
    ContainerGoneError,
    ContainerState,
    HOOK_EXEC_PS,
    LOWLEVEL,
    PROXY,
    HookSpec,
    NoFreeStubError,
    NotAPluginError,
    PluginGoneError,
    create_container,
    first_run,
    install_cloaking_hookset,
    install_hook,
    load_plugin,
    plugin_syscall,
    tick_services,
    uninstall_hooks,
)
from appvirtsim.customization import customize, validate_result
from appvirtsim.defaults import DEFAULT_STORE_COUNTS, default_catalog
from appvirtsim.manifest import (
    ACTIVITY,
    RECEIVER,
    SERVICE,
    AppManifest,
    Component,
    SchemaError,
)
from appvirtsim.simos import (
    API_KINDS,
    LAUNCH_KINDS,
    AccessDeniedError,
    ApiCall,
    ApiError,
    ComponentNotRegisteredError,
    SimOs,
    UnknownPackageError,
)
from appvirtsim.worlds import (
    CLOAKED_ENV,
    ENVIRONMENTS,
    WORLD_BUILDERS,
    build_cloaked_world,
    build_naive_world,
    build_native_world,
    default_scenario,
    launch_native,
    seed_stores,
    seeded_device,
)
from reference_dispatch import ReferenceDispatch, reference_world, shared_tables


def payload_manifest(world):
    """The payload manifest a cloaked build's first run loaded as a plugin."""
    return world.container.plugins[default_catalog().package].manifest


@pytest.fixture
def hosted(template):
    """A SimOs with the unmodified template installed and a container open."""
    os = SimOs()
    os.install(template)
    c = create_container(os, template)
    return os, c


def test_create_requires_installed_addon(template):
    os = SimOs()
    with pytest.raises(UnknownPackageError):
        create_container(os, template)


def test_create_over_template(hosted, template):
    os, c = hosted
    assert [s.name for s in c.stub_components] == [
        "PluginStubActivity0", "PluginStubActivity1", "PluginStubActivity2",
        "PluginStubActivity3", "PluginServiceManager", "PluginStubProvider",
    ]
    assert os.registry[template.package].granted_permissions == set(perms.ALL_PERMISSIONS)
    assert c.plugin_data_root == f"/data/data/{template.package}/Plugin"


def test_create_over_customized_addon(victim, template, catalog):
    os = SimOs()
    result = customize(victim, template, catalog)
    os.install(result.addon)
    c = create_container(os, result.addon)
    granted = os.registry[result.addon.package].granted_permissions
    assert granted == set(victim.permissions) | set(perms.ADDON_EXTRA_PERMISSIONS)
    assert len(c.stub_components) == 6  # renamed, still tagged


def test_load_plugin_shares_uid_not_pid(hosted, victim, template):
    os, c = hosted
    pid = load_plugin(os, c, victim)
    addon_uid = os.registry[template.package].uid
    assert os.processes[pid].uid == addon_uid
    assert pid != c.container_pid
    assert victim.package not in os.registry  # loaded, never installed
    assert c.plugins[victim.package].data_dir == (
        f"/data/data/{template.package}/Plugin/{victim.package}"
    )
    assert c.plugins[victim.package].apk_path == (
        f"/data/data/{template.package}/Plugin/{victim.package}/base.apk"
    )


def test_load_two_plugins_one_foreground(hosted, victim, companion):
    os, c = hosted
    first = load_plugin(os, c, companion)
    second = load_plugin(os, c, victim)
    assert first != second
    assert os.processes[first].uid == os.processes[second].uid
    assert c.foreground_plugin == victim.package  # most recent launcher wins


def test_load_same_plugin_twice(hosted, victim):
    os, c = hosted
    load_plugin(os, c, victim)
    with pytest.raises(AlreadyLoadedError):
        load_plugin(os, c, victim)


def test_plugin_receivers_registered_dynamically(hosted, victim, template):
    os, c = hosted
    load_plugin(os, c, victim)
    uid = os.registry[template.package].uid
    assert (uid, ".MsgReceiver") in os.dynamic_receivers


def test_name_rewriting_round_trip(hosted, victim):
    os, c = hosted
    pid = load_plugin(os, c, victim)
    # The launcher was opened at load time through a stub; the plugin
    # still observes its own component name in tasks and new launches.
    tasks = plugin_syscall(os, c, pid, ApiCall("get_running_tasks"))
    assert [ACTIVITY, ".MainActivity"] in tasks
    started = plugin_syscall(os, c, pid, ApiCall("start_service", name=".SyncService"))
    assert started == ".SyncService"
    # On the wire the OS only ever saw stub names.
    wire_names = {name for p in os.processes.values()
                  for _, name in p.running_task_components}
    assert ".MainActivity" not in wire_names


def test_provider_rewriting_round_trip(hosted):
    # No probe exercises providers; the rewrite is contract-tested here.
    os, c = hosted
    plugin = AppManifest(
        package="org.withprov.app", label="WithProv",
        activities=(Component(name=".Main", kind=ACTIVITY, launcher=True),),
        providers=(Component(name=".DataProvider", kind="provider"),),
    )
    pid = load_plugin(os, c, plugin)
    observed = plugin_syscall(os, c, pid, ApiCall("acquire_provider",
                                                  name=".DataProvider"))
    assert observed == ".DataProvider"
    assert ".DataProvider" in {
        real for (_, kind, real) in c.stub_assignments.values() if kind == "provider"
    }


def test_stub_exhaustion(hosted, victim):
    os, c = hosted
    pid = load_plugin(os, c, victim)
    plugin_syscall(os, c, pid, ApiCall("start_service", name=".SyncService"))
    with pytest.raises(ApiError, match="no free service stub"):
        plugin_syscall(os, c, pid, ApiCall("start_service", name=".PushService"))


def test_relaunch_reuses_assigned_stub(hosted, victim):
    # The template has one service stub, so a second stub assignment for
    # the same service would fail; the relaunch must reuse the first.
    os, c = hosted
    pid = load_plugin(os, c, victim)
    first = plugin_syscall(os, c, pid, ApiCall("start_service", name=".SyncService"))
    assigned = dict(c.stub_assignments)
    second = plugin_syscall(os, c, pid, ApiCall("start_service", name=".SyncService"))
    assert first == second == ".SyncService"
    assert c.stub_assignments == assigned
    assert os.processes[pid].running_services == ("PluginServiceManager",)


def test_undeclared_launch_takes_no_stub():
    # A plugin launching a component its own manifest does not declare is
    # refused as the OS refuses it natively, and the stub it would have taken
    # stays free for the plugin's real service.
    undeclared = ApiCall("start_service", name=".NotDeclaredAnywhere")
    native = build_native_world(default_scenario())
    with pytest.raises(ComponentNotRegisteredError) as natively:
        native.os.syscall(native.probe_pid, undeclared)
    world = build_naive_world(default_scenario())
    os, c, pid = world.os, world.container, world.probe_pid
    assigned = dict(c.stub_assignments)
    for kind in LAUNCH_KINDS:
        with pytest.raises(ComponentNotRegisteredError):
            plugin_syscall(os, c, pid, undeclared._replace(kind=kind))
    with pytest.raises(ComponentNotRegisteredError) as hosted_call:
        plugin_syscall(os, c, pid, undeclared)
    assert str(hosted_call.value) == str(natively.value)
    assert c.stub_assignments == assigned
    real = ApiCall("start_service", name=".SyncService")
    assert plugin_syscall(os, c, pid, real) == ".SyncService"
    assert os.processes[pid].running_services == ("PluginServiceManager",)


def test_set_component_enabled_not_rewritten(hosted, victim):
    # The dispatch layer does not cloak component toggles; a naive
    # container exposes the unregistered name.
    os, c = hosted
    pid = load_plugin(os, c, victim)
    with pytest.raises(ApiError, match="not a registered"):
        plugin_syscall(os, c, pid, ApiCall(
            "set_component_enabled", component_kind=ACTIVITY, name=".MainActivity"))


def test_hook_composition_order(hosted, victim):
    os, c = hosted
    pid = load_plugin(os, c, victim)
    trace = []

    def tag_before(label):
        def fn(call):
            trace.append(label)
            return call
        return fn

    def tag_after(label):
        def fn(call, reply):
            trace.append(label)
            return reply
        return fn

    install_hook(c, HookSpec(LOWLEVEL, "read_proc_maps", BEFORE, tag_before("ll-b1")))
    install_hook(c, HookSpec(LOWLEVEL, "read_proc_maps", BEFORE, tag_before("ll-b2")))
    install_hook(c, HookSpec(PROXY, "read_proc_maps", BEFORE, tag_before("px-b1")))
    install_hook(c, HookSpec(LOWLEVEL, "read_proc_maps", AFTER, tag_after("ll-a1")))
    install_hook(c, HookSpec(LOWLEVEL, "read_proc_maps", AFTER, tag_after("ll-a2")))
    install_hook(c, HookSpec(PROXY, "read_proc_maps", AFTER, tag_after("px-a1")))
    plugin_syscall(os, c, pid, ApiCall("read_proc_maps"))
    assert trace == ["ll-b1", "ll-b2", "px-b1", "px-a1", "ll-a2", "ll-a1"]


def test_dispatch_order_over_both_layers(hosted, victim):
    # Before hooks run in dispatch order (lowlevel, then proxy, each in
    # installation order), the first replace hook in that order answers the
    # rewritten call, after hooks run in reverse, and hooks on other
    # targets stay out of it.
    os, c = hosted
    pid = load_plugin(os, c, victim)

    def before(label):
        return lambda call: call._replace(cmd=f"{call.cmd}|{label}")

    def replace_with(label):
        return lambda call: f"{label}({call.cmd})"

    def after(label):
        return lambda call, reply: f"{reply}|{label}"

    def elsewhere(call):
        raise AssertionError("a hook on another target ran")

    for layer, mode, fn in [
        (PROXY, BEFORE, before("px-b")),
        (PROXY, REPLACE, replace_with("px-r")),
        (LOWLEVEL, BEFORE, before("ll-b1")),
        (LOWLEVEL, AFTER, after("ll-a1")),
        (LOWLEVEL, BEFORE, before("ll-b2")),
        (LOWLEVEL, REPLACE, replace_with("ll-r1")),
        (LOWLEVEL, REPLACE, replace_with("ll-r2")),
        (PROXY, AFTER, after("px-a")),
        (LOWLEVEL, AFTER, after("ll-a2")),
    ]:
        install_hook(c, HookSpec(layer, "exec_shell", mode, fn))
    install_hook(c, HookSpec(LOWLEVEL, "read_proc_maps", BEFORE, elsewhere))
    reply = plugin_syscall(os, c, pid, ApiCall("exec_shell", cmd="ps"))
    assert reply == "ll-r1(ps|ll-b1|ll-b2|px-b)|px-a|ll-a2|ll-a1"


def in_install_order(ref: ReferenceDispatch) -> dict:
    """The reference's hooks by target, each group in its dispatch order."""
    return {target: tuple(ref.dispatch_order(target))
            for target in dict.fromkeys(h.target for h in ref.hooks)}


_HOOK_LABELS = ("a", "b", "c")
_HOOK_OPS = st.one_of(
    st.tuples(st.just("install"), st.sampled_from(LAYERS),
              st.sampled_from(("exec_shell", "read_proc_maps", "get_application_info")),
              st.sampled_from(MODES), st.sampled_from(_HOOK_LABELS)),
    st.tuples(st.just("uninstall"), st.frozensets(st.sampled_from(_HOOK_LABELS))),
    st.just(("fork",)),
)


@given(st.lists(_HOOK_OPS, max_size=30))
def test_hook_index_is_the_hook_list_by_target(ops):
    # After any install, uninstall and fork sequence each target's group holds
    # what the reference's install-order list gives: lowlevel hooks before
    # proxy hooks, each layer in install order, no empty group. Later changes
    # to a fork leave its parent's index alone.
    c = ContainerState("org.example.addon", AppManifest("org.example.addon"), 1,
                       "/data/data/org.example.addon/Plugin")
    ref = ReferenceDispatch()
    parents = []
    for op in ops:
        if op[0] == "install":
            _, layer, target, mode, label = op
            hook = HookSpec(layer, target, mode, lambda call, *reply: call, label)
            install_hook(c, hook)
            ref.install_hook(c, hook)
        elif op[0] == "uninstall":
            assert uninstall_hooks(c, op[1]) == ref.uninstall_hooks(c, op[1])
        else:
            parents.append((c, dict(c.hooks_by_target), ref))
            c, ref = c.fork(), ref.fork()
            assert c.hooks_by_target is not parents[-1][0].hooks_by_target
        assert c.hooks_by_target == in_install_order(ref)
    for parent, index, parent_ref in parents:
        assert parent.hooks_by_target == index == in_install_order(parent_ref)


def test_hook_on_unknown_target_rejected():
    with pytest.raises(ValueError, match="unknown hook target: 'read_proc_map'"):
        HookSpec(LOWLEVEL, "read_proc_map", REPLACE, lambda call: [])


@pytest.mark.parametrize("layer, mode, message", [
    ("kernel", REPLACE, "unknown hook layer: 'kernel'"),
    (LOWLEVEL, "around", "unknown hook mode: 'around'"),
])
def test_hook_with_unknown_layer_or_mode_rejected(layer, mode, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        HookSpec(layer, "read_proc_maps", mode, lambda call: [])


def test_plugin_call_from_the_container_process_refused(hosted):
    # A live process of the add-on that is no plugin's cannot make plugin calls.
    os, c = hosted
    with pytest.raises(NotAPluginError, match=f"pid {c.container_pid} is not a plugin process"):
        plugin_syscall(os, c, c.container_pid, ApiCall("get_installed_packages"))


def test_duplicate_hooks_compose(hosted, victim):
    os, c = hosted
    pid = load_plugin(os, c, victim)
    counter = {"n": 0}

    def bump(call, reply):
        counter["n"] += 1
        return reply

    hook = HookSpec(PROXY, "get_installed_packages", AFTER, bump)
    install_hook(c, hook)
    install_hook(c, hook)
    plugin_syscall(os, c, pid, ApiCall("get_installed_packages"))
    assert counter["n"] == 2


def test_replace_mode_hook_short_circuits(hosted, victim):
    os, c = hosted
    pid = load_plugin(os, c, victim)

    def canned(call):
        return ["only.this"]

    install_hook(c, HookSpec(LOWLEVEL, "get_installed_packages", REPLACE, canned))
    reply = plugin_syscall(os, c, pid, ApiCall("get_installed_packages"))
    assert reply == ["only.this"]


def test_zero_hooks_is_baseline(hosted, victim, template):
    os, c = hosted
    pid = load_plugin(os, c, victim)
    assert plugin_syscall(os, c, pid, ApiCall("get_installed_packages")) == [
        template.package
    ]


def test_cloaking_hookset_effects(hosted, victim, template):
    os, c = hosted
    pid = load_plugin(os, c, victim)
    install_cloaking_hookset(c, victim.package)

    with pytest.raises(AccessDeniedError):
        plugin_syscall(os, c, pid, ApiCall("read_proc_maps"))

    info = plugin_syscall(os, c, pid, ApiCall("get_application_info",
                                              package=victim.package))
    assert info["data_dir"] == f"/data/data/{victim.package}"

    shell = plugin_syscall(os, c, pid, ApiCall("exec_shell", cmd="ps"))
    assert "Plugin" in shell.splitlines()  # ls output of the addon data dir

    names = {p["name"] for p in plugin_syscall(
        os, c, pid, ApiCall("get_running_app_processes"))}
    assert names == {victim.package}


def test_uninstall_hooks_by_label(hosted, victim):
    os, c = hosted
    load_plugin(os, c, victim)
    install_cloaking_hookset(c, victim.package)
    assert uninstall_hooks(c, (HOOK_EXEC_PS,)) == 1
    assert len(c.hooks) == 3


def test_cloaked_world_installs_the_hookset_in_order():
    c = build_cloaked_world(default_scenario()).container
    assert [h.label for h in c.hooks] == list(CLOAK_HOOK_LABELS)


def test_cloaked_worlds_share_the_victim_independent_hooks(victim):
    # Only the process-name hook names the victim; the other three are built
    # once and every cloaked container holds the same objects.
    sc = default_scenario()
    other = replace(sc, victim=replace(victim, package="org.other.victim"))
    first, second = (build_cloaked_world(s).container.hooks for s in (sc, other))
    assert [h.label for h in first] == [h.label for h in second] == list(CLOAK_HOOK_LABELS)
    assert first[0] is not second[0]
    assert all(a is b for a, b in zip(first[1:], second[1:]))


def _fresh_records(counts, seed) -> dict:
    """The records seed_stores must store, generated afresh on every call."""
    rng = random.Random(seed)
    return {store: [f"{store}-{i:03d}-{rng.randrange(16 ** 6):06x}"
                    for i in range(counts[store])]
            for store in sorted(counts)}


def test_seed_stores_matches_a_fresh_generation_whatever_came_before(scenario):
    a = dict(DEFAULT_STORE_COUNTS)
    b = {"contacts": 4, "sms": 1}
    for seed, counts in ((7, a), (7, b), (7, a), (8, a), (8, a)):
        os = SimOs()
        seed_stores(os, counts, seed)
        expected = _fresh_records(counts, seed)
        for store, records in os.data_stores.items():
            assert type(records) is tuple
            assert list(records) == expected.get(store, [])
    devices = [seeded_device(replace(scenario, seed=seed)) for seed in (7, 8, 8)]
    for device, seed in zip(devices, (7, 8, 8)):
        assert {s: list(r) for s, r in device.data_stores.items()} == _fresh_records(a, seed)
    # The last two devices share one seed: the second forks the device cached
    # for the first instead of seeding again.
    assert all(devices[1].data_stores[s] is devices[2].data_stores[s] for s in a)


def test_seeded_devices_share_records_and_start_pristine(scenario):
    # Every device of a scenario forks one cached device, so two share their
    # record tuples; a build writes to its own fork, never to that device.
    first = seeded_device(scenario)
    first.mkdir("/data/local/tmp")
    build_cloaked_world(scenario)
    second = seeded_device(scenario)
    assert all(first.data_stores[s] is second.data_stores[s] for s in first.data_stores)
    fresh = SimOs()
    seed_stores(fresh, DEFAULT_STORE_COUNTS, scenario.seed)
    assert world_signature(second, None) == world_signature(fresh, None)


def test_a_scenario_cannot_change_after_its_check(scenario):
    with pytest.raises(FrozenInstanceError):
        scenario.victim = scenario.template


@pytest.mark.parametrize("role", ["template", "companion", "catalog"])
def test_a_replaced_scenario_checks_its_roles_again(scenario, role):
    clash = replace(getattr(scenario, role), package=scenario.victim.package)
    with pytest.raises(SchemaError, match=f"is also the {role}'s"):
        replace(scenario, **{role: clash})


def test_plugin_data_dir_with_no_hooks(hosted, victim, template):
    os, c = hosted
    pid = load_plugin(os, c, victim)
    info = plugin_syscall(os, c, pid, ApiCall("get_application_info",
                                              package=victim.package))
    assert info["data_dir"] == (
        f"/data/data/{template.package}/Plugin/{victim.package}"
    )


# ---------------------------------------------------------------------------
# First run and background services


def build_attack_world(victim, template, catalog, seed_counts=True):
    os = SimOs()
    if seed_counts:
        seed_stores(os, {"contacts": 3, "sms": 2}, seed=7)
    os.install(victim)
    launch_native(os, victim.package)
    result = customize(victim, template, catalog)
    os.install(result.addon)
    c = create_container(os, result.addon)
    install_cloaking_hookset(c, victim.package)
    return os, c, result, result.malicious


def test_first_run_refuses_a_victim_that_is_not_installed(victim, template, catalog):
    os, c, result, payload = build_attack_world(victim, template, catalog)
    before = world_signature(os.fork(), c.fork())
    with pytest.raises(UnknownPackageError, match="victim org.absent.app is not installed"):
        first_run(os, c, "org.absent.app", payload)
    assert world_signature(os, c) == before


def test_first_run_sequence(victim, template, catalog):
    os, c, result, payload = build_attack_world(victim, template, catalog)
    log = first_run(os, c, victim.package, payload)

    steps = [entry["step"] for entry in log]
    assert steps == ["kill_victim", "create_shortcut", "fetch_payload",
                     "start_payload_services", "load_victim"]
    assert log[0]["killed"] == 1
    assert ("QuickChat", "ic_launcher.png", c.addon_package) in os.shortcuts
    assert set(c.plugin_processes) == {result.malicious.package, victim.package}
    assert c.foreground_plugin == victim.package
    payload_pid = c.plugin_processes[result.malicious.package]
    assert os.processes[payload_pid].running_services == (
        "QuickChatContactsService", "QuickChatSmsService",
    )


def test_first_run_with_victim_not_running(victim, template, catalog):
    os, c, result, payload = build_attack_world(victim, template, catalog)
    os.syscall(c.container_pid, ApiCall("kill_background_processes",
                                        package=victim.package))
    log = first_run(os, c, victim.package, payload)
    assert log[0]["killed"] == 0
    assert set(c.plugin_processes) == {result.malicious.package, victim.package}


def test_first_run_duplicate_shortcut_warns(victim, template, catalog):
    os, c, _, payload = build_attack_world(victim, template, catalog)
    os.shortcuts.append(("QuickChat", "ic_launcher.png", c.addon_package))
    log = first_run(os, c, victim.package, payload)
    warnings = [e for e in log if e["step"] == "warning"]
    assert any("already exists" in e["detail"] for e in warnings)
    assert os.shortcuts.count(("QuickChat", "ic_launcher.png", c.addon_package)) == 2


def test_tick_services_exfiltrates_under_shared_uid(victim, template, catalog):
    os, c, _, payload = build_attack_world(victim, template, catalog)
    first_run(os, c, victim.package, payload)
    tick_services(os, c)
    tags = sorted({tag for tag, _ in os.exfil_sink})
    assert tags == ["contacts", "sms"]
    assert len([r for t, r in os.exfil_sink if t == "contacts"]) == 3
    assert len([r for t, r in os.exfil_sink if t == "sms"]) == 2


def test_tick_services_appends_each_services_records_in_order():
    # Each sweep of the default cloaked world appends, service by service in
    # the order first_run started them, a (payload tag, record) pair for every
    # record of the store that service may read, as seed_stores filled it.
    sc = default_scenario()
    world = build_cloaked_world(sc)
    stores = SimOs()
    seed_stores(stores, DEFAULT_STORE_COUNTS, sc.seed)
    granted = world.container.addon_manifest.permissions
    expected = [
        (svc.payload, record)
        for svc in payload_manifest(world).services
        if perms.STORE_GUARDS[perms.PAYLOAD_STORES[svc.payload]] in granted
        for record in stores.data_stores[perms.PAYLOAD_STORES[svc.payload]]
    ]
    assert [tag for tag, _ in expected] == ["contacts"] * 3 + ["sms"] * 2
    sink = world.os.exfil_sink
    for _ in range(3):
        before = len(sink)
        tick_services(world.os, world.container)
        assert sink[before:] == expected


def test_tick_services_runs_a_payload_service_started_under_a_stub(
        victim, template, catalog):
    # The uncustomized template declares no payload service, so the first
    # one starts under its only service stub and the second finds none free.
    os = SimOs()
    seed_stores(os, {"contacts": 3, "sms": 2}, seed=7)
    os.install(victim)
    launch_native(os, victim.package)
    os.install(template)
    c = create_container(os, template)
    malicious = customize(victim, template, catalog).malicious
    log = first_run(os, c, victim.package, malicious)
    started = next(e for e in log if e["step"] == "start_payload_services")
    assert started["services"] == ["QuickChatContactsService"]
    payload_pid = c.plugin_processes[malicious.package]
    assert os.processes[payload_pid].running_services == ("PluginServiceManager",)
    tick_services(os, c)
    assert [tag for tag, _ in os.exfil_sink] == ["contacts"] * 3


def test_payload_service_renamed_around_victim_service(victim, template, catalog):
    # The victim already declares the correlated name of the catalog's
    # contacts service, so the payload copy is suffixed in both manifests.
    clash = replace(victim, services=victim.services + (
        Component(name="QuickChatContactsService", kind=SERVICE),))
    os, c, result, payload = build_attack_world(clash, template, catalog)
    renamed = "QuickChatContactsService_c1"
    assert renamed in [s.name for s in result.addon.services]
    assert [s.name for s in result.malicious.services] == [
        renamed, "QuickChatSmsService",
    ]
    validate_result(clash, result)

    log = first_run(os, c, clash.package, payload)
    assert [e for e in log if e["step"] == "warning"] == []
    started = next(e for e in log if e["step"] == "start_payload_services")
    assert renamed in started["services"]
    tick_services(os, c)
    assert len([r for t, r in os.exfil_sink if t == "contacts"]) == 3


def test_tick_services_internet_only_victim(template, catalog):
    bare = AppManifest(
        package="org.bare.app", label="Bare",
        permissions={perms.INTERNET},
        activities=(Component(name=".Main", kind=ACTIVITY, launcher=True),),
    )
    os, c, result, payload = build_attack_world(bare, template, catalog)
    assert result.malicious.services == ()
    first_run(os, c, bare.package, payload)
    tick_services(os, c)
    assert os.exfil_sink == []


def test_tick_services_denied_read_logged_not_raised(victim, template, catalog):
    # RECEIVE_SMS without READ_SMS: the interceptor survives trimming but
    # its store read is denied under the shared uid.
    odd = replace(
        victim, permissions=frozenset({perms.RECEIVE_SMS, perms.INTERNET}))
    os, c, result, payload = build_attack_world(odd, template, catalog)
    assert [s.payload for s in result.malicious.services] == ["sms_intercept"]
    first_run(os, c, odd.package, payload)
    tick_services(os, c)
    assert os.exfil_sink == []
    assert any("read denied" in e.get("detail", "") for e in c.run_log)


def test_tick_services_skips_killed_plugin(victim, template, catalog):
    # The payload kills every other process of its own add-on: the container
    # process and the victim plugin. The next sweep still runs the payload.
    # All of it happens on forks, which leave the parent's tables alone.
    parent_os, parent_c, result, payload = build_attack_world(
        victim, template, catalog)
    first_run(parent_os, parent_c, victim.package, payload)
    parent_log, parent_pids = list(parent_c.run_log), set(parent_os.processes)
    os, c = parent_os.fork(), parent_c.fork()
    payload_pid = c.plugin_processes[result.malicious.package]
    victim_pid = c.plugin_processes[victim.package]
    killed = plugin_syscall(os, c, payload_pid, ApiCall(
        "kill_background_processes", package=c.addon_package))
    assert killed == 2
    assert victim_pid not in os.processes
    assert c.plugin_processes[victim.package] == victim_pid
    tick_services(os, c)
    assert sorted({tag for tag, _ in os.exfil_sink}) == ["contacts", "sms"]
    assert len(os.exfil_sink) == 5
    assert c.run_log[-1] == {
        "step": "warning",
        "detail": f"{victim.package}: process {victim_pid} is gone; not ticked",
    }
    assert parent_c.run_log == parent_log
    assert set(parent_os.processes) == parent_pids
    assert parent_os.exfil_sink == []


def test_fork_hook_and_mkdir_leave_parent_alone(hosted):
    os, c = hosted
    hooks, dirs = list(c.hooks), set(os.fs_dirs)
    os_fork, c_fork = os.fork(), c.fork()
    install_hook(c_fork, HookSpec(LOWLEVEL, "exec_shell", BEFORE, lambda call: call))
    os_fork.mkdir("/data/local/tmp")
    assert len(c_fork.hooks) == len(hooks) + 1
    assert "/data/local/tmp" in os_fork.fs_dirs
    assert list(c.hooks) == hooks
    assert os.fs_dirs == dirs


@pytest.mark.parametrize("view", ("plugin_processes",))
def test_views_refuse_writes(view):
    # A view is rebuilt from its store on every read, so a write through it
    # would be lost; it raises instead, and the store is left as it was.
    c = build_naive_world(default_scenario()).container  # its launchers hold stubs
    plugins, stubs = dict(c.plugins), dict(c.stub_assignments)
    table = getattr(c, view)
    key = next(iter(table))
    with pytest.raises(TypeError):
        table[key] = table[key]
    with pytest.raises(TypeError):
        del table[key]
    assert (c.plugins, c.stub_assignments) == (plugins, stubs)


def test_call_from_killed_plugin_is_a_typed_api_error():
    # The payload kills the victim plugin's process; the victim's next call
    # is refused as a modelled failure, not an internal lookup error.
    world = build_cloaked_world(default_scenario())
    os, c = world.os, world.container
    payload_pid = c.plugin_processes[payload_manifest(world).package]
    plugin_syscall(os, c, payload_pid, ApiCall(
        "kill_background_processes", package=c.addon_package))
    with pytest.raises(PluginGoneError) as excinfo:
        plugin_syscall(os, c, world.probe_pid, ApiCall("get_installed_packages"))
    assert isinstance(excinfo.value, ApiError)
    assert excinfo.value.reason == "plugin_gone"


def test_cloaked_world_builds_without_the_host_filesystem(monkeypatch):
    # The payload manifest stays in memory: the build opens, lists and
    # creates nothing on the host.
    def refuse(*args, **kwargs):
        raise AssertionError("the world build touched the host filesystem")

    for target in ("builtins.open", "os.listdir", "os.mkdir", "tempfile.mkdtemp"):
        monkeypatch.setattr(target, refuse)
    world = build_cloaked_world(default_scenario())
    assert set(world.container.plugin_processes) == {
        payload_manifest(world).package, world.probe_manifest.package,
    }


def test_shared_uid_law_over_load_sequences(hosted, template):
    os, c = hosted
    addon_uid = os.registry[template.package].uid
    pids = set()
    for i in range(6):
        m = AppManifest(
            package=f"org.seq.app{i}", label=f"Seq{i}",
            activities=(Component(name=f".Main{i}", kind=ACTIVITY, launcher=i % 2 == 0),),
        )
        pid = load_plugin(os, c, m)
        assert os.processes[pid].uid == addon_uid
        assert pid != c.container_pid
        assert m.package not in os.registry
        pids.add(pid)
    assert len(pids) == 6


def test_second_start_service_does_not_double_the_sweep():
    # Restarting a running payload service leaves one running entry, so the
    # next sweep reads each store once, as the first did.
    world = build_cloaked_world(default_scenario()).fork()
    os, c = world.os, world.container
    tick_services(os, c)
    assert len(os.exfil_sink) == 5
    payload_pid = c.plugin_processes[payload_manifest(world).package]
    plugin_syscall(os, c, payload_pid, ApiCall("start_service", name="QuickChatContactsService"))
    before = len(os.exfil_sink)
    tick_services(os, c)
    assert len(os.exfil_sink) - before == 5


def test_tick_services_reaps_a_dead_plugin():
    # The payload kills the victim plugin; the sweep that finds it dead drops
    # it from every table, and its receivers from the shared uid.
    world = build_cloaked_world(default_scenario())
    os, c = world.os, world.container
    victim, victim_pid = world.probe_manifest.package, world.probe_pid
    uid = os.registry[c.addon_package].uid
    assert (uid, ".MsgReceiver") in os.dynamic_receivers
    payload_pid = c.plugin_processes[payload_manifest(world).package]
    assert plugin_syscall(os, c, payload_pid, ApiCall(
        "kill_background_processes", package=c.addon_package)) == 2
    tick_services(os, c)
    assert victim not in c.plugins
    assert all(owner != victim for owner, _, _ in c.stub_assignments.values())
    assert (uid, ".MsgReceiver") not in os.dynamic_receivers
    assert c.foreground_plugin is None
    assert set(c.plugin_processes.values()) <= set(os.processes)
    warnings = [e for e in c.run_log if "is gone" in e.get("detail", "")]
    tick_services(os, c)
    assert [e for e in c.run_log if "is gone" in e.get("detail", "")] == warnings
    with pytest.raises(PluginGoneError):
        plugin_syscall(os, c, victim_pid, ApiCall("get_installed_packages"))


def test_reaped_plugin_frees_its_stub_for_the_next_launch(victim, template, catalog):
    # The template has one service stub, held by the payload. Once the victim
    # has killed the payload and a sweep has reaped it, the stub is free.
    os = SimOs()
    seed_stores(os, {"contacts": 3, "sms": 2}, seed=7)
    os.install(victim)
    launch_native(os, victim.package)
    os.install(template)
    c = create_container(os, template)
    malicious = customize(victim, template, catalog).malicious
    first_run(os, c, victim.package, malicious)
    victim_pid = c.plugin_processes[victim.package]
    assert c.stub_assignments["PluginServiceManager"][0] == malicious.package
    assert plugin_syscall(os, c, victim_pid, ApiCall(
        "kill_background_processes", package=template.package)) == 2
    tick_services(os, c)
    reply = plugin_syscall(os, c, victim_pid, ApiCall("start_service", name=".SyncService"))
    assert reply == ".SyncService"
    assert c.stub_assignments["PluginServiceManager"] == (
        victim.package, SERVICE, ".SyncService")
    assert os.processes[victim_pid].running_services == ("PluginServiceManager",)


def test_plugin_process_names_stay_unique_after_a_reap(hosted, template):
    os, c = hosted
    apps = [AppManifest(package=f"org.reap.app{i}", label=f"Reap{i}",
                        activities=(Component(name=".Main", kind=ACTIVITY, launcher=True),))
            for i in range(3)]
    first, second = (load_plugin(os, c, m) for m in apps[:2])
    assert [os.processes[p].name for p in (first, second)] == [
        f"{template.package}:p1", f"{template.package}:p2"]
    # The container kills its plugins and lives on; a dead container would
    # refuse the next load.
    os.syscall(c.container_pid, ApiCall("kill_background_processes",
                                        package=template.package))
    tick_services(os, c)
    assert c.plugin_processes == {}
    third = load_plugin(os, c, apps[2])
    names = [p.name for p in os.processes.values()]
    assert os.processes[third].name == f"{template.package}:p3"
    assert len(names) == len(set(names))


def test_reap_keeps_a_receiver_a_live_plugin_also_declares(hosted, template):
    os, c = hosted
    shared = Component(name=".Shared", kind=RECEIVER, intents=("org.reap.PING",))
    apps = [AppManifest(package=f"org.reap.app{i}", label=f"Reap{i}",
                        receivers=(shared, Component(name=f".Own{i}", kind=RECEIVER,
                                                     intents=("org.reap.PING",))))
            for i in range(2)]
    load_plugin(os, c, apps[0])
    live = load_plugin(os, c, apps[1])
    plugin_syscall(os, c, live, ApiCall("kill_background_processes",
                                        package=template.package))
    tick_services(os, c)
    uid = os.registry[template.package].uid
    assert sorted(name for u, name in os.dynamic_receivers if u == uid) == [".Own1", ".Shared"]


def test_first_run_in_a_dead_container_is_a_typed_error():
    # The payload kills every other process of the add-on, the container's
    # included; a later first run is refused before its first system call.
    world = build_cloaked_world(default_scenario()).fork()
    os, c = world.os, world.container
    malicious = payload_manifest(world)
    assert plugin_syscall(os, c, c.plugin_processes[malicious.package], ApiCall(
        "kill_background_processes", package=c.addon_package)) == 2
    tick_services(os, c)
    assert c.container_pid not in os.processes
    log, shortcuts, pids = list(c.run_log), list(os.shortcuts), set(os.processes)
    payload = replace(malicious, package="org.example.payload2")
    with pytest.raises(ContainerGoneError, match=f"container process {c.container_pid} is gone"):
        first_run(os, c, world.probe_manifest.package, payload)
    assert (c.run_log, os.shortcuts, set(os.processes)) == (log, shortcuts, pids)


def test_load_plugin_in_a_dead_container_is_a_typed_error(companion):
    # The same rule as first_run's: once the container process is gone, a
    # plugin load is refused before it spawns anything.
    world = build_cloaked_world(default_scenario()).fork()
    os, c = world.os, world.container
    plugin_syscall(os, c, c.plugin_processes[payload_manifest(world).package], ApiCall(
        "kill_background_processes", package=c.addon_package))
    tick_services(os, c)
    next_pid, processes, plugins = os.next_pid, dict(os.processes), dict(c.plugin_processes)
    with pytest.raises(ContainerGoneError, match=f"container process {c.container_pid} is gone"):
        load_plugin(os, c, companion)
    assert (os.next_pid, os.processes, c.plugin_processes) == (next_pid, processes, plugins)


def world_signature(os, c) -> dict:
    """The state a call, a hook change or a sweep may change, the stores included."""
    signature = shared_tables(os, c)
    if c is not None:
        signature.update(stubs=c.stub_assignments, hooks={
            target: [(h.label, h.layer, h.mode) for h in group]
            for target, group in c.hooks_by_target.items()})
    return signature


def test_first_run_refuses_a_payload_naming_the_victim(victim, template, catalog):
    os, c, result, _ = build_attack_world(victim, template, catalog)
    before = world_signature(os.fork(), c.fork())
    payload = replace(result.malicious, package=victim.package)
    with pytest.raises(CatalogFetchError, match="names the victim"):
        first_run(os, c, victim.package, payload)
    assert world_signature(os, c) == before


def test_load_plugin_refuses_a_payload_tag_with_no_store(hosted):
    # The same rule as first_run's, for any plugin: a service whose payload
    # tag names no store would start, then break the next sweep.
    os, c = hosted
    plugin = AppManifest("org.example.tagged", services=(
        Component(".CalendarService", SERVICE, payload="calendar"),))
    before = world_signature(os.fork(), c.fork())
    with pytest.raises(CatalogFetchError, match="unknown payload tag 'calendar'"):
        load_plugin(os, c, plugin)
    assert world_signature(os, c) == before


def test_load_plugin_is_all_or_nothing():
    # The cloaked add-on has four activity stubs. A fifth launcher finds none
    # free, and the load is refused before it spawns, stores or registers
    # anything; once a kill and a sweep free the stubs, the same manifest loads.
    world = build_cloaked_world(default_scenario()).fork()
    os, c = world.os, world.container
    plugins = [AppManifest(f"org.x.app{i}", activities=(
        Component(".OwnMain", ACTIVITY, launcher=True),), receivers=(
        Component(".OwnReceiver", RECEIVER, intents=("org.x.PING",)),)) for i in range(5)]
    for plugin in plugins[:4]:
        load_plugin(os, c, plugin)
    before = world_signature(os.fork(), c.fork())
    with pytest.raises(NoFreeStubError):
        load_plugin(os, c, plugins[4])
    assert world_signature(os, c) == before
    os.syscall(c.container_pid, ApiCall("kill_background_processes", package=c.addon_package))
    tick_services(os, c)
    pid = load_plugin(os, c, plugins[4])
    assert c.plugins[plugins[4].package].pid == pid and c.foreground_plugin == plugins[4].package
    assert list(c.stub_assignments.values()) == [(plugins[4].package, ACTIVITY, ".OwnMain")]


def test_first_run_refuses_a_payload_tag_with_no_store(victim, template, catalog):
    # A tag outside PAYLOAD_STORES would start, then fail the first sweep.
    os, c, result, _ = build_attack_world(victim, template, catalog)
    before = world_signature(os.fork(), c.fork())
    services = (replace(result.malicious.services[0], payload="calendar"),)
    payload = replace(result.malicious, services=services)
    with pytest.raises(CatalogFetchError, match="unknown payload tag 'calendar'"):
        first_run(os, c, victim.package, payload)
    assert world_signature(os, c) == before


# ---------------------------------------------------------------------------
# Dispatch against the slow reference


@functools.cache
def _dispatch_worlds() -> dict:
    """Each environment built twice: by the container, and with the reference
    answering every dispatch and hook change the build makes."""
    sc = default_scenario()
    return {env: (build(sc), reference_world(build, sc)) for env, build in WORLD_BUILDERS.items()}


@functools.cache
def _call_values() -> dict:
    """Argument values for drawn calls, from every manifest of the three worlds."""
    manifests = set()
    for real, _ in _dispatch_worlds().values():
        manifests.update(r.manifest for r in real.os.registry.values())
        if real.container is not None:
            manifests.update(r.manifest for r in real.container.plugins.values())
    components = [comp for m in manifests for comp in m.components()]
    return {
        "package": sorted({m.package for m in manifests} | {"no.such.app"}),
        "name": sorted({comp.name for comp in components} | {"webview", ".Nope"}),
        "action": sorted({i for comp in components for i in comp.intents} | {"act.none"}),
        "permission": sorted({p for m in manifests for p in m.permissions}),
        "store": sorted(set(perms.PAYLOAD_STORES.values()) | {"calendar"}),
        "cmd": ["ps", "ls", "rm"],
        "component_kind": sorted({comp.kind for comp in components}),
        "token": ["t"],
    }


@functools.cache
def _call_fields():
    return st.fixed_dictionaries({key: st.none() | st.sampled_from(values)
                                  for key, values in _call_values().items()})


def _test_hook(layer: str, target: str, mode: str, raises: bool, label: str) -> HookSpec:
    """A hook whose effect shows in the reply: it tags the call or the reply, or fails.

    On the two targets whose cloaking hooks read records, and run after any
    hook installed later, a reply keeps its shape: application info stays a
    dict with a package, the process list a list of process records."""
    if raises:
        def fn(call, *reply):
            raise AccessDeniedError(f"{label}: {layer} {mode} hook refuses {call.kind}")
    elif mode == BEFORE:
        def fn(call):
            return call._replace(token=f"{call.token or ''}>{label}")
    elif target == "get_application_info":
        def fn(call, *reply):
            info = reply[0] if reply else {"package": label}
            return dict(info, tags=[*info.get("tags", ()), (label, mode, call.token)])
    elif target == "get_running_app_processes":
        def fn(call, *reply):
            return [*(reply[0] if reply else ()),
                    {"name": label, "mode": mode, "token": call.token}]
    elif mode == AFTER:
        def fn(call, reply):
            return [label, call.token, reply]
    else:
        def fn(call):
            return [label, "replaced", call.token]
    return HookSpec(layer, target, mode, fn, label)


def _outcome(world, dispatch, caller: int, call: ApiCall):
    try:
        if world.container is None:
            return "reply", world.os.syscall(caller, call)
        return "reply", dispatch(world.os, world.container, caller, call)
    except ApiError as exc:
        return "error", type(exc), str(exc)


def _assert_same(real, ref_world, ref) -> None:
    expected = shared_tables(ref_world.os, ref_world.container)
    if ref_world.container is not None:
        expected.update(ref.stores())
    assert world_signature(real.os, real.container) == expected


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_dispatch_answers_to_the_reference(data):
    # Hooks over every layer, mode and target, installed and uninstalled in any
    # order; calls of every kind (the probe kinds and launches among them) from
    # any plugin; kills, sweeps and forks. The container and the reference give
    # equal replies or the same ApiError, and leave equal worlds, forked parents
    # included.
    real_built, (ref_built, ref_seed) = _dispatch_worlds()[data.draw(st.sampled_from(ENVIRONMENTS))]
    real, ref_world, ref = real_built.fork(), ref_built.fork(), ref_seed.fork()
    # A few kinds and launched names per example, so that hooks and calls meet
    # and a component is launched again.
    kinds = data.draw(st.lists(st.sampled_from(sorted(API_KINDS)), min_size=1, max_size=3,
                               unique=True))
    launched = data.draw(st.lists(st.sampled_from(_call_values()["name"]), min_size=1,
                                  max_size=3, unique=True))
    hooks = st.builds(_test_hook, st.sampled_from(LAYERS), st.sampled_from(kinds),
                      st.sampled_from(MODES), st.sampled_from((False, False, True)),
                      st.sampled_from(_HOOK_LABELS))
    parents = []
    _assert_same(real, ref_world, ref)
    for _ in range(data.draw(st.integers(0, 30))):
        op = data.draw(st.sampled_from(("call", "call", "launch", "observe", "install",
                                        "install", "uninstall", "kill", "tick", "fork")))
        c = real.container
        if op in ("call", "launch", "observe", "kill"):
            caller = data.draw(st.sampled_from(
                [real.probe_pid, *(sorted(c.plugin_processes.values()) if c else ())]))
            if op == "call":
                call = ApiCall(data.draw(st.sampled_from(kinds)), **data.draw(_call_fields()))
            elif op == "launch":
                call = ApiCall(data.draw(st.sampled_from(sorted(LAUNCH_KINDS))),
                               name=data.draw(st.sampled_from(launched)))
            elif op == "observe":  # the replies that name components
                call = ApiCall(data.draw(st.sampled_from(
                    ("get_running_services", "get_running_tasks", "get_recent_tasks"))))
            else:  # by the add-on's package, every other plugin process dies
                call = ApiCall("kill_background_processes",
                               package=c.addon_package if c else real.probe_manifest.package)
            assert (_outcome(real, plugin_syscall, caller, call)
                    == _outcome(ref_world, ref.plugin_syscall, caller, call))
        elif op == "fork":
            parents.append((real, ref_world, ref))
            real, ref_world, ref = real.fork(), ref_world.fork(), ref.fork()
        elif c is None:
            continue
        elif op == "install":
            hook = data.draw(hooks)
            install_hook(c, hook)
            ref.install_hook(ref_world.container, hook)
        elif op == "uninstall":
            dropped = data.draw(st.frozensets(st.sampled_from(_HOOK_LABELS + CLOAK_HOOK_LABELS)))
            assert uninstall_hooks(c, dropped) == ref.uninstall_hooks(ref_world.container, dropped)
        else:
            tick_services(real.os, c)
            ref.tick_services(ref_world.os, ref_world.container)
        _assert_same(real, ref_world, ref)
    for parent in parents:
        _assert_same(*parent)


# ---------------------------------------------------------------------------
# Plugin lifecycle as a state machine


_LIFECYCLE_PACKAGES = ("org.lifecycle.app0", "org.lifecycle.app1", "org.lifecycle.app2",
                       "org.victim.app")
# Two tags with a store and one without, which load_plugin refuses.
_PAYLOAD_TAGS = (None, "contacts", "sms", "calendar")


def _unique_components(kind: str, names, **fields):
    """Components of one kind over ``names``, each with one draw of ``fields``."""
    return st.lists(st.builds(functools.partial(Component, kind=kind), st.sampled_from(names),
                              **fields), max_size=len(names), unique_by=lambda comp: comp.name)


_OWN_MAIN = Component(".OwnMain", ACTIVITY, launcher=True)
# Names the add-on declares verbatim, and names that need one of its stubs;
# the last activity set needs five stubs, one more than the add-on has.
_lifecycle_plugins = st.builds(
    AppManifest,
    package=st.sampled_from(_LIFECYCLE_PACKAGES),
    activities=st.sampled_from(((), (_OWN_MAIN,),
                                (Component(".MainActivity", ACTIVITY, launcher=True),),
                                (_OWN_MAIN, *(Component(f".Own{i}", ACTIVITY) for i in range(4))))),
    services=_unique_components(SERVICE, (".SyncService", "QuickChatContactsService", ".Own"),
                                payload=st.sampled_from(_PAYLOAD_TAGS)),
    receivers=_unique_components(RECEIVER, (".MsgReceiver", ".OwnReceiver"),
                                 intents=st.sampled_from((("org.lifecycle.PING",), ()))),
    native_components=st.frozensets(st.sampled_from(("libown",))),
)


def _lifecycle_calls() -> list[ApiCall]:
    """Calls of every kind over the argument values of the dispatch test, a
    fixed sample: drawing each field anew would dominate the machine's time."""
    rng = random.Random(7)
    values = _call_values()
    return [ApiCall(kind, **{key: rng.choice([None, *vals]) for key, vals in values.items()})
            for kind in sorted(API_KINDS) for _ in range(8)]


class PluginLifecycle(RuleBasedStateMachine):
    """Loads, kills, sweeps, service restarts, hook changes and first runs in
    any order on a fork of the cloaked world. The one plugin table stays
    consistent with the OS process table, only ApiErrors cross plugin_syscall,
    a refused load (with every activity stub taken included) or first run
    changes nothing, and the exfiltration sink only grows, by at most one read
    per running payload service a sweep."""

    def __init__(self):
        super().__init__()
        world = _dispatch_worlds()[CLOAKED_ENV][0].fork()
        self.os, self.c = world.os, world.container
        self.victim, self.payload = world.probe_manifest.package, payload_manifest(world)
        self.sink = list(self.os.exfil_sink)
        self.plugin_pids = {record.pid for record in self.c.plugins.values()}

    def live_pids(self) -> list[int]:
        return sorted(r.pid for r in self.c.plugins.values() if r.pid in self.os.processes)

    def live_services(self) -> list[str]:
        """The live plugins that declare a service."""
        return sorted(p for p, r in self.c.plugins.items()
                      if r.pid in self.os.processes and r.manifest.services)

    def call(self, caller: int, call: ApiCall):
        """One plugin call; an ApiError is a reply, anything else fails the test."""
        try:
            return plugin_syscall(self.os, self.c, caller, call)
        except ApiError as exc:
            return exc

    @initialize(plugin=_lifecycle_plugins)
    def load_first(self, plugin):
        self.load(plugin)

    def signature(self) -> dict:
        return world_signature(self.os.fork(), self.c.fork())

    @rule(plugin=_lifecycle_plugins)
    def load(self, plugin):
        before = self.signature()
        try:
            load_plugin(self.os, self.c, plugin)
        except (AlreadyLoadedError, CatalogFetchError, ContainerGoneError, NoFreeStubError):
            assert world_signature(self.os, self.c) == before
            return
        record = self.c.plugins[plugin.package]
        assert record.manifest is plugin and record.pid in self.os.processes
        self.plugin_pids.add(record.pid)
        # The plugin opens each of its activities; each that needs a stub holds
        # one until the plugin is reaped, so stubs can run out.
        for activity in plugin.activities:
            self.call(record.pid, ApiCall("start_activity", name=activity.name))

    @rule()
    def first_run_again(self):
        # Refused before its first call while the victim or the payload is
        # still loaded (dead but not yet reaped included) or the container is dead.
        packages = (self.payload.package, self.victim)
        refusal = (ContainerGoneError if self.c.container_pid not in self.os.processes
                   else AlreadyLoadedError if set(packages) & self.c.plugins.keys() else None)
        before = self.signature()
        if refusal is not None:
            with pytest.raises(refusal):
                first_run(self.os, self.c, self.victim, self.payload)
            assert world_signature(self.os, self.c) == before
            return
        first_run(self.os, self.c, self.victim, self.payload)
        self.plugin_pids.update(self.c.plugins[p].pid for p in packages)

    @rule(data=st.data())
    def kill(self, data):
        # By the add-on's package: every other add-on process dies, from the
        # container's pid (which lives on) or a plugin's (which kills the container).
        callers = self.live_pids()
        container_alive = self.c.container_pid in self.os.processes
        if container_alive and (not callers or data.draw(st.booleans())):
            self.os.syscall(self.c.container_pid, ApiCall("kill_background_processes",
                                                          package=self.c.addon_package))
        elif callers:
            self.call(data.draw(st.sampled_from(callers)),
                      ApiCall("kill_background_processes", package=self.c.addon_package))

    def sweep_bound(self) -> int:
        """The records one read by each running payload service returns, read on a fork."""
        os, c, bound = self.os.fork(), self.c.fork(), 0
        stub_of = {key: stub for stub, key in c.stub_assignments.items()}
        for package, record in c.plugins.items():
            proc = os.processes.get(record.pid)
            for service in record.manifest.services if proc is not None else ():
                wire_name = stub_of.get((package, SERVICE, service.name), service.name)
                if service.payload is not None and wire_name in proc.running_services:
                    read = ApiCall("access_resource", store=perms.PAYLOAD_STORES[service.payload])
                    try:
                        bound += len(plugin_syscall(os, c, record.pid, read))
                    except ApiError:
                        pass
        return bound

    @rule()
    def tick(self):
        bound, before = self.sweep_bound(), len(self.os.exfil_sink)
        tick_services(self.os, self.c)
        assert all(r.pid in self.os.processes for r in self.c.plugins.values())
        assert len(self.os.exfil_sink) - before <= bound

    @precondition(lambda self: self.live_services())
    @rule(data=st.data())
    def start_service_twice(self, data):
        package = data.draw(st.sampled_from(self.live_services()))
        record = self.c.plugins[package]
        name = data.draw(st.sampled_from([s.name for s in record.manifest.services]))
        first = self.call(record.pid, ApiCall("start_service", name=name))
        second = self.call(record.pid, ApiCall("start_service", name=name))
        assert type(first) is type(second)
        running = self.os.processes[record.pid].running_services
        assert len(running) == len(set(running))

    @precondition(lambda self: self.live_pids())
    @rule(data=st.data(), call=st.deferred(lambda: st.sampled_from(_lifecycle_calls())))
    def any_call(self, data, call):
        self.call(data.draw(st.sampled_from(self.live_pids())), call)

    @rule(hook=st.builds(_test_hook, st.sampled_from(LAYERS),
                         st.sampled_from(("access_resource", "start_service",
                                          "get_application_info", "get_running_services")),
                         st.sampled_from(MODES), st.sampled_from((False, False, True)),
                         st.sampled_from(_HOOK_LABELS)))
    def install(self, hook):
        install_hook(self.c, hook)

    @rule(labels=st.frozensets(st.sampled_from(_HOOK_LABELS + CLOAK_HOOK_LABELS)))
    def uninstall(self, labels):
        uninstall_hooks(self.c, labels)

    @precondition(lambda self: self.c.container_pid in self.os.processes and all(
        s.name in self.c.stub_assignments for s in self.c.stub_components if s.kind == ACTIVITY))
    @invariant()
    def full_stubs_refuse_a_load(self):
        # With every activity stub taken, a launcher that needs one loads
        # nothing: tried on a fork, so the machine's state stays as it is.
        os, c = self.os.fork(), self.c.fork()
        before = world_signature(os.fork(), c.fork())
        with pytest.raises(NoFreeStubError):
            load_plugin(os, c, AppManifest("org.lifecycle.late", activities=(_OWN_MAIN,)))
        assert world_signature(os, c) == before

    @invariant()
    def dead_plugins_are_gone(self):
        for pid in self.plugin_pids - set(self.os.processes):
            with pytest.raises(PluginGoneError):
                plugin_syscall(self.os, self.c, pid, ApiCall("get_installed_packages"))

    @invariant()
    def sink_only_grows(self):
        assert self.os.exfil_sink[:len(self.sink)] == self.sink
        self.sink = list(self.os.exfil_sink)


PluginLifecycle.TestCase.settings = settings(max_examples=100, stateful_step_count=30,
                                             deadline=None)
test_plugin_lifecycle = PluginLifecycle.TestCase
