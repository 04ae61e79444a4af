from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from appvirtsim.manifest import ACTIVITY, AppManifest, SERVICE
from appvirtsim import defaults, permissions as perms
from appvirtsim.simos import (
    LAUNCH_KINDS,
    AlreadyInstalledError,
    ApiCall,
    ApiError,
    ComponentNotRegisteredError,
    PackageNotFoundError,
    PermissionDeniedError,
    SimOs,
    StaticReceiverError,
    UnknownCommandError,
    UnknownPackageError,
    UnknownReceiverError,
)


@pytest.fixture
def os_world(victim):
    os = SimOs()
    os.install(victim)
    return os


def native_pid(os, package):
    record = os.registry[package]
    return os.spawn_process(package, package, [record.apk_path,
                                               f"/data/app/{package}/lib/libmain.so"])


def test_install_native_paths(os_world, victim):
    record = os_world.registry[victim.package]
    assert record.data_dir == "/data/data/org.victim.app"
    assert record.apk_path == "/data/app/org.victim.app/base.apk"
    assert record.granted_permissions == set(victim.permissions)
    assert record.static_receivers == {".MsgReceiver"}


def test_package_record_is_frozen(os_world, victim):
    record = os_world.registry[victim.package]
    with pytest.raises(FrozenInstanceError):
        record.granted_permissions = frozenset()


def test_process_row_is_frozen(os_world, victim):
    pid = native_pid(os_world, victim.package)
    with pytest.raises(FrozenInstanceError):
        os_world.processes[pid].running_services = ()


def test_install_twice_rejected(os_world, victim):
    with pytest.raises(AlreadyInstalledError):
        os_world.install(victim)


def test_installs_get_distinct_uids(os_world, victim, template):
    os_world.install(template)
    assert os_world.registry[victim.package].uid != os_world.registry[template.package].uid


def test_spawn_requires_install(os_world):
    with pytest.raises(UnknownPackageError):
        os_world.spawn_process("no.such.pkg", "x", [])


def test_pids_strictly_increase(os_world, victim):
    first = native_pid(os_world, victim.package)
    second = os_world.spawn_process(victim.package, "worker", [])
    assert second > first


def test_get_installed_packages_lists_everything(os_world, victim, template):
    os_world.install(template)
    pid = native_pid(os_world, victim.package)
    installed = os_world.syscall(pid, ApiCall("get_installed_packages"))
    assert installed == sorted([victim.package, template.package])


def test_get_package_info(os_world, victim):
    pid = native_pid(os_world, victim.package)
    info = os_world.syscall(pid, ApiCall("get_package_info", package=victim.package))
    assert info["package"] == victim.package
    assert info["version"] == victim.version
    assert [tuple(c) for c in info["components"]] == [
        (c.kind, c.name) for c in victim.components()
    ]
    with pytest.raises(PackageNotFoundError):
        os_world.syscall(pid, ApiCall("get_package_info", package="ghost.app"))


def test_check_permission(os_world, victim):
    pid = native_pid(os_world, victim.package)
    granted = os_world.syscall(
        pid, ApiCall("check_permission", permission=perms.READ_CONTACTS))
    denied = os_world.syscall(
        pid, ApiCall("check_permission", permission=perms.CAMERA))
    assert (granted, denied) == ("granted", "denied")


def test_tasks_restricted_to_own_package(os_world, victim, companion):
    os_world.install(companion)
    victim_pid = native_pid(os_world, victim.package)
    companion_pid = native_pid(os_world, companion.package)
    os_world.syscall(victim_pid, ApiCall("start_activity", name=".MainActivity"))
    os_world.syscall(companion_pid, ApiCall("start_activity", name=".CompanionMain"))
    tasks = os_world.syscall(victim_pid, ApiCall("get_running_tasks"))
    assert tasks == [[ACTIVITY, ".MainActivity"]]
    recents = os_world.syscall(companion_pid, ApiCall("get_recent_tasks"))
    assert recents == [[ACTIVITY, ".CompanionMain"]]


def test_access_resource_iff_guard_granted():
    # Exhaustive over every (store, permission set) pair.
    os = SimOs()
    for store, guard in perms.STORE_GUARDS.items():
        os.seed_store(store, [f"{store}-record"])
    pids = {}
    for i, (store, guard) in enumerate(sorted(perms.STORE_GUARDS.items())):
        m = AppManifest(package=f"probe.holder{i}", permissions={guard})
        os.install(m)
        pids[store] = os.spawn_process(m.package, m.package, [])
    for store in perms.STORE_GUARDS:
        for holder_store, pid in pids.items():
            call = ApiCall("access_resource", store=store)
            if holder_store == store:
                assert os.syscall(pid, call) == [f"{store}-record"]
            else:
                with pytest.raises(PermissionDeniedError):
                    os.syscall(pid, call)


def test_proc_maps_verbatim(os_world, victim):
    pid = os_world.spawn_process(victim.package, victim.package,
                                 ["/data/app/org.victim.app/base.apk", "/weird/lib.so"])
    maps = os_world.syscall(pid, ApiCall("read_proc_maps"))
    assert maps == ["/data/app/org.victim.app/base.apk", "/weird/lib.so"]


def test_exec_shell_ps_and_ls(os_world, victim):
    pid = native_pid(os_world, victim.package)
    ps = os_world.syscall(pid, ApiCall("exec_shell", cmd="ps"))
    uid = os_world.registry[victim.package].uid
    assert ps == f"{pid} {uid} {victim.package}"
    ls = os_world.syscall(pid, ApiCall("exec_shell", cmd="ls"))
    assert ls.splitlines() == ["cache", "files", "shared_prefs"]
    with pytest.raises(UnknownCommandError):
        os_world.syscall(pid, ApiCall("exec_shell", cmd="frob"))


def test_shortcut_requires_permission(os_world, victim):
    pid = native_pid(os_world, victim.package)
    with pytest.raises(PermissionDeniedError):
        os_world.syscall(pid, ApiCall("create_shortcut", label="x", icon="y",
                                      target_package=victim.package))


def test_shortcut_duplicates_append(os_world, template):
    os_world.install(template)  # template holds INSTALL_SHORTCUT
    pid = native_pid(os_world, template.package)
    call = ApiCall("create_shortcut", label="QuickChat", icon="ic.png",
                   target_package=template.package)
    os_world.syscall(pid, call)
    os_world.syscall(pid, call)
    assert os_world.shortcuts == [("QuickChat", "ic.png", template.package)] * 2


def test_kill_background_processes(os_world, victim, template):
    os_world.install(template)
    victim_pid = native_pid(os_world, victim.package)
    killer = native_pid(os_world, template.package)
    count = os_world.syscall(
        killer, ApiCall("kill_background_processes", package=victim.package))
    assert count == 1
    assert victim_pid not in os_world.processes
    again = os_world.syscall(
        killer, ApiCall("kill_background_processes", package=victim.package))
    assert again == 0
    unprivileged = native_pid(os_world, victim.package)
    with pytest.raises(PermissionDeniedError):
        os_world.syscall(unprivileged,
                         ApiCall("kill_background_processes", package=template.package))


def test_kill_drops_dynamic_receivers_of_a_dead_uid(os_world, victim, template):
    os_world.install(template)
    victim_pid = native_pid(os_world, victim.package)
    killer = native_pid(os_world, template.package)
    for pid in (victim_pid, killer):
        os_world.syscall(pid, ApiCall("register_receiver", name=".Live",
                                      actions=("app.PING",)))
    victim_uid = os_world.registry[victim.package].uid
    killer_uid = os_world.registry[template.package].uid
    os_world.syscall(killer, ApiCall("kill_background_processes", package=victim.package))
    assert (victim_uid, ".Live") not in os_world.dynamic_receivers
    delivered = os_world.syscall(killer, ApiCall("send_broadcast", action="app.PING"))
    assert delivered == [[f"uid:{killer_uid}", ".Live"]]


def test_dynamic_receiver_lifecycle(os_world, victim):
    pid = native_pid(os_world, victim.package)
    os_world.syscall(pid, ApiCall("register_receiver", name=".Live",
                                  actions=("app.PING",)))
    delivered = os_world.syscall(pid, ApiCall("send_broadcast", action="app.PING"))
    uid = os_world.registry[victim.package].uid
    assert [f"uid:{uid}", ".Live"] in delivered
    os_world.syscall(pid, ApiCall("unregister_receiver", name=".Live"))
    assert os_world.syscall(pid, ApiCall("send_broadcast", action="app.PING")) == []
    with pytest.raises(UnknownReceiverError):
        os_world.syscall(pid, ApiCall("unregister_receiver", name=".Live"))


def test_static_receiver_rejects_unregister(os_world, victim):
    pid = native_pid(os_world, victim.package)
    with pytest.raises(StaticReceiverError):
        os_world.syscall(pid, ApiCall("unregister_receiver", name=".MsgReceiver"))
    delivered = os_world.syscall(
        pid, ApiCall("send_broadcast", action="org.victim.app.NEW_MESSAGE"))
    assert delivered == [[victim.package, ".MsgReceiver"]]


def test_broadcast_with_no_receivers(os_world, victim):
    pid = native_pid(os_world, victim.package)
    assert os_world.syscall(pid, ApiCall("send_broadcast", action="nothing.HERE")) == []


def test_set_component_enabled(os_world, victim):
    pid = native_pid(os_world, victim.package)
    reply = os_world.syscall(pid, ApiCall(
        "set_component_enabled", component_kind=ACTIVITY, name=".MainActivity"))
    assert reply == {"component": ".MainActivity", "enabled": True}
    with pytest.raises(ComponentNotRegisteredError):
        os_world.syscall(pid, ApiCall(
            "set_component_enabled", component_kind=SERVICE, name=".Ghost"))


def test_start_service_records_running(os_world, victim):
    pid = native_pid(os_world, victim.package)
    os_world.syscall(pid, ApiCall("start_service", name=".SyncService"))
    services = os_world.syscall(pid, ApiCall("get_running_services"))
    assert services == [".SyncService"]


def test_second_start_service_keeps_one_entry_while_activities_stack(os_world, victim):
    pid = native_pid(os_world, victim.package)
    for _ in range(2):
        os_world.syscall(pid, ApiCall("start_service", name=".SyncService"))
        os_world.syscall(pid, ApiCall("start_activity", name=".MainActivity"))
    assert os_world.processes[pid].running_services == (".SyncService",)
    assert os_world.processes[pid].running_task_components == (
        (ACTIVITY, ".MainActivity"), (ACTIVITY, ".MainActivity"),
    )


def test_exfil_sink_only_grows(os_world):
    before = len(os_world.exfil_sink)
    os_world.exfil_sink.append(("contacts", "r1"))
    assert len(os_world.exfil_sink) == before + 1


def test_api_call_rejects_unknown_kind_on_construction_and_replace():
    with pytest.raises(ValueError, match="unknown api call kind: 'bogus'"):
        ApiCall("bogus")
    with pytest.raises(ValueError, match="unknown api call kind: 'bogus'"):
        ApiCall("exec_shell", cmd="ps")._replace(kind="bogus")


def test_api_call_stores_actions_as_a_tuple():
    call = ApiCall("register_receiver", name=".R", actions=["A", "B"])
    assert call.actions == ("A", "B") and type(call.actions) is tuple
    assert type(call._replace(actions=["C"]).actions) is tuple


def test_api_call_is_immutable():
    call = ApiCall("exec_shell", cmd="ps")
    with pytest.raises(AttributeError):
        call.cmd = "ls"
    with pytest.raises(AttributeError):
        call.extra = 1


def test_api_call_replace_returns_an_api_call():
    call = ApiCall("exec_shell", cmd="ps")
    rewritten = call._replace(cmd="ls")
    assert type(rewritten) is ApiCall
    assert rewritten.cmd == "ls" and call.cmd == "ps"


def test_equal_api_calls_hash_equal():
    first = ApiCall("start_activity", name=".Main", actions=["A"])
    second = ApiCall(kind="start_activity", name=".Main", actions=("A",))
    assert first == second and hash(first) == hash(second)
    assert first != first._replace(name=".Other")
    assert first == tuple(first)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_process_table_stays_in_pid_order(data):
    # The calls that list processes iterate the table as it stands, which is
    # pid order only while no spawn, launch, kill or fork reorders it.
    os = SimOs()
    manifests = [os.install(m).manifest for m in (defaults.default_victim(),
                                                  defaults.default_template(),
                                                  defaults.default_companion())]
    packages = [m.package for m in manifests]
    components = sorted({(kind, comp.name) for m in manifests for comp in m.components()
                         for kind, launched in LAUNCH_KINDS.items() if launched == comp.kind})
    for _ in range(data.draw(st.integers(1, 25))):
        op = data.draw(st.sampled_from(("spawn", "spawn", "launch", "launch", "kill", "fork")))
        if op == "spawn":
            package = data.draw(st.sampled_from(packages))
            os.spawn_process(package, package, [])
        elif op == "fork":
            os = os.fork()
        elif os.processes:
            caller = data.draw(st.sampled_from(list(os.processes)))
            if op == "launch":
                kind, name = data.draw(st.sampled_from(components))
                call = ApiCall(kind, name=name)
            else:  # only the template holds KILL_BACKGROUND_PROCESSES
                call = ApiCall("kill_background_processes",
                               package=data.draw(st.sampled_from(packages)))
            try:
                os.syscall(caller, call)
            except ApiError:
                pass
        assert list(os.processes) == sorted(os.processes)
