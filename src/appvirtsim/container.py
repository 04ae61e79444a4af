"""The virtualization engine hosted inside an installed add-on.

A container loads plugin apps that are not (necessarily) installed, forks
each into its own process under the add-on's UID, and routes every plugin
system call through a dispatch pipeline:

    lowlevel before/replace hooks -> proxy before/replace hooks
      -> baseline component-name rewriting -> os.syscall (container identity)
      -> baseline reply rewriting -> after hooks in reverse order

Baseline rewriting is the virtualization mechanic itself: component launch
requests carry a pre-declared stub name on the wire (or the component's own
name when the add-on manifest declares it verbatim), replies are rewritten
back, and application-info queries for a loaded plugin report the plugin's
private directory under the add-on. A launch of a component the plugin's
own manifest does not declare takes no stub: it is a
ComponentNotRegisteredError, as it is natively. Hooks layer attack/bypass
behavior on top of that baseline.

``ContainerState.addon`` is the registry's record of the add-on; its manifest's
stub-flagged components are the stubs. Each loaded plugin is one PluginRecord
in ``plugins`` and each assigned stub one entry in ``stub_assignments``; callers
read all three directly. ``plugin_processes`` (package -> pid) is a read-only view.
``_require_loadable`` is the one load rule; every load checks it before its first write.

All mutation happens through the owning scenario thread; simulated
background services advance only when tick_services is called.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from types import MappingProxyType
from typing import Callable, Mapping

from .manifest import ACTIVITY, KIND_KEYS, AppManifest, launcher_activity
from .permissions import PAYLOAD_STORES
from .simos import (
    API_KINDS,
    LAUNCH_KINDS,
    STORE_READS,
    AccessDeniedError,
    ApiCall,
    ApiError,
    ComponentNotRegisteredError,
    PackageRecord,
    SimOs,
    SimOsError,
    UnknownPackageError,
)

PLUGIN_ROOT = "Plugin"  # a plugin's own directory is <add-on data dir>/Plugin/<package>

PROXY = "proxy"
LOWLEVEL = "lowlevel"
LAYERS = (PROXY, LOWLEVEL)

BEFORE = "before"
AFTER = "after"
REPLACE = "replace"
MODES = (BEFORE, AFTER, REPLACE)

# Labels of the four bypass hooks, in installation order.
HOOK_PROCESS_NAMES = "rewrite-process-names"
HOOK_EXEC_PS = "exec-ps-to-ls"
HOOK_DATA_DIR = "native-data-dir"
HOOK_PROC_MAPS = "deny-proc-maps"
CLOAK_HOOK_LABELS = (HOOK_PROCESS_NAMES, HOOK_EXEC_PS, HOOK_DATA_DIR, HOOK_PROC_MAPS)


class ContainerError(SimOsError):
    pass


class AlreadyLoadedError(ContainerError):
    pass


class NotAPluginError(ContainerError):
    pass


class CatalogFetchError(ContainerError):
    pass


class ContainerGoneError(ContainerError):
    pass


class NoFreeStubError(ApiError):
    reason = "no_free_stub"


class PluginGoneError(ApiError):
    reason = "plugin_gone"


@dataclass(frozen=True)
class HookSpec:
    """One interception rule on the calls of one API kind (``target``).

    ``fn``'s signature depends on ``mode``: a before hook maps a call to a
    call, an after hook maps (call, reply) to a reply, and a replace hook
    maps a call to a reply; the underlying call is then never made. Any
    hook may raise an ApiError to synthesize a failure. Hooks on one target
    compose in installation order (after-phase runs in reverse).
    """

    layer: str
    target: str
    mode: str
    fn: Callable[..., object]
    label: str = ""

    def __post_init__(self) -> None:
        if self.layer not in LAYERS:
            raise ValueError(f"unknown hook layer: {self.layer!r}")
        if self.target not in API_KINDS:
            raise ValueError(f"unknown hook target: {self.target!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown hook mode: {self.mode!r}")


@dataclass(frozen=True)
class PluginRecord:
    """One loaded plugin: its manifest, its process, and its code path and private directory."""

    manifest: AppManifest
    pid: int
    apk_path: str
    data_dir: str


@dataclass
class ContainerState:
    addon: PackageRecord  # the registry's own record of the add-on; its manifest has the stubs
    container_pid: int
    # The one plugin store, package -> PluginRecord; view: plugin_processes.
    plugins: dict[str, PluginRecord] = field(default_factory=dict)
    # The one stub store, stub -> (plugin package, kind, real name).
    stub_assignments: dict[str, tuple[str, str, str]] = field(default_factory=dict)
    # Plugins ever loaded; numbers process names, which a reap never frees.
    plugin_loads: int = 0
    run_log: list[dict] = field(default_factory=list)
    # The one hook store: target -> hooks in dispatch order (install_hook); view: hooks.
    hooks_by_target: dict[str, tuple[HookSpec, ...]] = field(default_factory=dict)

    @property
    def hooks(self) -> tuple[HookSpec, ...]:
        """Read-only view of ``hooks_by_target``: target by target, each in dispatch order."""
        return tuple(h for group in self.hooks_by_target.values() for h in group)

    @property
    def plugin_processes(self) -> Mapping[str, int]:
        """Read-only view of ``plugins``: package -> the plugin's pid."""
        return MappingProxyType({p: r.pid for p, r in self.plugins.items()})

    def fork(self) -> ContainerState:
        """An independent copy: the plugin, stub and hook stores and the run log
        are copied shallowly; ``hooks`` and ``plugin_processes`` derive from the
        copies. The frozen add-on and plugin records, hook groups (tuples that
        install and uninstall rebind) and the run-log entry dicts are shared:
        nothing writes an entry once appended, and the report document copies
        each one. Each field is set directly, without the constructor, as
        ``SimOs.fork`` does."""
        other = ContainerState.__new__(ContainerState)
        other.addon = self.addon
        other.container_pid = self.container_pid
        other.plugins = dict(self.plugins)
        other.stub_assignments = dict(self.stub_assignments)
        other.plugin_loads = self.plugin_loads
        other.run_log = list(self.run_log)
        other.hooks_by_target = dict(self.hooks_by_target)
        return other


def create_container(os: SimOs, addon: AppManifest) -> ContainerState:
    """Open an empty virtual environment inside an installed add-on."""
    record = os.registry.get(addon.package)
    if record is None:
        raise UnknownPackageError(f"{addon.package} is not installed")
    pid = os.spawn_process(
        addon.package,
        name=addon.package,
        maps=[record.apk_path, f"/data/app/{addon.package}/lib/libhost.so"],
    )
    os.mkdir(f"{record.data_dir}/{PLUGIN_ROOT}")
    return ContainerState(addon=record, container_pid=pid)


def _require_container(os: SimOs, c: ContainerState) -> None:
    """The one rule for a dead container: nothing more runs in it."""
    if c.container_pid not in os.processes:
        raise ContainerGoneError(
            f"{c.addon.manifest.package}: container process {c.container_pid} is gone")


def _require_loadable(c: ContainerState, plugin: AppManifest) -> None:
    """The one rule for a plugin to load: not loaded yet, each payload tag names a
    store, and a launcher has a free stub (or one the add-on declares verbatim); a
    replace hook on ``start_activity`` does not stand in for a stub. Writes nothing."""
    if plugin.package in c.plugins:
        raise AlreadyLoadedError(f"{plugin.package} is already loaded")
    for svc in plugin.services:
        if svc.payload is not None and svc.payload not in PAYLOAD_STORES:
            raise CatalogFetchError(f"{svc.name}: unknown payload tag {svc.payload!r}")
    if (launcher := launcher_activity(plugin)) is not None:
        _stub_out(c, (plugin.package, ACTIVITY, launcher.name))


def load_plugin(os: SimOs, c: ContainerState, plugin: AppManifest) -> int:
    """Fork a shared-UID process for a plugin and wire it into the environment.

    The container decides the plugin's file layout. Its private directory is
    ``<add-on data dir>/Plugin/<package>``. Its code is the native APK when
    the package happens to be installed on the device, and
    ``<add-on data dir>/Plugin/<package>/base.apk`` otherwise; application-info
    queries for the plugin report both. The plugin itself is not installed:
    its receivers are registered dynamically, and its launcher activity
    (when present) is opened through the dispatch pipeline. A load refused by
    ``_require_container`` or ``_require_loadable`` raises before any spawn.
    """
    _require_container(os, c)
    _require_loadable(c, plugin)
    data_dir = f"{c.addon.data_dir}/{PLUGIN_ROOT}/{plugin.package}"
    record = os.registry.get(plugin.package)
    apk_path = record.apk_path if record is not None else f"{data_dir}/base.apk"
    host = c.addon.manifest.package
    pid = os.spawn_process(host, name=f"{host}:p{c.plugin_loads + 1}",
                           maps=[c.addon.apk_path, apk_path])
    c.plugin_loads += 1
    os.mkdir(data_dir)
    c.plugins[plugin.package] = PluginRecord(plugin, pid, apk_path, data_dir)
    for receiver in plugin.receivers:
        os.syscall(pid, ApiCall("register_receiver", name=receiver.name,
                                actions=receiver.intents))
    for native in sorted(plugin.native_components):
        os.syscall(pid, ApiCall("native_blob_write", name=native,
                                token=f"init:{plugin.package}"))
    if (launcher := launcher_activity(plugin)) is not None:
        plugin_syscall(os, c, pid, ApiCall("start_activity", name=launcher.name))
    return pid


def install_hook(c: ContainerState, h: HookSpec) -> None:
    """Add ``h`` to its target's group in ``hooks_by_target``: a lowlevel hook after
    the group's last lowlevel hook, a proxy hook at the end. Duplicates compose."""
    group = c.hooks_by_target.get(h.target, ())
    at = sum(x.layer == LOWLEVEL for x in group) if h.layer == LOWLEVEL else len(group)
    c.hooks_by_target[h.target] = group[:at] + (h,) + group[at:]


def uninstall_hooks(c: ContainerState, labels) -> int:
    """Drop every hook whose label is in ``labels`` from its group in
    ``hooks_by_target``, and every emptied group; returns the count removed."""
    wanted, before = set(labels), len(c.hooks)
    c.hooks_by_target = {target: kept for target, group in c.hooks_by_target.items()
                         if (kept := tuple(h for h in group if h.label not in wanted))}
    return before - len(c.hooks)


# ---------------------------------------------------------------------------
# Dispatch


def _stub_out(c: ContainerState, key: tuple[str, str, str]) -> str | None:
    """The stub a launch of ``key`` (plugin package, kind, name) goes out
    under: the one assigned to it, else the first free stub of its kind; None
    when the add-on declares the component verbatim. Assigns nothing."""
    package, kind, name = key
    declared = c.addon.manifest.component(kind, name)
    if declared is not None and not declared.stub:
        return None
    for stub_name, assigned in c.stub_assignments.items():
        if assigned == key:
            return stub_name
    for stub in getattr(c.addon.manifest, KIND_KEYS[kind]):
        if stub.stub and stub.name not in c.stub_assignments:
            return stub.name
    raise NoFreeStubError(f"no free {kind} stub left for {package}/{name}")


def _map_name_back(c: ContainerState, name: str) -> str:
    assigned = c.stub_assignments.get(name)
    return assigned[2] if assigned is not None else name


def plugin_syscall(os: SimOs, c: ContainerState, caller: int, call: ApiCall):
    """Run one plugin call through hooks, baseline rewriting, and the OS."""
    if caller not in os.processes:  # a dead plugin may already be reaped
        raise PluginGoneError(f"{c.addon.manifest.package}: process {caller} is gone")
    for plugin_package, record in c.plugins.items():
        if record.pid == caller:
            break
    else:
        raise NotAPluginError(
            f"pid {caller} is not a plugin process of {c.addon.manifest.package}")

    on_target = c.hooks_by_target.get(call.kind)
    replacement = None
    if on_target:
        for hook in on_target:
            if hook.mode == BEFORE:
                call = hook.fn(call)
            elif hook.mode == REPLACE and replacement is None:
                replacement = hook

    kind = call.kind
    if replacement is not None:
        reply = replacement.fn(call)
    elif kind == "get_application_info" and (plugin := c.plugins.get(call.package)) is not None:
        reply = {"package": call.package, "source_dir": plugin.apk_path, "data_dir": plugin.data_dir}
    elif kind in LAUNCH_KINDS:  # launches go out under a stub; an undeclared one takes none
        launched, name = LAUNCH_KINDS[kind], call.name or ""
        if record.manifest.component(launched, name) is None:
            raise ComponentNotRegisteredError.of(launched, name, plugin_package)
        key = (plugin_package, launched, name)
        if (stub_name := _stub_out(c, key)) is not None:
            c.stub_assignments[stub_name] = key
        reply = _map_name_back(c, os.syscall(caller, call._replace(name=stub_name or name)))
    else:
        reply = os.syscall(caller, call)
        if kind == "get_running_services":  # replies name components by their stub
            reply = [_map_name_back(c, name) for name in reply]
        elif kind in ("get_running_tasks", "get_recent_tasks"):
            reply = [[task_kind, _map_name_back(c, name)] for task_kind, name in reply]

    if on_target:
        for hook in reversed(on_target):
            if hook.mode == AFTER:
                reply = hook.fn(call, reply)
    return reply


# ---------------------------------------------------------------------------
# Bypass hookset


def _ps_to_ls(call: ApiCall) -> ApiCall:
    return call._replace(cmd="ls") if call.cmd == "ps" else call


def _native_data_dir(call: ApiCall, reply):
    return dict(reply, data_dir=f"/data/data/{reply['package']}")


def _deny_maps(call: ApiCall):
    raise AccessDeniedError("access to /proc/self/maps is disabled")


# The three hooks that do not depend on the victim, built once and shared.
_EXEC_PS_HOOK = HookSpec(LOWLEVEL, "exec_shell", BEFORE, _ps_to_ls, HOOK_EXEC_PS)
_DATA_DIR_HOOK = HookSpec(PROXY, "get_application_info", AFTER, _native_data_dir, HOOK_DATA_DIR)
_PROC_MAPS_HOOK = HookSpec(LOWLEVEL, "read_proc_maps", REPLACE, _deny_maps, HOOK_PROC_MAPS)


def install_cloaking_hookset(c: ContainerState, victim_package: str) -> None:
    """Install the four bypass hooks a disguised add-on ships.

    (a) every reported process name becomes the victim's process name;
    (b) shell "ps" is executed as "ls"; (c) application info reports the
    native private-directory pattern; (d) process-map reads are denied
    outright (covers both the foreign-APK and foreign-library checks).
    Only (a) names the victim and is built per call; (b) to (d) are
    module-level HookSpecs that every cloaked container shares.
    """

    def rename_processes(call: ApiCall, reply):
        return [dict(entry, name=victim_package) for entry in reply]

    install_hook(c, HookSpec(PROXY, "get_running_app_processes", AFTER,
                             rename_processes, HOOK_PROCESS_NAMES))
    for hook in (_EXEC_PS_HOOK, _DATA_DIR_HOOK, _PROC_MAPS_HOOK):
        install_hook(c, hook)


# ---------------------------------------------------------------------------
# First run and background services


def _log(c: ContainerState, step: str, **fields) -> None:
    """Append a run-log entry: the one place an entry is shaped, its step first."""
    c.run_log.append({"step": step, **fields})


def first_run(os: SimOs, c: ContainerState, victim_package: str,
              malicious: AppManifest) -> list[dict]:
    """The add-on's first execution, in order.

    Stops the victim's native process, plants a shortcut that looks like the
    victim but targets the add-on, fetches the ``malicious`` payload manifest
    (handed over in memory, as ``customize`` built it), loads it as a
    background plugin with every service started, then loads the victim,
    whose launcher comes to the front. ``load_plugin`` places each: the
    payload's code under the plugin root, the victim's at its installed APK.
    Every refusal comes before the first system call and changes nothing: a
    ContainerGoneError, an UnknownPackageError, a CatalogFetchError (a payload
    naming the victim, declaring a launcher or with a tag with no store), an
    AlreadyLoadedError or a NoFreeStubError (the victim's launcher has no stub).
    """
    _require_container(os, c)
    victim_record = os.registry.get(victim_package)
    if victim_record is None:
        raise UnknownPackageError(f"victim {victim_package} is not installed")
    if malicious.package == victim_package:
        raise CatalogFetchError(f"the payload manifest names the victim {victim_package}")
    if launcher_activity(malicious) is not None:
        raise CatalogFetchError(f"the payload manifest {malicious.package} declares a launcher")
    for plugin in (malicious, victim_record.manifest):
        _require_loadable(c, plugin)

    killed = os.syscall(
        c.container_pid, ApiCall("kill_background_processes", package=victim_package)
    )
    _log(c, "kill_victim", package=victim_package, killed=killed)

    addon = c.addon.manifest
    label = addon.shortcut_label or victim_record.manifest.label
    icon = addon.shortcut_icon or victim_record.manifest.launcher_icon
    if (label, icon, addon.package) in os.shortcuts:
        _log(c, "warning", detail=f"shortcut ({label}, {icon}) already exists; creating another")
    os.syscall(c.container_pid, ApiCall(
        "create_shortcut", label=label, icon=icon, target_package=addon.package
    ))
    _log(c, "create_shortcut", label=label, icon=icon, target=addon.package)

    _log(c, "fetch_payload", document=f"{malicious.package}.json", package=malicious.package)

    payload_pid = load_plugin(os, c, malicious)
    started = []
    for service in malicious.services:
        try:
            plugin_syscall(os, c, payload_pid, ApiCall("start_service", name=service.name))
            started.append(service.name)
        except ApiError as exc:
            _log(c, "warning", detail=f"service {service.name} failed to start: {exc}")
    _log(c, "start_payload_services", package=malicious.package, pid=payload_pid,
         services=started)

    victim_pid = load_plugin(os, c, victim_record.manifest)
    _log(c, "load_victim", package=victim_package, pid=victim_pid,
         foreground=launcher_activity(victim_record.manifest) is not None)
    return c.run_log


def _reap_plugin(os: SimOs, c: ContainerState, package: str) -> None:
    """Forget a plugin whose process died: its bookkeeping, its stubs (free
    for the next launch) and its receivers under the shared UID that no live
    plugin also declares."""
    manifest = c.plugins.pop(package).manifest
    for stub_name in [s for s, key in c.stub_assignments.items() if key[0] == package]:
        del c.stub_assignments[stub_name]
    kept = {r.name for p in c.plugins.values() for r in p.manifest.receivers}
    for receiver in manifest.receivers:
        if receiver.name not in kept:
            os.dynamic_receivers.pop((c.addon.uid, receiver.name), None)


def tick_services(os: SimOs, c: ContainerState) -> None:
    """One synchronous sweep of every running payload service.

    Each service (found by its own name when it runs under a stub) reads its
    payload store under the shared UID and appends (payload tag, record)
    pairs to the exfiltration sink. A denied read is logged, never raised:
    the corresponding permission simply is not there. A plugin whose process
    was killed is reaped with a logged warning.
    """
    sink = os.exfil_sink
    for package, record in list(c.plugins.items()):
        proc = os.processes.get(record.pid)
        if proc is None:
            _log(c, "warning", detail=f"{package}: process {record.pid} is gone; not ticked")
            _reap_plugin(os, c, package)
            continue
        services = record.manifest.services
        for wire_name in proc.running_services:
            name = _map_name_back(c, wire_name)
            for service in services:
                if service.name == name:
                    break
            else:
                continue
            tag = service.payload
            if tag is None:
                continue
            try:
                records = plugin_syscall(os, c, record.pid, STORE_READS[PAYLOAD_STORES[tag]])
            except ApiError as exc:
                _log(c, "warning",
                     detail=f"{service.name}: {PAYLOAD_STORES[tag]} read denied ({exc})")
                continue
            sink.extend(zip(repeat(tag), records))
