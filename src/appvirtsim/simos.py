"""The miniature operating-system surface.

One SimOs instance is one device: a package registry with per-package UIDs,
a process table, simulated filesystem paths, broadcast registrations,
permission-guarded data stores, and the system-call surface that container
proxies wrap and detection probes call.

A SimOs is a single mutable world driven sequentially by one owner; distinct
instances are independent, and ``SimOs.fork`` branches one into another.
Every row and value the tables hold is immutable (a frozen dataclass, tuple
or frozenset), and a change stores a new one, so a fork copies only tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .manifest import ACTIVITY, PROVIDER, SERVICE, AppManifest
from .permissions import (
    INSTALL_SHORTCUT,
    KILL_BACKGROUND_PROCESSES,
    STORE_GUARDS,
    STORE_NAMES,
)

UID_BASE = 10001
FIRST_PID = 1

DATA_DIR_CHILDREN = ("cache", "files", "shared_prefs")

# Lifecycle calls, by the kind of component they launch. The container's
# dispatch layer sends these components under pre-declared stub names.
LAUNCH_KINDS = {
    "start_activity": ACTIVITY,
    "start_service": SERVICE,
    "acquire_provider": PROVIDER,
}


class SimOsError(Exception):
    """Base class for OS-level failures."""


class AlreadyInstalledError(SimOsError):
    pass


class UnknownPackageError(SimOsError):
    pass


class UnknownProcessError(SimOsError):
    pass


class ApiError(SimOsError):
    """A system call failed; ``reason`` is a stable machine-readable code."""

    reason = "api_error"

    def __init__(self, message: str = ""):
        super().__init__(message or self.reason)


class PackageNotFoundError(ApiError):
    reason = "package_not_found"


class ComponentNotRegisteredError(ApiError):
    reason = "component_not_registered"

    @classmethod
    def of(cls, kind, name, package: str) -> ComponentNotRegisteredError:
        return cls(f"{name} is not a registered {kind} of {package}")


class PermissionDeniedError(ApiError):
    reason = "permission_denied"


class AccessDeniedError(ApiError):
    reason = "access_denied"


class UnknownCommandError(ApiError):
    reason = "unknown_command"


class StaticReceiverError(ApiError):
    reason = "static_receiver"


class UnknownReceiverError(ApiError):
    reason = "unknown_receiver"


class UnknownStoreError(ApiError):
    reason = "unknown_store"


class _ApiCallFields(NamedTuple):
    kind: str
    package: str | None
    permission: str | None
    store: str | None
    cmd: str | None
    name: str | None
    component_kind: str | None
    action: str | None
    actions: tuple[str, ...]
    label: str | None
    icon: str | None
    target_package: str | None
    token: str | None


class ApiCall(_ApiCallFields):
    """One request to the OS. Unused argument fields stay None.

    Immutable: hooks rewrite copies with ``call._replace``, which checks the
    kind and converts ``actions`` as the constructor does. A call equals the
    plain tuple of its fields."""

    __slots__ = ()

    def __new__(cls, kind, package=None, permission=None, store=None, cmd=None, name=None,
                component_kind=None, action=None, actions=(), label=None, icon=None,
                target_package=None, token=None) -> ApiCall:
        if kind not in API_KINDS:
            raise ValueError(f"unknown api call kind: {kind!r}")
        return tuple.__new__(cls, (kind, package, permission, store, cmd, name, component_kind,
                                   action, tuple(actions), label, icon, target_package, token))

    @classmethod
    def _make(cls, iterable) -> ApiCall:
        return cls(*iterable)


@dataclass(frozen=True)
class PackageRecord:
    """Installed-package metadata; no system call changes it, so forks share it."""

    manifest: AppManifest
    uid: int
    apk_path: str
    data_dir: str
    granted_permissions: frozenset[str]
    static_receivers: frozenset[str]


@dataclass(frozen=True)
class SimProcess:
    """One process-table row; a launch stores a new row, so forks share rows."""

    pid: int
    uid: int
    name: str
    owner_package: str
    memory_maps: tuple[str, ...] = ()
    running_task_components: tuple[tuple[str, str], ...] = ()
    running_services: tuple[str, ...] = ()


class SimOs:
    """One device. ``processes`` stays in pid order (a spawn takes a higher pid,
    a launch rewrites its row in place, a kill deletes, a fork copies in order)."""

    def __init__(self) -> None:
        self.registry: dict[str, PackageRecord] = {}
        self.processes: dict[int, SimProcess] = {}
        self.next_pid = FIRST_PID
        self.next_uid = UID_BASE
        self.shortcuts: list[tuple[str, str, str]] = []
        # (uid, receiver name) -> actions it listens for
        self.dynamic_receivers: dict[tuple[int, str], tuple[str, ...]] = {}
        self.data_stores: dict[str, tuple[str, ...]] = {s: () for s in STORE_NAMES}
        # Append-only: (payload tag, record)
        self.exfil_sink: list[tuple[str, str]] = []
        # (uid, native component name) -> ((writer process name, token), ...)
        self.native_blobs: dict[tuple[int, str], tuple[tuple[str, str], ...]] = {}
        self.fs_dirs: frozenset[str] = frozenset()

    def fork(self) -> SimOs:
        """An independent copy of this device: each dict and list is copied
        shallowly, sharing its immutable rows and values, and ``fs_dirs``, a
        frozenset that ``mkdir`` rebinds, is shared whole."""
        other = SimOs.__new__(SimOs)
        other.registry = dict(self.registry)
        other.processes = dict(self.processes)
        other.next_pid = self.next_pid
        other.next_uid = self.next_uid
        other.shortcuts = list(self.shortcuts)
        other.dynamic_receivers = dict(self.dynamic_receivers)
        other.data_stores = dict(self.data_stores)
        other.exfil_sink = list(self.exfil_sink)
        other.native_blobs = dict(self.native_blobs)
        other.fs_dirs = self.fs_dirs
        return other

    # -- filesystem bookkeeping -------------------------------------------

    def mkdir(self, path: str) -> None:
        self.fs_dirs = self.fs_dirs | {path.rstrip("/")}

    def list_dir(self, path: str) -> list[str]:
        prefix = path.rstrip("/") + "/"
        children = {
            d[len(prefix):].split("/", 1)[0]
            for d in self.fs_dirs
            if d.startswith(prefix)
        }
        return sorted(children)

    # -- installation and processes ---------------------------------------

    def install(self, m: AppManifest) -> PackageRecord:
        """Register a package: fresh UID, native paths, all declared permissions granted."""
        if m.package in self.registry:
            raise AlreadyInstalledError(f"{m.package} is already installed")
        uid = self.next_uid
        self.next_uid += 1
        data_dir = f"/data/data/{m.package}"
        record = PackageRecord(
            manifest=m,
            uid=uid,
            apk_path=f"/data/app/{m.package}/base.apk",
            data_dir=data_dir,
            granted_permissions=frozenset(m.permissions),
            static_receivers=frozenset(r.name for r in m.receivers),
        )
        self.registry[m.package] = record
        self.mkdir(data_dir)
        for child in DATA_DIR_CHILDREN:
            self.mkdir(f"{data_dir}/{child}")
        return record

    def spawn_process(self, package: str, name: str, maps: list[str]) -> int:
        """Create a process owned by an installed package; returns its pid."""
        record = self.registry.get(package)
        if record is None:
            raise UnknownPackageError(f"{package} is not installed")
        pid = self.next_pid
        self.next_pid += 1
        self.processes[pid] = SimProcess(pid, record.uid, name, package, tuple(maps))
        return pid

    def seed_store(self, store: str, records: list[str]) -> None:
        if store not in self.data_stores:
            raise UnknownStoreError(f"no such store: {store}")
        self.data_stores[store] = tuple(records)

    def _identity(self, proc: SimProcess) -> PackageRecord:
        record = self.registry.get(proc.owner_package)
        if record is None:
            raise UnknownPackageError(
                f"process {proc.pid} owned by uninstalled package {proc.owner_package}"
            )
        return record

    def _installed(self, package: str | None) -> PackageRecord:
        record = self.registry.get(package or "")
        if record is None:
            raise PackageNotFoundError(f"{package} is not installed")
        return record

    def _same_uid_processes(self, proc: SimProcess) -> list[SimProcess]:
        return [p for p in self.processes.values() if p.uid == proc.uid]

    # -- the system-call surface ------------------------------------------

    def syscall(self, caller: int, call: ApiCall):
        """Native-faithful reply for one call; the single entry point proxies wrap."""
        proc = self.processes.get(caller)
        if proc is None:
            raise UnknownProcessError(f"no such pid: {caller}")
        return _OPS[call.kind](self, proc, call)

    def _op_get_installed_packages(self, proc, call):
        return sorted(self.registry)

    def _op_get_package_info(self, proc, call):
        m = self._installed(call.package).manifest
        return {
            "package": m.package,
            "version": m.version,
            "permissions": sorted(m.permissions),
            "components": [[c.kind, c.name] for c in m.components()],
        }

    def _op_check_permission(self, proc, call):
        record = self._identity(proc)
        granted = call.permission in record.granted_permissions
        return "granted" if granted else "denied"

    def _op_get_running_tasks(self, proc, call):
        # Post-API-21 restriction: only tasks of the caller's own package.
        tasks = []
        for other in self.processes.values():
            if other.owner_package == proc.owner_package:
                tasks.extend([kind, name] for kind, name in other.running_task_components)
        return tasks

    _op_get_recent_tasks = _op_get_running_tasks

    def _op_get_running_services(self, proc, call):
        # Restricted to the calling process's own services in every
        # environment; detection built on this call cannot work.
        return list(proc.running_services)

    def _op_get_running_app_processes(self, proc, call):
        return [{"pid": p.pid, "uid": p.uid, "name": p.name}
                for p in self._same_uid_processes(proc)]

    def _op_get_application_info(self, proc, call):
        record = self._installed(call.package)
        return {
            "package": record.manifest.package,
            "source_dir": record.apk_path,
            "data_dir": record.data_dir,
        }

    def _op_set_component_enabled(self, proc, call):
        record = self._identity(proc)
        comp = record.manifest.component(call.component_kind or "", call.name or "")
        if comp is None:
            raise ComponentNotRegisteredError.of(call.component_kind, call.name, proc.owner_package)
        return {"component": comp.name, "enabled": True}

    def _op_exec_shell(self, proc, call):
        if call.cmd == "ps":
            return "\n".join(f"{p.pid} {p.uid} {p.name}"
                             for p in self._same_uid_processes(proc))
        if call.cmd == "ls":
            record = self._identity(proc)
            return "\n".join(self.list_dir(record.data_dir))
        raise UnknownCommandError(f"unknown command: {call.cmd!r}")

    def _op_read_proc_maps(self, proc, call):
        return list(proc.memory_maps)

    def _op_register_receiver(self, proc, call):
        self.dynamic_receivers[(proc.uid, call.name or "")] = tuple(call.actions)
        return {"receiver": call.name, "registered": True}

    def _op_unregister_receiver(self, proc, call):
        record = self._identity(proc)
        name = call.name or ""
        if name in record.static_receivers:
            raise StaticReceiverError(
                f"{name} is statically registered by {record.manifest.package}"
            )
        key = (proc.uid, name)
        if key not in self.dynamic_receivers:
            raise UnknownReceiverError(f"{name} is not registered for uid {proc.uid}")
        del self.dynamic_receivers[key]
        return {"receiver": name, "registered": False}

    def _op_send_broadcast(self, proc, call):
        delivered = []
        for package in sorted(self.registry):
            record = self.registry[package]
            for receiver in record.manifest.receivers:
                if call.action in receiver.intents:
                    delivered.append([package, receiver.name])
        for (uid, name) in sorted(self.dynamic_receivers):
            if call.action in self.dynamic_receivers[(uid, name)]:
                delivered.append([f"uid:{uid}", name])
        return delivered

    def _op_access_resource(self, proc, call):
        store = call.store or ""
        if store not in self.data_stores:
            raise UnknownStoreError(f"no such store: {store}")
        record = self._identity(proc)
        guard = STORE_GUARDS[store]
        if guard not in record.granted_permissions:
            raise PermissionDeniedError(f"{store} requires {guard}")
        return list(self.data_stores[store])

    def _op_create_shortcut(self, proc, call):
        record = self._identity(proc)
        if INSTALL_SHORTCUT not in record.granted_permissions:
            raise PermissionDeniedError("creating shortcuts requires INSTALL_SHORTCUT")
        self.shortcuts.append((call.label or "", call.icon or "", call.target_package or ""))
        return {"shortcuts": len(self.shortcuts)}

    def _op_kill_background_processes(self, proc, call):
        record = self._identity(proc)
        if KILL_BACKGROUND_PROCESSES not in record.granted_permissions:
            raise PermissionDeniedError(
                "killing processes requires KILL_BACKGROUND_PROCESSES"
            )
        doomed = [
            pid
            for pid, p in self.processes.items()
            if p.owner_package == call.package and pid != proc.pid
        ]
        for pid in doomed:
            del self.processes[pid]
        # Dynamic registrations die with the last process of their UID.
        live = {p.uid for p in self.processes.values()}
        for key in [k for k in self.dynamic_receivers if k[0] not in live]:
            del self.dynamic_receivers[key]
        return len(doomed)

    def _launch(self, proc, call):
        kind = LAUNCH_KINDS[call.kind]
        comp = self._identity(proc).manifest.component(kind, call.name or "")
        if comp is None:
            raise ComponentNotRegisteredError.of(kind, call.name, proc.owner_package)
        tasks, services = proc.running_task_components, proc.running_services
        if kind == ACTIVITY:
            tasks += ((ACTIVITY, comp.name),)
        elif kind == SERVICE and comp.name not in services:  # a service runs once
            services += (comp.name,)
        self.processes[proc.pid] = SimProcess(proc.pid, proc.uid, proc.name, proc.owner_package,
                                              proc.memory_maps, tasks, services)
        return comp.name

    _op_start_activity = _op_start_service = _op_acquire_provider = _launch

    def _op_native_blob_write(self, proc, call):
        key = (proc.uid, call.name or "")
        self.native_blobs[key] = self.native_blobs.get(key, ()) + ((proc.name, call.token or ""),)
        return {"entries": len(self.native_blobs[key])}

    def _op_native_blob_read(self, proc, call):
        return [list(entry) for entry in self.native_blobs.get((proc.uid, call.name or ""), ())]


# The system-call surface: each kind and the _op_ handler SimOs.syscall runs for it.
# Lifecycle starts and the shared native-component blob are part of it: launches
# are what the dispatch layer rewrites; the blob is how same-UID apps share state.
_OPS = {name[len("_op_"):]: fn for name, fn in vars(SimOs).items() if name.startswith("_op_")}
API_KINDS = frozenset(_OPS)
