"""A slow reference for container dispatch and its bookkeeping.

A direct transcription of the pipeline in the ``appvirtsim.container``
docstring:

    lowlevel before/replace hooks -> proxy before/replace hooks
      -> baseline component-name rewriting -> os.syscall (container identity)
      -> baseline reply rewriting -> after hooks in reverse order

Every before hook rewrites the call in turn; the first replace hook then
answers in place of the OS. A plugin launching a component its own manifest
does not declare gets ComponentNotRegisteredError and takes no stub.
``ReferenceDispatch`` keeps its own hook list, in installation order, and its
own stub table, component -> stub name. It reads
the container's plugin store and add-on manifest but never the container's
hook or stub stores, and it also transcribes the payload sweep and the reap,
the other two places those stores change. ``reference_world`` builds a world
with the reference standing in for the container's dispatch and hook calls.
Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

from unittest import mock

from appvirtsim import container
from appvirtsim.container import (
    AFTER,
    BEFORE,
    LOWLEVEL,
    PROXY,
    REPLACE,
    NoFreeStubError,
    NotAPluginError,
    PluginGoneError,
)
from appvirtsim.permissions import PAYLOAD_STORES
from appvirtsim.simos import LAUNCH_KINDS, ApiCall, ApiError, ComponentNotRegisteredError


def shared_tables(os, c) -> dict:
    """Every table that the container and the reference keep in the same place."""
    tables = {
        "registry": os.registry, "processes": os.processes, "next_pid": os.next_pid,
        "next_uid": os.next_uid, "dynamic_receivers": os.dynamic_receivers,
        "data_stores": os.data_stores, "native_blobs": os.native_blobs,
        "exfil_sink": os.exfil_sink, "shortcuts": os.shortcuts, "fs_dirs": os.fs_dirs,
    }
    if c is not None:
        tables.update(
            container_pid=c.container_pid, plugins=c.plugins,
            foreground_plugin=c.foreground_plugin, plugin_loads=c.plugin_loads,
            run_log=c.run_log,
        )
    return tables


class ReferenceDispatch:
    def __init__(self, hooks=(), stubs=None):
        self.hooks = list(hooks)  # every installed hook, in installation order
        self.stubs = dict(stubs or {})  # (plugin package, kind, real name) -> stub name

    def fork(self) -> ReferenceDispatch:
        return ReferenceDispatch(self.hooks, self.stubs)

    def stores(self) -> dict:
        """The stub table as stub -> component, and each target's hooks in
        dispatch order as (label, layer, mode)."""
        targets = dict.fromkeys(h.target for h in self.hooks)
        return {"stubs": {stub: key for key, stub in self.stubs.items()},
                "hooks": {target: [(h.label, h.layer, h.mode) for h in self.dispatch_order(target)]
                          for target in targets}}

    # -- hooks (``c`` is taken, and ignored, as the container's functions take it)

    def install_hook(self, c, h) -> None:
        self.hooks.append(h)

    def uninstall_hooks(self, c, labels) -> int:
        wanted = set(labels)
        kept = [h for h in self.hooks if h.label not in wanted]
        removed, self.hooks = len(self.hooks) - len(kept), kept
        return removed

    def dispatch_order(self, kind: str) -> list:
        """The hooks on ``kind``: lowlevel before proxy, each in installation order."""
        return [h for layer in (LOWLEVEL, PROXY) for h in self.hooks
                if h.target == kind and h.layer == layer]

    # -- stubs ---------------------------------------------------------------

    def name_out(self, c, package: str, kind: str, name: str) -> str:
        if c.plugins[package].manifest.component(kind, name) is None:  # as the OS would
            raise ComponentNotRegisteredError(f"{name} is not a registered {kind} of {package}")
        declared = c.addon_manifest.component(kind, name)
        if declared is not None and not declared.stub:
            return name
        key = (package, kind, name)
        if key in self.stubs:
            return self.stubs[key]
        for stub in c.stub_components:
            if stub.kind == kind and stub.name not in self.stubs.values():
                self.stubs[key] = stub.name
                return stub.name
        raise NoFreeStubError(f"no free {kind} stub left for {package}/{name}")

    def name_back(self, name: str) -> str:
        for (_, _, real), stub in self.stubs.items():
            if stub == name:
                return real
        return name

    def rewrite_reply(self, kind: str, reply):
        if kind == "get_running_services":
            return [self.name_back(name) for name in reply]
        if kind in ("get_running_tasks", "get_recent_tasks"):
            return [[task_kind, self.name_back(name)] for task_kind, name in reply]
        return reply

    # -- the pipeline ----------------------------------------------------------

    def plugin_syscall(self, os, c, caller: int, call: ApiCall):
        if caller not in os.processes:
            raise PluginGoneError(f"{c.addon_package}: process {caller} is gone")
        owners = [package for package, pid in c.plugin_processes.items() if pid == caller]
        if not owners:
            raise NotAPluginError(f"pid {caller} is not a plugin process of {c.addon_package}")
        hooks = self.dispatch_order(call.kind)
        for h in hooks:
            if h.mode == BEFORE:
                call = h.fn(call)
        replacements = [h for h in hooks if h.mode == REPLACE]
        if replacements:
            reply = replacements[0].fn(call)
        elif call.kind == "get_application_info" and call.package in c.plugins:
            reply = {"package": call.package, "source_dir": c.plugins[call.package].apk_path,
                     "data_dir": c.plugins[call.package].data_dir}
        elif call.kind in LAUNCH_KINDS:
            wire = self.name_out(c, owners[0], LAUNCH_KINDS[call.kind], call.name or "")
            reply = self.name_back(os.syscall(caller, call._replace(name=wire)))
        else:
            reply = self.rewrite_reply(call.kind, os.syscall(caller, call))
        for h in reversed(hooks):
            if h.mode == AFTER:
                reply = h.fn(call, reply)
        return reply

    # -- the payload sweep -----------------------------------------------------

    def reap(self, os, c, package: str) -> None:
        manifest = c.plugins.pop(package).manifest
        self.stubs = {key: stub for key, stub in self.stubs.items() if key[0] != package}
        uid = os.registry[c.addon_package].uid
        live = {r.name for p in c.plugins.values() for r in p.manifest.receivers}
        for receiver in manifest.receivers:
            if receiver.name not in live:
                os.dynamic_receivers.pop((uid, receiver.name), None)
        if c.foreground_plugin == package:
            c.foreground_plugin = None

    def tick_services(self, os, c) -> None:
        for package, pid in list(c.plugin_processes.items()):
            proc = os.processes.get(pid)
            if proc is None:
                c.run_log.append({"step": "warning",
                                  "detail": f"{package}: process {pid} is gone; not ticked"})
                self.reap(os, c, package)
                continue
            services = {s.name: s for s in c.plugins[package].manifest.services}
            for wire_name in proc.running_services:
                service = services.get(self.name_back(wire_name))
                if service is None or service.payload is None:
                    continue
                store = PAYLOAD_STORES[service.payload]
                try:
                    records = self.plugin_syscall(os, c, pid, ApiCall("access_resource",
                                                                      store=store))
                except ApiError as exc:
                    c.run_log.append({"step": "warning",
                                      "detail": f"{service.name}: {store} read denied ({exc})"})
                    continue
                os.exfil_sink.extend((service.payload, record) for record in records)


def reference_world(build, scenario):
    """``build(scenario)`` with every dispatch, hook install and uninstall that
    the build makes answered by a fresh ReferenceDispatch; returns both."""
    ref = ReferenceDispatch()
    with mock.patch.object(container, "plugin_syscall", ref.plugin_syscall), \
            mock.patch.object(container, "install_hook", ref.install_hook), \
            mock.patch.object(container, "uninstall_hooks", ref.uninstall_hooks):
        world = build(scenario)
    return world, ref
