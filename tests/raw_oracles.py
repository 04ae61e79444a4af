"""Independent brute-force oracles for the 18 detection mechanisms.

Each oracle predicts a probe's verdict by inspecting raw world state (the
registry, process table, container bookkeeping, installed hook labels)
instead of going through the system-call surface the probes use. Kept
deliberately separate from the package so the two routes share no code.
"""

from appvirtsim import permissions as perms
from appvirtsim.container import (
    HOOK_DATA_DIR,
    HOOK_EXEC_PS,
    HOOK_PROC_MAPS,
    HOOK_PROCESS_NAMES,
)
from appvirtsim.manifest import SERVICE

DETECTED = "virtual_detected"
CLEAN = "clean"
INCONCLUSIVE = "inconclusive"


def _proc(world):
    return world.os.processes[world.probe_pid]


def _identity_record(world):
    return world.os.registry[_proc(world).owner_package]


def _hook_labels(world):
    if world.container is None:
        return set()
    return {h.label for h in world.container.hooks}


def _declared_names(world):
    return {c.name for c in world.probe_manifest.components()}


def oracle_1(world):
    declared = world.probe_manifest.permissions
    undeclared_guards = [g for g in perms.STORE_GUARDS.values() if g not in declared]
    if not undeclared_guards:
        return CLEAN
    granted = _identity_record(world).granted_permissions
    return DETECTED if any(g in granted for g in undeclared_guards) else CLEAN


def oracle_2(world):
    return CLEAN if world.probe_manifest.package in world.os.registry else DETECTED


def oracle_3(world):
    unchecked = perms.DANGEROUS_PERMISSIONS - world.probe_manifest.permissions
    if not unchecked:
        return CLEAN
    granted = _identity_record(world).granted_permissions
    return DETECTED if unchecked & granted else CLEAN


def oracle_4(world):
    return CLEAN if world.probe_manifest.package in world.os.registry else DETECTED


def oracle_5(world):
    own_package = _proc(world).owner_package
    names = set()
    for p in world.os.processes.values():
        if p.owner_package != own_package:
            continue
        for _, name in p.running_task_components:
            if world.container is not None:
                assigned = world.container.stub_assignments.get(name)
                name = assigned[2] if assigned else name
            names.add(name)
    return DETECTED if names - _declared_names(world) else CLEAN


def oracle_6(world):
    return INCONCLUSIVE


def oracle_7(world):
    if world.container is not None and HOOK_PROCESS_NAMES in _hook_labels(world):
        return CLEAN  # every name is rewritten to the probe app's own
    uid = _proc(world).uid
    names = {p.name for p in world.os.processes.values() if p.uid == uid}
    return DETECTED if names - {world.probe_manifest.package} else CLEAN


def oracle_8(world):
    if world.container is not None and HOOK_EXEC_PS in _hook_labels(world):
        return CLEAN  # directory listing parses as zero process lines
    uid = _proc(world).uid
    rows = [p for p in world.os.processes.values() if p.uid == uid]
    names = {p.name for p in rows}
    return DETECTED if len(rows) > 1 and len(names) > 1 else CLEAN


def oracle_9(world):
    package = world.probe_manifest.package
    if world.container is None:
        data_dir = world.os.registry[package].data_dir
    elif HOOK_DATA_DIR in _hook_labels(world):
        data_dir = f"/data/data/{package}"
    else:
        data_dir = world.container.plugins[package].data_dir
    return CLEAN if data_dir == f"/data/data/{package}" else DETECTED


def oracle_10(world):
    package = world.probe_manifest.package
    if world.container is None or package in world.os.registry:
        source = world.os.registry[package].apk_path
    else:
        source = world.container.plugins[package].apk_path
    return CLEAN if source == f"/data/app/{package}/base.apk" else DETECTED


def oracle_11(world):
    if world.container is not None and HOOK_PROC_MAPS in _hook_labels(world):
        return CLEAN
    own_apk = f"/data/app/{world.probe_manifest.package}/base.apk"
    foreign = [p for p in _proc(world).memory_maps
               if p.endswith(".apk") and p != own_apk]
    return DETECTED if foreign else CLEAN


def oracle_12(world):
    if world.container is not None and HOOK_PROC_MAPS in _hook_labels(world):
        return CLEAN
    prefix = f"/data/app/{world.probe_manifest.package}/"
    outside = [p for p in _proc(world).memory_maps if not p.startswith(prefix)]
    return DETECTED if outside else CLEAN


def oracle_13(world):
    launches = [s.name for s in world.probe_manifest.services][:3]
    if not launches:
        return INCONCLUSIVE
    if world.container is None:
        return CLEAN  # every declared service is registered natively
    c = world.container
    addon = c.addon_manifest
    free_stubs = sum(
        1 for s in c.stub_components
        if s.kind == SERVICE and s.name not in c.stub_assignments
    )
    package = world.probe_manifest.package
    for name in launches:
        declared = addon.component(SERVICE, name)
        if declared is not None and not declared.stub:
            continue
        if (package, SERVICE, name) in c.stub_assignments.values():
            continue
        if free_stubs > 0:
            free_stubs -= 1
            continue
        return DETECTED
    return CLEAN


def oracle_14(world):
    package = world.probe_manifest.package
    record = world.os.registry.get(package)
    if record is None:
        return DETECTED
    registered = sorted((c.kind, c.name) for c in record.manifest.components())
    declared = sorted((c.kind, c.name) for c in world.probe_manifest.components())
    return CLEAN if registered == declared else DETECTED


def oracle_15(world):
    receivers = world.probe_manifest.receivers
    if not receivers:
        return CLEAN
    static = _identity_record(world).static_receivers
    if any(r.name in static for r in receivers):
        return CLEAN
    # All unregistrations would succeed; delivery survives only through a
    # static receiver of some installed package sharing a name and action.
    own_names = {r.name for r in receivers}
    actions = {a for r in receivers for a in r.intents}
    for record in world.os.registry.values():
        for receiver in record.manifest.receivers:
            if receiver.name in own_names and set(receiver.intents) & actions:
                return CLEAN
    return DETECTED


def oracle_16(world):
    components = [(c.kind, c.name) for c in world.probe_manifest.components()]
    if not components:
        return INCONCLUSIVE
    kind, name = components[0]
    registered = _identity_record(world).manifest.component(kind, name)
    return CLEAN if registered is not None else DETECTED


def oracle_17(world):
    native = sorted(world.probe_manifest.native_components)
    if not native:
        return CLEAN
    proc = _proc(world)
    entries = world.os.native_blobs.get((proc.uid, native[0]), [])
    foreign = [w for w, _ in entries if w != proc.name]
    return DETECTED if foreign else CLEAN


def oracle_18(world):
    return INCONCLUSIVE


ORACLES = {str(n): fn for n, fn in (
    (1, oracle_1), (2, oracle_2), (3, oracle_3), (4, oracle_4), (5, oracle_5),
    (6, oracle_6), (7, oracle_7), (8, oracle_8), (9, oracle_9), (10, oracle_10),
    (11, oracle_11), (12, oracle_12), (13, oracle_13), (14, oracle_14),
    (15, oracle_15), (16, oracle_16), (17, oracle_17), (18, oracle_18),
)}
