"""The detection mechanisms, run as environment-agnostic probes.

There are 19 probe functions: the eighteen mechanisms and the hotness
detector. Each sees only an EnvHandle: the manifest its app believes it
declared, the system-call surface, and its process's runtime counters.
Verdicts are computed purely from what the handle shows, never from
simulator internals, so the same probe code runs unchanged in every
environment.

Mechanisms 6 and 16 target behaviors reported as non-functional in
practice; 6 and 18 therefore return inconclusive in every environment
(there is no working variant to model), while 16 stays functional against
a naive container.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

from .artmodel import MIN_INVOCATIONS, SENTINEL
from .permissions import DANGEROUS_PERMISSIONS, STORE_GUARDS
from .simos import (
    STORE_READS,
    AccessDeniedError,
    ApiCall,
    ApiError,
    ComponentNotRegisteredError,
    PackageNotFoundError,
    PermissionDeniedError,
    SimOsError,
    StaticReceiverError,
)
from .worlds import ENVIRONMENTS, EnvHandle, MatrixScenario, World, _unprobed_build


class Verdict(str, enum.Enum):
    VIRTUAL_DETECTED = "virtual_detected"
    CLEAN = "clean"
    INCONCLUSIVE = "inconclusive"
    ERROR = "error"

    @property
    def letter(self) -> str:
        return {"virtual_detected": "V", "clean": "C", "inconclusive": "I", "error": "E"}[
            self.value
        ]


class ProbeOutcome(NamedTuple):
    """One mechanism's verdict plus human-readable evidence."""

    probe: str
    verdict: Verdict
    evidence: str


@dataclass
class DetectionReport:
    """All verdicts for one environment, and nothing else: the world they
    came from stays with ``worlds.unprobed_world``."""

    environment: str
    outcomes: list[ProbeOutcome] = field(default_factory=list)

    def verdicts(self) -> dict[str, str]:
        return {o.probe: o.verdict.value for o in self.outcomes}

    def summary(self) -> dict[str, int]:
        counts = {v.value: 0 for v in Verdict}
        for outcome in self.outcomes:
            counts[outcome.verdict.value] += 1
        return counts

    def to_dict(self) -> dict:
        return {
            "environment": self.environment,
            "outcomes": [
                {"probe": o.probe, "verdict": o.verdict.value, "evidence": o.evidence}
                for o in self.outcomes
            ],
            "summary": self.summary(),
        }


# The calls whose arguments are fixed, built once: an ApiCall is immutable.
_INSTALLED_PACKAGES = ApiCall("get_installed_packages")
_RECENT_TASKS = ApiCall("get_recent_tasks")
_RUNNING_TASKS = ApiCall("get_running_tasks")
_RUNNING_SERVICES = ApiCall("get_running_services")
_APP_PROCESSES = ApiCall("get_running_app_processes")
_PROC_MAPS = ApiCall("read_proc_maps")
_PS = ApiCall("exec_shell", cmd="ps")
_PERMISSION_CHECKS = {p: ApiCall("check_permission", permission=p)  # in permission order
                      for p in sorted(DANGEROUS_PERMISSIONS)}
_STORE_GUARD_PAIRS = tuple(sorted(STORE_GUARDS.items()))
_STORES_BY_GUARD = {guard: store for store, guard in STORE_GUARDS.items()}


def _probe_1(h: EnvHandle):
    """Reach for stores whose guarding permission the app never declared."""
    undeclared = [store for store, guard in _STORE_GUARD_PAIRS
                  if guard not in h.declared.permissions]
    if not undeclared:
        return Verdict.CLEAN, "every store guard is declared; nothing to over-reach"
    reachable = []
    for store in undeclared:
        try:
            h.call(STORE_READS[store])
            reachable.append(store)
        except PermissionDeniedError:
            pass
    if reachable:
        return Verdict.VIRTUAL_DETECTED, (
            f"accessed undeclared stores: {', '.join(reachable)}"
        )
    return Verdict.CLEAN, f"all {len(undeclared)} undeclared stores denied"


def _probe_2(h: EnvHandle):
    """Ask the package manager about the app's own package."""
    try:
        h.call(ApiCall("get_package_info", package=h.declared.package))
    except PackageNotFoundError:
        return Verdict.VIRTUAL_DETECTED, f"{h.declared.package} reported as not installed"
    return Verdict.CLEAN, "own package info returned"


def _probe_3(h: EnvHandle):
    """Check undeclared dangerous permissions and try the guarded actions."""
    unchecked = [p for p in _PERMISSION_CHECKS if p not in h.declared.permissions]
    if not unchecked:
        return Verdict.CLEAN, "every dangerous permission is declared; nothing to check"
    granted = [p for p in unchecked if h.call(_PERMISSION_CHECKS[p]) == "granted"]
    confirmed = []
    for store in [_STORES_BY_GUARD[p] for p in granted if p in _STORES_BY_GUARD]:
        try:
            h.call(STORE_READS[store])
            confirmed.append(store)
        except PermissionDeniedError:
            pass
    if granted:
        short = [p.rsplit(".", 1)[-1] for p in granted]
        return Verdict.VIRTUAL_DETECTED, (
            f"undeclared dangerous permissions granted: {', '.join(short)}"
            + (f"; actions confirmed on: {', '.join(confirmed)}" if confirmed else "")
        )
    return Verdict.CLEAN, f"all {len(unchecked)} undeclared dangerous permissions denied"


def _probe_4(h: EnvHandle):
    """Look for the app's own package in the installed-packages list."""
    installed = h.call(_INSTALLED_PACKAGES)
    if h.declared.package in installed:
        return Verdict.CLEAN, "own package present in the installed list"
    return Verdict.VIRTUAL_DETECTED, (
        f"own package absent from installed list ({len(installed)} packages)"
    )


def _probe_5(h: EnvHandle):
    """Scan recent and running tasks for components the app never declared."""
    own_names = {c.name for c in h.declared.components()}
    tasks = list(h.call(_RECENT_TASKS))
    tasks += list(h.call(_RUNNING_TASKS))
    foreign = sorted({name for _, name in tasks if name not in own_names})
    if foreign:
        return Verdict.VIRTUAL_DETECTED, f"foreign task components visible: {', '.join(foreign)}"
    return Verdict.CLEAN, f"{len(tasks)} task entries, all own components"


def _probe_6(h: EnvHandle):
    """Look for foreign entries in the running-services list."""
    own = {s.name for s in h.declared.services}
    services = h.call(_RUNNING_SERVICES)
    foreign = sorted(set(services) - own)
    if foreign:
        return Verdict.VIRTUAL_DETECTED, f"foreign services visible: {', '.join(foreign)}"
    return Verdict.INCONCLUSIVE, (
        "running-services list is restricted to the caller in every "
        "environment; this check cannot discriminate"
    )


def _probe_7(h: EnvHandle):
    """Compare same-UID process names against the app's expected name."""
    processes = h.call(_APP_PROCESSES)
    alien = sorted({p["name"] for p in processes if p["name"] != h.declared.package})
    if alien:
        return Verdict.VIRTUAL_DETECTED, (
            f"same-uid processes with foreign names: {', '.join(alien)}"
        )
    return Verdict.CLEAN, f"{len(processes)} same-uid process(es), all named {h.declared.package}"


def _parse_ps_lines(output: str) -> list[tuple[int, int, str]]:
    rows = []
    for line in output.splitlines():
        parts = line.split()
        if len(parts) != 3:
            continue
        try:
            rows.append((int(parts[0]), int(parts[1]), parts[2]))
        except ValueError:
            continue
    return rows


def _probe_8(h: EnvHandle):
    """Run the process-list shell command and count distinct same-uid names."""
    output = h.call(_PS)
    rows = _parse_ps_lines(output)
    names = {name for _, _, name in rows}
    if len(rows) > 1 and len(names) > 1:
        return Verdict.VIRTUAL_DETECTED, (
            f"{len(rows)} processes under own uid with names: {', '.join(sorted(names))}"
        )
    return Verdict.CLEAN, f"shell output parsed as {len(rows)} process line(s)"


def _probe_9(h: EnvHandle):
    """Check the private directory against the native pattern."""
    info = h.call(ApiCall("get_application_info", package=h.declared.package))
    expected = f"/data/data/{h.declared.package}"
    if info["data_dir"] != expected:
        return Verdict.VIRTUAL_DETECTED, f"private directory is {info['data_dir']}"
    return Verdict.CLEAN, f"private directory follows the native pattern {expected}"


def _probe_10(h: EnvHandle):
    """Check the reported code source against the native install path."""
    info = h.call(ApiCall("get_application_info", package=h.declared.package))
    expected = f"/data/app/{h.declared.package}/base.apk"
    if info["source_dir"] != expected:
        return Verdict.VIRTUAL_DETECTED, f"code source is {info['source_dir']}"
    return Verdict.CLEAN, f"code source is the native {expected}"


def _probe_11(h: EnvHandle):
    """Search the process memory map for a foreign APK path."""
    try:
        maps = h.call(_PROC_MAPS)
    except AccessDeniedError:
        return Verdict.CLEAN, "process map read denied; no foreign apk path found"
    own_apk = f"/data/app/{h.declared.package}/base.apk"
    foreign = [p for p in maps if p.endswith(".apk") and p != own_apk]
    if foreign:
        return Verdict.VIRTUAL_DETECTED, f"foreign apk mapped: {foreign[0]}"
    return Verdict.CLEAN, f"{len(maps)} mapped paths, own apk only"


def _probe_12(h: EnvHandle):
    """Search the process memory map for code loaded outside the native app dir."""
    try:
        maps = h.call(_PROC_MAPS)
    except AccessDeniedError:
        return Verdict.CLEAN, "process map read denied; no suspicious library path found"
    prefix = f"/data/app/{h.declared.package}/"
    suspicious = [p for p in maps if not p.startswith(prefix)]
    if suspicious:
        return Verdict.VIRTUAL_DETECTED, f"code loaded from outside {prefix}: {suspicious[0]}"
    return Verdict.CLEAN, f"all {len(maps)} mapped paths under {prefix}"


def _probe_13(h: EnvHandle):
    """Launch several declared services; a placeholder-starved host errors out."""
    to_launch = [s.name for s in h.declared.services][:3]
    if not to_launch:
        return Verdict.INCONCLUSIVE, "no declared services to launch"
    for i, name in enumerate(to_launch):
        try:
            h.call(ApiCall("start_service", name=name))
        except ApiError as exc:
            return Verdict.VIRTUAL_DETECTED, (
                f"service launch {i + 1} of {len(to_launch)} failed: {exc}"
            )
    return Verdict.CLEAN, f"all {len(to_launch)} services launched"


def _probe_14(h: EnvHandle):
    """Compare the package manager's component list against the declared one."""
    try:
        info = h.call(ApiCall("get_package_info", package=h.declared.package))
    except PackageNotFoundError:
        return Verdict.VIRTUAL_DETECTED, "own component list unavailable: package not installed"
    declared = sorted((c.kind, c.name) for c in h.declared.components())
    reported = sorted((k, n) for k, n in info["components"])
    if declared != reported:
        return Verdict.VIRTUAL_DETECTED, (
            f"component list mismatch: declared {len(declared)}, "
            f"reported {len(reported)}"
        )
    return Verdict.CLEAN, f"all {len(declared)} components reported as declared"


def _probe_15(h: EnvHandle):
    """Unregister every manifest receiver, then test whether broadcasts still land."""
    receivers = h.declared.receivers
    if not receivers:
        return Verdict.CLEAN, "no receivers declared; nothing to unregister"
    for receiver in receivers:
        try:
            h.call(ApiCall("unregister_receiver", name=receiver.name))
        except StaticReceiverError:
            return Verdict.CLEAN, (
                f"{receiver.name} is statically registered and refused unregistration"
            )
    own_names = {r.name for r in receivers}
    actions = sorted({a for r in receivers for a in r.intents})
    delivered = []
    for action in actions:
        for owner, name in h.call(ApiCall("send_broadcast", action=action)):
            if name in own_names:
                delivered.append(name)
    if delivered:
        return Verdict.CLEAN, f"broadcast still delivered to: {', '.join(sorted(set(delivered)))}"
    return Verdict.VIRTUAL_DETECTED, (
        f"all {len(receivers)} manifest receivers unregistered dynamically; "
        "broadcasts no longer delivered"
    )


def _probe_16(h: EnvHandle):
    """Toggle one of the app's own components at runtime."""
    components = h.declared.components()
    if not components:
        return Verdict.INCONCLUSIVE, "no components declared"
    kind, name = components[0].kind, components[0].name
    try:
        h.call(ApiCall("set_component_enabled", component_kind=kind, name=name))
    except ComponentNotRegisteredError:
        return Verdict.VIRTUAL_DETECTED, f"own component {name} is not registered with the system"
    return Verdict.CLEAN, f"own component {name} toggled successfully"


def _probe_17(h: EnvHandle):
    """Write to the shared native-component blob and look for foreign writers."""
    native = sorted(h.declared.native_components)
    if not native:
        return Verdict.CLEAN, "no native components declared; nothing is shared"
    component = native[0]
    token = f"probe-token:{h.declared.package}"
    h.call(ApiCall("native_blob_write", name=component, token=token))
    entries = h.call(ApiCall("native_blob_read", name=component))
    own_writer = next(writer for writer, t in reversed(entries) if t == token)
    foreign = sorted({writer for writer, _ in entries if writer != own_writer})
    if foreign:
        return Verdict.VIRTUAL_DETECTED, (
            f"{component} blob carries entries from foreign writers: {', '.join(foreign)}"
        )
    return Verdict.CLEAN, f"{component} blob written by this process only"


def _probe_18(h: EnvHandle):
    """Lifecycle stack-trace analysis; modeled as non-discriminative."""
    return Verdict.INCONCLUSIVE, (
        "lifecycle stack-trace analysis does not discriminate in this model"
    )


def _probe_hotness(h: EnvHandle):
    """Zero hotness on a warmed-up sentinel means the code runs virtualized."""
    record = h.runtime.methods.get(SENTINEL)  # method() would insert a record
    seen = 0 if record is None else record.invocations
    if seen < MIN_INVOCATIONS:
        return Verdict.ERROR, (f"warmup guard: {SENTINEL}: {seen} invocations recorded, "
                               f"need {MIN_INVOCATIONS}")
    if record.hotness_count == 0:
        return Verdict.VIRTUAL_DETECTED, (f"{SENTINEL}: hotness_count 0 after {seen} "
                                          "invocations (ahead-of-time compiled)")
    return Verdict.CLEAN, f"{SENTINEL}: hotness_count {record.hotness_count} > 0"


# Probe id -> function, in definition order: mechanisms 1-18, then hotness.
PROBE_FUNCS = {
    name[len("_probe_"):]: fn
    for name, fn in globals().items() if name.startswith("_probe_")
}
PROBE_IDS = tuple(PROBE_FUNCS)


def run_probe(handle: EnvHandle, probe_id: str) -> ProbeOutcome:
    """Run one mechanism; a modelled failure surfaces as an error verdict.

    Only SimOsError counts as modelled; any other exception is a bug and
    propagates.
    """
    fn = PROBE_FUNCS.get(probe_id)
    if fn is None:
        raise ValueError(f"unknown probe id: {probe_id!r}")
    try:
        verdict, evidence = fn(handle)
    except SimOsError as exc:  # a legal environment never gets here
        return ProbeOutcome(probe_id, Verdict.ERROR,
                            f"{type(exc).__name__}: {exc}")
    return ProbeOutcome(probe_id, verdict, evidence)


def run_probes_on_world(world: World) -> DetectionReport:
    """Run every probe against fresh forks of one world, one fork per probe."""
    return DetectionReport(world.environment, [run_probe(EnvHandle(world.fork()), probe_id)
                                               for probe_id in PROBE_IDS])


def run_matrix(scenario: MatrixScenario,
               environments=ENVIRONMENTS) -> list[DetectionReport]:
    """Run all probes on per-probe forks of each environment's cached build."""
    return [run_probes_on_world(_unprobed_build(scenario, environment))
            for environment in environments]
