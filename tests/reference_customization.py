"""A slow reference for ``customization.customize``.

The four-step pipeline as it was written before the steps folded into
``customize``: each step returns a whole manifest, and the next step
rebuilds it with ``dataclasses.replace``. Kept only to check that the
single-construction pipeline produces the same bytes, rename map and step
report; nothing in ``src/`` imports it.
"""

from __future__ import annotations

from dataclasses import replace

from appvirtsim.manifest import (
    KIND_KEYS,
    AppManifest,
    Component,
    NoLauncherError,
)
from appvirtsim.permissions import ADDON_EXTRA_PERMISSIONS

FRAMEWORK_PREFIX = "Plugin"


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
    """Store the victim's launcher icon and label as the add-on's shortcut
    resources; a victim with no launcher activity has none to give."""
    if not any(act.launcher for act in victim.activities):
        raise NoLauncherError(f"{victim.package}: no launcher activity declared")
    return replace(addon, shortcut_icon=victim.launcher_icon, shortcut_label=victim.label)


def reference_customize(victim: AppManifest, addon_template: AppManifest,
                        catalog: AppManifest):
    """Steps 1-4 in order: (add-on, payload, rename map, [(step, detail), ...])."""
    steps = [("permissions", "copy victim permissions and features, add shortcut/kill extras"),
             ("trim_payload", "drop payload services the victim cannot feed"),
             ("components", "embed victim and payload components, rename framework stubs"),
             ("resources", "copy victim launcher icon and label for the shortcut")]
    addon = step1_permissions(victim, addon_template)
    malicious = step2_trim_malicious(victim, catalog)
    addon, rename_map, malicious = step3_components(victim, malicious, addon)
    addon = step4_resources(victim, addon)
    return addon, malicious, rename_map, steps
