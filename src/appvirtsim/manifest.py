"""Declarative app manifests: data model, file format, launcher query.

A manifest document is a strict JSON object describing a simulated app:

    {
      "package": "org.example.app",          # required, reverse-DNS
      "label": "Example",                    # display name
      "version": 3,                          # integer >= 0
      "permissions": ["android.permission.INTERNET", ...],
      "features": ["android.hardware.camera", ...],
      "components": {
        "activities": [{"name": ".Main", "launcher": true}],
        "services":   [{"name": ".Sync",
                        "requires_permissions": [...],   # catalog services
                        "payload": "contacts",           # catalog services
                        "stub": true}],                  # container stubs
        "receivers":  [{"name": ".Boot", "intents": ["BOOT"]}],
        "providers":  [{"name": ".Data"}]
      },
      "resources": {"launcher_icon": "ic_launcher.png",
                    "shortcut_icon": "...", "shortcut_label": "..."},
      "native_components": ["webview"]
    }

The parser checks only the document's shape: objects and lists where the
schema has them, no unknown key anywhere (so fixture typos fail loudly), a
package and each component name present, and no null string. The
constructors check every value: unique component names, at most one
launcher, a string collection is never a bare string, an integer version,
boolean launcher and stub flags, and strings elsewhere (payload and the
shortcut resources may be None). A manifest built in code therefore
survives serialize_manifest and parse_manifest unchanged.

All types here are immutable; parsing and ``launcher_activity`` are pure
functions, safe to call from any thread.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from itertools import repeat
from json.encoder import encode_basestring_ascii as _q

ACTIVITY = "activity"
SERVICE = "service"
RECEIVER = "receiver"
PROVIDER = "provider"
# Component kind -> its document key and AppManifest field, in canonical order.
KIND_KEYS = {ACTIVITY: "activities", SERVICE: "services",
             RECEIVER: "receivers", PROVIDER: "providers"}
COMPONENT_KINDS = tuple(KIND_KEYS)

# The optional Component fields, and document keys besides "name", each kind
# may carry; its other optional fields must keep their defaults.
_KIND_FIELDS = {
    ACTIVITY: frozenset({"launcher", "stub"}),
    SERVICE: frozenset({"requires_permissions", "payload", "stub"}),
    RECEIVER: frozenset({"intents"}),
    PROVIDER: frozenset({"stub"}),
}

_PACKAGE_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")


class ManifestError(ValueError):
    """Base class for manifest construction and parsing failures."""


class SchemaError(ManifestError):
    """Document does not match the manifest schema."""


class DuplicateComponentError(ManifestError):
    """Two components share a name within one manifest."""


class MultipleLauncherError(ManifestError):
    """More than one activity carries the launcher flag."""


class NoLauncherError(ManifestError):
    """The manifest declares no launcher activity."""


def _string_collection(value, convert, owner: str, key: str):
    """``value`` as a ``convert`` (tuple or frozenset) of strings; a bare
    string, a non-collection or a non-string member is a SchemaError."""
    try:
        strings = None if isinstance(value, str) else convert(value)
    except TypeError:
        strings = None
    if strings is None or not all(map(isinstance, strings, repeat(str))):
        raise SchemaError(f"{owner}.{key}: expected a collection of strings, got {value!r}")
    return strings


@dataclass(frozen=True, init=False, slots=True)
class Component:
    """One declared app component.

    ``_KIND_FIELDS`` lists the optional fields each kind may carry.
    ``requires_permissions`` and ``payload`` serve payload catalogs, and
    ``stub`` marks the placeholder components a container pre-declares.
    """

    name: str
    kind: str
    launcher: bool = False
    intents: tuple[str, ...] = ()
    requires_permissions: frozenset[str] = frozenset()
    payload: str | None = None
    stub: bool = False

    def __init__(self, name, kind, launcher=False, intents=(), requires_permissions=frozenset(),
                 payload=None, stub=False) -> None:
        if not isinstance(name, str) or not name:
            raise SchemaError(f"component name must be a non-empty string, got {name!r}")
        if intents or intents.__class__ is not tuple:  # () needs no conversion
            intents = _string_collection(intents, tuple, name, "intents")
        if requires_permissions or requires_permissions.__class__ is not frozenset:
            requires_permissions = _string_collection(
                requires_permissions, frozenset, name, "requires_permissions")
        if launcher.__class__ is not bool or stub.__class__ is not bool:
            raise SchemaError(f"{name}: launcher and stub must be booleans")
        if payload is not None and not isinstance(payload, str):
            raise SchemaError(f"{name}.payload: expected a string or None, got {payload!r}")
        forbidden = _FORBIDDEN.get(kind)
        if forbidden is None:
            raise SchemaError(f"unknown component kind: {kind!r}")
        values = (name, kind, launcher, intents, requires_permissions, payload, stub)
        for i, key, default in forbidden:
            if values[i] != default:
                raise SchemaError(f"{name}: {key} is not allowed for kind {kind}")
        (write_name, write_kind, write_launcher, write_intents, write_requires_permissions,
         write_payload, write_stub) = _COMPONENT_SLOTS
        write_name(self, name)
        write_kind(self, kind)
        write_launcher(self, launcher)
        write_intents(self, intents)
        write_requires_permissions(self, requires_permissions)
        write_payload(self, payload)
        write_stub(self, stub)


# Each field's slot setter, in field order: a constructor writes each field once.
_COMPONENT_SLOTS = tuple(getattr(Component, f.name).__set__ for f in fields(Component))
# Per kind, each optional field it may not carry: position, name, required default.
_FORBIDDEN = {
    kind: tuple((i, f.name, f.default) for i, f in enumerate(fields(Component))
                if f.name not in ("name", "kind") and f.name not in allowed)
    for kind, allowed in _KIND_FIELDS.items()
}


@dataclass(frozen=True, init=False, slots=True)
class AppManifest:
    """Validated, immutable description of a simulated app."""

    package: str
    label: str = ""
    version: int = 0
    permissions: frozenset[str] = frozenset()
    features: frozenset[str] = frozenset()
    activities: tuple[Component, ...] = ()
    services: tuple[Component, ...] = ()
    receivers: tuple[Component, ...] = ()
    providers: tuple[Component, ...] = ()
    launcher_icon: str = "ic_launcher.png"
    shortcut_icon: str | None = None
    shortcut_label: str | None = None
    native_components: frozenset[str] = frozenset()

    def __init__(self, package, label="", version=0, permissions=frozenset(), features=frozenset(),
                 activities=(), services=(), receivers=(), providers=(),
                 launcher_icon="ic_launcher.png", shortcut_icon=None, shortcut_label=None,
                 native_components=frozenset()) -> None:
        permissions = _string_collection(permissions, frozenset, package, "permissions")
        if features or features.__class__ is not frozenset:
            features = _string_collection(features, frozenset, package, "features")
        if native_components or native_components.__class__ is not frozenset:
            native_components = _string_collection(
                native_components, frozenset, package, "native_components")
        if not isinstance(package, str) or not _PACKAGE_RE.match(package):
            raise SchemaError(f"package must be a reverse-DNS name, got {package!r}")
        if type(version) is not int:  # refuse a bool, float or str
            raise SchemaError(f"version must be an integer, not a {type(version).__name__}")
        if version < 0:
            raise SchemaError("version must be >= 0")
        for key, value, optional in (("label", label, False), ("launcher_icon", launcher_icon, False),
                                     ("shortcut_icon", shortcut_icon, True),
                                     ("shortcut_label", shortcut_label, True)):
            if not isinstance(value, str) and not (optional and value is None):
                raise SchemaError(f"{package}.{key}: expected a string, got {value!r}")
        groups = activities, services, receivers, providers = (
            tuple(activities), tuple(services), tuple(receivers), tuple(providers))
        for kind, group in zip(COMPONENT_KINDS, groups):
            for c in group:
                if c.kind != kind:
                    raise SchemaError(f"{c.name}: declared under {kind} but has kind {c.kind}")
        names = [c.name for c in activities + services + receivers + providers]
        if len(set(names)) != len(names):
            duplicate = next(name for i, name in enumerate(names) if name in names[:i])
            raise DuplicateComponentError(f"duplicate component name: {duplicate!r}")
        launchers = [a for a in activities if a.launcher]
        if len(launchers) > 1:
            raise MultipleLauncherError(
                f"{package}: {len(launchers)} launcher activities declared")
        for write, value in zip(_MANIFEST_SLOTS, (
                package, label or package, version, permissions, features, activities, services,
                receivers, providers, launcher_icon, shortcut_icon, shortcut_label,
                native_components)):
            write(self, value)

    def components(self) -> tuple[Component, ...]:
        """All components in canonical order: activities, services, receivers, providers."""
        return self.activities + self.services + self.receivers + self.providers

    def component(self, kind: str, name: str) -> Component | None:
        key = KIND_KEYS.get(kind)
        if key is not None:
            for comp in getattr(self, key):
                if comp.name == name:
                    return comp
        return None


_MANIFEST_SLOTS = tuple(getattr(AppManifest, f.name).__set__ for f in fields(AppManifest))


# ---------------------------------------------------------------------------
# Parsing


# The keys each object of a document may carry.
_MANIFEST_KEYS = frozenset({"package", "label", "version", "permissions", "features",
                            "components", "resources", "native_components"})
_COMPONENTS_KEYS = frozenset(KIND_KEYS.values())
_RESOURCES_KEYS = frozenset({"launcher_icon", "shortcut_icon", "shortcut_label"})
_ENTRY_KEYS = {kind: allowed | {"name"} for kind, allowed in _KIND_FIELDS.items()}


def _expect(doc: dict, context: str, allowed: frozenset[str]) -> None:
    if not doc.keys() <= allowed:
        raise SchemaError(f"{context}: unknown key(s) {sorted(set(doc) - allowed)!r}")


def _value(doc: dict, context: str, key: str, default=None, required=False):
    """``doc[key]``, or ``default`` when absent. A null is refused: the
    constructors read None as an absent payload or shortcut resource."""
    if key not in doc:
        if required:
            raise SchemaError(f"{context}: missing required field {key!r}")
        return default
    if doc[key] is None:
        raise SchemaError(f"{context}.{key}: expected string, got NoneType")
    return doc[key]


def _string_list(doc: dict, context: str, key: str) -> list | tuple[()]:
    """``doc[key]``, a list whose members the constructors check, or () when it is absent."""
    if key not in doc:
        return ()
    if not isinstance(doc[key], list):
        raise SchemaError(f"{context}.{key}: expected list of strings")
    return doc[key]


def _parse_component(entry: object, kind: str, context: str) -> Component:
    if not isinstance(entry, dict):
        raise SchemaError(f"{context}: expected object, got {type(entry).__name__}")
    _expect(entry, context, _ENTRY_KEYS[kind])
    return Component(_value(entry, context, "name", required=True), kind,
                     entry.get("launcher", False), _string_list(entry, context, "intents"),
                     _string_list(entry, context, "requires_permissions") or frozenset(),
                     _value(entry, context, "payload"), entry.get("stub", False))


def parse_manifest(text: str) -> AppManifest:
    """Parse a manifest document, checking only its shape (see the module
    docstring); the constructors check every value. Raises SchemaError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"manifest: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"manifest: expected object, got {type(doc).__name__}")
    _expect(doc, "manifest", _MANIFEST_KEYS)
    package = _value(doc, "manifest", "package", required=True)

    components = doc.get("components", {})
    if not isinstance(components, dict):
        raise SchemaError("manifest.components: expected object")
    _expect(components, "components", _COMPONENTS_KEYS)
    parsed = []
    for kind, key in KIND_KEYS.items():
        entries = components.get(key, [])
        if not isinstance(entries, list):
            raise SchemaError(f"components.{key}: expected list")
        parsed.append([_parse_component(e, kind, f"components.{key}") for e in entries])

    resources = doc.get("resources", {})
    if not isinstance(resources, dict):
        raise SchemaError("manifest.resources: expected object")
    _expect(resources, "resources", _RESOURCES_KEYS)

    return AppManifest(
        package, _value(doc, "manifest", "label", ""), doc.get("version", 0),
        _string_list(doc, "manifest", "permissions"),
        _string_list(doc, "manifest", "features") or frozenset(), *parsed,
        _value(resources, "resources", "launcher_icon", "ic_launcher.png"),
        _value(resources, "resources", "shortcut_icon"),
        _value(resources, "resources", "shortcut_label"),
        _string_list(doc, "manifest", "native_components") or frozenset())


# The document writer lays values out exactly as json.dumps(doc, indent=2).
def _array(items: list[str], pad: str) -> str:
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]" if items else "[]"


def _object(pairs: list[tuple[str, object]], pad: str) -> str:
    """A JSON object of encoded values; a pair whose value is false is left out."""
    inner = pad + "  "
    return "{\n" + ",\n".join(f'{inner}"{k}": {v}' for k, v in pairs if v) + "\n" + pad + "}"


def _strings(values, pad: str) -> str:
    return _array(list(map(_q, values)), pad)


def _component_json(comp: Component, pad: str) -> str:
    inner = pad + "  "
    return _object([
        ("name", _q(comp.name)),
        ("launcher", comp.launcher and "true"),
        ("intents", comp.intents and _strings(comp.intents, inner)),
        ("requires_permissions",
         comp.requires_permissions and _strings(sorted(comp.requires_permissions), inner)),
        ("payload", comp.payload is not None and _q(comp.payload)),
        ("stub", comp.stub and "true"),
    ], pad)


def serialize_manifest(m: AppManifest) -> str:
    """Canonical document text: fixed key order, sorted sets, fields at their
    default left out of components and resources, trailing newline.

    parse_manifest(serialize_manifest(m)) == m for every valid manifest, and
    the output is byte-stable so generated corpora diff cleanly.
    """
    components = [
        (key, _array([_component_json(c, "      ") for c in getattr(m, key)], "    "))
        for key in KIND_KEYS.values()
    ]
    resources = [
        ("launcher_icon", _q(m.launcher_icon)),
        ("shortcut_icon", m.shortcut_icon is not None and _q(m.shortcut_icon)),
        ("shortcut_label", m.shortcut_label is not None and _q(m.shortcut_label)),
    ]
    return _object([
        ("package", _q(m.package)),
        ("label", _q(m.label)),
        ("version", str(m.version)),
        ("permissions", _strings(sorted(m.permissions), "  ")),
        ("features", _strings(sorted(m.features), "  ")),
        ("components", _object(components, "  ")),
        ("resources", _object(resources, "  ")),
        ("native_components", _strings(sorted(m.native_components), "  ")),
    ], "") + "\n"


def load_manifest_file(path) -> AppManifest:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_manifest(fh.read())
        except UnicodeDecodeError as exc:  # an input error that names the file
            raise ManifestError(f"{path}: not UTF-8: {exc}") from None


def write_manifest_file(path, m: AppManifest) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_manifest(m))


# ---------------------------------------------------------------------------
# Launcher query


def launcher_activity(m: AppManifest) -> Component | None:
    for act in m.activities:
        if act.launcher:
            return act
    return None
