import json
import random
import re
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from appvirtsim.manifest import (
    ACTIVITY,
    PROVIDER,
    RECEIVER,
    SERVICE,
    AppManifest,
    Component,
    DuplicateComponentError,
    MultipleLauncherError,
    SchemaError,
    launcher_activity,
    parse_manifest,
    serialize_manifest,
)
from appvirtsim import permissions as perms
from appvirtsim.corpus import corpus_manifest
from appvirtsim.customization import check_catalog, customize
from appvirtsim.defaults import default_catalog, default_companion, default_template

SAMPLE_PATH = Path(__file__).parent / "data" / "sample_victim.json"


def test_parse_minimal_document():
    text = json.dumps({
        "package": "a.b",
        "components": {"activities": [{"name": ".Main", "launcher": True}]},
    })
    m = parse_manifest(text)
    assert m.package == "a.b"
    assert len(m.activities) == 1
    assert m.permissions == frozenset()
    assert m.label == "a.b"  # label defaults to the package


def test_parse_sample_fixture():
    # Hand-built fixture, verified by an independent raw-json re-parse.
    m = parse_manifest(SAMPLE_PATH.read_text(encoding="utf-8"))
    assert m.permissions == frozenset({
        perms.READ_CONTACTS, perms.READ_SMS, perms.INTERNET,
    })
    assert len(m.components()) == 4
    assert (m.launcher_icon, m.label) == ("ic_samplechat.png", "SampleChat")


def test_duplicate_component_names_rejected():
    text = json.dumps({
        "package": "a.b",
        "components": {
            "activities": [{"name": ".X"}],
            "services": [{"name": ".X"}],
        },
    })
    with pytest.raises(DuplicateComponentError):
        parse_manifest(text)


def test_multiple_launchers_rejected():
    text = json.dumps({
        "package": "a.b",
        "components": {"activities": [
            {"name": ".A", "launcher": True},
            {"name": ".B", "launcher": True},
        ]},
    })
    with pytest.raises(MultipleLauncherError):
        parse_manifest(text)


# Each refused document with the exact message it gets.
REJECTED_DOCUMENTS = [
    ({"package": "a.b", "banana": 1}, "manifest: unknown key(s) ['banana']"),
    ({"package": "a.b", "components": {"widgets": []}}, "components: unknown key(s) ['widgets']"),
    ({"package": "a.b", "components": {"activities": [{"name": ".A", "payload": "x"}]}},
     "components.activities: unknown key(s) ['payload']"),
    ({"package": "a.b", "resources": {"splash": "x.png"}}, "resources: unknown key(s) ['splash']"),
    ({"package": "a.b", "version": "seven"}, "version must be an integer, not a str"),
    ({"label": "no package"}, "manifest: missing required field 'package'"),
    ({"package": "NotReverseDns"}, "package must be a reverse-DNS name, got 'NotReverseDns'"),
    ({"package": "a.b", "permissions": "android.permission.INTERNET"},
     "manifest.permissions: expected list of strings"),
    ({"package": "a.b", "components": []}, "manifest.components: expected object"),
    ({"package": "a.b", "components": {"activities": [{"name": ".A", "launcher": 1}]}},
     ".A: launcher and stub must be booleans"),
    # The constructors take None for these, so the parser refuses a null.
    ({"package": "a.b", "components": {"services": [{"name": ".S", "payload": None}]}},
     "components.services.payload: expected string, got NoneType"),
    ({"package": "a.b", "resources": {"shortcut_icon": None}},
     "resources.shortcut_icon: expected string, got NoneType"),
    ({"package": "a.b", "resources": {"shortcut_label": None}},
     "resources.shortcut_label: expected string, got NoneType"),
    # A constructor would take an object's keys as the strings.
    ({"package": "a.b", "features": {"android.hardware.camera": True}},
     "manifest.features: expected list of strings"),
    ([{"package": "a.b"}], "manifest: expected object, got list"),
    ({"package": "a.b", "components": {"activities": [".A"]}},
     "components.activities: expected object, got str"),
    ({"package": "a.b", "components": {"services": {"name": ".S"}}},
     "components.services: expected list"),
    ({"package": "a.b", "resources": ["icon.png"]}, "manifest.resources: expected object"),
    ({"package": "a.b", "version": -1}, "version must be >= 0"),
]


@pytest.mark.parametrize("doc, message", REJECTED_DOCUMENTS,
                         ids=[f"doc{i}" for i in range(len(REJECTED_DOCUMENTS))])
def test_strict_schema_rejects(doc, message):
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        parse_manifest(json.dumps(doc))


@pytest.mark.parametrize("text", ["", "not json", '{"package": "a.b",'])
def test_non_json_text_rejected(text):
    with pytest.raises(SchemaError, match="^manifest: not valid JSON "):
        parse_manifest(text)


# Values parse_manifest refuses, built in code; each was accepted, split into
# characters or raised a TypeError before the constructors checked types.
@pytest.mark.parametrize("build", [
    lambda: Component(name=".R", kind=RECEIVER, intents="org.X"),
    lambda: Component(name=".R", kind=RECEIVER, intents=["org.X", 7]),
    lambda: Component(name=".S", kind=SERVICE, requires_permissions=perms.INTERNET),
    lambda: AppManifest(package="a.b", permissions=perms.INTERNET),
    lambda: AppManifest(package="a.b", features="android.hardware.camera"),
    lambda: AppManifest(package="a.b", native_components="webview"),
    lambda: AppManifest(package="a.b", version=1.5),
    lambda: AppManifest(package="a.b", version="3"),
    lambda: AppManifest("a.b", label=5),
    lambda: AppManifest("a.b", launcher_icon=5),
    lambda: AppManifest("a.b", shortcut_icon=5),
    lambda: AppManifest("a.b", shortcut_label=[]),
    lambda: Component(5, SERVICE),
    lambda: Component(".S", SERVICE, payload=5),
    lambda: Component(".A", ACTIVITY, stub="yes"),
    lambda: Component(".A", ACTIVITY, launcher=1),
], ids=["bare-intents", "int-intent", "bare-requires-permissions", "bare-permissions",
        "bare-features", "bare-native-components", "float-version", "str-version",
        "int-label", "int-launcher-icon", "int-shortcut-icon", "list-shortcut-label",
        "int-name", "int-payload", "str-stub", "int-launcher"])
def test_constructors_refuse_what_the_parser_refuses(build):
    with pytest.raises(SchemaError):
        build()


def test_every_field_is_frozen(victim):
    for value in (victim, victim.activities[0], victim.receivers[0]):
        for f in fields(value):
            with pytest.raises(FrozenInstanceError):
                setattr(value, f.name, getattr(value, f.name))


@pytest.mark.parametrize("change, error, message", [
    (lambda m: replace(m, package="NotReverseDns"), SchemaError,
     "package must be a reverse-DNS name, got 'NotReverseDns'"),
    (lambda m: replace(m, providers=(Component(name=".SyncService", kind=PROVIDER),)),
     DuplicateComponentError, "duplicate component name: '.SyncService'"),
    (lambda m: replace(m, receivers=(Component(name=".Boot", kind=ACTIVITY),)), SchemaError,
     ".Boot: declared under receiver but has kind activity"),
    (lambda m: replace(m, activities=m.activities + (
        Component(name=".Second", kind=ACTIVITY, launcher=True),)),
     MultipleLauncherError, "org.victim.app: 2 launcher activities declared"),
    (lambda m: replace(m.activities[0], intents=("app.PING",)), SchemaError,
     ".MainActivity: intents is not allowed for kind activity"),
])
def test_replace_runs_every_check(victim, change, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        change(victim)


def test_kind_specific_fields_enforced():
    with pytest.raises(SchemaError):
        Component(name=".S", kind=SERVICE, launcher=True)
    with pytest.raises(SchemaError):
        Component(name=".A", kind=ACTIVITY, intents=("X",))
    with pytest.raises(SchemaError):
        Component(name=".R", kind=RECEIVER, stub=True)
    with pytest.raises(SchemaError):
        Component(name=".P", kind=PROVIDER, requires_permissions={perms.INTERNET})
    with pytest.raises(SchemaError):
        Component(name=".P", kind=PROVIDER, payload="")


def test_permissions_are_a_frozen_copy(victim):
    declared = set(victim.permissions)
    m = AppManifest(package="a.b", permissions=declared)
    assert isinstance(m.permissions, frozenset)
    assert m.permissions == victim.permissions
    declared.add("android.permission.BOGUS")
    assert "android.permission.BOGUS" not in m.permissions


def test_bool_version_rejected():
    with pytest.raises(SchemaError, match="version must be an integer, not a bool"):
        AppManifest(package="a.b", version=True)


def test_permissions_empty_by_default():
    m = AppManifest(package="a.b")
    assert m.permissions == frozenset()


def test_extract_components_order():
    m = AppManifest(
        package="a.b",
        activities=(Component(name=".Main", kind=ACTIVITY),),
        services=(Component(name=".Sync", kind=SERVICE),),
    )
    assert [(c.kind, c.name) for c in m.components()] == [(ACTIVITY, ".Main"), (SERVICE, ".Sync")]
    assert AppManifest(package="a.b").components() == ()


def test_extract_components_template_order(template):
    # Fixture oracle: the host template's stubs in declaration order.
    assert [(c.kind, c.name) for c in template.components()] == [
        (ACTIVITY, "PluginSetupActivity"),
        (ACTIVITY, "PluginStubActivity0"),
        (ACTIVITY, "PluginStubActivity1"),
        (ACTIVITY, "PluginStubActivity2"),
        (ACTIVITY, "PluginStubActivity3"),
        (SERVICE, "PluginServiceManager"),
        (PROVIDER, "PluginStubProvider"),
    ]


def test_launcher_activity(victim, template):
    assert launcher_activity(victim) == victim.activities[0]
    assert launcher_activity(template).name == "PluginSetupActivity"
    assert launcher_activity(AppManifest(package="a.b")) is None


def test_catalog_validation(catalog):
    assert len(catalog.services) == 8
    bad = AppManifest(
        package="c.d",
        services=(Component(name="Svc", kind=SERVICE, payload="contacts",
                            requires_permissions={perms.READ_CONTACTS}),),
    )
    with pytest.raises(SchemaError, match="INTERNET"):
        check_catalog(bad)


# ---------------------------------------------------------------------------
# Round-trip property


_names = st.integers(min_value=0, max_value=9999).map(lambda n: f".C{n}")
_perm_sets = st.frozensets(
    st.sampled_from(sorted(perms.ALL_PERMISSIONS)), max_size=6
)


@st.composite
def manifests(draw):
    n_activities = draw(st.integers(0, 3))
    n_services = draw(st.integers(0, 3))
    n_receivers = draw(st.integers(0, 2))
    n_providers = draw(st.integers(0, 2))
    total = n_activities + n_services + n_receivers + n_providers
    names = draw(st.lists(_names, min_size=total, max_size=total, unique=True))
    it = iter(names)
    launcher_slot = draw(st.integers(-1, n_activities - 1)) if n_activities else -1
    activities = tuple(
        Component(name=next(it), kind=ACTIVITY, launcher=(i == launcher_slot))
        for i in range(n_activities)
    )
    services = tuple(
        Component(name=next(it), kind=SERVICE) for _ in range(n_services)
    )
    receivers = tuple(
        Component(name=next(it), kind=RECEIVER,
                  intents=tuple(draw(st.lists(st.sampled_from(
                      ["app.PING", "app.BOOT", "app.SYNC"]), max_size=2))))
        for _ in range(n_receivers)
    )
    providers = tuple(
        Component(name=next(it), kind=PROVIDER) for _ in range(n_providers)
    )
    return AppManifest(
        package=draw(st.sampled_from(["a.b", "org.x.y", "com.deep.pkg_1"])),
        label=draw(st.sampled_from(["App", "My App", "x"])),
        version=draw(st.integers(0, 99)),
        permissions=draw(_perm_sets),
        features=draw(st.frozensets(st.sampled_from(
            ["android.hardware.camera", "android.hardware.wifi"]), max_size=2)),
        activities=activities,
        services=services,
        receivers=receivers,
        providers=providers,
        launcher_icon=draw(st.sampled_from(["ic.png", "icon.png"])),
        native_components=draw(st.frozensets(
            st.sampled_from(["webview", "maps"]), max_size=2)),
    )


@given(manifests())
def test_round_trip(m):
    assert parse_manifest(serialize_manifest(m)) == m


# Values of every type a caller might pass for a scalar field; a constructor
# either refuses one with a SchemaError or builds a manifest that round-trips.
_SCALAR_DEFAULTS = {"label": "App", "launcher_icon": "ic.png", "shortcut_icon": None,
                    "shortcut_label": None, "name": ".C", "payload": None,
                    "launcher": False, "stub": False}
_scalars = st.sampled_from([None, "", "x", 0, 5, 1.5, True, False, [], ("x",)])


@given(kind=st.sampled_from([ACTIVITY, SERVICE]),
       values=st.dictionaries(st.sampled_from(sorted(_SCALAR_DEFAULTS)), _scalars, max_size=2))
def test_round_trip_is_total_over_scalar_fields(kind, values):
    fields = {**_SCALAR_DEFAULTS, **values}
    component = {key: fields.pop(key) for key in ("name", "payload", "launcher", "stub")}
    try:
        comp = Component(kind=kind, **component)
        m = AppManifest("a.b", **{"activities" if kind == ACTIVITY else "services": (comp,)},
                        **fields)
    except SchemaError:
        return
    assert parse_manifest(serialize_manifest(m)) == m


@given(manifests())
def test_component_extraction_is_total(m):
    assert len(m.components()) == (
        len(m.activities) + len(m.services) + len(m.receivers) + len(m.providers)
    )


def test_serialization_deterministic(victim):
    assert serialize_manifest(victim) == serialize_manifest(victim)
    again = parse_manifest(serialize_manifest(victim))
    assert serialize_manifest(again) == serialize_manifest(victim)


# The reference layout of a manifest document: serialize_manifest must write
# exactly json.dumps(manifest_to_dict(m), indent=2) plus a newline.
def _component_to_dict(comp: Component) -> dict:
    entry: dict = {"name": comp.name}
    if comp.launcher:
        entry["launcher"] = True
    if comp.intents:
        entry["intents"] = list(comp.intents)
    if comp.requires_permissions:
        entry["requires_permissions"] = sorted(comp.requires_permissions)
    if comp.payload is not None:
        entry["payload"] = comp.payload
    if comp.stub:
        entry["stub"] = True
    return entry


def manifest_to_dict(m: AppManifest) -> dict:
    doc: dict = {
        "package": m.package,
        "label": m.label,
        "version": m.version,
        "permissions": sorted(m.permissions),
        "features": sorted(m.features),
        "components": {
            key: [_component_to_dict(c) for c in getattr(m, key)]
            for key in ("activities", "services", "receivers", "providers")
        },
        "resources": {"launcher_icon": m.launcher_icon},
        "native_components": sorted(m.native_components),
    }
    if m.shortcut_icon is not None:
        doc["resources"]["shortcut_icon"] = m.shortcut_icon
    if m.shortcut_label is not None:
        doc["resources"]["shortcut_label"] = m.shortcut_label
    return doc


def assert_serialized_like_json_dumps(m: AppManifest) -> None:
    text = serialize_manifest(m)
    assert text == json.dumps(manifest_to_dict(m), indent=2) + "\n"
    assert parse_manifest(text) == m


@settings(max_examples=200, deadline=None)
@given(index=st.integers(0, 9999), seed=st.integers(0, 2**32 - 1), webview=st.booleans())
def test_serialize_manifest_is_json_dumps_on_corpus_and_customized(index, seed, webview):
    victim = corpus_manifest(index, random.Random(seed))
    if webview:
        victim = replace(victim, native_components=frozenset({"webview"}))
    template, catalog = default_template(), default_catalog()
    result = customize(victim, template, catalog)
    for m in (victim, result.addon, result.malicious, template, catalog, default_companion()):
        assert_serialized_like_json_dumps(m)


@given(text=st.text(min_size=1, max_size=12), m=manifests())
def test_serialize_manifest_escapes_like_json_dumps(text, m):
    # Quotes, backslashes, control and non-ASCII characters in every free
    # string field are escaped as json.dumps escapes them.
    receiver = Component(name=text, kind=RECEIVER, intents=(text, "app.PING"))
    assert_serialized_like_json_dumps(replace(
        m, label=text, receivers=(receiver,), activities=(), services=(), providers=(),
        launcher_icon=text, shortcut_icon=text, shortcut_label=text,
        features=frozenset({text}), native_components=frozenset({text, "webview"})))
