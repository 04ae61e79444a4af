import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from appvirtsim import permissions as perms
from appvirtsim.customization import (
    CustomizationInvariantError,
    check_catalog,
    customize,
    validate_result,
)
from appvirtsim.corpus import corpus_manifest
from appvirtsim.defaults import default_catalog, default_template, default_victim
from appvirtsim.manifest import (
    ACTIVITY,
    COMPONENT_KINDS,
    KIND_KEYS,
    SERVICE,
    AppManifest,
    Component,
    NoLauncherError,
    SchemaError,
    serialize_manifest,
)
from reference_customization import reference_customize

EXTRAS = set(perms.ADDON_EXTRA_PERMISSIONS)


def make_victim(permissions, label="QuickChat"):
    return replace(default_victim(), permissions=frozenset(permissions),
                   label=label)


def test_step1_replaces_template_permissions(victim, template, catalog):
    addon = customize(victim, template, catalog).addon
    assert addon.permissions == victim.permissions | EXTRAS
    assert addon.features == victim.features
    assert perms.BLUETOOTH not in addon.permissions  # all-permissions set gone


def test_step1_extras_are_set_union(template, catalog):
    addon = customize(make_victim({perms.INSTALL_SHORTCUT}), template, catalog).addon
    assert sorted(addon.permissions) == sorted(EXTRAS)


def test_check_catalog_accepts_the_builtin():
    catalog = default_catalog()
    assert check_catalog(catalog) is catalog


def _catalog_service(**fields):
    base = {"name": "PluginSvc", "kind": SERVICE, "payload": "contacts",
            "requires_permissions": {perms.READ_CONTACTS, perms.INTERNET}}
    return Component(**{**base, **fields})


@pytest.mark.parametrize("catalog, message", [
    (AppManifest(package="c.d", services=(_catalog_service(),),
                 activities=(Component(name=".Main", kind=ACTIVITY),)),
     "c.d: payload catalogs declare services only"),
    (AppManifest(package="c.d"), "c.d: payload catalog has no services"),
    (AppManifest(package="c.d", services=(
        _catalog_service(requires_permissions={perms.READ_CONTACTS}),)),
     "PluginSvc: catalog services must require INTERNET"),
    (AppManifest(package="c.d", services=(_catalog_service(payload=None),)),
     "PluginSvc: catalog service lacks a payload tag"),
    (AppManifest(package="c.d", services=(_catalog_service(payload="bogus"),)),
     "PluginSvc: unknown payload tag 'bogus'"),
], ids=["services_only", "has_services", "internet", "payload_tag", "known_tag"])
def test_check_catalog_rules(catalog, message):
    with pytest.raises(SchemaError) as info:
        check_catalog(catalog)
    assert str(info.value) == message


def _trim_oracle(victim, catalog):
    # Independent re-statement of the filter: keep entries whose required
    # permissions the victim declares, in catalog order.
    return [e.name for e in catalog.services
            if set(e.requires_permissions) <= set(victim.permissions)]


def test_step2_filters_by_victim_permissions(template, catalog):
    victim = make_victim({perms.READ_CONTACTS, perms.READ_SMS, perms.INTERNET})
    malicious = customize(victim, template, catalog).malicious
    assert [s.payload for s in malicious.services] == ["contacts", "sms"]
    assert len(malicious.services) == len(_trim_oracle(victim, catalog))
    assert malicious.permissions == frozenset(
        {perms.READ_CONTACTS, perms.READ_SMS, perms.INTERNET})
    assert malicious.activities == () and malicious.providers == ()


def test_step2_internet_only_victim(template, catalog):
    malicious = customize(make_victim({perms.INTERNET}), template, catalog).malicious
    assert malicious.services == ()
    assert malicious.permissions == frozenset()


def test_step2_full_permission_victim(template, catalog):
    victim = make_victim(perms.CATALOG_PERMISSIONS)
    malicious = customize(victim, template, catalog).malicious
    assert len(malicious.services) == 8
    assert len(malicious.services) == len(_trim_oracle(victim, catalog))


def test_step2_renames_services_with_victim_label(template, catalog):
    victim = make_victim({perms.READ_CONTACTS, perms.INTERNET}, label="My Chat")
    malicious = customize(victim, template, catalog).malicious
    assert [s.name for s in malicious.services] == ["MyChatContactsService"]


def test_step3_stub_renaming(victim, template, catalog):
    result = customize(victim, template, catalog)
    assert result.rename_map["PluginServiceManager"] == "QuickChatServiceManager"
    assert result.rename_map["PluginSetupActivity"] == "QuickChatSetupActivity"
    names = {c.name for c in result.addon.components()}
    assert {".MainActivity", ".SyncService", ".MsgReceiver",
            "QuickChatContactsService"} <= names


def test_step3_component_arithmetic():
    # 4 victim components + 2 payload services + 3 template components = 9.
    victim = AppManifest(
        package="org.small.app", label="Tiny",
        permissions={perms.READ_CONTACTS, perms.READ_SMS, perms.INTERNET},
        activities=(Component(name=".A", kind=ACTIVITY, launcher=True),),
        services=(Component(name=".S1", kind=SERVICE),
                  Component(name=".S2", kind=SERVICE)),
        providers=(Component(name=".P", kind="provider"),),
    )
    template = AppManifest(
        package="com.tiny.host", label="Host",
        permissions=perms.ALL_PERMISSIONS,
        activities=(Component(name="PluginSetup", kind=ACTIVITY, launcher=True),
                    Component(name="PluginStubA", kind=ACTIVITY, stub=True)),
        services=(Component(name="PluginStubS", kind=SERVICE, stub=True),),
    )
    result = customize(victim, template, default_catalog())
    assert len(result.malicious.services) == 2
    assert len(result.addon.components()) == 9


def test_step3_collision_suffix():
    victim = AppManifest(
        package="org.tricky.app", label="Tricky",
        activities=(Component(name="TrickySetup", kind=ACTIVITY, launcher=True),),
    )
    template = AppManifest(
        package="com.tiny.host", label="Host",
        permissions=perms.ALL_PERMISSIONS,
        activities=(Component(name="PluginSetup", kind=ACTIVITY, launcher=True),),
    )
    result = customize(victim, template, default_catalog())
    # The victim's name survives verbatim; the renamed stub gets suffixed.
    names = [c.name for c in result.addon.activities]
    assert "TrickySetup" in names
    assert result.rename_map["PluginSetup"] == "TrickySetup_c1"
    assert len(names) == len(set(names))


def test_step4_resources(victim, template, catalog):
    addon = customize(victim, template, catalog).addon
    assert addon.shortcut_icon == "ic_launcher.png"
    assert addon.shortcut_label == "QuickChat"
    assert addon.launcher_icon == "ic_host.png"  # own install icon kept


def test_step4_requires_launcher(template, catalog):
    bare = AppManifest("org.bare.app", label="Bare")
    for pipeline in (customize, reference_customize):
        with pytest.raises(NoLauncherError, match="^org.bare.app: no launcher activity declared$"):
            pipeline(bare, template, catalog)


def test_customize_end_to_end(victim, template, catalog):
    result = customize(victim, template, catalog)
    validate_result(victim, result)  # raises on any law violation
    assert result.addon.permissions == victim.permissions | EXTRAS
    assert result.malicious.permissions <= victim.permissions
    assert [e["step"] for e in result.report] == [
        "permissions", "trim_payload", "components", "resources",
    ]
    assert all(e["duration_ms"] >= 0 for e in result.report)


def test_customize_empty_permission_victim(template, catalog):
    victim = make_victim(set())
    result = customize(victim, template, catalog)
    assert result.addon.permissions == frozenset(EXTRAS)
    assert result.malicious.services == ()
    # addon components: victim's six plus the template's seven, zero payload
    assert len(result.addon.components()) == len(victim.components()) + 7


def test_customize_deterministic(victim, template, catalog):
    a = customize(victim, template, catalog)
    b = customize(victim, template, catalog)
    assert a.addon == b.addon
    assert a.malicious == b.malicious
    assert a.rename_map == b.rename_map


def test_validate_result_catches_violation(victim, template, catalog):
    result = customize(victim, template, catalog)
    result.addon = replace(
        result.addon, permissions=result.addon.permissions | {perms.CAMERA})
    with pytest.raises(CustomizationInvariantError):
        validate_result(victim, result)


# ---------------------------------------------------------------------------
# Law properties over random victims


@st.composite
def victims(draw):
    permissions = draw(st.frozensets(
        st.sampled_from(sorted(perms.CATALOG_PERMISSIONS | {perms.BLUETOOTH})),
        max_size=9))
    extra_services = draw(st.integers(0, 3))
    return AppManifest(
        package="org.rand.app",
        label=draw(st.sampled_from(["Rand", "Rand App", "X Y Z"])),
        permissions=permissions,
        activities=(Component(name=".Root", kind=ACTIVITY, launcher=True),),
        services=tuple(Component(name=f".Svc{i}", kind=SERVICE)
                       for i in range(extra_services)),
    )


@given(victims())
def test_permission_set_law(v):
    result = customize(v, default_template(), default_catalog())
    assert result.addon.permissions == v.permissions | EXTRAS


@given(victims())
def test_least_privilege_law(v):
    result = customize(v, default_template(), default_catalog())
    assert result.malicious.permissions <= v.permissions


@given(victims())
def test_component_embedding_law(v):
    result = customize(v, default_template(), default_catalog())
    addon_pairs = [(c.kind, c.name) for c in result.addon.components()]
    for comp in v.components():
        assert addon_pairs.count((comp.kind, comp.name)) == 1


# ---------------------------------------------------------------------------
# Agreement with the step-by-step reference over corpus victims


TEMPLATE = default_template()
CATALOG = default_catalog()
FRAMEWORK_NAMES = sorted(c.name for c in TEMPLATE.components() + CATALOG.services)


@st.composite
def corpus_victims(draw):
    """A ``corpus_manifest`` victim, odd seeds with ``webview``, a spaced or
    unspaced label, and components named as step 3 would rename framework or
    payload components (``<Label>SetupActivity``, ``..._c1``), so that its
    collision suffixes are drawn."""
    seed = draw(st.integers(0, 2**32 - 1))
    victim = corpus_manifest(draw(st.integers(0, 9999)), random.Random(seed))
    label = draw(st.sampled_from([victim.label, "QuickChat", "My  Chat\tApp"]))
    prefix = "".join(label.split())
    clashes = draw(st.lists(
        st.tuples(st.sampled_from(FRAMEWORK_NAMES), st.integers(0, 2),
                  st.sampled_from(COMPONENT_KINDS)),
        max_size=4, unique_by=lambda clash: clash[:2]))
    extra = {key: () for key in KIND_KEYS.values()}
    for name, k, kind in clashes:
        name = prefix + name.removeprefix("Plugin") + (f"_c{k}" if k else "")
        extra[KIND_KEYS[kind]] += (Component(name, kind),)
    return replace(
        victim, label=label,
        native_components={"webview"} if seed % 2 else frozenset(),
        **{key: getattr(victim, key) + comps for key, comps in extra.items()})


@settings(max_examples=200, deadline=None)
@given(corpus_victims())
def test_customize_matches_the_reference(v):
    result = customize(v, TEMPLATE, CATALOG)
    addon, malicious, rename_map, steps = reference_customize(v, TEMPLATE, CATALOG)
    assert serialize_manifest(result.addon) == serialize_manifest(addon)
    assert serialize_manifest(result.malicious) == serialize_manifest(malicious)
    assert result.rename_map == rename_map
    assert [(e["step"], e["detail"]) for e in result.report] == steps
