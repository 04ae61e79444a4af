"""Built-in scenario fixtures: victim, companion, host template, payload catalog.

These are the default inputs the CLI and test suite run against when no
fixture paths are given. All of them are plain manifests; write them to
disk with manifest.write_manifest_file when file-based inputs are needed.
"""

from __future__ import annotations

from .manifest import (
    ACTIVITY,
    PROVIDER,
    RECEIVER,
    SERVICE,
    AppManifest,
    Component,
)
from . import permissions as perms

VICTIM_PACKAGE = "org.victim.app"
COMPANION_PACKAGE = "org.sidekick.app"
TEMPLATE_PACKAGE = "com.pluginhost.addon"
CATALOG_PACKAGE = "com.pluginhost.payload"

# Store seeding used by the default scenario; counts are what the
# exfiltration assertions key on.
DEFAULT_STORE_COUNTS = {
    "contacts": 3,
    "sms": 2,
    "call_log": 2,
    "phone_state": 1,
    "location": 2,
    "camera_roll": 2,
    "audio": 1,
}

DEFAULT_SEED = 7


def default_victim() -> AppManifest:
    """A messaging-app-shaped victim: three permissions, six components, webview."""
    return AppManifest(
        package=VICTIM_PACKAGE,
        label="QuickChat",
        version=7,
        permissions=frozenset({
            perms.READ_CONTACTS, perms.READ_SMS, perms.INTERNET,
        }),
        features=frozenset({"android.hardware.camera"}),
        activities=(
            Component(name=".MainActivity", kind=ACTIVITY, launcher=True),
        ),
        services=(
            Component(name=".SyncService", kind=SERVICE),
            Component(name=".PushService", kind=SERVICE),
            Component(name=".MediaService", kind=SERVICE),
        ),
        receivers=(
            Component(name=".MsgReceiver", kind=RECEIVER,
                      intents=("org.victim.app.NEW_MESSAGE",)),
        ),
        launcher_icon="ic_launcher.png",
        native_components=frozenset({"webview"}),
    )


def default_companion() -> AppManifest:
    """A second plugin app for naive-container runs: one activity, webview."""
    return AppManifest(
        package=COMPANION_PACKAGE,
        label="Sidekick",
        version=2,
        permissions=frozenset({perms.INTERNET}),
        activities=(
            Component(name=".CompanionMain", kind=ACTIVITY, launcher=True),
        ),
        launcher_icon="ic_sidekick.png",
        native_components=frozenset({"webview"}),
    )


def default_template() -> AppManifest:
    """The unmodified container host template.

    Declares the full simulated permission space and the usual repetitive
    framework components: one setup activity (the host's own launcher),
    four stub activities, exactly one stub service, one stub provider, and
    no receivers at all (plugin receivers get registered dynamically).
    """
    return AppManifest(
        package=TEMPLATE_PACKAGE,
        label="Plugin Host",
        version=1,
        permissions=perms.ALL_PERMISSIONS,
        activities=(
            Component(name="PluginSetupActivity", kind=ACTIVITY, launcher=True),
            Component(name="PluginStubActivity0", kind=ACTIVITY, stub=True),
            Component(name="PluginStubActivity1", kind=ACTIVITY, stub=True),
            Component(name="PluginStubActivity2", kind=ACTIVITY, stub=True),
            Component(name="PluginStubActivity3", kind=ACTIVITY, stub=True),
        ),
        services=(
            Component(name="PluginServiceManager", kind=SERVICE, stub=True),
        ),
        providers=(
            Component(name="PluginStubProvider", kind=PROVIDER, stub=True),
        ),
        launcher_icon="ic_host.png",
    )


def default_catalog() -> AppManifest:
    """The untrimmed payload manifest: eight services, one per dangerous permission."""
    entries = (
        ("PluginContactsService", perms.READ_CONTACTS, "contacts"),
        ("PluginSmsService", perms.READ_SMS, "sms"),
        ("PluginSmsInterceptService", perms.RECEIVE_SMS, "sms_intercept"),
        ("PluginPhoneStateService", perms.READ_PHONE_STATE, "phone_state"),
        ("PluginCallLogService", perms.READ_CALL_LOG, "call_log"),
        ("PluginCameraService", perms.CAMERA, "camera_roll"),
        ("PluginAudioService", perms.RECORD_AUDIO, "audio"),
        ("PluginLocationService", perms.ACCESS_FINE_LOCATION, "location"),
    )
    return AppManifest(
        package=CATALOG_PACKAGE,
        label="Payload Pack",
        version=1,
        permissions=perms.CATALOG_PERMISSIONS,
        services=tuple(
            Component(
                name=name,
                kind=SERVICE,
                requires_permissions=frozenset({permission, perms.INTERNET}),
                payload=payload,
            )
            for name, permission, payload in entries
        ),
        launcher_icon="ic_payload.png",
    )

