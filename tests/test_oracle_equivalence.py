"""Probe implementations versus raw-state oracles over randomized worlds."""

import random

import pytest

from appvirtsim import permissions as perms
from appvirtsim.container import CLOAK_HOOK_LABELS
from appvirtsim.defaults import default_catalog, default_template
from appvirtsim.manifest import (
    ACTIVITY,
    PROVIDER,
    RECEIVER,
    SERVICE,
    AppManifest,
    Component,
)
from appvirtsim.probes import run_probe
from appvirtsim.worlds import (
    EnvHandle,
    MatrixScenario,
    build_cloaked_world,
    build_naive_world,
    build_native_world,
    seed_stores,
)
from conftest import unhooked
from raw_oracles import ORACLES

WORLDS_PER_MECHANISM = 50


def random_probe_manifest(rng: random.Random, index: int) -> AppManifest:
    pool = sorted(perms.CATALOG_PERMISSIONS | {perms.BLUETOOTH})
    permissions = frozenset(rng.sample(pool, rng.randint(0, len(pool))))
    services = tuple(
        Component(name=f".RndService{i}", kind=SERVICE)
        for i in range(rng.randint(0, 3))
    )
    receivers = tuple(
        Component(
            name=f".RndReceiver{i}", kind=RECEIVER,
            intents=(f"org.rnd.ACTION_{i}",) if rng.random() < 0.8 else (),
        )
        for i in range(rng.randint(0, 2))
    )
    providers = (
        (Component(name=".RndProvider", kind=PROVIDER),)
        if rng.random() < 0.3 else ()
    )
    native = frozenset({"webview"}) if rng.random() < 0.6 else frozenset()
    return AppManifest(
        package=f"org.rnd{index}.app",
        label=rng.choice(["Rnd App", "Roundel", "R App X"]),
        version=rng.randint(0, 30),
        permissions=permissions,
        activities=(Component(name=".RndMain", kind=ACTIVITY, launcher=True),),
        services=services,
        receivers=receivers,
        providers=providers,
        native_components=native,
    )


def random_companion(rng: random.Random, index: int) -> AppManifest:
    has_launcher = rng.random() < 0.8
    return AppManifest(
        package=f"org.cmp{index}.app",
        label="Cmp",
        permissions=frozenset({perms.INTERNET}),
        activities=(Component(name=".CmpMain", kind=ACTIVITY, launcher=has_launcher),),
        native_components=frozenset({"webview"}) if rng.random() < 0.6 else frozenset(),
    )


def random_world(seed: int):
    rng = random.Random(seed)
    scenario = MatrixScenario(
        victim=random_probe_manifest(rng, seed),
        template=default_template(),
        catalog=default_catalog(),
        companion=random_companion(rng, seed),
        seed=rng.randint(0, 10_000),
    )
    # No build reads a data store, so filling them afresh after the build
    # gives each world its own store sizes, empty ones included.
    counts = {s: rng.randint(0, 3) for s in perms.STORE_NAMES}
    kind = rng.choice(("native", "naive", "cloaked"))
    if kind == "native":
        world = build_native_world(scenario)
    elif kind == "naive":
        world = build_naive_world(scenario)
    else:
        dropped = tuple(l for l in CLOAK_HOOK_LABELS if rng.random() < 0.3)
        world = unhooked(build_cloaked_world(scenario), dropped)
    seed_stores(world.os, counts, scenario.seed)
    return world


@pytest.mark.parametrize("mechanism", sorted(ORACLES, key=int))
def test_probe_agrees_with_raw_oracle(mechanism):
    for i in range(WORLDS_PER_MECHANISM):
        world = random_world(seed=int(mechanism) * 1000 + i)
        expected = ORACLES[mechanism](world)
        outcome = run_probe(EnvHandle(world), mechanism)
        assert outcome.verdict.value == expected, (
            f"mechanism {mechanism}, world seed {int(mechanism) * 1000 + i} "
            f"({world.environment}): oracle says {expected}, probe says "
            f"{outcome.verdict.value} ({outcome.evidence})"
        )
