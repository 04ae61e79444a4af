"""Scenario worlds: the three environments a probe app can run in.

A world bundles one SimOs, the container state when there is one, the probe
app's process and declared manifest, and that process's runtime model:

  * native: the probe app is installed and runs in its own process;
  * naive_container: an unmodified host template is installed; the probe
    app and a companion app run as uninstalled plugins, no bypass hooks;
  * cloaked_container: the add-on is customized for the probe app (playing
    the victim), the probe app is installed natively, the bypass hookset is
    live, and the first-run sequence has executed.

Worlds are deterministic for a given scenario, the one input of a builder.
Each is built on a ``seeded_device``, a fork of one cached device. The first
run calls nothing a bypass hook targets, so a cloaked world without some hooks
is a fork of the built one with them uninstalled. ``unprobed_world`` caches
each environment's build per scenario and hands out forks of it, and is the
only public way the report document and ``bench`` get a world; the matrix
takes the cached build itself and forks it once per probe. The first-run log
lives on the cloaked build, not on any detection report; a fork shares its
entry dicts with the build, so the report document copies each one. Callers
isolate probes from each other by running each on its own ``World.fork``.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from . import artmodel, container, defaults
from .customization import check_catalog, customize
from .manifest import AppManifest, SchemaError, launcher_activity, load_manifest_file
from .simos import ApiCall, SimOs

NATIVE_ENV = "native"
NAIVE_ENV = "naive_container"
CLOAKED_ENV = "cloaked_container"
ENVIRONMENTS = (NATIVE_ENV, NAIVE_ENV, CLOAKED_ENV)


@dataclass(frozen=True, slots=True)
class MatrixScenario:
    """The inputs every command builds its worlds from, checked when built:
    a victim that shares its package with another input is a SchemaError.
    Frozen, so nothing changes after the check and ``unprobed_world`` can key
    on identity."""

    victim: AppManifest
    template: AppManifest
    catalog: AppManifest
    companion: AppManifest
    seed: int = defaults.DEFAULT_SEED

    def __post_init__(self) -> None:
        others = (self.template.package, self.companion.package, self.catalog.package)
        if self.victim.package in others:
            role = ("template", "companion", "catalog")[others.index(self.victim.package)]
            raise SchemaError(f"victim package {self.victim.package!r} is also the {role}'s")


def default_scenario(seed: int = defaults.DEFAULT_SEED, victim_path=None,
                     template_path=None, catalog_path=None) -> MatrixScenario:
    """The built-in scenario; each given manifest path replaces its built-in."""
    return MatrixScenario(
        victim=load_manifest_file(victim_path) if victim_path else defaults.default_victim(),
        template=(load_manifest_file(template_path)
                  if template_path else defaults.default_template()),
        catalog=(check_catalog(load_manifest_file(catalog_path))
                 if catalog_path else defaults.default_catalog()),
        companion=defaults.default_companion(),
        seed=seed,
    )


def seed_stores(os: SimOs, counts: dict[str, int], seed: int) -> None:
    """Fill the data stores with deterministic opaque records."""
    rng = random.Random(seed)
    for store, count in sorted(counts.items()):
        os.seed_store(store, tuple(f"{store}-{i:03d}-{rng.randrange(16 ** 6):06x}"
                                   for i in range(count)))


@functools.lru_cache(maxsize=1)
def _pristine_device(seed: int) -> SimOs:
    """The device ``seeded_device`` forks; never handed out, so never written to."""
    os = SimOs()
    seed_stores(os, defaults.DEFAULT_STORE_COUNTS, seed)
    return os


def seeded_device(sc: MatrixScenario) -> SimOs:
    """A device with nothing installed and the default data stores filled for
    the scenario's seed: a fork of the device cached for the last seed seen."""
    return _pristine_device(sc.seed).fork()


@dataclass
class World:
    environment: str
    os: SimOs
    probe_pid: int
    probe_manifest: AppManifest
    runtime: artmodel.RuntimeModel
    container: container.ContainerState | None = None

    def fork(self) -> World:
        """An independent copy: the OS, container and runtime are forked and the
        frozen probe manifest is shared. The container's run-log entry dicts
        are shared too (see ``ContainerState.fork``)."""
        return World(self.environment, self.os.fork(), self.probe_pid, self.probe_manifest,
                     self.runtime.fork(), self.container and self.container.fork())


class EnvHandle:
    """What a probe is allowed to see: its declared manifest, the call
    surface (``call``, bound once to the OS or to ``plugin_syscall``), and its
    process's runtime model. Nothing else."""

    def __init__(self, world: World):
        self.declared = world.probe_manifest
        self.runtime = world.runtime
        if world.container is None:
            self.call = functools.partial(world.os.syscall, world.probe_pid)
        else:
            self.call = functools.partial(container.plugin_syscall, world.os, world.container,
                                          world.probe_pid)


def launch_native(os: SimOs, package: str) -> int:
    """Run an installed app the native way: own process, own maps, launcher up."""
    record = os.registry[package]
    pid = os.spawn_process(
        package,
        name=package,
        maps=[record.apk_path, f"/data/app/{package}/lib/libmain.so"],
    )
    launcher = launcher_activity(record.manifest)
    if launcher is not None:
        os.syscall(pid, ApiCall("start_activity", name=launcher.name))
    for native in sorted(record.manifest.native_components):
        os.syscall(pid, ApiCall("native_blob_write", name=native,
                                token=f"init:{package}"))
    return pid


def build_native_world(sc: MatrixScenario) -> World:
    os = seeded_device(sc)
    os.install(sc.victim)
    pid = launch_native(os, sc.victim.package)
    runtime = artmodel.RuntimeModel(artmodel.NATIVE)
    artmodel.warm_up(runtime)
    return World(NATIVE_ENV, os, pid, sc.victim, runtime)


def build_naive_world(sc: MatrixScenario) -> World:
    os = seeded_device(sc)
    os.install(sc.template)
    c = container.create_container(os, sc.template)
    container.load_plugin(os, c, sc.companion)
    pid = container.load_plugin(os, c, sc.victim)
    runtime = artmodel.RuntimeModel(artmodel.VIRTUAL)
    artmodel.warm_up(runtime)
    return World(NAIVE_ENV, os, pid, sc.victim, runtime, container=c)


def build_cloaked_world(sc: MatrixScenario) -> World:
    """Customize, install, hook, and execute the first-run sequence."""
    os = seeded_device(sc)
    os.install(sc.victim)
    launch_native(os, sc.victim.package)

    result = customize(sc.victim, sc.template, sc.catalog)
    os.install(result.addon)
    c = container.create_container(os, result.addon)
    container.install_cloaking_hookset(c, sc.victim.package)

    container.first_run(os, c, sc.victim.package, result.malicious)

    pid = c.plugins[sc.victim.package].pid
    runtime = artmodel.RuntimeModel(artmodel.VIRTUAL)
    artmodel.warm_up(runtime)
    return World(CLOAKED_ENV, os, pid, sc.victim, runtime, container=c)


WORLD_BUILDERS = {
    NATIVE_ENV: build_native_world,
    NAIVE_ENV: build_naive_world,
    CLOAKED_ENV: build_cloaked_world,
}

# Environment -> (last scenario seen, held so that no other gets its id; its build).
_unprobed: dict[str, tuple[MatrixScenario, World]] = {}


def _unprobed_build(sc: MatrixScenario, environment: str) -> World:
    """The cached build itself, for ``probes.run_matrix``, which only forks it."""
    cached = _unprobed.get(environment)
    if cached is None or cached[0] is not sc:
        cached = _unprobed[environment] = (sc, WORLD_BUILDERS[environment](sc))
    return cached[1]


def unprobed_world(sc: MatrixScenario, environment: str) -> World:
    """A fork of the ``environment`` world built for ``sc``: each environment
    keeps the build for the last scenario it saw, and never hands it out."""
    return _unprobed_build(sc, environment).fork()
