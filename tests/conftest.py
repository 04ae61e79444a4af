import json
from pathlib import Path

import pytest

from appvirtsim import defaults
from appvirtsim.container import uninstall_hooks
from appvirtsim.manifest import write_manifest_file
from appvirtsim.worlds import WORLD_BUILDERS, default_scenario

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def victim():
    return defaults.default_victim()

@pytest.fixture
def template():
    return defaults.default_template()

@pytest.fixture
def catalog():
    return defaults.default_catalog()

@pytest.fixture
def companion():
    return defaults.default_companion()

@pytest.fixture
def scenario():
    return default_scenario()


@pytest.fixture
def fixture_paths(tmp_path, victim, template):
    """Default fixtures written to disk, for file-driven commands."""
    paths = {
        "victim": tmp_path / "victim.json",
        "template": tmp_path / "template.json",
        "catalog": tmp_path / "catalog.json",
    }
    write_manifest_file(paths["victim"], victim)
    write_manifest_file(paths["template"], template)
    write_manifest_file(paths["catalog"], defaults.default_catalog())
    return paths


def unhooked(world, labels):
    """A fork of ``world`` with the hooks labelled ``labels`` uninstalled."""
    fork = world.fork()
    uninstall_hooks(fork.container, labels)
    return fork


def counted_builds(monkeypatch) -> list[str]:
    """The environments built from now on, in build order."""
    built = []
    for env, builder in list(WORLD_BUILDERS.items()):
        monkeypatch.setitem(WORLD_BUILDERS, env, lambda sc, env=env, build=builder:
                            built.append(env) or build(sc))
    return built


def load_golden(name: str) -> dict:
    return json.loads((DATA_DIR / name).read_text(encoding="utf-8"))
