"""Synthetic victim-manifest corpus generation.

A corpus stands in for a set of real apps when benchmarking the
customization pipeline: seeded permission subsets of the catalog space,
one to twelve components per app, distinct packages. The same seed always
produces byte-identical files.
"""

from __future__ import annotations

import random
from pathlib import Path

from .manifest import (
    ACTIVITY,
    COMPONENT_KINDS,
    KIND_KEYS,
    RECEIVER,
    AppManifest,
    Component,
    write_manifest_file,
)
from .permissions import CATALOG_PERMISSIONS

MAX_COMPONENTS = 12


def corpus_manifest(index: int, rng: random.Random) -> AppManifest:
    package = f"org.corpus.app{index:04d}"
    pool = sorted(CATALOG_PERMISSIONS)
    permissions = frozenset(rng.sample(pool, rng.randint(0, len(pool))))

    total = rng.randint(1, MAX_COMPONENTS)
    by_kind: dict[str, list[Component]] = {kind: [] for kind in KIND_KEYS}
    by_kind[ACTIVITY].append(Component(name=".GenMain", kind=ACTIVITY, launcher=True))
    for j in range(total - 1):
        kind = rng.choice(COMPONENT_KINDS)
        intents = (f"org.corpus.ACTION_{j}",) if kind == RECEIVER else ()
        by_kind[kind].append(
            Component(name=f".Gen{kind.capitalize()}{j}", kind=kind, intents=intents))

    return AppManifest(
        package=package,
        label=f"Corpus App {index:04d}",
        version=rng.randint(1, 99),
        permissions=permissions,
        **{KIND_KEYS[kind]: comps for kind, comps in by_kind.items()},
        launcher_icon="ic_launcher.png",
    )


def generate_corpus(count: int, seed: int, out_dir) -> list[Path]:
    """Write ``count`` victim manifests into ``out_dir``; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    paths = []
    for i in range(count):
        m = corpus_manifest(i, rng)
        path = out / f"{m.package}.json"
        write_manifest_file(path, m)
        paths.append(path)
    return paths
