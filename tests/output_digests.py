"""Write output_digests.json: one SHA-256 per group of command outputs.

    python3 tests/output_digests.py

Runs the commands through the ``appvirtsim`` argument parser in a temporary directory and
hashes what they write:

  * ``run-matrix`` in both formats, and ``build-addon`` (add-on, payload
    manifest and step report), for the default scenario, the sample victim
    and the first 200 ``corpus_manifest`` victims of seed 7;
  * ``gen-corpus --count 100 --seed 7``, file names and bytes;
  * the key paths of ``bench``'s structured document over that corpus.

Step durations read 0 before hashing, and ``bench`` contributes its key
paths only, since its values are timings. The digests pin outputs, not
correctness: regenerate the file only when an output is meant to change, and
name each changed digest in the change that does.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "data" / "output_digests.json"
SAMPLE_VICTIM = HERE / "data" / "sample_victim.json"
CORPUS_SEED = 7
CORPUS_VICTIMS = 200
GEN_CORPUS_COUNT = 100


def _without_durations(output: bytes) -> bytes:
    return re.sub(rb'"duration_ms": [-+.e0-9]+', b'"duration_ms": 0', output)


def _key_paths(value, prefix: str = "") -> set[str]:
    if isinstance(value, dict):
        paths = {prefix}
        for key, item in value.items():
            paths |= _key_paths(item, f"{prefix}.{key}")
        return paths
    if isinstance(value, list):
        return set().union({prefix}, *(_key_paths(item, prefix + "[]") for item in value))
    return {prefix}


def compute() -> dict[str, str]:
    """The digests of the current program's outputs, by output and victim group."""
    from appvirtsim import corpus, defaults
    from appvirtsim.cli import build_parser
    from appvirtsim.manifest import write_manifest_file

    parser = build_parser()

    def run(*argv: str) -> None:
        # What ``main`` does with a valid input, without building a parser per call.
        args = parser.parse_args(argv)
        with redirect_stdout(StringIO()):
            code = args.func(args)
        if code != 0:
            raise RuntimeError(f"appvirtsim {' '.join(argv)} exited {code}")

    digests = {}
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        victims_dir = tmp / "victims"
        victims_dir.mkdir()
        rng = random.Random(CORPUS_SEED)
        corpus_paths = []
        for index in range(CORPUS_VICTIMS):
            path = victims_dir / f"{index:04d}.json"
            write_manifest_file(path, corpus.corpus_manifest(index, rng))
            corpus_paths.append(str(path))
        groups = {"default": [None], "sample_victim": [str(SAMPLE_VICTIM)],
                  f"corpus_seed{CORPUS_SEED}_first{CORPUS_VICTIMS}": corpus_paths}

        # build-addon takes every input as a file; run-matrix uses its built-ins.
        template, catalog = tmp / "template.json", tmp / "catalog.json"
        default_victim = tmp / "victim.json"
        write_manifest_file(template, defaults.default_template())
        write_manifest_file(catalog, defaults.default_catalog())
        write_manifest_file(default_victim, defaults.default_victim())

        out = tmp / "out"
        for group, victims in groups.items():
            table, structured, addon = (hashlib.sha256() for _ in range(3))
            for victim in victims:
                victim_args = ["--victim", victim] if victim else []
                run("run-matrix", *victim_args, "--format", "table", "--out", str(out))
                table.update(out.read_bytes())
                run("run-matrix", *victim_args, "--out", str(out))
                structured.update(_without_durations(out.read_bytes()))
                run("build-addon", "--victim", victim or str(default_victim),
                    "--template", str(template), "--catalog", str(catalog),
                    "--out", str(tmp / "addon.json"),
                    "--malicious-out", str(tmp / "payload.json"),
                    "--report", str(tmp / "report.json"))
                for name in ("addon.json", "payload.json", "report.json"):
                    addon.update(_without_durations((tmp / name).read_bytes()))
            digests[f"run-matrix table: {group}"] = table.hexdigest()
            digests[f"run-matrix structured: {group}"] = structured.hexdigest()
            digests[f"build-addon: {group}"] = addon.hexdigest()

        generated = tmp / "corpus"
        run("gen-corpus", "--count", str(GEN_CORPUS_COUNT), "--seed", str(CORPUS_SEED),
            "--out", str(generated))
        hasher = hashlib.sha256()
        for path in sorted(generated.iterdir()):
            hasher.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        digests[f"gen-corpus --count {GEN_CORPUS_COUNT} --seed {CORPUS_SEED}"] = hasher.hexdigest()

        run("bench", "--corpus", str(generated), "--repeat", "1", "--out", str(out))
        paths = sorted(_key_paths(json.loads(out.read_bytes())))
        digests["bench key paths"] = hashlib.sha256("\n".join(paths).encode()).hexdigest()
    return digests


def main() -> int:
    DIGESTS.write_text(json.dumps(compute(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.exit(main())
