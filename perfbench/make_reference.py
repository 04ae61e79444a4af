"""Write reference.json: the expected output of every victim of the pool.

    python3 perfbench/make_reference.py

Runs each pool victim once through the corpus_matrix and addon_deploy items
in pool order and stores one entry per victim: the matrix's verdict letters
(``workloads.CELLS`` order; C clean, V virtual_detected, I inconclusive,
E error) and the deployed add-on's package, loaded plugins and
exfiltration-sink length. Regenerate it only when the program's behaviour
is meant to change, and say so in the change that does.
"""

from __future__ import annotations

import collections
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs the path above)


def main() -> int:
    reference = {"pool": {"seed": workloads.POOL_SEED, "size": workloads.POOL_SIZE,
                          "ticks": workloads.TICKS}}
    counts = collections.Counter()
    for cls in (workloads.CorpusMatrix, workloads.AddonDeploy):
        w = cls(workloads.POOL_SEED, HERE.parent)
        w.setup()
        w.order = list(range(workloads.POOL_SIZE))
        entries = []
        for k in range(workloads.POOL_SIZE):
            entries.append(w.outcome(w.run_item(k)))
            if cls is workloads.CorpusMatrix:
                counts.update(entries[-1])
        reference[w.name] = entries
    text = json.dumps(reference, indent=0) + "\n"
    workloads.REFERENCE_PATH.write_text(text, encoding="utf-8")
    print(f"wrote {workloads.REFERENCE_PATH}: corpus_matrix cells {dict(counts)}")
    return 1 if counts["E"] else 0


if __name__ == "__main__":
    sys.exit(main())
