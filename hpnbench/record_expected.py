"""Re-record the outputs ``fig15`` and ``health`` are checked against.

Usage: ``python3 hpnbench/record_expected.py``

Runs every input variant of both workloads once and rewrites
``hpnbench/expected.json``. Only re-record when a change is meant to
alter the simulated results, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def record() -> dict:
    doc: dict = {"fig15": {}, "health": {}}
    # nothing recorded yet: every check fails, the outputs are kept
    workloads.load_expected = lambda: {"fig15": {}, "health": {}}
    for variant in range(workloads.VARIANTS):
        fig15 = workloads.run_fig15(variant, {})["extra"]
        health = workloads.run_health(variant, {})["extra"]
        doc["fig15"][str(variant)] = fig15["outputs"]
        doc["health"][str(variant)] = {"digest": health["digest"],
                                       "incidents": health["incidents"]}
        print(f"variant {variant}: {doc['fig15'][str(variant)]} "
              f"{doc['health'][str(variant)]}", flush=True)
    return doc


if __name__ == "__main__":
    doc = record()
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
