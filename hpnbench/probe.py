"""The host-speed probe: fixed pure-Python loops, timed.

Usage: ``python3 hpnbench/probe.py ROUNDS``

Prints one JSON object: the wall seconds of each round. A round runs
two loops that stand for the two kinds of work the workloads do: a
compute loop over a small dict (``compute``), and lookups of 60,000
tuple keys in shuffled order, whose working set of about 20 MB leaves
the CPU caches (``lookup``). The lookups catch the slowdowns that come
from other tenants' memory traffic, which the compute loop barely
feels. The workers run the probe in its own process, so its memory
never counts in a workload's peak resident set.

The loops define the unit of ``run.PROBE_REF_S``: never change them.
"""

from __future__ import annotations

import json
import random
import sys
import time
from typing import Dict, List, Tuple

LOOKUP_KEYS = 60_000
LOOKUP_PASSES = 2

Key = Tuple[str, str, int, int]


def compute() -> None:
    acc = 0
    table: Dict[int, int] = {}
    for i in range(200_000):
        acc += i * i % 7
        table[i & 1023] = acc


def lookup_table() -> Tuple[Dict[Key, Tuple[Key, int]], List[Key]]:
    keys = [(f"h{i % 120}", f"h{i * 31 % 120}", i % 8, 49152 + i % 2)
            for i in range(LOOKUP_KEYS)]
    order = keys[:]
    random.Random(1).shuffle(order)
    return {k: (k, i) for i, k in enumerate(keys)}, order


def lookup(table: Dict[Key, Tuple[Key, int]], order: List[Key]) -> None:
    total = 0
    for _ in range(LOOKUP_PASSES):
        for key in order:
            total += table[key][1]


def main(argv: List[str]) -> int:
    table, order = lookup_table()
    rounds = []
    for _ in range(int(argv[0])):
        t = time.perf_counter()
        compute()
        lookup(table, order)
        rounds.append(time.perf_counter() - t)
    print(json.dumps({"rounds_s": rounds}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
