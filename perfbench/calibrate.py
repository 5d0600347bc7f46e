"""Host-speed probe, run as a helper process next to the timed commands.

    python3 perfbench/calibrate.py

Prints one number per line read from stdin: the median seconds of
``CHUNKS`` fixed chunks of interpreter work: a walk over a large, shuffled
heap of small dicts, then a loop over a small one.  The benchmark probes
before and after every timed command and divides the command's wall time
by the probe's.  On the shared VM this was tuned on, host speed drifted by
30-70% over minutes; in some stretches the cache-missing walk tracked the
``repro`` commands' slowdowns better, in others the in-cache loop did, so
a chunk does both.

It runs in its own process so its heap never inflates the benchmark
process, whose peak RSS every spawned child inherits as a floor.
"""

from __future__ import annotations

import random
import statistics
import sys
import time

NODES = 1 << 17
CHUNK_STEPS = 5_000
LOOP_STEPS = 10_000
CHUNKS = 15


def build_heap() -> tuple[list, list]:
    rng = random.Random(0)
    nodes = [{"id": i, "tag": str(i), "edges": (i, i + 1)} for i in range(NODES)]
    order = list(range(NODES))
    rng.shuffle(order)
    return nodes, order


def chunk(nodes: list, order: list, start: int) -> float:
    """One heap walk (cache-missing) and one small-dict loop (in-cache)."""
    begin = time.perf_counter()
    total = 0
    for index in order[start:start + CHUNK_STEPS]:
        node = nodes[index]
        total += node["id"] + len(node["tag"]) + node["edges"][1]
    table: dict = {}
    for i in range(LOOP_STEPS):
        key = (i % 61, i & 7)
        table[key] = table.get(key, 0) + len(str(i))
    return time.perf_counter() - begin


def probe(nodes: list, order: list, rng: random.Random) -> float:
    return statistics.median(
        chunk(nodes, order, rng.randrange(NODES - CHUNK_STEPS))
        for _ in range(CHUNKS)
    )


def main() -> int:
    nodes, order = build_heap()
    rng = random.Random(1)
    for _ in sys.stdin:
        print(repr(probe(nodes, order, rng)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
