"""Result-store cost: open a 1,000-record store, decode and encode one result.

Simulates one 64-node scenario (500 measured + 50 warm-up cycles),
appends its result to a fresh ``--cache-dir`` store under 1,000
distinct keys, and records:

* **open_ms** — opening the store (header check plus replay of every
  record), median of 7 opens;
* **decode_ms** — decoding one result payload with the decoder already
  built (warm), median of 20;
* **encode_ms** — encoding the result to its payload text, median of 20.

Wall-clock figures depend on the host; the script records its CPU
count and Python version beside them and gates nothing.

Usage::

    PYTHONPATH=src python benchmarks/store_open.py [--output BENCH_store.json]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import tempfile
import time
from pathlib import Path

from repro import codec
from repro.experiments.checkpoint import ScenarioJournal
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import ScenarioResult, run_scenario

RECORDS = 1_000


def timed_ms(action, repeats: int) -> float:
    """Median wall time of ``action()`` in milliseconds."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        action()
        times.append(1e3 * (time.perf_counter() - started))
    return statistics.median(times)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_store.json")
    args = parser.parse_args()

    scenario = ScenarioConfig(
        num_nodes=64, num_vcs=2, injection_rate=0.1, cycles=500, warmup=50
    )
    result = run_scenario(scenario)
    payload = codec.dumps(result)
    with tempfile.TemporaryDirectory() as directory:
        store = ScenarioJournal.store(directory)
        for index in range(RECORDS):
            store.append(hashlib.sha256(str(index).encode()).hexdigest(), result)
        store.close()
        open_ms = timed_ms(lambda: ScenarioJournal.store(directory).close(), 7)
        size = Path(store.path).stat().st_size
    codec.loads(payload, ScenarioResult)  # builds the decoder
    blob = {
        "workload": {
            "scenario": "64 nodes, 2 VCs, 0.10 flits/cycle/node, 500+50 cycles",
            "records": RECORDS,
            "payload_bytes": len(payload),
            "store_bytes": size,
        },
        "open_ms": round(open_ms, 2),
        "decode_ms": round(timed_ms(lambda: codec.loads(payload, ScenarioResult), 20), 3),
        "encode_ms": round(timed_ms(lambda: codec.dumps(result), 20), 3),
        "host": {"cpus": os.cpu_count(), "python": platform.python_version()},
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(blob, sort_keys=True))


if __name__ == "__main__":
    main()
