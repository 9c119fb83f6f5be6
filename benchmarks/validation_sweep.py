"""Invariant-sweep cost: what ``validate_every`` adds to a validated run.

Runs validated scenarios (``validate_every=16``, the fault campaigns'
cadence) on a grid of mesh size (4, 16, 64 nodes) x load (idle, 0.1
flits/cycle/node), plus the default fault campaign's cells in-process,
and times every :func:`repro.noc.validation.validate_network` call the
runs make.  Per point it records the sweeps made, the mean cost of one
sweep in microseconds, the scenario's sim seconds and the sweeps' share
of them.  Each point is run ``--repeats`` times; the run with the median
per-sweep cost is kept.

The sweep is timed from outside, as the run calls it, so the script
measures any tree it is pointed at (``PYTHONPATH=<tree>/src``).
Host-time figures: compare only runs on the same host, alternating the
trees.  Not a CI gate.

Usage::

    PYTHONPATH=src python benchmarks/validation_sweep.py \\
        [--cycles 2000] [--repeats 3] [--output BENCH_validation.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import time

import repro.noc.validation as validation
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.faults.campaign import FaultCampaignConfig, _cell_scenario, campaign_cells

NODES = (4, 16, 64)
RATES = (0.0, 0.1)
VALIDATE_EVERY = 16


class SweepTimer:
    """Wraps ``validate_network`` while installed, summing its calls."""

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self._original = validation.validate_network

    def __enter__(self) -> "SweepTimer":
        original = self._original

        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - started
                self.calls += 1

        validation.validate_network = timed
        return self

    def __exit__(self, *exc) -> None:
        validation.validate_network = self._original


def measure(scenarios) -> dict:
    """Run ``scenarios`` under one timer; sweep and sim totals."""
    sim_s = 0.0
    with SweepTimer() as timer:
        for scenario in scenarios:
            sim_s += run_scenario(scenario).sim_seconds
    return {
        "sweeps": timer.calls,
        "us_per_sweep": round(1e6 * timer.seconds / max(1, timer.calls), 2),
        "sim_s": round(sim_s, 4),
        "sweep_share": round(timer.seconds / sim_s, 4),
    }


def median_run(scenarios, repeats: int) -> dict:
    runs = sorted((measure(scenarios) for _ in range(repeats)),
                  key=lambda run: run["us_per_sweep"])
    return runs[len(runs) // 2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cycles", type=int, default=2_000)
    parser.add_argument("--warmup", type=int, default=500)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--output", default="BENCH_validation.json")
    args = parser.parse_args(argv)

    grid = []
    for nodes in NODES:
        for rate in RATES:
            scenario = ScenarioConfig(
                num_nodes=nodes, injection_rate=rate, cycles=args.cycles,
                warmup=args.warmup, validate_every=VALIDATE_EVERY,
            )
            point = {"nodes": nodes, "injection_rate": rate}
            point.update(median_run([scenario], args.repeats))
            print(json.dumps(point), flush=True)
            grid.append(point)

    config = FaultCampaignConfig()
    cells = [_cell_scenario(config, *cell) for cell in campaign_cells(config)]
    campaign = {"cells": len(cells)}
    campaign.update(median_run(cells, args.repeats))
    print(json.dumps({"fault_campaign": campaign}), flush=True)

    report = {
        "validate_every": VALIDATE_EVERY,
        "cycles": args.cycles,
        "warmup": args.warmup,
        "repeats": args.repeats,
        "host": {"python": platform.python_version(), "machine": platform.machine()},
        "grid": grid,
        "fault_campaign": campaign,
    }
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
