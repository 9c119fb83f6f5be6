"""Struct-of-arrays engine speedup benchmark: the event-directed SoA
cycle engine vs the seed's per-object stepped engine.

Two arms run the same low-injection Table-3-style scenario:

* **soa** — ``Network.run`` with the engine forced to the
  struct-of-arrays event-directed core (the auto-selected engine for
  fault-free, untraced, interval-accounted runs): work-set driven
  phases, a (due, channel) heap instead of per-cycle channel polling,
  and quiescence jumps between activity bursts.
* **legacy** — ``Network.use_per_cycle_nbti()`` with the engine forced
  to dense stepping: the reference per-object engine that visits every
  router, interface and channel every cycle and ages every device by
  one counter increment per cycle (the seed's O(cycles x objects)
  schedule).

The engines are bit-equivalent by construction, so the legacy arm is
*also* a correctness oracle: both arms must produce identical harvests,
and the scenario runner must produce byte-identical ``ScenarioResult``
JSON under both engines for every recovery policy.  The CI smoke uses
``--quick`` for exactly those identity checks without the wall-clock
threshold.

Standalone on purpose (not pytest-collected): wall-clock thresholds
are too machine-dependent for the tier-1 suite.

Usage::

    PYTHONPATH=src python benchmarks/soa_speedup.py
        [--cycles 200000] [--warmup 2000] [--rate 0.01] [--repeats 3]
        [--threshold 20.0] [--output BENCH_soa.json] [--quick]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import time

from repro.core import ALL_POLICIES
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_network, run_scenario
from repro.noc.network import Network


def run_arm(scenario: ScenarioConfig, soa: bool) -> Network:
    """Build and run one arm with the engine pinned."""
    Network.force_engine = "soa" if soa else "stepped"
    try:
        net = build_network(scenario)
        if not soa:
            net.use_per_cycle_nbti()
        net.run(scenario.warmup)
        net.reset_nbti()
        net.reset_stats()
        net.run(scenario.cycles)
        net.flush_nbti()
    finally:
        Network.force_engine = None
    return net


def harvest(net: Network) -> dict:
    """Everything a scenario harvest reads, JSON-comparable."""
    return {
        "cycle": net.cycle,
        "duty": {
            f"r{r.router_id}.p{port}": net.duty_cycles(r.router_id, port)
            for r in net.routers
            for port in r.input_ports
        },
        "counters": {
            repr(key): device.counter.snapshot()
            for key, device in sorted(net.devices.items())
        },
        "stats": dataclasses.asdict(net.stats()),
    }


def result_payload(result) -> dict:
    """A ScenarioResult as comparable JSON (host timings excluded)."""
    return {
        "scenario": dataclasses.asdict(result.scenario),
        "iteration": result.iteration,
        "duty_cycles": result.duty_cycles,
        "md_vc": result.md_vc,
        "port_duty": {f"{r}.{p}": d for (r, p), d in sorted(result.port_duty.items())},
        "initial_vths": result.initial_vths,
        "port_initial_vths": {
            f"{r}.{p}": v for (r, p), v in sorted(result.port_initial_vths.items())
        },
        "net_stats": dataclasses.asdict(result.net_stats),
        "violations": result.violations,
    }


def time_arm(scenario: ScenarioConfig, soa: bool, repeats: int):
    best = float("inf")
    net = None
    for _ in range(repeats):
        started = time.perf_counter()
        net = run_arm(scenario, soa)
        best = min(best, time.perf_counter() - started)
    return best, net


def scenario_result_identity(scenario: ScenarioConfig, policies) -> None:
    """Run the scenario runner with the SoA and the stepped engine for
    every policy; each pair of ScenarioResult payloads must serialize
    identically."""
    for policy in policies:
        cfg = dataclasses.replace(scenario, policy=policy)
        payloads = {}
        for mode in ("soa", "stepped"):
            Network.force_engine = mode
            try:
                payloads[mode] = json.dumps(
                    result_payload(run_scenario(cfg)), sort_keys=True
                )
            finally:
                Network.force_engine = None
        if payloads["soa"] != payloads["stepped"]:
            raise AssertionError(
                f"SoA and stepped runs produced different ScenarioResult "
                f"payloads for policy {policy!r}"
            )
        print(f"  ScenarioResult identity: soa == stepped [{policy}]")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cycles", type=int, default=200_000)
    parser.add_argument("--warmup", type=int, default=2_000)
    parser.add_argument("--rate", type=float, default=0.01,
                        help="flit injection rate (Table 3 low point: 0.01)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--threshold", type=float, default=20.0,
                        help="minimum acceptable speedup (x)")
    parser.add_argument("--output", default="BENCH_soa.json")
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: small scenario, identity checks only, no "
             "wall-clock threshold",
    )
    args = parser.parse_args()

    if args.quick:
        cycles, warmup, repeats = 4_000, 500, 1
    else:
        cycles, warmup, repeats = args.cycles, args.warmup, args.repeats

    # Table-3-style scenario (4-node mesh, 2 VCs, uniform, sensor-wise)
    # at the low-injection point where quiescence dominates.
    scenario = ScenarioConfig(
        num_nodes=4, num_vcs=2, injection_rate=args.rate,
        policy="sensor-wise", traffic="uniform",
        cycles=cycles, warmup=warmup, seed=1,
    )

    print(f"scenario {scenario.label} rate={args.rate} "
          f"cycles={cycles} warmup={warmup}")

    identity_scenario = scenario if args.quick else dataclasses.replace(
        scenario, cycles=min(cycles, 20_000)
    )
    scenario_result_identity(identity_scenario, ALL_POLICIES)

    soa_s, soa_net = time_arm(scenario, soa=True, repeats=repeats)
    legacy_s, legacy_net = time_arm(scenario, soa=False, repeats=repeats)
    if json.dumps(harvest(soa_net), sort_keys=True) != \
            json.dumps(harvest(legacy_net), sort_keys=True):
        raise AssertionError("SoA and legacy arms diverged")
    print("  harvest identity       : SoA engine == per-object engine")

    speedup = legacy_s / soa_s if soa_s > 0 else float("inf")
    print(f"  legacy per-object engine: {legacy_s:7.3f}s")
    print(f"  struct-of-arrays engine : {soa_s:7.3f}s")
    print(f"  speedup                 : {speedup:5.2f}x")

    payload = {
        "scenario": dataclasses.asdict(scenario),
        "injection_rate": args.rate,
        "cycles": cycles,
        "warmup": warmup,
        "repeats": repeats,
        "policies_checked": list(ALL_POLICIES),
        "legacy_seconds": legacy_s,
        "soa_seconds": soa_s,
        "speedup": speedup,
        "threshold": args.threshold,
        "quick": args.quick,
        "identical_results": True,
    }
    with open(args.output, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"  wrote {args.output}")

    if not args.quick and speedup < args.threshold:
        print(f"FAIL: speedup {speedup:.2f}x < {args.threshold}x")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
