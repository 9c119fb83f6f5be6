"""The benchmark's four workloads and the correctness checks on their outputs.

Every workload runs in this process, one scenario at a time (a closed
loop with a single client), through the program's public entry points
only: :func:`run_scenario` for the in-process workloads, and
:func:`run_fault_campaign` with a :class:`CheckpointManager` journal and
a serial :class:`Executor` for ``fault-campaign`` (whose robust path
runs every scenario in a killable child process).

The ``tiny`` size shrinks every workload for the self-test; the
benchmark itself always runs the full size.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core import ALL_POLICIES
from repro.experiments.checkpoint import CheckpointManager
from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import Executor
from repro.experiments.runner import ScenarioResult, build_network, run_scenario
from repro.faults.campaign import FaultCampaignConfig, run_fault_campaign
from repro.noc.network import Network

from layers import LayerTrace

#: Seed whose outputs are recorded in ``digests.json``.
DEFAULT_SEED = 1

WORKLOADS = ("mesh64-loaded", "mesh4-quiet", "fault-campaign", "mesh16-telemetry")

#: Workloads that must run entirely on the SoA engine.
SOA_ONLY = ("mesh64-loaded", "mesh4-quiet")

#: (measured cycles, warm-up cycles) per workload and size.
_CYCLES = {
    "full": {
        "mesh64-loaded": (1_000, 200),
        "mesh4-quiet": (50_000, 2_000),
        "mesh16-telemetry": (3_000, 500),
    },
    "tiny": {
        "mesh64-loaded": (40, 10),
        "mesh4-quiet": (1_500, 200),
        "mesh16-telemetry": (150, 50),
        "fault-campaign": (150, 50),
    },
}

#: (measured, warm-up) cycles of the shortened copies run against the
#: stepped oracle; capped by the scenario's own length.
_ORACLE_CYCLES = {
    "mesh64-loaded": (150, 50),
    "mesh4-quiet": (4_000, 500),
    "mesh16-telemetry": (500, 100),
    "fault-campaign": (300, 100),
}

_HOST_FIELDS = frozenset({"build_seconds", "sim_seconds", "trace_files", "trace_dir"})


@dataclasses.dataclass
class Iteration:
    """One pass over a workload's scenarios."""

    wall_s: float
    results: List[ScenarioResult]
    #: Host seconds of run_scenario outside build and simulation
    #: (in-process workloads only).
    harvest_s: float = 0.0
    #: fault-campaign only: the ResilienceReport JSON, scenario
    #: failures, the executor's dispatch overhead and attempts, and the
    #: CPU seconds this (parent) process spent while the campaign ran.
    report_json: Optional[str] = None
    failures: int = 0
    dispatch_overhead_s: float = 0.0
    attempts: int = 0
    parent_cpu_s: float = 0.0


# ----------------------------------------------------------------------
# Workload definitions
# ----------------------------------------------------------------------
def fault_config(seed: int, size: str = "full") -> FaultCampaignConfig:
    if size == "full":
        return FaultCampaignConfig(seed=seed)
    cycles, warmup = _CYCLES[size]["fault-campaign"]
    return FaultCampaignConfig(
        seed=seed, cycles=cycles, warmup=warmup,
        kinds=("down-up-drop",), policies=("sensor-wise",),
    )


def scenarios(name: str, seed: int, size: str = "full",
              trace_dir: Optional[str] = None) -> List[ScenarioConfig]:
    """The in-process scenarios of one workload iteration."""
    cycles, warmup = _CYCLES[size][name]
    if name == "mesh64-loaded":
        return [ScenarioConfig(num_nodes=64, num_vcs=2, injection_rate=0.10,
                               policy="sensor-wise", cycles=cycles,
                               warmup=warmup, seed=seed)]
    if name == "mesh4-quiet":
        base = ScenarioConfig(num_nodes=4, num_vcs=2, injection_rate=0.01,
                              cycles=cycles, warmup=warmup, seed=seed)
        return [base.with_policy(policy) for policy in ALL_POLICIES]
    if name == "mesh16-telemetry":
        return [ScenarioConfig(num_nodes=16, num_vcs=2, injection_rate=0.10,
                               policy="sensor-wise", cycles=cycles,
                               warmup=warmup, seed=seed).traced(trace_dir)]
    raise ValueError(f"{name} has no in-process scenarios")


def _fault_meta(config: FaultCampaignConfig) -> Dict[str, object]:
    return {"command": "perfbench-fault-campaign", "config": dataclasses.asdict(config)}


def run_iteration(name: str, seed: int, workdir: Path, size: str = "full") -> Iteration:
    """Run one iteration of a workload; ``workdir`` holds its files."""
    if name == "fault-campaign":
        return _run_fault_campaign(fault_config(seed, size), workdir)
    trace_dir = str(workdir / "trace") if name == "mesh16-telemetry" else None
    try:
        return run_in_process(scenarios(name, seed, size, trace_dir))
    finally:
        if trace_dir is not None:
            shutil.rmtree(trace_dir, ignore_errors=True)


def run_in_process(batch: Sequence[ScenarioConfig]) -> Iteration:
    results: List[ScenarioResult] = []
    harvest = 0.0
    started = time.perf_counter()
    for scenario in batch:
        begun = time.perf_counter()
        result = run_scenario(scenario)
        harvest += (time.perf_counter() - begun
                    - result.build_seconds - result.sim_seconds)
        results.append(result)
    return Iteration(time.perf_counter() - started, results, harvest_s=harvest)


def _run_fault_campaign(config: FaultCampaignConfig, workdir: Path) -> Iteration:
    journal_dir = workdir / "journal"
    shutil.rmtree(journal_dir, ignore_errors=True)
    started = time.perf_counter()
    cpu_started = time.process_time()
    checkpoint = CheckpointManager(journal_dir, meta=_fault_meta(config))
    executor = Executor(max_workers=1, checkpoint=checkpoint)
    try:
        report = run_fault_campaign(config, executor=executor, checkpoint=checkpoint)
    finally:
        checkpoint.close()
    wall = time.perf_counter() - started
    parent_cpu = time.process_time() - cpu_started
    # The scenario results are read back from the journal the campaign
    # wrote (one record per completed cell, in cell order).
    reader = CheckpointManager(journal_dir, meta=_fault_meta(config))
    try:
        results = list(reader.journal.results.values())
    finally:
        reader.close()
    stats = executor.stats
    return Iteration(
        wall, results,
        report_json=report.to_json(),
        failures=sum(1 for row in report.rows if row.failure is not None),
        dispatch_overhead_s=stats.wall_seconds - stats.serial_seconds,
        attempts=(stats.units_total - stats.journal_hits - stats.cache_hits
                  + stats.retries),
        parent_cpu_s=parent_cpu,
    )


def setup(name: str, seed: int, workdir: Path, size: str = "full") -> Network:
    """Everything a workload does before its first simulated cycle.

    Builds the network of the workload's first scenario, with its
    telemetry attached if it is traced; ``fault-campaign`` also opens
    its journal and executor first.
    """
    if name == "fault-campaign":
        config = fault_config(seed, size)
        checkpoint = CheckpointManager(workdir / "journal", meta=_fault_meta(config))
        Executor(max_workers=1, checkpoint=checkpoint)
        checkpoint.close()
        # The campaign's first cell: the fault-free baseline of its
        # first policy.
        first = ScenarioConfig(
            num_nodes=config.num_nodes, num_vcs=config.num_vcs,
            injection_rate=config.injection_rate, policy=config.policies[0],
            cycles=config.cycles, warmup=config.warmup, seed=config.seed,
            sensor_sample_period=config.sensor_sample_period,
            validate_every=config.validate_every,
        )
        return build_network(first)
    first = scenarios(name, seed, size, str(workdir / "trace"))[0]
    network = build_network(first)
    if first.telemetry is not None:
        from repro.telemetry.runtime import Telemetry

        Telemetry(first.telemetry, run_name="setup").attach(network)
    return network


# ----------------------------------------------------------------------
# Simulated metrics and digests
# ----------------------------------------------------------------------
def simulated_cycles(result: ScenarioResult) -> int:
    return result.scenario.warmup + result.scenario.cycles


def router_cycles(results: Sequence[ScenarioResult]) -> int:
    """Routers x simulated cycles."""
    return sum(r.scenario.num_nodes * simulated_cycles(r) for r in results)


def md_duty_pct(results: Sequence[ScenarioResult]) -> float:
    """Mean duty cycle of the most-degraded VC over every input port."""
    per_scenario = []
    for result in results:
        duties = [
            duty[result.md_at(router, port)]
            for (router, port), duty in result.port_duty.items()
        ]
        per_scenario.append(sum(duties) / len(duties))
    return sum(per_scenario) / len(per_scenario)


def avg_latency_cycles(results: Sequence[ScenarioResult]) -> float:
    return sum(r.net_stats.avg_packet_latency for r in results) / len(results)


def _plain(obj):
    """JSON-ready copy of a result without host timings or file paths."""
    if dataclasses.is_dataclass(obj):
        return {
            f.name: _plain(getattr(obj, f.name))
            for f in dataclasses.fields(obj) if f.name not in _HOST_FIELDS
        }
    if isinstance(obj, dict):
        # Telemetry ``phase.*`` metrics are host wall-clock timings.
        return {
            str(k): _plain(v) for k, v in obj.items()
            if not (isinstance(k, str) and k.startswith("phase."))
        }
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def digest(result: ScenarioResult, telemetry: bool = True) -> str:
    """sha256 of a result's simulated payload.

    ``telemetry=False`` drops the telemetry summary and config, so a
    traced run compares equal to its untraced twin.
    """
    if not telemetry:
        result = dataclasses.replace(
            result, telemetry=None,
            scenario=dataclasses.replace(result.scenario, telemetry=None),
        )
    text = json.dumps(_plain(result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def iteration_digests(it: Iteration) -> Dict[str, object]:
    """What ``digests.json`` records for one iteration."""
    out: Dict[str, object] = {"scenarios": [digest(r) for r in it.results]}
    if it.report_json is not None:
        out["report"] = hashlib.sha256(it.report_json.encode()).hexdigest()
    return out


def count_mismatches(got: Dict[str, object], expected: Dict[str, object]) -> int:
    """Scenarios (and reports) whose digest differs from ``expected``."""
    want = list(expected["scenarios"])
    have = list(got["scenarios"])
    bad = sum(1 for a, b in zip(have, want) if a != b) + abs(len(have) - len(want))
    if "report" in expected and got.get("report") != expected["report"]:
        bad += 1
    return bad


def oracle_mismatches(results: Sequence[ScenarioResult], name: str) -> Dict[str, int]:
    """Run a shortened copy of every scenario on the default engine and
    on the stepped oracle; count digest mismatches, and the cycles the
    default-engine runs stepped (``Network.step`` calls: the engine guard).
    """
    cycles, warmup = _ORACLE_CYCLES[name]
    checked = mismatched = stepped = simulated = 0
    for result in results:
        scenario = result.scenario.replace(
            cycles=min(cycles, result.scenario.cycles),
            warmup=min(warmup, result.scenario.warmup),
            telemetry=None,
        )
        traced = result.scenario.telemetry is not None
        auto_scenario = scenario
        if traced:
            # Reuse the iteration's trace directory (already removed).
            auto_scenario = scenario.traced(result.scenario.telemetry.trace_dir)
        with LayerTrace() as trace:
            auto = run_scenario(auto_scenario)
        stepped += trace.calls("network.step")
        simulated += simulated_cycles(auto)
        saved = Network.force_engine
        Network.force_engine = "stepped"
        try:
            oracle = run_scenario(scenario)
        finally:
            Network.force_engine = saved
        if traced:
            shutil.rmtree(result.scenario.telemetry.trace_dir, ignore_errors=True)
        checked += 1
        if digest(auto, telemetry=False) != digest(oracle, telemetry=False):
            mismatched += 1
    return {"checked": checked, "mismatched": mismatched,
            "stepped_cycles": stepped, "simulated_cycles": simulated}
