"""Fault campaigns: sweep fault kinds × rates × policies, report resilience.

A fault campaign measures how gracefully the sensor-wise methodology
degrades: for every fault kind and rate it runs the same scenario (same
traffic, same process variation) under each policy, with the fault
attached to one input port, and reports

* duty-cycle and latency deltas vs. the fault-free baseline row,
* the fraction of measured cycles the faulted port spent in degraded
  (sensor-less fallback) mode, and
* :func:`~repro.noc.validation.validate_network` violation counts
  sampled every ``validate_every`` cycles.

Rate semantics per kind: the stochastic kinds (``down-up-drop``,
``down-up-corrupt``, ``up-down-drop``, ``stuck-gated``) use the rate as
their per-event probability over the whole run; the deterministic kinds
(``sensor-dropout``, ``stuck-sensor``) use it as the *fraction of the
run* the fault is active (rate 1.0 = permanently broken).  Rate 0.0 is
the shared fault-free baseline.

Reports are deterministic: the JSON payload contains no wall-clock
times, so identical seeds + specs give byte-identical reports across
serial and parallel execution (asserted by ``tests/test_faults.py``).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import codec
from repro.experiments.checkpoint import CheckpointManager
from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import (
    Executor,
    ScenarioFailure,
    WorkUnit,
    executor_or_serial,
)
from repro.experiments.runner import ScenarioResult
from repro.faults.spec import FaultSpec

#: Kinds whose campaign rate scales the activity window, not a probability.
_WINDOW_KINDS = ("sensor-dropout", "stuck-sensor")


@dataclasses.dataclass(frozen=True)
class FaultCampaignConfig:
    """Parameters of one fault-campaign sweep."""

    num_nodes: int = 4
    num_vcs: int = 2
    injection_rate: float = 0.1
    cycles: int = 2_000
    warmup: int = 500
    seed: int = 1
    #: Campaign default is much shorter than the paper's 1024 so the
    #: staleness watchdog (≈ 2 sample periods) can trip within short
    #: campaign runs.
    sensor_sample_period: int = 128
    kinds: Tuple[str, ...] = (
        "sensor-dropout",
        "stuck-sensor",
        "down-up-drop",
        "down-up-corrupt",
        "up-down-drop",
        "stuck-gated",
    )
    fault_rates: Tuple[float, ...] = (0.0, 0.5, 1.0)
    policies: Tuple[str, ...] = ("rr-no-sensor", "sensor-wise")
    #: Invariant-sweep period in cycles (0 disables violation counting).
    validate_every: int = 16
    fault_router: int = 0
    fault_port: str = "east"

    def __post_init__(self) -> None:
        if not self.kinds:
            raise ValueError("a fault campaign needs at least one kind")
        if not self.policies:
            raise ValueError("a fault campaign needs at least one policy")
        if any(r < 0.0 or r > 1.0 for r in self.fault_rates):
            raise ValueError(f"fault rates must be in [0, 1], got {self.fault_rates}")
        for attr in ("kinds", "fault_rates", "policies"):
            value = getattr(self, attr)
            if not isinstance(value, tuple):
                object.__setattr__(self, attr, tuple(value))


def make_specs(kind: str, rate: float, config: FaultCampaignConfig) -> Tuple[FaultSpec, ...]:
    """The FaultSpec list for one (kind, rate) campaign cell."""
    if rate <= 0.0:
        return ()
    total_cycles = config.warmup + config.cycles
    window: Dict[str, Union[int, None]] = {"onset": 0, "duration": None}
    if kind in _WINDOW_KINDS and rate < 1.0:
        window["duration"] = max(1, int(rate * total_cycles))
    common = dict(
        router=config.fault_router,
        port=config.fault_port,
        seed=config.seed,
        **window,
    )
    if kind == "sensor-dropout":
        return (FaultSpec(kind, **common),)
    if kind == "stuck-sensor":
        # Pin the report to the last VC: with the frozen-PV tie-break
        # this is reliably *not* the true most-degraded VC, so the
        # policy provably recovers the wrong buffer while stuck.
        return (FaultSpec(kind, stuck_vc=config.num_vcs - 1, **common),)
    if kind == "down-up-drop":
        return (FaultSpec(kind, rate=rate, **common),)
    if kind == "down-up-delay":
        return (FaultSpec(kind, delay=max(1, int(round(rate * 16))), **common),)
    if kind == "down-up-corrupt":
        return (FaultSpec(kind, rate=rate, **common),)
    if kind == "up-down-drop":
        return (FaultSpec(kind, rate=rate, **common),)
    if kind == "stuck-gated":
        return (FaultSpec(kind, rate=rate, extra_wake_cycles=None, **common),)
    raise ValueError(f"unknown campaign fault kind {kind!r}")


@dataclasses.dataclass
class ResilienceRow:
    """One campaign cell: a policy under one fault kind at one rate."""

    policy: str
    kind: str
    rate: float
    md_duty: Optional[float] = None
    mean_duty: Optional[float] = None
    avg_latency: Optional[float] = None
    p95_latency: Optional[float] = None
    degrade_events: Optional[int] = None
    degraded_pct: Optional[float] = None
    violations: Optional[int] = None
    fault_counters: Optional[Dict[str, int]] = None
    #: Set instead of the metrics when the scenario crashed or hung.
    failure: Optional[str] = None


@dataclasses.dataclass
class ResilienceReport:
    """Outcome of :func:`run_fault_campaign`."""

    config: FaultCampaignConfig
    rows: List[ResilienceRow]
    executor_summary: str = ""

    def baseline(self, policy: str) -> Optional[ResilienceRow]:
        """The fault-free (rate 0) row of one policy."""
        for row in self.rows:
            if row.policy == policy and row.kind == "none" and row.failure is None:
                return row
        return None

    def to_json(self) -> str:
        """Deterministic JSON payload: no wall-clock times, so not the
        executor summary."""
        payload = codec.to_json(self)
        del payload["executor_summary"]
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_markdown(self) -> str:
        lines = [
            "# Fault-campaign resilience report",
            "",
            f"mesh {self.config.num_nodes} nodes x {self.config.num_vcs} VCs, "
            f"injection {self.config.injection_rate:.2f} flits/cycle/node, "
            f"{self.config.cycles} measured cycles (+{self.config.warmup} warm-up), "
            f"sample period {self.config.sensor_sample_period}, "
            f"fault site: router {self.config.fault_router} "
            f"{self.config.fault_port} input port.",
            "",
            "Deltas are vs. the same policy's fault-free baseline row. "
            "`degr%` is the share of measured cycles the faulted port ran "
            "its sensor-less fallback.",
            "",
            "| policy | fault | rate | MD duty % | Δduty | avg lat | Δlat | "
            "p95 lat | degr evts | degr% | violations |",
            "|---|---|---|---|---|---|---|---|---|---|---|",
        ]
        for row in self.rows:
            if row.failure is not None:
                lines.append(
                    f"| {row.policy} | {row.kind} | {row.rate:.2f} | "
                    f"FAILED: {row.failure} |||||||||"
                )
                continue
            base = self.baseline(row.policy)
            if base is not None and base is not row and base.md_duty is not None:
                d_duty = f"{row.md_duty - base.md_duty:+.2f}"
                d_lat = f"{row.avg_latency - base.avg_latency:+.2f}"
            else:
                d_duty = d_lat = "—"
            lines.append(
                f"| {row.policy} | {row.kind} | {row.rate:.2f} "
                f"| {row.md_duty:.2f} | {d_duty} "
                f"| {row.avg_latency:.2f} | {d_lat} "
                f"| {row.p95_latency:.0f} "
                f"| {row.degrade_events} | {row.degraded_pct:.1f} "
                f"| {row.violations} |"
            )
        if self.executor_summary:
            lines.extend(["", f"_{self.executor_summary}_"])
        return "\n".join(lines) + "\n"


def _cell_scenario(
    config: FaultCampaignConfig, policy: str, kind: str, rate: float
) -> ScenarioConfig:
    return ScenarioConfig(
        num_nodes=config.num_nodes,
        num_vcs=config.num_vcs,
        injection_rate=config.injection_rate,
        policy=policy,
        cycles=config.cycles,
        warmup=config.warmup,
        seed=config.seed,
        sensor_sample_period=config.sensor_sample_period,
        faults=make_specs(kind, rate, config),
        validate_every=config.validate_every,
    )


def campaign_cells(config: FaultCampaignConfig) -> List[Tuple[str, str, float]]:
    """Every (policy, kind, rate) cell, baseline first, in stable order."""
    cells: List[Tuple[str, str, float]] = []
    for policy in config.policies:
        cells.append((policy, "none", 0.0))
        for kind in config.kinds:
            for rate in config.fault_rates:
                if rate > 0.0:
                    cells.append((policy, kind, rate))
    return cells


def run_fault_campaign(
    config: FaultCampaignConfig,
    executor: Optional[Executor] = None,
    checkpoint: Optional[CheckpointManager] = None,
) -> ResilienceReport:
    """Run the whole sweep and assemble the resilience report.

    Always goes through :meth:`Executor.map_robust` (a serial one when
    ``executor`` is ``None``), so a hanging or crashing cell becomes a
    FAILED row instead of killing the campaign.

    A crash-safe campaign gives ``executor`` a checkpoint and runs in
    its ``with`` block::

        with Executor(max_workers=1, checkpoint=checkpoint) as ex:
            report = run_fault_campaign(config, executor=ex)

    Every completed cell is then journaled as it finishes; an
    interrupted campaign (drain or crash) resumes from the journal and
    its report is byte-identical to an uninterrupted run.  The block's
    end writes ``campaign.state.json``: status ``interrupted`` or
    ``complete`` plus any per-cell failures with full tracebacks.

    ``checkpoint`` is accepted only as ``None`` or the executor's own
    checkpoint; the checkpoint reaches a campaign through its executor.
    """
    executor = executor_or_serial(executor)
    if checkpoint is not None and checkpoint is not executor.checkpoint:
        raise ValueError(
            "run_fault_campaign journals through its executor's checkpoint; "
            "pass the checkpoint to Executor(checkpoint=...)"
        )
    cells = campaign_cells(config)
    units: List[WorkUnit] = [
        (_cell_scenario(config, policy, kind, rate), 0)
        for policy, kind, rate in cells
    ]
    outcomes = executor.map_robust(units)

    rows: List[ResilienceRow] = []
    for (policy, kind, rate), outcome in zip(cells, outcomes):
        row = ResilienceRow(policy=policy, kind=kind, rate=rate)
        if isinstance(outcome, ScenarioFailure):
            row.failure = str(outcome)
        else:
            result: ScenarioResult = outcome
            stats = result.net_stats
            row.md_duty = round(result.md_duty, 4)
            row.mean_duty = round(
                sum(result.duty_cycles) / len(result.duty_cycles), 4
            )
            row.avg_latency = round(stats.avg_packet_latency, 4)
            row.p95_latency = round(stats.p95_packet_latency, 4)
            row.degrade_events = stats.sensor_degrade_events
            # One faulted port with num_vnets=1: the engine watching it
            # contributes (almost) all degraded cycles, so normalizing
            # by the measured window gives that port's degraded share.
            row.degraded_pct = round(
                100.0 * stats.sensor_degraded_cycles / max(1, stats.cycles), 2
            )
            row.violations = result.violations
            row.fault_counters = result.fault_counters
        rows.append(row)
    return ResilienceReport(
        config=config, rows=rows, executor_summary=executor.summary()
    )
