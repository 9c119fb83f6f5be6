"""Parameter sweeps: figure-style data series with CSV export.

The paper reports point tables; reviewers (and this reproduction's E8
trend checks) want the *curves* behind them.  :func:`run_injection_sweep`
produces, for a list of offered loads, the per-policy most-degraded-VC
duty cycle, the Gap against the reference policy, and the network
latency/throughput — ready to plot or to dump as CSV.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.experiments.checkpoint import atomic_write_text
from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import Executor, executor_or_serial
from repro.experiments.report import render_table
from repro.experiments.runner import ScenarioResult
from repro.experiments.tables import PROPOSED_POLICY, REFERENCE_POLICY


@dataclasses.dataclass
class SweepPoint:
    """All measurements at one injection rate."""

    injection_rate: float
    md_vc: int
    results: Dict[str, ScenarioResult]

    def md_duty(self, policy: str) -> float:
        return self.results[policy].duty_cycles[self.md_vc]

    def latency(self, policy: str) -> float:
        return self.results[policy].net_stats.avg_packet_latency

    def throughput(self, policy: str) -> float:
        return self.results[policy].net_stats.throughput_flits_per_node_cycle

    @property
    def gap(self) -> Optional[float]:
        """Reference-vs-proposed Gap, when both policies were swept."""
        if REFERENCE_POLICY not in self.results or PROPOSED_POLICY not in self.results:
            return None
        return self.md_duty(REFERENCE_POLICY) - self.md_duty(PROPOSED_POLICY)


@dataclasses.dataclass
class InjectionSweep:
    """A swept load axis with per-policy series."""

    scenario: ScenarioConfig
    policies: Sequence[str]
    points: List[SweepPoint]

    def series(self, policy: str, metric: str = "md_duty") -> List[float]:
        """One policy's series along the load axis.

        ``metric`` is ``"md_duty"``, ``"latency"`` or ``"throughput"``.
        """
        getter = {
            "md_duty": SweepPoint.md_duty,
            "latency": SweepPoint.latency,
            "throughput": SweepPoint.throughput,
        }[metric]
        return [getter(point, policy) for point in self.points]

    def rates(self) -> List[float]:
        return [p.injection_rate for p in self.points]

    def gaps(self) -> List[Optional[float]]:
        return [p.gap for p in self.points]

    def format(self) -> str:
        headers = ["rate", "MD"]
        for policy in self.policies:
            headers.append(f"{policy}:MD duty")
        for policy in self.policies:
            headers.append(f"{policy}:lat")
        if all(g is not None for g in self.gaps()):
            headers.append("Gap")
        rows = []
        for point in self.points:
            row = [f"{point.injection_rate:.2f}", str(point.md_vc)]
            row.extend(f"{point.md_duty(p):.1f}%" for p in self.policies)
            row.extend(f"{point.latency(p):.1f}" for p in self.policies)
            if point.gap is not None:
                row.append(f"{point.gap:.1f}%")
            rows.append(row)
        title = (
            f"Injection sweep: {self.scenario.num_nodes}-core, "
            f"{self.scenario.num_vcs} VCs, {self.scenario.traffic} traffic"
        )
        return render_table(headers, rows, title=title)

    def to_csv(self, path: Union[str, Path]) -> None:
        """Write the sweep as a CSV (one row per rate; atomic replace)."""
        columns = ["injection_rate", "md_vc"]
        for policy in self.policies:
            columns.extend(
                [f"{policy}.md_duty", f"{policy}.latency", f"{policy}.throughput"]
            )
        columns.append("gap")
        lines = [",".join(columns)]
        for point in self.points:
            cells = [f"{point.injection_rate}", f"{point.md_vc}"]
            for policy in self.policies:
                cells.extend(
                    [
                        f"{point.md_duty(policy)}",
                        f"{point.latency(policy)}",
                        f"{point.throughput(policy)}",
                    ]
                )
            cells.append("" if point.gap is None else f"{point.gap}")
            lines.append(",".join(cells))
        atomic_write_text(path, "\n".join(lines) + "\n")


def run_injection_sweep(
    rates: Sequence[float],
    policies: Sequence[str] = (REFERENCE_POLICY, PROPOSED_POLICY),
    base: Optional[ScenarioConfig] = None,
    executor: Optional[Executor] = None,
    **scenario_kwargs,
) -> InjectionSweep:
    """Sweep offered load, running every policy at each point.

    Parameters
    ----------
    rates:
        Offered loads in flits/cycle/node, in plot order.
    policies:
        Policies evaluated at each point (reference + proposed default).
    base:
        Base scenario; ``scenario_kwargs`` override its fields.
    executor:
        Optional :class:`~repro.experiments.parallel.Executor`; all
        (rate, policy) points are independent and fan out at once (and
        are journaled when it has a checkpoint).
    """
    if not rates:
        raise ValueError("sweep needs at least one rate")
    base = base if base is not None else ScenarioConfig()
    if scenario_kwargs:
        base = base.replace(**scenario_kwargs)
    units = [
        (base.replace(injection_rate=rate, policy=policy), 0)
        for rate in rates
        for policy in policies
    ]
    all_results = executor_or_serial(executor).map(units)
    points: List[SweepPoint] = []
    for rate_index, rate in enumerate(rates):
        results = {
            policy: all_results[rate_index * len(policies) + policy_index]
            for policy_index, policy in enumerate(policies)
        }
        md = next(iter(results.values())).md_vc
        points.append(SweepPoint(injection_rate=rate, md_vc=md, results=results))
    return InjectionSweep(scenario=base, policies=tuple(policies), points=points)
