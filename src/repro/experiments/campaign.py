"""One-shot reproduction campaign: regenerate every paper artifact.

``run_campaign`` executes the whole evaluation — Tables I-IV, the area
report, the Vth-saving projection and the cooperation study — at a
configurable cycle budget, optionally persists the table results as
JSON, and renders a single markdown report mirroring EXPERIMENTS.md's
structure.  The CLI exposes it as ``repro-noc campaign``.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Optional, Union

from repro.area import compute_overhead_report
from repro.experiments.checkpoint import atomic_write_text
from repro.experiments.config import ScenarioConfig, format_experimental_setup
from repro.nbti.regime import get_regime
from repro.experiments.parallel import Executor, executor_or_serial
from repro.experiments.tables import (
    run_cooperation_gain,
    run_real_table,
    run_synthetic_table,
    run_vth_saving,
)


@dataclasses.dataclass
class CampaignConfig:
    """Cycle budgets and scope of a reproduction campaign."""

    cycles: int = 12_000
    warmup: int = 2_000
    iterations: int = 10
    seed: int = 1
    include_real_traffic: bool = True
    regime: str = "fresh"

    def __post_init__(self) -> None:
        get_regime(self.regime)  # fail fast on unknown regime names
        if self.cycles < 1:
            raise ValueError(f"cycles must be >= 1, got {self.cycles}")
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")


@dataclasses.dataclass
class CampaignResult:
    """Everything a campaign produced, plus the rendered report."""

    config: CampaignConfig
    table2: object
    table3: object
    table4: Optional[object]
    vth_report: object
    cooperation: object
    area_text: str
    wall_seconds: float
    execution_summary: Optional[str] = None

    def to_markdown(self) -> str:
        cfg = self.config
        # Only non-default regimes print themselves: the fresh campaign
        # report must stay byte-identical to the historical renderer.
        regime_note = "" if cfg.regime == "fresh" else f" Stress regime: {cfg.regime}."
        parts = [
            "# Reproduction campaign report",
            "",
            f"Budget: {cfg.cycles} measured cycles (+{cfg.warmup} warm-up), "
            f"{cfg.iterations} benchmark-mix iterations, seed {cfg.seed}."
            f"{regime_note} "
            f"Wall time: {self.wall_seconds:.0f}s.",
            "",
            "## Table I — setup",
            "```",
            format_experimental_setup(),
            "```",
            "## Table II — synthetic, 4 VCs",
            "```",
            self.table2.format(),
            "```",
            f"Gap range: {min(self.table2.gaps()):.1f} - "
            f"{max(self.table2.gaps()):.1f} % points (paper: 11.6 - 26.6).",
            "",
            "## Table III — synthetic, 2 VCs",
            "```",
            self.table3.format(),
            "```",
            f"Gap range: {min(self.table3.gaps()):.1f} - "
            f"{max(self.table3.gaps()):.1f} % points (paper: 7.9 - 13.4).",
            "",
        ]
        if self.table4 is not None:
            positive = sum(r.gap > 0 for r in self.table4.rows)
            stable = sum(r.md_std_improved for r in self.table4.rows)
            parts += [
                "## Table IV — benchmark mixes, 2 VCs",
                "```",
                self.table4.format(),
                "```",
                f"{positive}/{len(self.table4.rows)} positive gaps; "
                f"sensor-wise more stable on {stable}/{len(self.table4.rows)} "
                "ports (paper: 8/8 and 8/8).",
                "",
            ]
        parts += [
            "## Sec. III-D — area overhead",
            "```",
            self.area_text,
            "```",
            "## Sec. V — Vth saving",
            "```",
            self.vth_report.format(),
            "```",
            "## Sec. V — cooperation gain",
            "```",
            self.cooperation.format(),
            "```",
        ]
        if self.execution_summary:
            parts += ["## Execution", "```", self.execution_summary, "```"]
        return "\n".join(parts) + "\n"


def run_campaign(
    config: Optional[CampaignConfig] = None,
    report_path: Optional[Union[str, Path]] = None,
    json_dir: Optional[Union[str, Path]] = None,
    executor: Optional[Executor] = None,
) -> CampaignResult:
    """Run the full reproduction and optionally persist its artifacts.

    Parameters
    ----------
    config:
        Cycle budgets (``None`` means fresh defaults: everything
        regenerates in minutes; scale ``cycles`` up for
        closer-to-paper runs).
    report_path:
        When given, the markdown report is written there (atomically).
    json_dir:
        When given, the three tables are additionally saved as JSON via
        :mod:`repro.experiments.persistence`.
    executor:
        The :class:`~repro.experiments.parallel.Executor` every scenario
        of the campaign runs through: it fans them across worker
        processes and/or serves them from its on-disk cache.  ``None``
        runs them on a serial executor.  Table contents are identical
        either way, and the report's ``## Execution`` section carries
        the executor's summary.  For a crash-safe campaign, give the
        executor a checkpoint and run inside its ``with`` block::

            with Executor(checkpoint=CheckpointManager(directory)) as ex:
                run_campaign(config, executor=ex)

        Every completed scenario is then journaled, and the block's end
        writes ``campaign.state.json`` (``complete``, ``interrupted``
        on a drain, ``budget-exceeded``).
    """
    config = config if config is not None else CampaignConfig()
    executor = executor_or_serial(executor)
    started = time.perf_counter()
    # The stress regime rides into every scenario the campaign builds;
    # the default ("fresh") keeps all artifacts byte-identical.
    regime_kwargs = {"regime": config.regime}
    table2 = run_synthetic_table(
        num_vcs=4, cycles=config.cycles, warmup=config.warmup, seed=config.seed,
        executor=executor, scenario_kwargs=regime_kwargs,
    )
    table3 = run_synthetic_table(
        num_vcs=2, cycles=config.cycles, warmup=config.warmup, seed=config.seed,
        executor=executor, scenario_kwargs=regime_kwargs,
    )
    table4 = None
    if config.include_real_traffic:
        table4 = run_real_table(
            num_vcs=2,
            iterations=config.iterations,
            cycles=config.cycles,
            warmup=config.warmup,
            seed=config.seed,
            executor=executor,
            scenario_kwargs=regime_kwargs,
        )
    vth_scenario = ScenarioConfig(
        num_nodes=4, num_vcs=4, injection_rate=0.3,
        cycles=config.cycles, warmup=config.warmup, seed=config.seed,
        regime=config.regime,
    )
    vth_report = run_vth_saving(vth_scenario, executor=executor)
    coop_scenario = ScenarioConfig(
        num_nodes=4, num_vcs=2, injection_rate=0.3,
        cycles=config.cycles, warmup=config.warmup, seed=config.seed,
        regime=config.regime,
    )
    cooperation = run_cooperation_gain(coop_scenario, executor=executor)
    area_text = compute_overhead_report().as_text()
    result = CampaignResult(
        config=config,
        table2=table2,
        table3=table3,
        table4=table4,
        vth_report=vth_report,
        cooperation=cooperation,
        area_text=area_text,
        wall_seconds=time.perf_counter() - started,
        execution_summary=executor.summary(),
    )
    if json_dir is not None:
        from repro.experiments.persistence import save_artifact

        json_dir = Path(json_dir)
        json_dir.mkdir(parents=True, exist_ok=True)
        artifacts = {"table2": table2, "table3": table3, "table4": table4,
                     "vth_saving": vth_report}
        for name, artifact in artifacts.items():
            if artifact is not None:
                save_artifact(artifact, json_dir / f"{name}.json")
    if report_path is not None:
        atomic_write_text(report_path, result.to_markdown())
    return result
