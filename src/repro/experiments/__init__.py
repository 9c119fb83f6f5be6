"""Experiment harness: scenarios, runners and the paper's tables."""

from repro.experiments.config import (
    EXPERIMENTAL_SETUP,
    REAL_TRAFFIC,
    ScenarioConfig,
    format_experimental_setup,
)
from repro.experiments.runner import (
    ScenarioResult,
    build_network,
    build_traffic,
    run_policies,
    run_scenario,
)
from repro.experiments.campaign import (
    CampaignConfig,
    CampaignResult,
    run_campaign,
)
from repro.experiments.checkpoint import (
    EXIT_HARD_CANCEL,
    EXIT_INTERRUPTED,
    CampaignInterrupted,
    CheckpointError,
    CheckpointManager,
    ScenarioJournal,
    atomic_write_json,
    atomic_write_text,
    graceful_shutdown,
)
from repro.experiments.parallel import (
    Executor,
    ExecutorStats,
)
from repro.experiments.persistence import (
    PersistenceError,
    load_artifact,
    save_artifact,
)
from repro.experiments.sweeps import (
    InjectionSweep,
    SweepPoint,
    run_injection_sweep,
)
from repro.experiments.tables import (
    PROPOSED_POLICY,
    REAL_TRAFFIC_ROWS,
    REFERENCE_POLICY,
    CooperationReport,
    RealRow,
    RealTable,
    SyntheticRow,
    SyntheticTable,
    VthSavingReport,
    VthSavingRow,
    run_cooperation_gain,
    run_real_table,
    run_synthetic_table,
    run_vth_saving,
)

__all__ = [
    "EXPERIMENTAL_SETUP",
    "REAL_TRAFFIC",
    "ScenarioConfig",
    "format_experimental_setup",
    "ScenarioResult",
    "build_network",
    "build_traffic",
    "run_policies",
    "run_scenario",
    "PROPOSED_POLICY",
    "REAL_TRAFFIC_ROWS",
    "REFERENCE_POLICY",
    "CooperationReport",
    "RealRow",
    "RealTable",
    "SyntheticRow",
    "SyntheticTable",
    "VthSavingReport",
    "VthSavingRow",
    "run_cooperation_gain",
    "run_real_table",
    "run_synthetic_table",
    "run_vth_saving",
    "InjectionSweep",
    "SweepPoint",
    "run_injection_sweep",
    "CampaignConfig",
    "CampaignResult",
    "run_campaign",
    "Executor",
    "ExecutorStats",
    "EXIT_HARD_CANCEL",
    "EXIT_INTERRUPTED",
    "CampaignInterrupted",
    "CheckpointError",
    "CheckpointManager",
    "ScenarioJournal",
    "atomic_write_json",
    "atomic_write_text",
    "graceful_shutdown",
    "PersistenceError",
    "load_artifact",
    "save_artifact",
]
