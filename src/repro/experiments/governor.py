"""Resource governance: per-scenario budgets, failure kinds, quarantine.

A campaign needs the same discipline the paper applies to NBTI stress:
*budget* the resource a component may consume and gate the worst
offender before it degrades the rest.  This module is that discipline
for the execution layer:

* :class:`ResourceBudget` — wall/CPU/RSS limits for one scenario
  attempt.  CPU and address-space limits are installed with
  ``resource.setrlimit`` inside the killable worker process (see
  ``_attempt_child`` in :mod:`repro.experiments.parallel`) so a runaway
  scenario is killed by the kernel, not trusted to police itself; the
  wall limit is enforced by the parent's per-attempt deadline.
* :func:`estimate_cost` — a deterministic cost model over
  :class:`~repro.experiments.config.ScenarioConfig` (cycles × routers ×
  VCs, scaled by telemetry/fault/validation multipliers) from which
  :class:`ScenarioGovernor` derives *adaptive* default budgets: small
  scenarios fail fast, big meshes get headroom, and the predictions are
  reported next to actuals when a scenario is quarantined so users can
  re-run with an explicit ``--budget-*``.
* :func:`classify_failure_kind` — maps how an attempt died (timeout
  deadline, ``SIGXCPU``, ``SIGKILL``/``MemoryError``, anything else)
  onto the typed failure kinds ``timeout``/``cpu``/``oom``/``crash``
  surfaced end-to-end in failure records, campaign reports and
  ``campaign.state.json``.
* :class:`FailureLedger` — key → the distinct identities of its failed
  attempts, checked against a threshold.  The one quarantine rule of
  the execution layer: the lease coordinator files remote failures
  under the worker that failed them (``poison_threshold``), the
  governor files budget breaches under their breach number
  (``quarantine_threshold``).
* :class:`ScenarioGovernor` — per-executor budget policy plus the local
  quarantine ledger: after :attr:`GovernorSpec.quarantine_threshold`
  breaches a scenario is quarantined instead of retried.

Everything here is opt-in: an executor without a governor behaves
byte-identically to the historical code paths.
"""

from __future__ import annotations

import dataclasses
import math
import signal
import threading
from typing import Dict, List, Optional

#: Failure kinds that count as *budget breaches* (drive quarantine).
BUDGET_KINDS = ("timeout", "cpu", "oom")

#: All failure kinds a ScenarioFailure may carry.
ALL_KINDS = BUDGET_KINDS + ("crash",)

#: Estimator calibration.  Work units are cycle-lane steps
#: (cycles × routers × VCs); the divisor is a *worst-case* dense-Python
#: throughput so adaptive budgets sit far above healthy runtimes —
#: governance must never fire on a healthy run (the goldens depend on
#: it) while still bounding a scenario that runs 10x past its class.
WORK_PER_CPU_SECOND = 2_000.0
#: Interpreter start-up + imports, charged to every attempt.
BASE_CPU_SECONDS = 5.0
#: Adaptive wall budgets allow this much scheduling/IO slack over CPU.
WALL_SLACK_FACTOR = 3.0
#: Address-space floor: interpreter + numpy arenas + thread stacks map
#: far more *virtual* memory than they ever touch, and RLIMIT_AS bounds
#: address space, not RSS — so the adaptive floor is deliberately huge.
BASE_RSS_BYTES = 4 << 30
PER_LANE_RSS_BYTES = 1 << 20


class BudgetExceeded(RuntimeError):
    """A governed non-robust map finished with budget-failed scenarios.

    Raised *after* every other unit completed (and was journaled), so a
    ``--resume`` re-run serves the completed set byte-identically and
    only the offenders re-run.  ``failures`` carries the
    :class:`~repro.experiments.parallel.ScenarioFailure` records.
    """

    def __init__(self, failures: List[object]) -> None:
        self.failures = list(failures)
        quarantined = sum(
            1 for f in self.failures if getattr(f, "quarantined", False)
        )
        detail = "; ".join(str(f) for f in self.failures[:3])
        if len(self.failures) > 3:
            detail += f"; ... {len(self.failures) - 3} more"
        super().__init__(
            f"{len(self.failures)} scenario(s) exceeded their resource "
            f"budget ({quarantined} quarantined); completed scenarios are "
            f"journaled — re-run with a larger --budget-* to retry: {detail}"
        )


def classify_failure_kind(
    error_type: str,
    timed_out: bool = False,
    exitcode: Optional[int] = None,
) -> str:
    """Typed failure kind for one dead attempt.

    ``timeout``
        the parent's per-attempt deadline fired, or the lease expired
        (a worker that stopped heartbeating is indistinguishable from a
        hang);
    ``cpu``
        the kernel delivered ``SIGXCPU`` — the ``RLIMIT_CPU`` budget;
    ``oom``
        ``SIGKILL`` (the kernel OOM killer leaves exactly this
        signature) or a ``MemoryError`` from the address-space budget;
    ``crash``
        everything else (scenario bug, bad config, corrupt payload).
    """
    if timed_out or error_type in ("Timeout", "LeaseExpired"):
        return "timeout"
    if exitcode is not None and exitcode < 0:
        sig = -exitcode
        if sig == getattr(signal, "SIGXCPU", 24):
            return "cpu"
        if sig == signal.SIGKILL:
            return "oom"
    if error_type == "MemoryError":
        return "oom"
    return "crash"


@dataclasses.dataclass(frozen=True)
class ResourceBudget:
    """Resource limits for one scenario attempt (``None`` = unlimited)."""

    wall_seconds: Optional[float] = None
    cpu_seconds: Optional[float] = None
    rss_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("wall_seconds", "cpu_seconds", "rss_bytes"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive or None, got {value}")

    def deadline(self, executor_timeout: Optional[float]) -> Optional[float]:
        """Effective per-attempt wall limit (tighter of budget/executor)."""
        limits = [t for t in (self.wall_seconds, executor_timeout) if t is not None]
        return min(limits) if limits else None

    def install(self) -> List[str]:
        """Install the CPU/address-space limits in *this* process.

        Called by the killable worker child before ``run_scenario``.
        ``RLIMIT_CPU`` soft limit delivers ``SIGXCPU`` at the budget
        (hard limit one second later is the ``SIGKILL`` backstop);
        the memory budget prefers ``RLIMIT_AS`` and falls back to
        ``RLIMIT_DATA`` where address-space limits are unsupported.
        Best-effort by design: platforms without ``resource`` (or with
        tighter pre-existing limits) simply keep what they have, and
        the parent's wall deadline still bounds the attempt.  Returns
        the names of the limits actually installed.
        """
        try:
            import resource
        except ImportError:  # non-POSIX: wall deadline is the only fence
            return []
        installed: List[str] = []
        if self.cpu_seconds is not None:
            soft = max(1, int(math.ceil(self.cpu_seconds)))
            try:
                resource.setrlimit(resource.RLIMIT_CPU, (soft, soft + 1))
                installed.append("cpu")
            except (ValueError, OSError):
                pass
        if self.rss_bytes is not None:
            limit = int(self.rss_bytes)
            for name in ("RLIMIT_AS", "RLIMIT_DATA"):
                which = getattr(resource, name, None)
                if which is None:
                    continue
                try:
                    resource.setrlimit(which, (limit, limit))
                except (ValueError, OSError):
                    continue
                installed.append(name.lower())
                break
        return installed


@dataclasses.dataclass(frozen=True)
class CostEstimate:
    """Deterministic predicted cost of one scenario."""

    #: Abstract work units: (cycles+warmup) × routers × VCs × multipliers.
    work: float
    cpu_seconds: float
    rss_bytes: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "work": round(self.work, 1),
            "cpu_seconds": round(self.cpu_seconds, 3),
            "rss_bytes": int(self.rss_bytes),
        }


def estimate_cost(scenario) -> CostEstimate:
    """Predict a scenario's cost from its configuration alone.

    A pure function of the :class:`ScenarioConfig` fields — the same
    scenario always gets the same budget, on every host, so budget
    verdicts (and therefore campaign reports) are deterministic.
    """
    cycles = float(scenario.cycles + scenario.warmup)
    lanes = max(1, scenario.num_nodes * scenario.num_vcs * scenario.num_vnets)
    multiplier = 1.0
    if getattr(scenario, "faults", ()):
        multiplier *= 1.6  # worst case: fault events (wire noise) every cycle
    if getattr(scenario, "validate_every", 0):
        multiplier *= 2.0  # invariant sweeps are whole-network scans
    if getattr(scenario, "telemetry", None) is not None:
        multiplier *= 2.0  # tracing doubles per-event work
    if getattr(scenario, "traffic", "") == "benchmark-mix":
        multiplier *= 1.3
    work = cycles * lanes * multiplier
    return CostEstimate(
        work=work,
        cpu_seconds=BASE_CPU_SECONDS + work / WORK_PER_CPU_SECOND,
        rss_bytes=BASE_RSS_BYTES + lanes * PER_LANE_RSS_BYTES,
    )


class FailureLedger:
    """Key → the distinct identities of its failed attempts.

    A key *settles* (is quarantined) once ``threshold`` distinct
    identities have failed it.  The caller chooses what an identity
    is: a remote failure is filed under the worker that failed it, so
    one flaky machine alone cannot poison a scenario; a governed local
    breach under its breach number, so every breach counts.

    Written from one thread (the executor's dispatch loop, or under
    the governor's lock); the lease table's reads from HTTP handler
    threads are single set lookups.
    """

    def __init__(self, threshold: int) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self._failed: Dict[str, set] = {}

    def record(self, key: str, identity: str) -> bool:
        """File one failed attempt; ``True`` once ``key`` has settled."""
        identities = self._failed.setdefault(key, set())
        identities.add(identity)
        return len(identities) >= self.threshold

    def failed(self, key: str, identity: str) -> bool:
        """Whether ``identity`` already failed ``key``."""
        return identity in self._failed.get(key, ())

    def count(self, key: str) -> int:
        """Distinct identities that failed ``key`` so far."""
        return len(self._failed.get(key, ()))


@dataclasses.dataclass
class GovernorSpec:
    """Budget policy of one :class:`ScenarioGovernor`.

    Explicit caps (``wall_seconds``/``cpu_seconds``/``rss_bytes``)
    apply to every scenario; dimensions left ``None`` fall back to the
    adaptive estimator defaults scaled by ``scale``.  A scenario whose
    budget breaches on ``quarantine_threshold`` distinct attempts is
    quarantined instead of retried forever.
    """

    wall_seconds: Optional[float] = None
    cpu_seconds: Optional[float] = None
    rss_bytes: Optional[int] = None
    adaptive: bool = True
    scale: float = 1.0
    quarantine_threshold: int = 2

    def __post_init__(self) -> None:
        for name in ("wall_seconds", "cpu_seconds", "rss_bytes"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive or None, got {value}")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.quarantine_threshold < 1:
            raise ValueError(
                f"quarantine_threshold must be >= 1, got {self.quarantine_threshold}"
            )


class ScenarioGovernor:
    """Budget derivation + breach accounting + local quarantine.

    One governor serves one :class:`~repro.experiments.parallel.Executor`
    and is consulted from its scheduling thread only (the lock guards
    the summary/metrics reads from other threads).
    """

    def __init__(self, spec: Optional[GovernorSpec] = None) -> None:
        self.spec = spec if spec is not None else GovernorSpec()
        self._lock = threading.Lock()
        self.ledger = FailureLedger(self.spec.quarantine_threshold)
        #: key -> quarantine record (predicted vs actual cost, kind...).
        self.quarantine_records: Dict[str, Dict[str, object]] = {}
        self.counters: Dict[str, int] = {
            "breach_timeout": 0,
            "breach_cpu": 0,
            "breach_oom": 0,
            "quarantined": 0,
        }

    # -- budgets -------------------------------------------------------
    def budget_for(self, scenario) -> ResourceBudget:
        """The effective budget for one scenario (explicit > adaptive)."""
        spec = self.spec
        cpu = spec.cpu_seconds
        wall = spec.wall_seconds
        rss = spec.rss_bytes
        if spec.adaptive:
            estimate = estimate_cost(scenario)
            if cpu is None:
                cpu = estimate.cpu_seconds * spec.scale
            if wall is None:
                # Explicit CPU caps bound wall too: a scenario that may
                # burn at most N CPU seconds should not wait-forever.
                base = spec.cpu_seconds if spec.cpu_seconds is not None else (
                    estimate.cpu_seconds * spec.scale
                )
                wall = base * WALL_SLACK_FACTOR
            if rss is None:
                rss = int(estimate.rss_bytes * spec.scale)
        return ResourceBudget(wall_seconds=wall, cpu_seconds=cpu, rss_bytes=rss)

    def budget_info(self, scenario, actual_seconds: Optional[float] = None) -> Dict[str, object]:
        """Predicted-vs-actual cost report for a failure record."""
        estimate = estimate_cost(scenario)
        budget = self.budget_for(scenario)
        info: Dict[str, object] = {
            "predicted": estimate.as_dict(),
            "budget": {
                "wall_seconds": budget.wall_seconds,
                "cpu_seconds": budget.cpu_seconds,
                "rss_bytes": budget.rss_bytes,
            },
        }
        if actual_seconds is not None:
            info["actual_wall_seconds"] = round(actual_seconds, 3)
        return info

    # -- quarantine -----------------------------------------------------
    def record_breach(
        self,
        key: str,
        scenario,
        iteration: int,
        kind: str,
        actual_seconds: float,
    ) -> bool:
        """Account one budget breach; ``True`` once the key is quarantined.

        Each breach is filed in the :class:`FailureLedger` under its own
        breach number, so the key settles after ``quarantine_threshold``
        breaches.
        """
        if kind not in BUDGET_KINDS:
            return False
        with self._lock:
            self.counters[f"breach_{kind}"] += 1
            breaches = self.ledger.count(key) + 1
            settled = self.ledger.record(key, str(breaches))
            if not settled or key in self.quarantine_records:
                return key in self.quarantine_records
            self.counters["quarantined"] += 1
            self.quarantine_records[key] = {
                "label": getattr(scenario, "label", str(scenario)),
                "policy": getattr(scenario, "policy", None),
                "iteration": iteration,
                "kind": kind,
                "breaches": breaches,
                **self.budget_info(scenario, actual_seconds),
            }
            return True

    def is_quarantined(self, key: str) -> bool:
        with self._lock:
            return key in self.quarantine_records

    def summary(self) -> Optional[str]:
        """One summary fragment, or ``None`` while nothing breached."""
        with self._lock:
            breaches = sum(
                count for name, count in self.counters.items()
                if name.startswith("breach_")
            )
            if not breaches:
                return None
            detail = ", ".join(
                f"{count} {name[len('breach_'):]}"
                for name, count in sorted(self.counters.items())
                if name.startswith("breach_") and count
            )
            return (
                f"governor: {breaches} budget breach(es) ({detail}), "
                f"{self.counters['quarantined']} quarantined"
            )


__all__ = [
    "ALL_KINDS",
    "BUDGET_KINDS",
    "BudgetExceeded",
    "CostEstimate",
    "FailureLedger",
    "GovernorSpec",
    "ResourceBudget",
    "ScenarioGovernor",
    "classify_failure_kind",
    "estimate_cost",
]
