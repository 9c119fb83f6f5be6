"""Tests for the resource-governance layer (``repro.experiments.governor``).

Layered like the implementation:

* pure-logic tests — failure-kind classification, the deterministic
  cost estimator, budget derivation (explicit caps vs adaptive
  defaults), spec validation, the failure ledger and the quarantine
  riding on it;
* ``ResourceBudget.install`` probed in a forked child (the kernel-side
  rlimits must never be installed in the test process itself);
* live governed executors — a CPU-burning worker killed by ``SIGXCPU``
  and typed ``cpu``, a self-SIGKILLing worker typed ``oom``, a hanging
  worker typed ``timeout``, each quarantined after the configured
  number of breaches while healthy units complete;
* the plain-``map`` contract — a governed campaign with one
  budget-busting scenario raises :class:`BudgetExceeded` only after
  every other unit completed and was journaled, and a subsequent
  resume serves the completed set from the journal with identical
  results.

Worker functions live at module level so they survive the trip into
per-attempt worker processes.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import time

import pytest

from repro.experiments.checkpoint import CheckpointManager
from repro.experiments.config import FaultSpec, ScenarioConfig
from repro.experiments.governor import (
    BASE_CPU_SECONDS,
    BUDGET_KINDS,
    WALL_SLACK_FACTOR,
    BudgetExceeded,
    FailureLedger,
    GovernorSpec,
    ResourceBudget,
    ScenarioGovernor,
    classify_failure_kind,
    estimate_cost,
)
from repro.experiments.parallel import Executor, ScenarioFailure, cache_key
from repro.experiments.runner import run_scenario


def _tiny_scenario(seed: int = 1) -> ScenarioConfig:
    return ScenarioConfig(
        num_nodes=4, num_vcs=2, cycles=60, warmup=10,
        sensor_sample_period=16, seed=seed,
    )


def _tiny_unit(seed: int = 1):
    return (_tiny_scenario(seed), 0)


#: A real scenario dense enough to burn well past a 1-second CPU
#: budget (validate-every-cycle invariant sweeps over a 4x4 mesh).
def _heavy_unit():
    return (
        ScenarioConfig(
            num_nodes=16, num_vcs=4, injection_rate=0.3,
            cycles=2000, warmup=500, validate_every=1, seed=3,
        ),
        0,
    )


def _fingerprint(result):
    return (result.duty_cycles, result.md_vc, result.net_stats, result.initial_vths)


def _burn_worker(unit):
    """Burns CPU forever; only a kernel rlimit stops it."""
    x = 0.0
    while True:
        x += math.sqrt((x % 97.0) + 1.0)


def _sigkill_worker(unit):
    """Dies exactly like the kernel OOM killer leaves a worker."""
    os.kill(os.getpid(), signal.SIGKILL)


def _oom_worker(unit):
    raise MemoryError("simulated allocation failure")


def _hang_worker(unit):
    time.sleep(30)


def _crash_or_burn_worker(unit):
    """A plain crash for seed 666, a CPU burner for every other seed."""
    if unit[0].seed == 666:
        raise ValueError("cursed seed")
    _burn_worker(unit)


# ----------------------------------------------------------------------
# Failure-kind classification
# ----------------------------------------------------------------------
class TestClassifyFailureKind:
    def test_deadline_and_lease_expiry_are_timeouts(self):
        assert classify_failure_kind("Timeout") == "timeout"
        assert classify_failure_kind("LeaseExpired") == "timeout"
        assert classify_failure_kind("RuntimeError", timed_out=True) == "timeout"

    def test_sigxcpu_is_cpu(self):
        assert classify_failure_kind("WorkerDied", exitcode=-signal.SIGXCPU) == "cpu"

    def test_sigkill_and_memoryerror_are_oom(self):
        assert classify_failure_kind("WorkerDied", exitcode=-signal.SIGKILL) == "oom"
        assert classify_failure_kind("MemoryError") == "oom"

    def test_everything_else_is_crash(self):
        assert classify_failure_kind("RuntimeError") == "crash"
        assert classify_failure_kind("WorkerDied", exitcode=-signal.SIGTERM) == "crash"
        assert classify_failure_kind("WorkerDied", exitcode=1) == "crash"
        assert classify_failure_kind("") == "crash"

    def test_timeout_outranks_exit_signal(self):
        # A deadline kill arrives as SIGKILL too; the parent knows why.
        kind = classify_failure_kind(
            "WorkerDied", timed_out=True, exitcode=-signal.SIGKILL
        )
        assert kind == "timeout"


class TestScenarioFailureKind:
    def _failure(self, **kwargs):
        defaults = dict(
            scenario=_tiny_scenario(), iteration=0, error_type="RuntimeError",
            message="boom", attempts=1, timed_out=False, wall_seconds=0.1,
        )
        defaults.update(kwargs)
        return ScenarioFailure(**defaults)

    def test_kind_derived_from_error_type(self):
        assert self._failure().kind == "crash"
        assert self._failure(error_type="MemoryError").kind == "oom"
        assert self._failure(error_type="Timeout", timed_out=True).kind == "timeout"

    def test_explicit_kind_wins(self):
        assert self._failure(kind="cpu").kind == "cpu"

    def test_str_keeps_error_type_for_crashes(self):
        # The historical rendering (goldens depend on it).
        assert "RuntimeError" in str(self._failure())

    def test_str_shows_kind_and_quarantine_for_budget_failures(self):
        text = str(self._failure(kind="cpu", quarantined=True))
        assert "cpu" in text
        assert "[quarantined]" in text


# ----------------------------------------------------------------------
# Cost estimator + budget derivation
# ----------------------------------------------------------------------
class TestEstimateCost:
    def test_deterministic(self):
        a = estimate_cost(_tiny_scenario())
        b = estimate_cost(_tiny_scenario())
        assert a == b

    def test_monotonic_in_cycles_and_mesh_size(self):
        small = estimate_cost(_tiny_scenario())
        longer = estimate_cost(
            ScenarioConfig(num_nodes=4, num_vcs=2, cycles=600, warmup=10,
                           sensor_sample_period=16)
        )
        wider = estimate_cost(
            ScenarioConfig(num_nodes=16, num_vcs=4, cycles=60, warmup=10,
                           sensor_sample_period=16)
        )
        assert longer.work > small.work
        assert longer.cpu_seconds > small.cpu_seconds
        assert wider.work > small.work
        assert wider.rss_bytes > small.rss_bytes

    def test_expensive_features_raise_the_estimate(self):
        base = ScenarioConfig(num_nodes=4, num_vcs=2, cycles=60, warmup=10,
                              sensor_sample_period=16)
        plain = estimate_cost(base)
        faulty = estimate_cost(
            ScenarioConfig(
                num_nodes=4, num_vcs=2, cycles=60, warmup=10,
                sensor_sample_period=16,
                faults=(FaultSpec(kind="stuck-gated", rate=0.5),),
            )
        )
        validating = estimate_cost(
            ScenarioConfig(num_nodes=4, num_vcs=2, cycles=60, warmup=10,
                           sensor_sample_period=16, validate_every=1)
        )
        assert faulty.work > plain.work
        assert validating.work > plain.work

    def test_as_dict_round_trips_to_json_types(self):
        blob = estimate_cost(_tiny_scenario()).as_dict()
        assert set(blob) == {"work", "cpu_seconds", "rss_bytes"}
        assert all(isinstance(v, (int, float)) for v in blob.values())


class TestGovernorSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GovernorSpec(cpu_seconds=0)
        with pytest.raises(ValueError):
            GovernorSpec(wall_seconds=-1.0)
        with pytest.raises(ValueError):
            GovernorSpec(rss_bytes=-5)
        with pytest.raises(ValueError):
            GovernorSpec(scale=0.0)
        with pytest.raises(ValueError):
            GovernorSpec(quarantine_threshold=0)

    def test_adaptive_budget_tracks_the_estimate(self):
        governor = ScenarioGovernor(GovernorSpec())
        scenario = _tiny_scenario()
        budget = governor.budget_for(scenario)
        estimate = estimate_cost(scenario)
        assert budget.cpu_seconds == pytest.approx(estimate.cpu_seconds)
        assert budget.wall_seconds == pytest.approx(
            estimate.cpu_seconds * WALL_SLACK_FACTOR
        )
        assert budget.rss_bytes == estimate.rss_bytes
        # Adaptive budgets must sit far above a healthy run.
        assert budget.cpu_seconds >= BASE_CPU_SECONDS

    def test_explicit_caps_override_adaptive_dimensions(self):
        governor = ScenarioGovernor(
            GovernorSpec(cpu_seconds=7.0, rss_bytes=123 << 20)
        )
        budget = governor.budget_for(_tiny_scenario())
        assert budget.cpu_seconds == 7.0
        assert budget.rss_bytes == 123 << 20
        # The explicit CPU cap bounds the derived wall limit too.
        assert budget.wall_seconds == pytest.approx(7.0 * WALL_SLACK_FACTOR)

    def test_scale_multiplies_adaptive_defaults_only(self):
        scenario = _tiny_scenario()
        scaled = ScenarioGovernor(GovernorSpec(scale=2.0)).budget_for(scenario)
        plain = ScenarioGovernor(GovernorSpec()).budget_for(scenario)
        assert scaled.cpu_seconds == pytest.approx(plain.cpu_seconds * 2.0)
        pinned = ScenarioGovernor(
            GovernorSpec(cpu_seconds=7.0, scale=2.0)
        ).budget_for(scenario)
        assert pinned.cpu_seconds == 7.0

    def test_non_adaptive_spec_leaves_unset_dimensions_open(self):
        governor = ScenarioGovernor(GovernorSpec(cpu_seconds=5.0, adaptive=False))
        budget = governor.budget_for(_tiny_scenario())
        assert budget.cpu_seconds == 5.0
        assert budget.wall_seconds is None
        assert budget.rss_bytes is None


class TestResourceBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResourceBudget(wall_seconds=0)
        with pytest.raises(ValueError):
            ResourceBudget(cpu_seconds=-1)
        with pytest.raises(ValueError):
            ResourceBudget(rss_bytes=0)

    def test_deadline_takes_the_tighter_limit(self):
        budget = ResourceBudget(wall_seconds=10.0)
        assert budget.deadline(None) == 10.0
        assert budget.deadline(5.0) == 5.0
        assert budget.deadline(20.0) == 10.0
        assert ResourceBudget().deadline(None) is None
        assert ResourceBudget().deadline(3.0) == 3.0

    def test_install_sets_kernel_limits_in_a_child(self):
        pytest.importorskip("resource")
        ctx = multiprocessing.get_context("fork")
        parent, child = ctx.Pipe()
        proc = ctx.Process(target=_install_probe, args=(child,))
        proc.start()
        assert parent.poll(30), "install probe never reported"
        installed, cpu_limits = parent.recv()
        proc.join(timeout=10)
        assert "cpu" in installed
        # Soft limit at the (ceiled) budget, SIGKILL backstop one above.
        assert cpu_limits == (2, 3)
        assert any(name in installed for name in ("rlimit_as", "rlimit_data"))


def _install_probe(conn):
    budget = ResourceBudget(cpu_seconds=1.5, rss_bytes=8 << 30)
    installed = budget.install()
    import resource

    conn.send((installed, resource.getrlimit(resource.RLIMIT_CPU)))
    conn.close()


# ----------------------------------------------------------------------
# Failure ledger and the governor's quarantine on it
# ----------------------------------------------------------------------
class TestFailureLedger:
    def test_settles_at_threshold_distinct_identities(self):
        ledger = FailureLedger(2)
        assert ledger.record("k", "w1") is False
        # The same identity again is no new evidence.
        assert ledger.record("k", "w1") is False
        assert ledger.count("k") == 1
        assert ledger.record("k", "w2") is True
        assert ledger.failed("k", "w1") and not ledger.failed("k", "w3")
        # Keys settle independently.
        assert ledger.count("other") == 0

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            FailureLedger(0)


class TestQuarantine:
    def test_quarantined_after_threshold_breaches(self):
        governor = ScenarioGovernor(GovernorSpec(quarantine_threshold=2))
        scenario = _tiny_scenario()
        key = cache_key(scenario, 0)
        assert governor.record_breach(key, scenario, 0, "cpu", 1.0) is False
        assert not governor.is_quarantined(key)
        assert governor.record_breach(key, scenario, 0, "cpu", 1.1) is True
        assert governor.is_quarantined(key)
        assert governor.counters["breach_cpu"] == 2
        assert governor.counters["quarantined"] == 1

    def test_crashes_never_count_as_breaches(self):
        governor = ScenarioGovernor(GovernorSpec(quarantine_threshold=1))
        scenario = _tiny_scenario()
        key = cache_key(scenario, 0)
        assert governor.record_breach(key, scenario, 0, "crash", 1.0) is False
        assert not governor.is_quarantined(key)
        assert governor.summary() is None

    def test_quarantine_record_reports_predicted_vs_actual(self):
        governor = ScenarioGovernor(GovernorSpec(quarantine_threshold=1))
        scenario = _tiny_scenario()
        key = cache_key(scenario, 0)
        assert governor.record_breach(key, scenario, 0, "oom", 2.5) is True
        record = governor.quarantine_records[key]
        assert record["kind"] == "oom"
        assert record["label"] == scenario.label
        assert record["breaches"] == 1
        assert record["actual_wall_seconds"] == 2.5
        assert record["predicted"] == estimate_cost(scenario).as_dict()
        assert set(record["budget"]) == {"wall_seconds", "cpu_seconds", "rss_bytes"}

    def test_keys_quarantine_independently(self):
        governor = ScenarioGovernor(GovernorSpec(quarantine_threshold=1))
        a, b = _tiny_scenario(1), _tiny_scenario(2)
        assert governor.record_breach(cache_key(a, 0), a, 0, "timeout", 1.0)
        assert not governor.is_quarantined(cache_key(b, 0))

    def test_summary_counts_breaches_by_kind(self):
        governor = ScenarioGovernor(GovernorSpec(quarantine_threshold=2))
        scenario = _tiny_scenario()
        key = cache_key(scenario, 0)
        assert governor.summary() is None
        governor.record_breach(key, scenario, 0, "cpu", 1.0)
        governor.record_breach(key, scenario, 0, "timeout", 2.0)
        summary = governor.summary()
        assert "2 budget breach(es)" in summary
        assert "1 cpu" in summary
        assert "1 timeout" in summary
        assert "1 quarantined" in summary


class TestBudgetExceeded:
    def _failure(self, seed, quarantined=True):
        return ScenarioFailure(
            scenario=_tiny_scenario(seed), iteration=0, error_type="WorkerDied",
            message="budget", attempts=2, timed_out=False, wall_seconds=1.0,
            kind="cpu", quarantined=quarantined,
        )

    def test_message_counts_failures_and_quarantines(self):
        exc = BudgetExceeded([self._failure(1), self._failure(2, quarantined=False)])
        assert "2 scenario(s)" in str(exc)
        assert "(1 quarantined)" in str(exc)
        assert len(exc.failures) == 2

    def test_long_failure_lists_are_elided(self):
        exc = BudgetExceeded([self._failure(seed) for seed in range(5)])
        assert "... 2 more" in str(exc)


# ----------------------------------------------------------------------
# Live governed executors
# ----------------------------------------------------------------------
class TestGovernedExecutor:
    def test_cpu_burner_killed_typed_and_quarantined(self):
        executor = Executor(
            max_workers=2, retries=2, retry_backoff=0.01,
            worker=_burn_worker,
            governor=GovernorSpec(cpu_seconds=1.0, wall_seconds=30.0,
                                  quarantine_threshold=2),
        )
        (outcome,) = executor.map_robust([_tiny_unit()])
        assert isinstance(outcome, ScenarioFailure)
        assert outcome.kind == "cpu"
        assert outcome.quarantined
        # Quarantine stops the retry ladder at the threshold, not at
        # the executor's retry budget.
        assert outcome.attempts == 2
        assert outcome.budget is not None
        assert outcome.budget["budget"]["cpu_seconds"] == 1.0
        assert outcome.budget["actual_wall_seconds"] > 0
        assert "governor" in executor.summary()
        assert "2 cpu" in executor.summary()

    def test_sigkilled_worker_typed_oom(self):
        executor = Executor(
            max_workers=2, retries=1, retry_backoff=0.01,
            worker=_sigkill_worker,
            governor=GovernorSpec(cpu_seconds=60.0, wall_seconds=30.0,
                                  quarantine_threshold=1),
        )
        (outcome,) = executor.map_robust([_tiny_unit()])
        assert isinstance(outcome, ScenarioFailure)
        assert outcome.error_type == "WorkerDied"
        assert outcome.kind == "oom"
        assert outcome.quarantined
        assert outcome.attempts == 1

    def test_sigkilled_worker_typed_oom_without_governor(self):
        # The typed kind rides every failure record, governed or not.
        executor = Executor(
            max_workers=2, retries=1, retry_backoff=0.01,
            worker=_sigkill_worker,
        )
        (outcome,) = executor.map_robust([_tiny_unit()])
        assert isinstance(outcome, ScenarioFailure)
        assert outcome.kind == "oom"
        assert not outcome.quarantined
        assert outcome.budget is None
        assert outcome.attempts == 2  # ungoverned: full retry ladder

    def test_wall_budget_breach_typed_timeout(self):
        executor = Executor(
            max_workers=2, retries=2, retry_backoff=0.01,
            worker=_hang_worker,
            governor=GovernorSpec(wall_seconds=0.5, cpu_seconds=60.0,
                                  quarantine_threshold=1),
        )
        (outcome,) = executor.map_robust([_tiny_unit()])
        assert isinstance(outcome, ScenarioFailure)
        assert outcome.timed_out
        assert outcome.kind == "timeout"
        assert outcome.quarantined
        assert outcome.attempts == 1

    def test_memoryerror_typed_oom_in_serial_executor(self):
        executor = Executor(
            max_workers=1, retries=1, retry_backoff=0.01,
            worker=_oom_worker,
            governor=GovernorSpec(cpu_seconds=60.0, wall_seconds=30.0,
                                  quarantine_threshold=1),
        )
        (outcome,) = executor.map_robust([_tiny_unit()])
        assert isinstance(outcome, ScenarioFailure)
        assert outcome.error_type == "MemoryError"
        assert outcome.kind == "oom"
        assert outcome.quarantined

    def test_healthy_units_complete_under_governance(self):
        executor = Executor(
            max_workers=2,
            governor=GovernorSpec(quarantine_threshold=2),
        )
        units = [_tiny_unit(seed=1), _tiny_unit(seed=2)]
        results = executor.map(units)
        assert [_fingerprint(r) for r in results] == [
            _fingerprint(run_scenario(s, i)) for s, i in units
        ]
        assert "governor" not in executor.summary()


class TestGovernedCampaignContract:
    def test_crash_is_not_reported_as_a_budget_breach(self):
        """A governed map re-raises a plain crash as itself; only a run
        whose failures are all budget breaches raises BudgetExceeded."""
        executor = Executor(
            max_workers=1, worker=_crash_or_burn_worker,
            governor=GovernorSpec(cpu_seconds=1.0, wall_seconds=30.0,
                                  quarantine_threshold=1),
        )
        with pytest.raises(ValueError, match="cursed seed"):
            executor.map([_tiny_unit(seed=666)])
        with pytest.raises(BudgetExceeded):
            executor.map([_tiny_unit(seed=1)])

    def test_budget_exceeded_after_others_complete_then_resume(self, tmp_path):
        """The ISSUE's acceptance scenario, serially: one scenario busts
        its CPU budget and is quarantined, every other unit completes
        and is journaled, and a resume with a larger budget serves the
        completed set from the journal with identical results."""
        units = [_tiny_unit(seed=1), _tiny_unit(seed=2), _heavy_unit()]
        checkpoint = CheckpointManager(tmp_path / "ckpt")
        executor = Executor(
            max_workers=2, retries=0, retry_backoff=0.01,
            checkpoint=checkpoint,
            governor=GovernorSpec(cpu_seconds=1.0, wall_seconds=60.0,
                                  quarantine_threshold=1),
        )
        with pytest.raises(BudgetExceeded) as excinfo:
            executor.map(units)
        failures = excinfo.value.failures
        assert len(failures) == 1
        assert failures[0].kind == "cpu"
        assert failures[0].quarantined
        assert failures[0].scenario == units[2][0]
        # The healthy units were journaled before the raise.
        assert len(checkpoint.journal) == 2
        checkpoint.close()

        resumed = CheckpointManager(tmp_path / "ckpt")
        assert resumed.journal.replayed == 2
        retry = Executor(max_workers=2, checkpoint=resumed)
        results = retry.map(units)
        assert [_fingerprint(r) for r in results] == [
            _fingerprint(run_scenario(s, i)) for s, i in units
        ]
        # Only the quarantined offender actually re-ran.
        assert retry.stats.journal_hits == 2
