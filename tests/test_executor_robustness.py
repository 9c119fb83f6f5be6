"""Tests for Executor.map_robust: per-attempt timeouts, bounded retries
with backoff, structured ScenarioFailure records, and corrupt-cache
accounting.  Worker functions live at module level so they survive the
trip into per-attempt worker processes."""

from __future__ import annotations

import dataclasses
import os
import time

import pytest

from repro.experiments.checkpoint import ScenarioJournal
from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import (
    Executor,
    RetryBackoff,
    ScenarioFailure,
    cache_key,
    make_executor,
)
from repro.experiments.runner import run_scenario

#: Environment variable carrying the scratch path of the flaky workers
#: (inherited by worker processes under both fork and spawn).
_SCRATCH_ENV = "REPRO_TEST_FLAKY_PATH"


@dataclasses.dataclass
class _FakeResult:
    """Minimal stand-in for ScenarioResult (what _finish touches)."""

    payload: str = "ok"
    wall_seconds: float = 0.0
    build_seconds: float = 0.0
    sim_seconds: float = 0.0


def _tiny_unit(seed: int = 1):
    return (
        ScenarioConfig(num_nodes=4, num_vcs=2, cycles=60, warmup=10,
                       sensor_sample_period=16, seed=seed),
        0,
    )


def _ok_worker(unit):
    return _FakeResult(payload=f"seed={unit[0].seed}")


def _crash_worker(unit):
    raise RuntimeError("boom")


def _hang_worker(unit):
    time.sleep(30)
    return _FakeResult()


def _sleep_worker(unit):
    time.sleep(0.3)
    return _FakeResult()


def _selective_worker(unit):
    if unit[0].seed == 666:
        raise ValueError("cursed seed")
    return _FakeResult(payload=f"seed={unit[0].seed}")


def _flaky_worker(unit):
    """Crashes on the first attempt, succeeds on the second."""
    path = os.environ[_SCRATCH_ENV]
    if not os.path.exists(path):
        with open(path, "w") as fh:
            fh.write("tried")
        raise RuntimeError("first attempt always fails")
    return _FakeResult(payload="recovered")


def _hang_once_worker(unit):
    """Hangs on the first attempt, succeeds on the second."""
    path = os.environ[_SCRATCH_ENV]
    if not os.path.exists(path):
        with open(path, "w") as fh:
            fh.write("tried")
        time.sleep(30)
    return _FakeResult(payload="recovered-after-timeout")


class TestRetryBackoff:
    def test_jitter_stream_deterministic_under_fixed_seed(self):
        first = [RetryBackoff(0.1, jitter=0.5, seed=42).delay(k) for k in range(1, 6)]
        second = [RetryBackoff(0.1, jitter=0.5, seed=42).delay(k) for k in range(1, 6)]
        assert first == second
        other = [RetryBackoff(0.1, jitter=0.5, seed=43).delay(k) for k in range(1, 6)]
        assert first != other

    def test_delays_bounded_by_jitter_envelope(self):
        backoff = RetryBackoff(0.1, jitter=0.5, seed=7)
        for attempt in range(1, 8):
            base = 0.1 * 2 ** (attempt - 1)
            delay = backoff.delay(attempt)
            assert base <= delay <= base * 1.5

    def test_zero_jitter_recovers_pure_exponential(self):
        backoff = RetryBackoff(0.25, jitter=0.0)
        assert [backoff.delay(k) for k in (1, 2, 3)] == [0.25, 0.5, 1.0]

    def test_jitter_desynchronizes_consecutive_delays(self):
        # The point of jitter: two retries at the same attempt number
        # must not collide (anti-thundering-herd).
        backoff = RetryBackoff(1.0, jitter=0.5, seed=1)
        assert backoff.delay(1) != backoff.delay(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryBackoff(-1.0)
        with pytest.raises(ValueError):
            RetryBackoff(1.0, jitter=-0.1)

    def test_executor_wires_retry_seed_into_backoff(self):
        """Same retry_seed => the same retry delay schedule."""
        schedules = [
            [
                Executor(
                    max_workers=1, retries=2, retry_backoff=0.05,
                    retry_jitter=0.5, retry_seed=123,
                )._backoff.delay(k)
                for k in (1, 2, 3)
            ]
            for _ in range(2)
        ]
        assert schedules[0] == schedules[1]
        unseeded = Executor(
            max_workers=1, retry_backoff=0.05, retry_jitter=0.0
        )._backoff
        assert unseeded.delay(2) == 0.1  # jitter off: pure exponential


class TestTimeouts:
    def test_hanging_worker_times_out(self):
        executor = Executor(max_workers=2, timeout=0.5, worker=_hang_worker)
        started = time.perf_counter()
        (outcome,) = executor.map_robust([_tiny_unit()])
        elapsed = time.perf_counter() - started
        assert isinstance(outcome, ScenarioFailure)
        assert outcome.timed_out
        assert outcome.error_type == "Timeout"
        assert outcome.attempts == 1
        assert executor.stats.timeouts == 1
        assert executor.stats.failures == 1
        # The 30s sleep was actually interrupted.
        assert elapsed < 10.0

    def test_timeout_then_retry_succeeds(self, tmp_path, monkeypatch):
        monkeypatch.setenv(_SCRATCH_ENV, str(tmp_path / "hang-once"))
        executor = Executor(
            max_workers=1, timeout=0.5, retries=1, retry_backoff=0.01,
            worker=_hang_once_worker,
        )
        (outcome,) = executor.map_robust([_tiny_unit()])
        assert isinstance(outcome, _FakeResult)
        assert outcome.payload == "recovered-after-timeout"
        assert executor.stats.timeouts == 1
        assert executor.stats.retries == 1
        assert executor.stats.failures == 0


class TestRetries:
    def test_crash_exhausts_attempts_with_backoff(self):
        executor = Executor(
            max_workers=1, retries=2, retry_backoff=0.05, worker=_crash_worker
        )
        started = time.perf_counter()
        (outcome,) = executor.map_robust([_tiny_unit()])
        elapsed = time.perf_counter() - started
        assert isinstance(outcome, ScenarioFailure)
        assert outcome.attempts == 3
        assert outcome.error_type == "RuntimeError"
        assert "boom" in outcome.message
        assert not outcome.timed_out
        assert executor.stats.retries == 2
        # Exponential backoff 0.05 + 0.10 must actually have elapsed.
        assert elapsed >= 0.15

    def test_flaky_worker_recovers_on_retry(self, tmp_path, monkeypatch):
        monkeypatch.setenv(_SCRATCH_ENV, str(tmp_path / "flaky"))
        executor = Executor(
            max_workers=1, retries=1, retry_backoff=0.01, worker=_flaky_worker
        )
        (outcome,) = executor.map_robust([_tiny_unit()])
        assert isinstance(outcome, _FakeResult)
        assert outcome.payload == "recovered"
        assert executor.stats.retries == 1
        assert executor.stats.failures == 0

    def test_failure_str_names_the_scenario(self):
        executor = Executor(max_workers=1, worker=_crash_worker)
        (outcome,) = executor.map_robust([_tiny_unit()])
        text = str(outcome)
        assert "4core-inj0.10" in text
        assert "RuntimeError" in text


class TestMixedCampaign:
    def test_failures_keep_their_slots(self):
        units = [_tiny_unit(seed=1), _tiny_unit(seed=666), _tiny_unit(seed=3)]
        executor = Executor(
            max_workers=2, retries=1, retry_backoff=0.01, worker=_selective_worker
        )
        results = executor.map_robust(units)
        assert isinstance(results[0], _FakeResult)
        assert results[0].payload == "seed=1"
        assert isinstance(results[1], ScenarioFailure)
        assert results[1].error_type == "ValueError"
        assert isinstance(results[2], _FakeResult)
        assert results[2].payload == "seed=3"
        assert executor.stats.failures == 1

    def test_summary_reports_failures(self):
        executor = Executor(max_workers=1, worker=_crash_worker)
        executor.map_robust([_tiny_unit()])
        summary = executor.summary()
        assert "1 failed" in summary
        assert "0 timeouts" in summary

    def test_clean_summary_stays_clean(self):
        executor = Executor(max_workers=1, worker=_ok_worker)
        executor.map_robust([_tiny_unit()])
        assert "failed" not in executor.summary()


class TestSchedulerWaits:
    def test_parent_blocks_while_units_queue(self):
        """With every slot busy, queued units must not make the parent
        poll the result pipes in a busy loop."""
        executor = Executor(max_workers=1, timeout=60, worker=_sleep_worker)
        units = [_tiny_unit(seed=s) for s in range(4)]
        wall = time.perf_counter()
        cpu = time.process_time()
        results = executor.map_robust(units)
        cpu = time.process_time() - cpu
        wall = time.perf_counter() - wall
        assert all(isinstance(r, _FakeResult) for r in results)
        assert wall >= 1.2
        assert cpu < 0.25 * wall, f"parent used {cpu:.2f}s CPU in {wall:.2f}s"


class TestRobustVsPlainMap:
    def test_real_scenarios_identical_results(self):
        units = [_tiny_unit(seed=1), _tiny_unit(seed=2)]
        plain = Executor(max_workers=1).map(units)
        robust = Executor(max_workers=2, timeout=300).map_robust(units)
        for a, b in zip(plain, robust):
            assert a.duty_cycles == b.duty_cycles
            assert a.md_vc == b.md_vc
            assert a.net_stats.avg_packet_latency == b.net_stats.avg_packet_latency


class TestCorruptCache:
    def test_corrupt_entries_counted_and_warned(self, tmp_path):
        unit = _tiny_unit()
        store = ScenarioJournal.store(tmp_path)
        store.append(cache_key(*unit), run_scenario(*unit))
        store.close()
        # A torn tail: the unit's record lost its last bytes.
        store.path.write_bytes(store.path.read_bytes()[:-40])

        lines = []
        executor = Executor(max_workers=1, cache=tmp_path, progress=lines.append)
        (result,) = executor.map([unit])
        # Served as a miss: the scenario was recomputed...
        assert result.duty_cycles
        # ...and the corruption is visible exactly once.
        assert executor.stats.cache_corrupt == 1
        assert "1 corrupt cache entries" in executor.summary()
        executor.map([unit])
        executor.close()
        warnings = [l for l in lines if "corrupt result-store" in l]
        assert len(warnings) == 1

    def test_plain_miss_is_not_corruption(self, tmp_path):
        executor = Executor(max_workers=1, cache=ScenarioJournal.store(tmp_path))
        executor.map([_tiny_unit()])
        executor.close()
        assert executor.stats.cache_corrupt == 0
        assert "corrupt" not in executor.summary()


class TestMakeExecutor:
    def test_plain_serial_returns_none(self):
        assert make_executor(1) is None
        assert make_executor(None) is None

    def test_robustness_knobs_force_an_executor(self, tmp_path):
        assert isinstance(make_executor(1, timeout=5.0), Executor)
        assert isinstance(make_executor(1, retries=2), Executor)
        assert isinstance(make_executor(1, cache_dir=tmp_path), Executor)
        assert isinstance(make_executor(4), Executor)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            Executor(timeout=0)
        with pytest.raises(ValueError):
            Executor(retries=-1)
        with pytest.raises(ValueError):
            Executor(retry_backoff=-0.1)
