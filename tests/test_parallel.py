"""Tests for the parallel execution layer (executors, cache, fallback).

The load-bearing property is bit-identical results: a scenario's
outcome is a pure function of ``(ScenarioConfig, iteration)``, so
attempts run in worker processes, attempts run in-process and the
on-disk cache must all return exactly the same measurements.
"""

from __future__ import annotations

import json
import multiprocessing.process
import pickle

import pytest

from repro.experiments.campaign import CampaignConfig, run_campaign
from repro.experiments.checkpoint import CheckpointManager, ScenarioJournal
from repro.experiments.config import REAL_TRAFFIC, ScenarioConfig
from repro.experiments.parallel import (
    Executor,
    ScenarioFailure,
    cache_key,
)
from repro.experiments.runner import run_scenario
from repro.experiments.sweeps import run_injection_sweep
from repro.experiments.tables import run_real_table, run_synthetic_table

FAST = dict(cycles=800, warmup=200)


def small_units():
    base = ScenarioConfig(num_nodes=4, num_vcs=2, injection_rate=0.1, **FAST)
    return [
        (base.with_policy(p), 0)
        for p in ("baseline", "rr-no-sensor", "sensor-wise")
    ]


def result_fingerprint(result):
    return (result.duty_cycles, result.md_vc, result.net_stats, result.initial_vths)


class TestExecutorDeterminism:
    def test_parallel_matches_serial_exactly(self):
        units = small_units()
        serial = [run_scenario(s, i) for s, i in units]
        pooled = Executor(max_workers=2).map(units)
        assert [result_fingerprint(r) for r in pooled] == [
            result_fingerprint(r) for r in serial
        ]

    def test_results_in_unit_order(self):
        units = small_units()
        results = Executor(max_workers=2).map(units)
        assert [r.scenario.policy for r in results] == [s.policy for s, _ in units]

    def test_serial_backend_matches_plain_loop(self):
        units = small_units()
        assert [result_fingerprint(r) for r in Executor(max_workers=1).map(units)] == [
            result_fingerprint(run_scenario(s, i)) for s, i in units
        ]

    def test_synthetic_table_identical(self):
        kwargs = dict(num_vcs=2, arches=(4,), rates=(0.1, 0.2), **FAST)
        serial = run_synthetic_table(**kwargs)
        pooled = run_synthetic_table(**kwargs, executor=Executor(max_workers=2))
        assert [r.duty for r in serial.rows] == [r.duty for r in pooled.rows]
        assert [r.md_vc for r in serial.rows] == [r.md_vc for r in pooled.rows]
        assert serial.format() == pooled.format()

    def test_real_table_identical(self):
        kwargs = dict(
            num_vcs=2, iterations=2, arch_rows={4: ((0, "east"), (2, "east"))}, **FAST
        )
        serial = run_real_table(**kwargs)
        pooled = run_real_table(**kwargs, executor=Executor(max_workers=2))
        assert [(r.avg, r.std, r.md_vc) for r in serial.rows] == [
            (r.avg, r.std, r.md_vc) for r in pooled.rows
        ]

    def test_sweep_identical(self):
        base = ScenarioConfig(num_nodes=4, num_vcs=2, **FAST)
        serial = run_injection_sweep((0.1, 0.3), base=base)
        pooled = run_injection_sweep(
            (0.1, 0.3), base=base, executor=Executor(max_workers=2)
        )
        assert serial.format() == pooled.format()
        assert serial.gaps() == pooled.gaps()

    def test_executor_auto_workers(self):
        assert Executor().max_workers >= 1
        assert Executor(max_workers=0).max_workers >= 1
        with pytest.raises(ValueError):
            Executor(max_workers=-1)

    def test_scenario_errors_propagate(self):
        # Every unit must hash to a key (the executor dedups by it), so
        # the crashing unit is a ScenarioConfig with a malformed fault list.
        good = ScenarioConfig(num_nodes=4, num_vcs=2, **FAST)
        broken = good.replace(faults=("not-a-fault-spec",))
        with pytest.raises(AttributeError):
            Executor(max_workers=2).map([(good, 0), (broken, 0)])

    def test_map_raises_only_after_every_unit_is_journaled(self, tmp_path):
        # map is map_robust plus a raise: the healthy unit completes and
        # is journaled before the crash's original exception surfaces.
        # (The crashing unit must still hash to a journal key, so it is a
        # real ScenarioConfig with a malformed fault list, not None.)
        good = ScenarioConfig(num_nodes=4, num_vcs=2, **FAST)
        broken = good.replace(faults=("not-a-fault-spec",))
        checkpoint = CheckpointManager(tmp_path / "ckpt")
        executor = Executor(max_workers=2, checkpoint=checkpoint)
        with pytest.raises(AttributeError):
            executor.map([(good, 0), (broken, 0)])
        assert len(checkpoint.journal) == 1
        checkpoint.close()


class TestResultCache:
    """``Executor(cache=dir)``: the result store, a journal under ``dir``."""

    def test_second_run_hits_cache_with_identical_results(self, tmp_path):
        units = small_units()
        first = Executor(max_workers=1, cache=tmp_path / "cache").map(units)
        ex = Executor(max_workers=1, cache=tmp_path / "cache")
        second = ex.map(units)
        assert ex.stats.cache_hits == len(units)
        assert [result_fingerprint(r) for r in first] == [
            result_fingerprint(r) for r in second
        ]

    def test_cache_shared_between_serial_and_pool(self, tmp_path):
        units = small_units()
        Executor(max_workers=2, cache=tmp_path / "cache").map(units)
        ex = Executor(max_workers=1, cache=tmp_path / "cache")
        ex.map(units)
        assert ex.stats.cache_hits == len(units)

    def test_key_depends_on_scenario_and_iteration(self):
        a = ScenarioConfig(num_nodes=4, num_vcs=2, **FAST)
        assert cache_key(a, 0) == cache_key(a, 0)
        assert cache_key(a, 0) != cache_key(a, 1)
        assert cache_key(a, 0) != cache_key(a.with_policy("baseline"), 0)
        assert cache_key(a, 0) != cache_key(
            ScenarioConfig(num_nodes=4, num_vcs=2, cycles=801, warmup=200), 0
        )

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        scenario = ScenarioConfig(num_nodes=4, num_vcs=2, **FAST)
        store = ScenarioJournal.store(tmp_path)
        store.append(cache_key(scenario, 0), run_scenario(scenario))
        store.close()
        store.path.write_bytes(store.path.read_bytes()[:-40])
        reopened = ScenarioJournal.store(tmp_path)
        assert reopened.get(cache_key(scenario, 0)) is None
        assert reopened.torn == 1

    def test_put_get_roundtrip(self, tmp_path):
        store = ScenarioJournal.store(tmp_path)
        scenario = ScenarioConfig(num_nodes=4, num_vcs=2, **FAST)
        result = run_scenario(scenario)
        store.append(cache_key(scenario, 0), result)
        store.close()
        assert len(store) == 1
        assert store.get(cache_key(scenario, 0)) == result
        reopened = ScenarioJournal.store(tmp_path)
        assert len(reopened) == 1
        assert reopened.get(cache_key(scenario, 0)) == result


class TestStorelessDedup:
    """Without a store an executor still runs each distinct unit once."""

    def test_repeats_run_once_within_and_across_maps(self):
        calls = []

        def worker(unit):
            calls.append(unit)
            return run_scenario(*unit)

        a, b = small_units()[:2]
        ex = Executor(max_workers=1, worker=worker)
        first = ex.map([a, b, a])
        assert calls == [a, b]
        assert first[2] is first[0]
        assert ex.stats.cache_hits == 1
        again = ex.map([b])
        assert calls == [a, b]
        assert again[0] is first[1]
        assert ex.stats.cache_hits == 2

    def test_repeats_in_child_processes_run_once(self):
        a = small_units()[0]
        ex = Executor(max_workers=2)
        outcomes = ex.map_robust([a, a])
        assert outcomes[1] is outcomes[0]
        assert ex.stats.cache_hits == 1
        assert ex.stats.serial_seconds == outcomes[0].wall_seconds


def _break_process_spawn(monkeypatch):
    def blocked(self):
        raise OSError("spawn blocked")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", blocked)


class TestFallback:
    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        _break_process_spawn(monkeypatch)
        units = small_units()
        ex = Executor(max_workers=4)
        results = ex.map(units)
        assert ex.stats.fallbacks == 1
        assert [result_fingerprint(r) for r in results] == [
            result_fingerprint(run_scenario(s, i)) for s, i in units
        ]

    def test_unpicklable_unit_falls_back(self):
        # Classes defined in a test function can't be pickled by name.
        class LocalConfig(ScenarioConfig):
            pass

        scenario = LocalConfig(num_nodes=4, num_vcs=2, **FAST)
        with pytest.raises(Exception):
            pickle.dumps(scenario)
        ex = Executor(max_workers=2)
        results = ex.map([(scenario, 0), (scenario.with_policy("baseline"), 0)])
        assert ex.stats.fallbacks == 1
        assert len(results) == 2

    def test_robust_map_runs_in_process_when_spawn_fails(self, monkeypatch):
        _break_process_spawn(monkeypatch)
        good = small_units()[0]
        broken = (good[0].replace(faults=("not-a-fault-spec",)), 0)
        ex = Executor(max_workers=2)
        result, failure = ex.map_robust([good, broken])
        assert ex.stats.fallbacks == 1
        assert result_fingerprint(result) == result_fingerprint(run_scenario(*good))
        assert isinstance(failure, ScenarioFailure)
        assert failure.error_type == "AttributeError"
        assert failure.traceback is not None


class TestProgressAndStats:
    def test_progress_lines_and_summary(self):
        lines = []
        ex = Executor(max_workers=1, progress=lines.append)
        ex.map(small_units()[:2])
        assert len(lines) == 2
        assert "4core-inj0.10" in lines[0]
        summary = ex.summary()
        assert "2/2 scenarios" in summary
        assert "serial estimate" in summary

    def test_serial_summary_carries_sim_percentiles(self):
        """Every executor keeps its timing registry: no switch turns the
        per-scenario percentiles on."""
        ex = Executor(max_workers=1)
        ex.map(small_units()[:2])
        assert ex.metrics.histograms["scenario.sim_seconds"].count == 2
        assert "sim p50/p95/p99 = " in ex.summary()

    def test_stats_accumulate_across_maps(self):
        ex = Executor(max_workers=1)
        ex.map(small_units()[:1])
        ex.map(small_units()[:1])
        assert ex.stats.units_completed == 2
        assert ex.stats.serial_seconds > 0.0
        assert ex.stats.wall_seconds > 0.0


class TestCampaignParallel:
    def test_run_campaign_default_config_is_fresh(self):
        # Regression: the default used to be a shared mutable instance.
        import inspect

        signature = inspect.signature(run_campaign)
        assert signature.parameters["config"].default is None

    def test_campaign_json_byte_identical(self, tmp_path):
        config = CampaignConfig(
            cycles=600, warmup=100, iterations=2, include_real_traffic=False
        )
        run_campaign(config, json_dir=tmp_path / "serial")
        run_campaign(
            config, json_dir=tmp_path / "parallel", executor=Executor(max_workers=2)
        )
        for name in ("table2.json", "table3.json", "vth_saving.json"):
            serial_bytes = (tmp_path / "serial" / name).read_bytes()
            parallel_bytes = (tmp_path / "parallel" / name).read_bytes()
            assert serial_bytes == parallel_bytes, f"{name} differs"
            json.loads(serial_bytes)  # still valid JSON

    def test_campaign_real_traffic_parallel(self, tmp_path):
        config = CampaignConfig(cycles=400, warmup=100, iterations=2)
        result = run_campaign(config, executor=Executor(max_workers=2))
        assert result.table4 is not None
        assert result.execution_summary is not None

    def test_run_policies_executor_matches_serial(self):
        from repro.experiments.runner import run_policies

        base = ScenarioConfig(num_nodes=4, num_vcs=2, **FAST)
        serial = run_policies(base, ("baseline", "sensor-wise"))
        pooled = run_policies(
            base, ("baseline", "sensor-wise"), executor=Executor(max_workers=2)
        )
        assert {p: result_fingerprint(r) for p, r in serial.items()} == {
            p: result_fingerprint(r) for p, r in pooled.items()
        }


class TestRealTrafficIterationsParallel:
    def test_iteration_is_part_of_the_unit(self):
        base = ScenarioConfig(num_nodes=4, num_vcs=2, traffic=REAL_TRAFFIC, **FAST)
        results = Executor(max_workers=2).map([(base, 0), (base, 1)])
        assert result_fingerprint(results[0]) == result_fingerprint(run_scenario(base, 0))
        assert result_fingerprint(results[1]) == result_fingerprint(run_scenario(base, 1))
        # PV frozen across iterations, traffic not.
        assert results[0].initial_vths == results[1].initial_vths
