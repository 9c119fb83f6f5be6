"""Tests for the NSGA-II engine, dedup accounting and Pareto reports.

Covers the two headline invariants of ``repro-noc dse search``:

* **Determinism** — same seed, byte-identical Pareto-front JSON, with
  all randomness routed through labeled ``scenario_seed`` streams.
* **Dedup** — a genome re-proposed in a later generation (or a rerun
  sharing the result cache) costs zero additional simulator runs,
  asserted through the engine counters AND ``ExecutorStats``.
"""

from __future__ import annotations

import json

import pytest

from repro.dse.ga import DSEEngine, GAConfig, verify_ga_state
from repro.dse.objectives import resolve_objectives
from repro.dse.report import DSEResult
from repro.dse.space import DesignSpace, Parameter
from repro.experiments.checkpoint import CheckpointManager
from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import Executor
from repro.nbti.process_variation import scenario_seed


def micro_space():
    base = ScenarioConfig(num_nodes=2, cycles=300, warmup=100)
    return DesignSpace(
        parameters=(
            Parameter.categorical("policy", ("rr-no-sensor", "sensor-wise")),
            Parameter("rotation_period", (16, 64, 256)),
            Parameter("wake_latency", (1, 2)),
            Parameter("buffer_depth", (2, 4)),
        ),
        base=base,
    )


def micro_objectives():
    return resolve_objectives(["md_duty", "p95_latency"])


def run_engine(config, **kwargs):
    engine = DSEEngine(micro_space(), micro_objectives(), config, **kwargs)
    engine.run()
    return engine


def report_of(engine):
    return DSEResult.from_archive(
        engine.space, engine.objectives, engine.archive,
        counters=engine.counters,
    )


class TestGAConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GAConfig(population=1)
        with pytest.raises(ValueError):
            GAConfig(generations=0)


class TestDeterminism:
    def test_same_seed_byte_identical_pareto_json(self):
        """Satellite invariant: the whole report is a pure function of
        the seed (and the space/config), byte for byte."""
        config = GAConfig(population=4, generations=3, seed=11)
        first = report_of(run_engine(config)).to_json()
        second = report_of(run_engine(config)).to_json()
        assert first == second
        assert first.endswith("\n")
        json.loads(first)  # well-formed

    def test_rng_streams_are_labeled_and_stable(self):
        config = GAConfig(population=4, generations=1, seed=5)
        engine = DSEEngine(micro_space(), micro_objectives(), config)
        assert (
            engine._rng(2, "vary").random()
            == engine._rng(2, "vary").random()
        )
        assert (
            engine._rng(2, "vary").random()
            != engine._rng(3, "vary").random()
        )
        # The stream is rooted in the shared scenario_seed derivation.
        import random as random_module

        expected = random_module.Random(
            scenario_seed("dse", 5, 2, "vary")
        ).random()
        assert engine._rng(2, "vary").random() == expected

    def test_digest_changes_with_space_and_config(self):
        config = GAConfig(population=4, generations=1, seed=5)
        engine = DSEEngine(micro_space(), micro_objectives(), config)
        other_config = GAConfig(population=6, generations=1, seed=5)
        other = DSEEngine(micro_space(), micro_objectives(), other_config)
        assert engine.digest() != other.digest()


class TestDedup:
    def test_reproposed_genomes_cost_zero_new_simulations(self):
        """Satellite invariant: a 2-generation GA whose second generation
        re-proposes the first generation's genomes performs zero new
        simulator invocations (mutation off => offspring clone parents)."""
        config = GAConfig(
            population=4, generations=2, seed=3,
            mutation_rate=0.0, crossover_rate=0.0,
        )
        executor = Executor(max_workers=1)
        engine = run_engine(config, executor=executor)
        stats = executor.stats
        # Generation 0 simulated the initial population; generation 1's
        # clones were all served from the archive.
        assert engine.counters["simulated"] == config.population
        assert stats.units_total == config.population
        assert engine.counters["archive_hits"] == config.population
        assert engine.counters["proposed"] == 2 * config.population

    def test_shared_cache_rerun_is_100_percent_cache_hits(self, tmp_path):
        """Satellite invariant: re-running the same search against the
        same result cache reports 100% cache hits via ExecutorStats."""
        config = GAConfig(population=4, generations=2, seed=3)
        cache_dir = tmp_path / "cache"
        first = Executor(max_workers=1, cache=str(cache_dir))
        engine_one = run_engine(config, executor=first)
        assert first.stats.cache_hits == 0
        assert first.stats.units_total == engine_one.counters["simulated"]

        second = Executor(max_workers=1, cache=str(cache_dir))
        engine_two = run_engine(config, executor=second)
        stats = second.stats
        assert stats.units_total > 0
        assert stats.cache_hits == stats.units_total  # 100% cache hits
        # And the two runs agree exactly.
        assert report_of(engine_one).to_json() == report_of(engine_two).to_json()

    def test_savings_accounting(self):
        """Every proposal is either simulated or served by dedup, and
        each generation proposes exactly ``population`` genomes."""
        config = GAConfig(population=4, generations=4, seed=9)
        engine = run_engine(config)
        counters = engine.counters
        assert counters["proposed"] == (
            counters["simulated"] + counters["archive_hits"]
        )
        assert counters["proposed"] == config.population * config.generations


class TestCheckpointing:
    def make_checkpoint(self, tmp_path):
        return CheckpointManager(tmp_path / "ckpt", meta={"command": "dse"})

    def test_state_written_each_generation_and_verifies(self, tmp_path):
        config = GAConfig(population=4, generations=2, seed=3)
        checkpoint = self.make_checkpoint(tmp_path)
        executor = Executor(max_workers=1, checkpoint=checkpoint)
        engine = run_engine(config, executor=executor)
        checkpoint.close()
        state_path = tmp_path / "ckpt" / "ga.state.json"
        ok, summary = verify_ga_state(state_path)
        assert ok, summary
        blob = json.loads(state_path.read_text())
        assert blob["status"] == "complete"
        assert blob["next_generation"] == 2
        assert blob["digest"] == engine.digest()
        assert len(blob["archive"]) == len(engine.archive)

    def test_resume_skips_completed_generations(self, tmp_path):
        config = GAConfig(population=4, generations=3, seed=3)
        checkpoint = self.make_checkpoint(tmp_path)
        executor = Executor(max_workers=1, checkpoint=checkpoint)
        golden = report_of(run_engine(config, executor=executor)).to_json()
        checkpoint.close()

        checkpoint = self.make_checkpoint(tmp_path)
        executor = Executor(max_workers=1, checkpoint=checkpoint)
        engine = run_engine(config, executor=executor)
        checkpoint.close()
        assert executor.stats.units_total == 0  # nothing re-simulated
        assert report_of(engine).to_json() == golden

    def test_resume_rejects_different_space(self, tmp_path):
        from repro.experiments.checkpoint import CheckpointError

        config = GAConfig(population=4, generations=1, seed=3)
        checkpoint = self.make_checkpoint(tmp_path)
        run_engine(config, executor=Executor(max_workers=1, checkpoint=checkpoint))
        checkpoint.close()

        other_config = GAConfig(population=6, generations=2, seed=3)
        checkpoint = self.make_checkpoint(tmp_path)
        with pytest.raises(CheckpointError):
            run_engine(
                other_config,
                executor=Executor(max_workers=1, checkpoint=checkpoint),
            )
        checkpoint.close()

    def test_verify_ga_state_rejects_garbage(self, tmp_path):
        path = tmp_path / "ga.state.json"
        path.write_text("{not json")
        ok, summary = verify_ga_state(path)
        assert not ok
        for schema in (999, 1):  # 1: the layout before GA_STATE_SCHEMA 2
            path.write_text(json.dumps({"schema": schema}))
            ok, summary = verify_ga_state(path)
            assert not ok and "schema" in summary


class TestReport:
    def test_front_members_carry_raw_objective_values(self):
        config = GAConfig(population=4, generations=2, seed=7)
        engine = run_engine(config)
        result = report_of(engine)
        assert result.objectives == ("md_duty", "p95_latency")
        assert len(result.front) >= 1
        assert sum(1 for member in result.front if member.knee) == 1
        for member in result.front:
            assert set(member.values) == {
                "policy", "rotation_period", "wake_latency", "buffer_depth",
            }
            assert member.objectives["md_duty"] >= 0.0

    def test_json_roundtrip(self, tmp_path):
        config = GAConfig(population=4, generations=2, seed=7)
        result = report_of(run_engine(config))
        path = tmp_path / "report.json"
        result.write_json(path)
        loaded = DSEResult.load(path)
        assert loaded.to_json() == result.to_json()

    def test_report_with_retired_savings_block_still_loads(self):
        """A schema-1 report written before the single proposal path
        carried a ``savings`` block; loading ignores it."""
        result = report_of(run_engine(GAConfig(population=4, generations=2, seed=7)))
        blob = result.to_dict()
        blob["savings"] = {"proposed": 8.0, "saved": 1.0}
        assert DSEResult.from_dict(blob).to_json() == result.to_json()

    def test_csv_export(self, tmp_path):
        config = GAConfig(population=4, generations=2, seed=7)
        result = report_of(run_engine(config))
        path = tmp_path / "front.csv"
        result.write_csv(path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(result.front) + 1
        assert lines[0].endswith("md_duty,p95_latency,knee")

    def test_empty_archive_rejected(self):
        with pytest.raises(ValueError):
            DSEResult.from_archive(micro_space(), micro_objectives(), {})

    def test_schema_gate(self):
        with pytest.raises(ValueError):
            DSEResult.from_dict({"schema": 0})
