"""Every persisted artifact goes through :mod:`repro.codec`.

Each case writes one artifact with its writer, compares the bytes with
a golden written by the hand-written codec the artifact used before,
and loads it back ``==`` to the original.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro import codec
from repro.dse.ga import DSEEngine, GAConfig, GAState, read_ga_state
from repro.dse.objectives import resolve_objectives
from repro.dse.report import DSEResult
from repro.dse.space import default_space
from repro.experiments.checkpoint import CheckpointManager
from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import Executor
from repro.experiments.persistence import load_artifact, save_artifact
from repro.experiments.tables import run_real_table, run_synthetic_table, run_vth_saving
from repro.faults.campaign import FaultCampaignConfig, ResilienceReport, ResilienceRow
from repro.faults.spec import FaultSpec
from repro.telemetry.config import TelemetryConfig

GOLDEN = pathlib.Path(__file__).parent / "data"


def saved(artifact, tmp_path):
    """``(bytes, loaded)`` of a table or report through persistence."""
    path = tmp_path / "artifact.json"
    save_artifact(artifact, path)
    return path.read_bytes(), load_artifact(path, type(artifact))


def synthetic_table(tmp_path):
    table = run_synthetic_table(
        num_vcs=2, arches=(4,), rates=(0.1, 0.2), cycles=800, warmup=200, seed=1
    )
    return "table3_small_golden.json", table, *saved(table, tmp_path)


def real_table(tmp_path):
    table = run_real_table(
        num_vcs=2, iterations=2, arch_rows={4: ((0, "east"), (1, "west"))},
        cycles=300, warmup=100, seed=1,
    )
    return "table4_small_golden.json", table, *saved(table, tmp_path)


def vth_report(tmp_path):
    scenario = ScenarioConfig(
        num_nodes=4, num_vcs=2, injection_rate=0.3, cycles=400, warmup=100, seed=1
    )
    report = run_vth_saving(scenario, years=3.0)
    return "vth_saving_small_golden.json", report, *saved(report, tmp_path)


def engine_with_archive(tmp_path):
    """A DSE engine mid-campaign, its archive filled by hand."""
    checkpoint = CheckpointManager(tmp_path / "ckpt", meta={"m": 1})
    engine = DSEEngine(
        default_space(), resolve_objectives(["md_duty", "p95_latency"]),
        GAConfig(population=4, generations=2, seed=3),
        executor=Executor(max_workers=1, checkpoint=checkpoint),
    )
    engine.archive = {
        (0, 0, 0, 0, 0, 0, 0): (12.5, 30.0),
        (1, 2, 1, 0, 2, 1, 2): (8.25, 41.0),
        (2, 1, 0, 2, 1, 0, 1): (20.0, 25.5),
    }
    engine._population = [(1, 2, 1, 0, 2, 1, 2), (0, 0, 0, 0, 0, 0, 0)]
    engine._next_generation = 1
    engine.counters.update(proposed=4, archive_hits=1, simulated=3, generations_done=1)
    checkpoint.close()
    return engine


def ga_state(tmp_path):
    engine = engine_with_archive(tmp_path)
    engine._write_state("running")
    text = engine.state_path.read_text().replace(engine.digest(), "<digest>")
    loaded = read_ga_state(engine.state_path)
    restored = (loaded.population, {e.genome: e.objectives for e in loaded.archive},
                loaded.counters)
    original = (engine.population, engine.archive, engine.counters)
    return "ga_state_golden.json", original, text.encode(), restored


def dse_report(tmp_path):
    engine = engine_with_archive(tmp_path)
    report = DSEResult.from_archive(
        engine.space, engine.objectives, engine.archive, engine.counters,
        status="interrupted",
    )
    text = report.to_json()
    return "dse_report_golden.json", report, text.encode(), DSEResult.from_dict(json.loads(text))


def resilience_report(tmp_path):
    report = ResilienceReport(
        config=FaultCampaignConfig(kinds=("sensor-dropout",), fault_rates=(0.0, 1.0)),
        rows=[
            ResilienceRow("rr-no-sensor", "none", 0.0, md_duty=12.5, mean_duty=10.25,
                          avg_latency=14.0, p95_latency=30.0, degrade_events=0,
                          degraded_pct=0.0, violations=0, fault_counters={"dropped": 0}),
            ResilienceRow("sensor-wise", "sensor-dropout", 1.0,
                          failure="Timeout: attempt exceeded 5s"),
        ],
        executor_summary="2/2 scenarios",
    )
    text = report.to_json()
    # The file leaves the executor summary out (it carries wall times).
    blob = dict(json.loads(text), executor_summary=report.executor_summary)
    return "resilience_report_golden.json", report, text.encode(), codec.decode(blob, ResilienceReport)


def space_describe(tmp_path):
    base = ScenarioConfig(
        faults=(FaultSpec("sensor-dropout", duration=50),), telemetry=TelemetryConfig()
    )
    described = default_space(base).describe()
    text = json.dumps(described, sort_keys=True, indent=2) + "\n"
    return "space_describe_golden.json", base, text.encode(), codec.decode(described["base"], ScenarioConfig)


@pytest.mark.parametrize("artifact", [
    synthetic_table, real_table, vth_report, ga_state, dse_report,
    resilience_report, space_describe,
], ids=lambda case: case.__name__)
def test_artifact_bytes_and_round_trip(artifact, tmp_path):
    golden, original, written, loaded = artifact(tmp_path)
    assert written == (GOLDEN / golden).read_bytes()
    assert loaded == original


class TestStrictDecoding:
    def test_ga_state_of_wrong_shape_is_refused(self, tmp_path):
        from repro.dse.ga import GA_STATE_SCHEMA, verify_ga_state
        from repro.experiments.checkpoint import CheckpointError

        path = tmp_path / "ga.state.json"
        path.write_text(json.dumps({"schema": GA_STATE_SCHEMA, "status": "running"}))
        with pytest.raises(CheckpointError, match="not a GAState"):
            read_ga_state(path)
        ok, summary = verify_ga_state(path)
        assert not ok and "fields of GAState do not match" in summary

    def test_genomes_decode_as_tuples(self):
        state = codec.decode({
            "schema": 2, "digest": "d", "status": "running", "next_generation": 0,
            "population": [[0, 1]], "archive": [{"genome": [0, 1], "objectives": [1.5]}],
            "counters": {},
        }, GAState)
        assert state.population == [(0, 1)]
        assert state.archive[0].genome == (0, 1)
        with pytest.raises(codec.DecodeError, match="expected"):
            codec.decode(dict(codec.to_json(state), next_generation=True), GAState)
