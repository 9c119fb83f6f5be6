"""Self-test of the benchmark at tiny size.

Run from the repository root::

    python3 -m pytest perfbench -q

Checks that every metric named in ``BENCHMARK.json`` is emitted with its
unit, that the traced run's wrappers are gone before any untraced
timing, that a perturbed digest is reported as a failure, and that the
simulated metrics repeat exactly.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SIMULATED = ("md_duty_pct", "avg_latency_cycles")


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_matches_the_driver():
    assert _units("end_to_end") == run.END_TO_END
    assert _units("per_layer") == run.per_layer_units()
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_metric_emitted_with_unit(name):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        out = run.run(name, 1, seconds=0, trace=trace, size="tiny")
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
        assert {k: v["unit"] for k, v in out["metrics"].items()} == _units(section)
        assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
        json.dumps(out)


def test_wrappers_removed_before_untraced_timing(tmp_path):
    before = layers.originals()
    out = run.run("mesh4-quiet", 1, seconds=0, trace=True, size="tiny")
    assert out["metrics"]["soa.run_span.calls"]["value"] > 0
    assert layers.originals() == before
    layers.assert_untraced()
    with layers.LayerTrace():
        assert layers.originals() != before
        with pytest.raises(RuntimeError):
            layers.assert_untraced()
        with pytest.raises(RuntimeError):
            run.Run("mesh4-quiet", 1, tmp_path, "tiny").untraced(0)
    assert layers.originals() == before


def test_perturbed_digest_is_a_failure(tmp_path):
    clean = run.Run("mesh64-loaded", 1, tmp_path, "tiny")
    clean.untraced(0)
    assert clean.correct
    expected = json.loads(json.dumps(clean.first_digests))
    first = expected["scenarios"][0]
    expected["scenarios"][0] = ("0" if first[0] != "0" else "1") + first[1:]
    perturbed = run.Run("mesh64-loaded", 1, tmp_path, "tiny", expected=expected)
    perturbed.untraced(0)
    assert perturbed.failed == 1 and not perturbed.correct


def test_perturbed_report_digest_is_a_failure(tmp_path):
    clean = run.Run("fault-campaign", 1, tmp_path, "tiny")
    clean.untraced(0)
    expected = dict(clean.first_digests, report="0" * 64)
    perturbed = run.Run("fault-campaign", 1, tmp_path, "tiny", expected=expected)
    perturbed.untraced(0)
    assert perturbed.failed == 1 and not perturbed.correct


@pytest.mark.parametrize("name", ["mesh4-quiet", "mesh16-telemetry"])
def test_simulated_metrics_repeat_exactly(name):
    first, second = (
        run.run(name, 3, seconds=0, trace=False, size="tiny") for _ in range(2)
    )
    for metric in SIMULATED:
        assert first["metrics"][metric]["value"] == second["metrics"][metric]["value"]
    assert first["failed"] == second["failed"] == 0


def test_lost_soa_eligibility_is_an_error(tmp_path, monkeypatch):
    from repro.noc.network import Network

    monkeypatch.setattr(Network, "force_engine", "stepped")
    bench = run.Run("mesh4-quiet", 1, tmp_path, "tiny")
    bench.untraced(0)
    assert bench.errors and not bench.correct
