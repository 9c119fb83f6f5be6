"""Tests for the telemetry subsystem: tracing, metrics, sinks, logging.

The binding guarantees under test:

* telemetry **off** (the default) leaves the paper artifacts
  byte-identical to the pre-telemetry goldens — instrumentation is a
  null-object, not a code path;
* telemetry **on** produces a Chrome/JSONL trace whose gate/wake events
  replay to *exactly* the NBTI stress/recovery counters the simulator
  reports (cycle-accurate reconciliation);
* traced runs are deterministic: in-process and child-process
  execution emit identical events and metrics (host-time ``phase.*``
  gauges are the one documented exception).
"""

from __future__ import annotations

import json
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.telemetry import (
    EVENT_FIELDS,
    ListSink,
    MetricsRegistry,
    TelemetryConfig,
    Tracer,
    emit,
    probes,
    verbosity_to_level,
)
from repro.telemetry.sinks import encode_events, event_to_dict

DATA = pathlib.Path(__file__).parent / "data"


def small_scenario(**overrides) -> ScenarioConfig:
    defaults = dict(
        num_nodes=4, num_vcs=2, injection_rate=0.1, policy="sensor-wise",
        cycles=600, warmup=150, seed=1, sensor_sample_period=64,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestGoldenByteIdentity:
    """Telemetry-off output must be byte-identical to the seed goldens."""

    def test_table3_json_unchanged(self, tmp_path):
        from repro.experiments.persistence import save_artifact
        from repro.experiments.tables import run_synthetic_table

        table = run_synthetic_table(
            num_vcs=2, arches=(4,), rates=(0.1, 0.2),
            cycles=800, warmup=200, seed=1,
        )
        out = tmp_path / "table3.json"
        save_artifact(table, out)
        assert out.read_bytes() == (DATA / "table3_small_golden.json").read_bytes()

    def test_fault_campaign_json_unchanged(self):
        from repro.faults.campaign import FaultCampaignConfig, run_fault_campaign

        config = FaultCampaignConfig(
            num_nodes=4, num_vcs=2, injection_rate=0.1,
            cycles=300, warmup=100, seed=1, sensor_sample_period=32,
            kinds=("sensor-dropout", "up-down-drop"),
            fault_rates=(0.0, 1.0),
            policies=("rr-no-sensor", "sensor-wise"),
            validate_every=16,
        )
        report = run_fault_campaign(config)
        golden = (DATA / "fault_campaign_small_golden.json").read_text()
        assert report.to_json() == golden


class TestTraceArtifacts:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        trace_dir = tmp_path_factory.mktemp("traces")
        scenario = small_scenario().traced(
            trace_dir=str(trace_dir), formats=("chrome", "jsonl", "csv")
        )
        result = run_scenario(scenario)
        return scenario, result

    @pytest.fixture(scope="class")
    def traced_stepped(self, tmp_path_factory):
        """The same traced run pinned to the dense stepping oracle."""
        from repro.noc.network import Network

        trace_dir = tmp_path_factory.mktemp("traces-stepped")
        scenario = small_scenario().traced(
            trace_dir=str(trace_dir), formats=("jsonl",)
        )
        Network.force_engine = "stepped"
        try:
            result = run_scenario(scenario)
        finally:
            Network.force_engine = None
        return scenario, result

    def test_summary_counts_match_files(self, traced):
        _, result = traced
        summary = result.telemetry
        assert summary is not None
        assert len(summary.trace_files) == 3
        assert summary.total_events > 0
        jsonl = next(p for p in summary.trace_files if p.endswith(".events.jsonl"))
        lines = pathlib.Path(jsonl).read_text().splitlines()
        # JSONL carries every event plus the track-name metadata records.
        metadata = sum(1 for ln in lines if json.loads(ln)["ph"] == "M")
        assert len(lines) - metadata == summary.total_events

    def test_chrome_trace_schema(self, traced):
        _, result = traced
        chrome = next(
            p for p in result.telemetry.trace_files if p.endswith(".trace.json")
        )
        events = json.loads(pathlib.Path(chrome).read_text())
        assert isinstance(events, list) and events
        for event in events:
            assert set(("ph", "name", "ts", "pid", "tid")) <= set(event)
            assert event["ph"] in ("i", "X", "M")
            if event["ph"] == "X":
                assert "dur" in event
            if event["ph"] == "i":
                assert event["s"] == "t"

    def test_every_event_name_is_catalogued(self, traced):
        _, result = traced
        for name in result.telemetry.event_counts:
            assert name in probes.CATALOG, f"uncatalogued probe {name!r}"

    def test_csv_rollup_schema(self, traced):
        _, result = traced
        csv_path = next(
            p for p in result.telemetry.trace_files if p.endswith(".rollup.csv")
        )
        lines = pathlib.Path(csv_path).read_text().splitlines()
        assert lines[0] == "category,name,events,first_ts,last_ts"
        rolled = {row.split(",")[1]: int(row.split(",")[2]) for row in lines[1:]}
        assert rolled == dict(result.telemetry.event_counts)

    def test_gate_wake_events_reconcile_with_nbti_counters(self, traced):
        """The acceptance criterion: replaying the trace's power-state
        transitions reproduces the simulator's stress/recovery counters
        exactly, for every VC of the measured port (default engine
        selection, i.e. SoA)."""
        self._assert_reconciles(*traced)

    def test_gate_wake_events_reconcile_on_stepped_engine(self, traced_stepped):
        self._assert_reconciles(*traced_stepped)

    @classmethod
    def _assert_reconciles(cls, scenario, result):
        summary = result.telemetry
        jsonl = next(p for p in summary.trace_files if p.endswith(".events.jsonl"))
        events = [
            json.loads(line)
            for line in pathlib.Path(jsonl).read_text().splitlines()
        ]

        track_names = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        pattern = re.compile(
            rf"^r{scenario.measure_router}\.{scenario.measure_port}\.vc(\d+)$"
        )
        vc_tids = {}
        for tid, label in track_names.items():
            match = pattern.match(label)
            if match:
                vc_tids[int(match.group(1))] = tid
        total_vcs = scenario.num_vcs * scenario.num_vnets
        assert sorted(vc_tids) == list(range(total_vcs))

        window = (summary.window_start, summary.end_cycle)
        for vc, tid in sorted(vc_tids.items()):
            recovery = cls._replay_recovery(events, tid, *window)
            span = summary.end_cycle - summary.window_start
            assert recovery == summary.measured_recovery_cycles[vc]
            assert span - recovery == summary.measured_stress_cycles[vc]

    @staticmethod
    def _replay_recovery(events, tid, window_start, end_cycle):
        """Recovery cycles in [window_start, end_cycle) from the event log.

        A buffer is recovering exactly while GATED: a ``buffer.gate`` at
        ts=c means cycle c counted as recovery (commands apply before
        the NBTI phase); any wake at ts=c means cycle c counted as
        stress.  ``wake_complete`` (WAKING->ON) is not a power-state
        edge for NBTI purposes: WAKING already counts as stress.
        """
        gated_since = None
        recovery = 0
        for event in events:
            if event.get("tid") != tid or event["ph"] != "i":
                continue
            ts = event["ts"]
            if event["name"] == probes.BUFFER_GATE:
                if gated_since is None:
                    gated_since = ts
            elif event["name"] in (
                probes.BUFFER_WAKE, probes.BUFFER_EMERGENCY_WAKE
            ):
                if gated_since is not None:
                    lo = max(gated_since, window_start)
                    hi = min(ts, end_cycle)
                    recovery += max(0, hi - lo)
                    gated_since = None
        if gated_since is not None:
            lo = max(gated_since, window_start)
            recovery += max(0, end_cycle - lo)
        return recovery


class TestDeterminism:
    def test_in_process_and_child_runs_agree(self):
        from repro.experiments.parallel import Executor

        scenario = small_scenario().traced(trace_dir=None, formats=())
        local = run_scenario(scenario)
        # map_robust always runs the attempt in a child process.
        executor = Executor(max_workers=4)
        (child,) = executor.map_robust([(scenario, 0)])
        assert executor.stats.fallbacks == 0

        assert child.duty_cycles == local.duty_cycles
        assert child.telemetry.event_counts == local.telemetry.event_counts
        assert self._stable(child.telemetry.metrics) == self._stable(
            local.telemetry.metrics
        )

    @staticmethod
    def _stable(metrics):
        """Metrics minus the documented host-time ``phase.*`` gauges."""
        return {
            kind: {
                name: value
                for name, value in entries.items()
                if not name.startswith("phase.")
            }
            for kind, entries in metrics.items()
        }


def _sim_rows(jsonl_path):
    """JSONL events minus the host-time spans (pid 1 ``X``), which differ
    between any two runs."""
    rows = [json.loads(ln) for ln in pathlib.Path(jsonl_path).read_text().splitlines()]
    return [e for e in rows if not (e["pid"] == 1 and e["ph"] == "X")]


class TestTracedRuns:
    def test_auto_flush_writes_the_same_jsonl(self, tmp_path):
        traces = []
        for buffered in (1, TelemetryConfig().max_buffered_events):
            scenario = small_scenario().traced(
                trace_dir=str(tmp_path / f"buffered{buffered}"), formats=("jsonl",),
                max_buffered_events=buffered,
            )
            (path,) = run_scenario(scenario).telemetry.trace_files
            traces.append(_sim_rows(path))
        assert traces[0] == traces[1]

    @pytest.mark.parametrize("policy,engine", [
        # Epoch-keyed: SoA re-decides on the same cycles traced or not.
        ("rr-no-sensor", None),
        # Cycle-free: a traced one is pinned at its epochs on SoA, so
        # compare where both runs re-decide on the same cycles.
        ("sensor-wise", "stepped"),
    ])
    def test_traced_policy_decides_as_often_as_untraced(
        self, monkeypatch, policy, engine
    ):
        """Tracing replays cached decisions' events instead of bypassing
        the value-level decision cache."""
        from repro.core.policies import RoundRobinSensorlessPolicy, SensorWisePolicy
        from repro.noc.network import Network

        cls = SensorWisePolicy if policy == "sensor-wise" else RoundRobinSensorlessPolicy
        decide = cls.decide
        calls = []

        def counting(self, ctx):
            calls.append(ctx.cycle)
            return decide(self, ctx)

        monkeypatch.setattr(cls, "decide", counting)
        monkeypatch.setattr(Network, "force_engine", engine)
        scenario = small_scenario(policy=policy)
        run_scenario(scenario)
        untraced = list(calls)
        calls.clear()
        run_scenario(scenario.traced(trace_dir=None, formats=()))
        assert untraced and calls == untraced

    def test_failed_run_closes_its_trace_files(self, tmp_path, monkeypatch):
        from repro.noc.network import Network

        def boom(self, *args, **kwargs):
            raise RuntimeError("simulated failure")

        monkeypatch.setattr(Network, "run", boom)
        scenario = small_scenario().traced(
            trace_dir=str(tmp_path), formats=("chrome", "jsonl", "csv")
        )
        with pytest.raises(RuntimeError, match="simulated failure"):
            run_scenario(scenario)
        (chrome,) = tmp_path.glob("*.trace.json")
        events = json.loads(chrome.read_text())
        assert any(e["name"] == "run.phase" for e in events)
        (csv_path,) = tmp_path.glob("*.rollup.csv")
        assert csv_path.read_text().startswith("category,name,events")


class TestMetricsRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        registry = MetricsRegistry()
        registry.inc("hits")
        registry.inc("hits", 2)
        registry.set("level", 0.5)
        for v in (1.0, 2.0, 3.0, 4.0):
            registry.observe("lat", v)
        snapshot = registry.as_dict()
        assert snapshot["counters"]["hits"] == 3
        assert snapshot["gauges"]["level"] == 0.5
        assert snapshot["histograms"]["lat"]["count"] == 4
        assert snapshot["histograms"]["lat"]["p50"] == 2.0

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.inc("hits", -1)

    def test_merge(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.inc("n", 2)
        b.inc("n", 3)
        b.set("g", 7.0)
        a.observe("h", 1.0)
        b.observe("h", 3.0)
        a.merge(b)
        snapshot = a.as_dict()
        assert snapshot["counters"]["n"] == 5
        assert snapshot["gauges"]["g"] == 7.0
        assert snapshot["histograms"]["h"]["count"] == 2


class TestTracer:
    def test_instant_and_span_through_list_sink(self):
        sink = ListSink()
        cycle = {"now": 10}
        tracer = Tracer(clock=lambda: cycle["now"], sinks=[sink])
        tid = tracer.register_track("r0.east.vc0")
        tracer.instant(probes.BUFFER_GATE, cat="buffer", tid=tid)
        cycle["now"] = 25
        tracer.instant(probes.BUFFER_WAKE, cat="buffer", tid=tid, args={"latency": 1})
        tracer.close()
        names = [e["name"] for e in sink.events]
        assert probes.BUFFER_GATE in names and probes.BUFFER_WAKE in names
        gate = next(e for e in sink.events if e["name"] == probes.BUFFER_GATE)
        assert gate["ts"] == 10  # ts from the injected clock
        assert tracer.counts[probes.BUFFER_GATE] == 1
        assert sink.closed

    def test_event_tuple_shape(self):
        assert EVENT_FIELDS == ("ph", "name", "cat", "ts", "dur", "pid", "tid", "args")

    def test_capture_survives_auto_flush_and_replays(self):
        """Captured instants are neither counted nor flushed until replay,
        which records them at the given cycle like ``instant``."""
        sink = ListSink()
        tracer = Tracer(sinks=[sink], max_buffered_events=1)
        with tracer.capture() as captured:
            tracer.instant(probes.POLICY_KEEP_AWAKE, "policy", tid=3,
                           args={"md": 1}, ts=7)
            tracer.instant(probes.POLICY_FALLBACK, "policy", tid=3, ts=7)
        assert tracer.counts == {}
        assert sink.events == []  # no auto-flush while capturing
        tracer.replay(captured, 42)
        tracer.replay(captured, 43)
        tracer.close()
        replayed = [(e["name"], e["tid"], e["ts"], e.get("args"))
                    for e in sink.events if e["ph"] == "i"]
        assert replayed == [
            (probes.POLICY_KEEP_AWAKE, 3, 42, {"md": 1}),
            (probes.POLICY_FALLBACK, 3, 42, None),
            (probes.POLICY_KEEP_AWAKE, 3, 43, {"md": 1}),
            (probes.POLICY_FALLBACK, 3, 43, None),
        ]
        assert tracer.counts == {probes.POLICY_KEEP_AWAKE: 2, probes.POLICY_FALLBACK: 2}


_SCALARS = (
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text()
)
_ARG_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# Flat args from few keys and values that compare equal across types,
# so a batch repeats args and probes the memo key.
_FLAT_ARGS = st.dictionaries(
    st.sampled_from(("k", "md")),
    st.sampled_from((True, False, 0, 1, 1.0, 0.0, -0.0, None, "t")),
    max_size=2,
)
_ARGS = st.none() | _FLAT_ARGS | st.dictionaries(st.text(), _ARG_VALUES, max_size=3)


@st.composite
def _events(draw):
    ph = draw(st.sampled_from(("i", "X", "M")))
    return (
        ph,
        draw(st.text()),
        draw(st.text()),
        draw(st.integers()),
        draw(st.none() | st.integers()) if ph == "X" else None,
        draw(st.integers(0, 1)),
        draw(st.integers()),
        draw(_ARGS),
    )


class TestEncodeEvents:
    """``encode_events`` is the sinks' one encoder: its text must be
    exactly what ``json.dumps(event_to_dict(e), sort_keys=True)`` gives."""

    @staticmethod
    def _reference(events):
        return [json.dumps(event_to_dict(e), sort_keys=True) for e in events]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_events(), max_size=16))
    def test_matches_json_dumps(self, events):
        assert encode_events(events) == self._reference(events)

    def test_memo_tells_bool_int_float_apart(self):
        events = [
            ("i", "policy.keep_awake", "policy", ts, None, 0, 1, {"k": value})
            for ts, value in enumerate((True, 1, 1.0, 0.0, -0.0, False, 0, None))
        ] + [("M", "thread_name", "__metadata", 0, None, 0, 1, {"name": "r0.vc\u00e9"}),
             ("X", "run.phase", "run", 5, None, 1, 0, {"k": [1, True], "n": {"x": 1.5}})]
        lines = encode_events(events)
        assert lines == self._reference(events)
        assert [json.loads(ln)["args"]["k"] for ln in lines[:3]] == [True, 1, 1.0]
        assert '"k": true' in lines[0] and '"k": 1}' in lines[1] and '"k": 1.0' in lines[2]


class TestCli:
    def test_trace_command(self, tmp_path, capsys):
        from repro.cli import main

        out_dir = tmp_path / "traces"
        rc = main([
            "trace", "--cycles", "300", "--warmup", "100",
            "--out-dir", str(out_dir), "--formats", "chrome,jsonl",
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "trace files" in captured.out
        written = sorted(p.name for p in out_dir.iterdir())
        assert len(written) == 2
        assert any(name.endswith(".trace.json") for name in written)
        assert any(name.endswith(".events.jsonl") for name in written)

    def test_metrics_command_json(self, tmp_path, capsys):
        from repro.cli import main

        json_path = tmp_path / "metrics.json"
        rc = main([
            "metrics", "--cycles", "300", "--warmup", "100",
            "--json", str(json_path),
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "counters:" in captured.out
        payload = json.loads(json_path.read_text())
        assert payload["counters"]["sim.packets_injected"] > 0

    def test_metrics_command_leaves_no_trace_files(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["metrics", "--cycles", "200", "--warmup", "50"]) == 0
        capsys.readouterr()
        assert list(tmp_path.iterdir()) == []


class TestLogging:
    def test_emit_writes_plain_stdout_line(self, capsys):
        emit("TABLE ROW")
        captured = capsys.readouterr()
        assert captured.out == "TABLE ROW\n"
        assert captured.err == ""

    def test_verbosity_mapping(self):
        import logging

        assert verbosity_to_level(1) == logging.DEBUG
        assert verbosity_to_level(0) == logging.INFO
        assert verbosity_to_level(-1) == logging.WARNING
        assert verbosity_to_level(-2) == logging.ERROR

    def test_quiet_flag_silences_progress(self, capsys):
        from repro.cli import main

        assert main(["-q", "-q", "table3", "--cycles", "200", "--warmup", "50",
                     "--jobs", "1"]) == 0
        captured = capsys.readouterr()
        assert "Table III" in captured.out
        assert captured.err == ""


class TestTelemetryConfig:
    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            TelemetryConfig(formats=("xml",))

    def test_traced_builder(self):
        scenario = small_scenario().traced(formats=("jsonl",), sensors=False)
        assert scenario.telemetry is not None
        assert scenario.telemetry.formats == ("jsonl",)
        assert scenario.telemetry.sensors is False
        assert small_scenario().telemetry is None
