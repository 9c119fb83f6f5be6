"""Telemetry runtime: wires a tracer + metrics registry into a network.

:class:`Telemetry` is the per-run umbrella object the scenario runner
creates when ``ScenarioConfig.telemetry`` is set:

* it builds the configured sinks and the :class:`Tracer`,
* :meth:`attach` installs per-component probe handles into a built
  :class:`~repro.noc.network.Network` (deterministic track naming:
  ``r0.east.vc1``, ``r2.out.north``, ``ni3.inj`` ...),
* :meth:`attach_faults` does the same for a
  :class:`~repro.faults.injector.FaultInjector`'s hooks,
* :meth:`span` times runner phases into the host-profiling track, and
* :meth:`finalize` closes the sinks and distills a picklable
  :class:`TelemetrySummary` that travels back from worker processes.

Instrumentation is handle-based: each component gets ``trace`` (the
tracer) and ``trace_id`` (its track) attributes that default to
``None``/0, so the telemetry-off cost is one attribute test on the few
event-driven paths — per-cycle hot loops are never touched.  It does
not change the engine choice: a traced fault-free run takes the
event-directed SoA engine like an untraced one (see :mod:`repro.noc.soa`).
"""

from __future__ import annotations

import dataclasses
import os
import re
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.telemetry.config import TelemetryConfig
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.sinks import ChromeTraceSink, CsvRollupSink, JsonlSink, TraceSink
from repro.telemetry.trace import Tracer

#: trace_dir file suffix per format name.
_FORMAT_SUFFIX = {
    "chrome": ".trace.json",
    "jsonl": ".events.jsonl",
    "csv": ".rollup.csv",
}


def _slug(name: str) -> str:
    """Filesystem-safe run name (trace files are named from labels)."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("_") or "run"


@dataclasses.dataclass
class TelemetrySummary:
    """Picklable digest of one traced/metered run.

    Attributes
    ----------
    run_name:
        Sanitized name the trace files were derived from.
    event_counts:
        Events emitted per probe name (see repro.telemetry.probes).
    metrics:
        :meth:`MetricsRegistry.as_dict` snapshot (empty when metrics
        collection was off).  Keys starting with ``phase.`` carry host
        wall-clock timings and are the only nondeterministic entries.
    trace_files:
        Paths of every trace artifact written for this run.
    window_start, end_cycle:
        Measurement window: ``reset_stats`` cycle and final cycle.
    measured_stress_cycles, measured_recovery_cycles:
        Per-VC NBTI counter values at the scenario's measured port over
        the window — the ground truth the trace's gate/wake events must
        reconcile with exactly.
    """

    run_name: str
    event_counts: Dict[str, int] = dataclasses.field(default_factory=dict)
    metrics: Dict[str, Dict[str, object]] = dataclasses.field(default_factory=dict)
    trace_files: Tuple[str, ...] = ()
    window_start: int = 0
    end_cycle: int = 0
    measured_stress_cycles: Tuple[int, ...] = ()
    measured_recovery_cycles: Tuple[int, ...] = ()

    @property
    def total_events(self) -> int:
        return sum(self.event_counts.values())


class Telemetry:
    """Per-run telemetry umbrella: tracer + metrics + sink lifecycle."""

    def __init__(self, config: TelemetryConfig, run_name: str = "run") -> None:
        self.config = config
        self.run_name = _slug(run_name)
        sinks: List[TraceSink] = []
        files: List[str] = []
        if config.trace_dir is not None:
            os.makedirs(config.trace_dir, exist_ok=True)
            for fmt in config.formats:
                path = os.path.join(
                    config.trace_dir, self.run_name + _FORMAT_SUFFIX[fmt]
                )
                if fmt == "chrome":
                    sinks.append(ChromeTraceSink(path))
                elif fmt == "jsonl":
                    sinks.append(JsonlSink(path))
                else:
                    sinks.append(CsvRollupSink(path))
                files.append(path)
        self.trace_files: Tuple[str, ...] = tuple(files)
        self.tracer = Tracer(
            sinks=sinks, max_buffered_events=config.max_buffered_events
        )
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if config.metrics else None
        )
        self._finalized: Optional[TelemetrySummary] = None

    # -- wiring --------------------------------------------------------
    def attach(self, network) -> None:
        """Instrument a built network (idempotence not needed: the
        runner attaches exactly once, right after construction)."""
        instrument_network(network, self.tracer, self.config)

    def attach_faults(self, injector) -> None:
        """Instrument a fault injector's hooks (after ``apply``)."""
        if self.config.faults:
            injector.attach_telemetry(self.tracer)

    @contextmanager
    def span(self, name: str):
        """Host-time phase span; also feeds the ``phase.*`` metrics."""
        import time

        started = time.perf_counter()
        with self.tracer.span("run.phase", cat="run", args={"phase": name}):
            yield
        if self.metrics is not None:
            self.metrics.set(f"phase.{name}.seconds", time.perf_counter() - started)

    # -- teardown ------------------------------------------------------
    def finalize(self, network=None, scenario=None) -> TelemetrySummary:
        """Close the sinks and summarize the run; idempotent.

        With ``network``/``scenario`` given, the summary also captures
        the deterministic simulation metrics and the measured port's
        per-VC stress/recovery counters (reconciliation ground truth).
        """
        if self._finalized is not None:
            return self._finalized
        window_start = 0
        end_cycle = 0
        stress: Tuple[int, ...] = ()
        recovery: Tuple[int, ...] = ()
        if network is not None:
            window_start = network.stats_window_start
            end_cycle = network.cycle
            if self.metrics is not None:
                self._harvest_sim_metrics(network)
            if scenario is not None:
                from repro.noc.topology import port_id

                pid = port_id(scenario.measure_port)
                total_vcs = scenario.num_vcs * scenario.num_vnets
                counters = [
                    network.device(scenario.measure_router, pid, vc).counter
                    for vc in range(total_vcs)
                ]
                stress = tuple(c.stress_cycles for c in counters)
                recovery = tuple(c.recovery_cycles for c in counters)
        if self.metrics is not None:
            for name in sorted(self.tracer.counts):
                self.metrics.counter(f"events.{name}").inc(self.tracer.counts[name])
        self.tracer.close()
        self._finalized = TelemetrySummary(
            run_name=self.run_name,
            event_counts=dict(self.tracer.counts),
            metrics=self.metrics.as_dict() if self.metrics is not None else {},
            trace_files=self.trace_files,
            window_start=window_start,
            end_cycle=end_cycle,
            measured_stress_cycles=stress,
            measured_recovery_cycles=recovery,
        )
        return self._finalized

    def _harvest_sim_metrics(self, network) -> None:
        stats = network.stats()
        m = self.metrics
        m.counter("sim.packets_injected").inc(stats.packets_injected)
        m.counter("sim.packets_ejected").inc(stats.packets_ejected)
        m.counter("sim.flits_injected").inc(stats.flits_injected)
        m.counter("sim.flits_ejected").inc(stats.flits_ejected)
        m.counter("sim.sensor_degrade_events").inc(stats.sensor_degrade_events)
        m.counter("sim.sensor_degraded_cycles").inc(stats.sensor_degraded_cycles)
        m.set("sim.cycles", stats.cycles)
        m.set("sim.throughput_flits_per_node_cycle", stats.throughput_flits_per_node_cycle)
        latency = m.histogram("sim.packet_latency")
        for ni in network.interfaces:
            for record in ni.ejection_records:
                latency.observe(record.latency)
        for port in network.upstream_ports():
            m.counter("sim.gate_commands").inc(port.gate_commands)
            m.counter("sim.wake_commands").inc(port.wake_commands)


def instrument_network(network, tracer: Tracer, config: TelemetryConfig) -> None:
    """Install probe handles into every opted-in subsystem of a network.

    Track registration order is deterministic (routers by id, ports in
    sorted id order, VCs ascending), so two runs of the same scenario
    produce identical tid assignments and identical traces.
    """
    from repro.noc.topology import port_name

    tracer.clock = lambda: network.cycle

    for router in network.routers:
        rid = router.router_id
        for port in router.input_ports:
            label = f"r{rid}.{port_name(port)}"
            unit = router.inputs[port].unit
            if config.buffers:
                for vc, ivc in enumerate(unit.vcs):
                    tid = tracer.register_track(f"{label}.vc{vc}")
                    ivc.buffer.trace = tracer
                    ivc.buffer.trace_id = tid
            if config.sensors and unit.sensor_bank is not None:
                tid = tracer.register_track(f"{label}.sensors")
                unit.sensor_bank.trace = tracer
                unit.sensor_bank.trace_id = tid

    upstreams = []
    for router in network.routers:
        for port in router.output_ports:
            upstreams.append(
                (f"r{router.router_id}.out.{port_name(port)}",
                 router.outputs[port].upstream)
            )
    for ni in network.interfaces:
        upstreams.append((f"ni{ni.node_id}.inj", ni.injection_port))

    for label, upstream in upstreams:
        tid = tracer.register_track(label)
        if config.ports:
            upstream.trace = tracer
            upstream.trace_id = tid
        if config.policies:
            for engine in upstream.engines:
                policy = engine.policy
                policy.trace = tracer
                policy.trace_tid = tid
                fallback = getattr(policy, "fallback", None)
                if fallback is not None:
                    fallback.trace = tracer
                    fallback.trace_tid = tid
