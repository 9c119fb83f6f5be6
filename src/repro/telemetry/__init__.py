"""Telemetry subsystem: metrics, cycle-level tracing and profiling.

Layered so that the simulator core never pays for what a run did not
ask for:

* :mod:`repro.telemetry.probes` — the probe-point catalogue (names,
  categories, descriptions) shared by emitters, docs and tests.
* :mod:`repro.telemetry.metrics` — counters / gauges / streaming
  histograms in a :class:`MetricsRegistry`.
* :mod:`repro.telemetry.trace` — the :class:`Tracer` event recorder
  (simulated-cycle and host-time domains).
* :mod:`repro.telemetry.sinks` — JSONL, Chrome trace-event and CSV
  rollup writers.
* :mod:`repro.telemetry.config` — the :class:`TelemetryConfig` opt-in
  flag carried by :class:`~repro.experiments.config.ScenarioConfig`.
* :mod:`repro.telemetry.runtime` — :class:`Telemetry`, the per-run
  umbrella that instruments a network and distills a
  :class:`TelemetrySummary`.
* :mod:`repro.telemetry.log` — the ``repro`` logger hierarchy backing
  CLI verbosity (``-v``/``-q``) and the :func:`emit` artifact stream.
"""

from repro.telemetry import probes
from repro.telemetry.config import VALID_FORMATS, TelemetryConfig
from repro.telemetry.log import (
    emit,
    get_logger,
    setup_cli_logging,
    setup_worker_logging,
    verbosity_to_level,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_metrics_dict,
)
from repro.telemetry.runtime import Telemetry, TelemetrySummary, instrument_network
from repro.telemetry.sinks import (
    EVENT_FIELDS,
    ChromeTraceSink,
    CsvRollupSink,
    JsonlSink,
    ListSink,
    TraceSink,
    event_to_dict,
)
from repro.telemetry.trace import PID_HOST, PID_SIM, Tracer

__all__ = [
    "probes",
    "VALID_FORMATS",
    "TelemetryConfig",
    "emit",
    "get_logger",
    "setup_cli_logging",
    "setup_worker_logging",
    "verbosity_to_level",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "format_metrics_dict",
    "Telemetry",
    "TelemetrySummary",
    "instrument_network",
    "EVENT_FIELDS",
    "ChromeTraceSink",
    "CsvRollupSink",
    "JsonlSink",
    "ListSink",
    "TraceSink",
    "event_to_dict",
    "PID_HOST",
    "PID_SIM",
    "Tracer",
]
