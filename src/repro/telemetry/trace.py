"""Cycle-level event tracer with Chrome-trace semantics.

The :class:`Tracer` is the single object instrumented components talk
to.  Design constraints, in order:

1. **Null-object-cheap when off** — components hold ``trace = None``
   and guard with one ``is not None`` check; the tracer itself is only
   constructed for opted-in runs.
2. **Cheap when on** — an event append is one tuple + one dict bump.
   Serialization happens at flush time, in chunks of
   :data:`FLUSH_CHUNK` events: each chunk is encoded once
   (:func:`~repro.telemetry.sinks.encode_events`) and the same lines go
   to every JSON sink.  A policy's events are captured with its cached
   decision and replayed on every cache hit (:meth:`Tracer.capture`,
   :meth:`Tracer.replay`), so a traced run re-decides no more often
   than an untraced one.
3. **Two time domains** — simulated cycles (``pid`` :data:`PID_SIM`,
   1 cycle = 1 µs in the trace timebase) and host wall-clock profiling
   spans (``pid`` :data:`PID_HOST`).  Perfetto renders them as two
   separate processes so cycle tracks never interleave with host time.

Timestamps come from a *clock callable* (``lambda: network.cycle``)
installed at instrumentation time — component methods like
``VCBuffer.gate()`` take no cycle argument, and threading one through
every signature would tax the telemetry-off path.  Components that do
know the cycle pass ``ts=`` explicitly, skipping the indirection.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.sinks import Event, JsonTextSink, TraceSink, encode_events

#: Trace process id of the simulated-time domain (ts = cycle number).
PID_SIM = 0
#: Trace process id of the host-time domain (ts = µs since tracer start).
PID_HOST = 1

#: Events encoded and handed to the sinks at a time by :meth:`Tracer.flush`;
#: bounds the memory the encoded text of one flush holds.
FLUSH_CHUNK = 2048

#: One captured instant: (name, cat, tid, args), replayed at a given ts.
Captured = Tuple[str, str, int, Optional[dict]]


class Tracer:
    """Buffers probe events and fans them out to sinks.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current simulated cycle;
        used when an event is recorded without an explicit ``ts``.
    sinks:
        :class:`~repro.telemetry.sinks.TraceSink` instances receiving
        every event (possibly none: the tracer still counts per-probe
        activity for the run summary).
    max_buffered_events:
        Auto-flush threshold bounding memory for long traced runs.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], int]] = None,
        sinks: Sequence[TraceSink] = (),
        max_buffered_events: int = 65536,
    ) -> None:
        if max_buffered_events < 1:
            raise ValueError(
                f"max_buffered_events must be >= 1, got {max_buffered_events}"
            )
        self.clock: Callable[[], int] = clock if clock is not None else (lambda: 0)
        self.sinks: List[TraceSink] = list(sinks)
        self.max_buffered_events = max_buffered_events
        #: Events emitted per probe name (metadata excluded) — survives
        #: flushes, feeds the run summary.
        self.counts: Dict[str, int] = {}
        self._events: List[Event] = []
        #: Receives instants instead of the buffer while capturing.
        self._captured: Optional[List[Captured]] = None
        self._tracks: Dict[Tuple[int, str], int] = {}
        self._next_tid = 1
        self._host_epoch = time.perf_counter()
        self._closed = False
        self._meta("process_name", PID_SIM, 0, {"name": "simulation (1 cycle = 1us)"})
        self._meta("process_name", PID_HOST, 0, {"name": "host profiling"})

    # -- track / metadata management -----------------------------------
    def _meta(self, name: str, pid: int, tid: int, args: dict) -> None:
        self._events.append(("M", name, "__metadata", 0, None, pid, tid, args))

    def register_track(self, label: str, pid: int = PID_SIM) -> int:
        """Get-or-create the thread id for a named track.

        Emits the Chrome ``thread_name`` metadata event on first use, so
        Perfetto shows e.g. ``r0.east.vc1`` instead of a bare number.
        """
        key = (pid, label)
        tid = self._tracks.get(key)
        if tid is None:
            tid = self._next_tid
            self._next_tid += 1
            self._tracks[key] = tid
            self._meta("thread_name", pid, tid, {"name": label})
        return tid

    @property
    def tracks(self) -> Dict[Tuple[int, str], int]:
        """(pid, label) -> tid for every registered track."""
        return dict(self._tracks)

    # -- event recording -----------------------------------------------
    def instant(
        self,
        name: str,
        cat: str,
        tid: int = 0,
        args: Optional[dict] = None,
        ts: Optional[int] = None,
    ) -> None:
        """Record an instant event in the simulated-cycle domain."""
        if self._captured is not None:
            self._captured.append((name, cat, tid, args))
            return
        if ts is None:
            ts = self.clock()
        self.counts[name] = self.counts.get(name, 0) + 1
        self._events.append(("i", name, cat, ts, None, PID_SIM, tid, args))
        if len(self._events) >= self.max_buffered_events:
            self.flush()

    def complete(
        self,
        name: str,
        cat: str,
        ts: int,
        dur: int,
        tid: int = 0,
        args: Optional[dict] = None,
        pid: int = PID_HOST,
    ) -> None:
        """Record a complete (``X``) span with explicit start/duration."""
        self.counts[name] = self.counts.get(name, 0) + 1
        self._events.append(("X", name, cat, ts, dur, pid, tid, args))
        if len(self._events) >= self.max_buffered_events:
            self.flush()

    @contextmanager
    def capture(self):
        """Divert instants into a list instead of recording them.

        Yields the list of :data:`Captured` events; nothing is counted
        or buffered (so no auto-flush runs) until :meth:`replay`.
        """
        saved = self._captured
        captured: List[Captured] = []
        self._captured = captured
        try:
            yield captured
        finally:
            self._captured = saved

    def replay(self, events: Sequence[Captured], ts: int) -> None:
        """Record captured instants at simulated cycle ``ts``."""
        for name, cat, tid, args in events:
            self.instant(name, cat, tid, args, ts)

    @contextmanager
    def span(
        self,
        name: str,
        cat: str = "run",
        tid: int = 0,
        args: Optional[dict] = None,
    ):
        """Host-time profiling span (µs since tracer construction)."""
        started = time.perf_counter()
        try:
            yield
        finally:
            ended = time.perf_counter()
            self.complete(
                name,
                cat,
                ts=int((started - self._host_epoch) * 1e6),
                dur=int((ended - started) * 1e6),
                tid=tid,
                args=args,
                pid=PID_HOST,
            )

    # -- lifecycle -----------------------------------------------------
    @property
    def total_events(self) -> int:
        """Events recorded so far (metadata excluded)."""
        return sum(self.counts.values())

    def flush(self) -> None:
        """Hand buffered events to every sink and clear the buffer.

        Events go out in chunks of :data:`FLUSH_CHUNK`; each chunk is
        encoded once for all :class:`~repro.telemetry.sinks.JsonTextSink`
        sinks, while the others read the event tuples.
        """
        if not self._events:
            return
        events = self._events
        self._events = []
        text_sinks = [s for s in self.sinks if isinstance(s, JsonTextSink)]
        tuple_sinks = [s for s in self.sinks if not isinstance(s, JsonTextSink)]
        for start in range(0, len(events), FLUSH_CHUNK):
            chunk = events[start:start + FLUSH_CHUNK]
            if text_sinks:
                lines = encode_events(chunk)
                for sink in text_sinks:
                    sink.write_lines(lines)
            for sink in tuple_sinks:
                sink.write_events(chunk)

    def close(self) -> None:
        """Flush and finalize every sink; idempotent."""
        if self._closed:
            return
        self._closed = True
        self.flush()
        for sink in self.sinks:
            sink.close()
