"""Trace sinks: where :class:`~repro.telemetry.trace.Tracer` events go.

Three on-disk formats plus an in-memory one:

* :class:`JsonlSink` — one JSON object per line; trivially streamable
  and the format the reconciliation tests replay.
* :class:`ChromeTraceSink` — the Chrome trace-event JSON array format;
  open the file in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``.  Every event carries the required
  ``ph``/``ts``/``pid``/``tid`` keys.
* :class:`CsvRollupSink` — per-probe aggregate rows (category, name,
  event count, first/last timestamp); a cheap overview for spreadsheets.
* :class:`ListSink` — accumulates event dicts in memory (tests).

Sinks receive *event tuples* (see :data:`EVENT_FIELDS`) in emission
order per flush and own their file handles; ``close`` finalizes the
file (the Chrome array needs a closing bracket to be valid JSON).  The
two JSON formats are :class:`JsonTextSink` subclasses: they write the
text :func:`encode_events` makes of each event, so the tracer encodes a
flushed chunk once and hands the same lines to every such sink.
Simulated timestamps never decrease, and each track's sequence is the
same on both cycle engines; same-cycle events of different tracks may
interleave in an engine-dependent order.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, List, Optional, Sequence, Tuple

#: Positional layout of one event tuple.
EVENT_FIELDS = ("ph", "name", "cat", "ts", "dur", "pid", "tid", "args")

#: One trace event: (ph, name, cat, ts, dur, pid, tid, args).
Event = Tuple[str, str, str, int, Optional[int], int, int, Optional[dict]]


def event_to_dict(event: Event) -> Dict[str, object]:
    """Chrome-trace JSON object for one event tuple."""
    ph, name, cat, ts, dur, pid, tid, args = event
    record: Dict[str, object] = {
        "ph": ph,
        "name": name,
        "cat": cat,
        "ts": ts,
        "pid": pid,
        "tid": tid,
    }
    if ph == "X":
        record["dur"] = 0 if dur is None else dur
    if ph == "i":
        record["s"] = "t"  # thread-scoped instant marker
    if args is not None:
        record["args"] = args
    return record


#: Encoder of ``args`` objects: the one ``json.dumps(..., sort_keys=True)`` uses.
_ARGS_ENCODER = json.JSONEncoder(sort_keys=True)

#: ``args`` value types whose JSON text is fixed by (type, value).  Floats
#: are left out: ``-0.0 == 0.0`` but their texts differ.
_MEMO_TYPES = frozenset((str, int, bool, type(None)))


def encode_events(events: Sequence[Event]) -> List[str]:
    """JSON text of each event, ``json.dumps(event_to_dict(e), sort_keys=True)``.

    The outer keys are written by hand in sorted order (``args``,
    ``cat``, ``dur``, ``name``, ``ph``, ``pid``, ``s``, ``tid``, ``ts``);
    ``ts``/``dur``/``pid``/``tid`` must be ints.  ``args`` goes through
    the same sort-keys encoder as :func:`json.dumps`, and a flat ``args``
    text is memoized for the batch on its items *and* their types, since
    ``{"k": True} == {"k": 1}``.
    """
    memo: Dict[tuple, str] = {}
    lines: List[str] = []
    append = lines.append
    for ph, name, cat, ts, dur, pid, tid, args in events:
        if args is None:
            head = "{"
        else:
            types = tuple(map(type, args.values()))
            key = (tuple(args.items()), types)
            try:
                text = memo.get(key)
            except TypeError:  # an unhashable (nested) value
                text = key = None
            if text is None:
                text = _ARGS_ENCODER.encode(args)
                if (
                    key is not None
                    and _MEMO_TYPES.issuperset(types)
                    and all(type(k) is str for k in args)
                ):
                    memo[key] = text
            head = '{"args": ' + text + ", "
        if ph == "i":
            append(
                f'{head}"cat": {_quote(cat)}, "name": {_quote(name)}, "ph": "i", '
                f'"pid": {pid}, "s": "t", "tid": {tid}, "ts": {ts}}}'
            )
        elif ph == "X":
            append(
                f'{head}"cat": {_quote(cat)}, "dur": {0 if dur is None else dur}, '
                f'"name": {_quote(name)}, "ph": "X", "pid": {pid}, '
                f'"tid": {tid}, "ts": {ts}}}'
            )
        else:
            append(
                f'{head}"cat": {_quote(cat)}, "name": {_quote(name)}, '
                f'"ph": {_quote(ph)}, "pid": {pid}, "tid": {tid}, "ts": {ts}}}'
            )
    return lines


class TraceSink:
    """Interface: accepts event batches, then finalizes on close."""

    def write_events(self, events: Sequence[Event]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Finalize the sink (default: nothing to do)."""


class ListSink(TraceSink):
    """In-memory sink collecting event dicts (test helper)."""

    def __init__(self) -> None:
        self.events: List[Dict[str, object]] = []
        self.closed = False

    def write_events(self, events: Sequence[Event]) -> None:
        self.events.extend(event_to_dict(e) for e in events)

    def close(self) -> None:
        self.closed = True


class JsonTextSink(TraceSink):
    """A sink writing the :func:`encode_events` text of each event."""

    def write_events(self, events: Sequence[Event]) -> None:
        self.write_lines(encode_events(events))

    def write_lines(self, lines: Sequence[str]) -> None:
        """Write already-encoded events (one JSON object per string)."""
        raise NotImplementedError


class JsonlSink(JsonTextSink):
    """One JSON object per line (stable key order)."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._fh = open(self.path, "w", encoding="utf-8")

    def write_lines(self, lines: Sequence[str]) -> None:
        if lines:
            self._fh.write("\n".join(lines) + "\n")

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


class ChromeTraceSink(JsonTextSink):
    """Chrome trace-event format: a JSON array of event objects."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._fh = open(self.path, "w", encoding="utf-8")
        self._fh.write("[")
        self._first = True

    def write_lines(self, lines: Sequence[str]) -> None:
        if lines:
            self._fh.write(("\n" if self._first else ",\n") + ",\n".join(lines))
            self._first = False

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.write("\n]\n")
            self._fh.close()


class CsvRollupSink(TraceSink):
    """Aggregates events into per-probe rows, written on close."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        # (cat, name) -> [count, first_ts, last_ts]
        self._rows: Dict[Tuple[str, str], List[int]] = {}
        self._closed = False

    def write_events(self, events: Sequence[Event]) -> None:
        rows = self._rows
        for ph, name, cat, ts, _dur, _pid, _tid, _args in events:
            if ph == "M":
                continue  # metadata events are not probe activity
            row = rows.get((cat, name))
            if row is None:
                rows[(cat, name)] = [1, ts, ts]
            else:
                row[0] += 1
                if ts < row[1]:
                    row[1] = ts
                if ts > row[2]:
                    row[2] = ts

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write("category,name,events,first_ts,last_ts\n")
            for (cat, name) in sorted(self._rows):
                count, first, last = self._rows[(cat, name)]
                fh.write(f"{cat},{name},{count},{first},{last}\n")
