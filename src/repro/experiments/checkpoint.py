"""Crash-safe campaign state: scenario journal, atomic writes, shutdown.

Long campaigns die — OOM kills, Ctrl-C, batch-queue preemption — and
before this module a crash lost every finished scenario not yet folded
into the final JSON.  Three cooperating pieces make campaigns durable:

* :func:`atomic_write_json` / :func:`atomic_write_text` — the only
  sanctioned way to write an artifact: temp file in the destination
  directory, flush + ``fsync``, then ``os.replace``.  A crash at any
  instant leaves either the old file or the new file, never a
  truncated hybrid.
* :class:`ScenarioJournal` — a write-ahead, append-only JSONL log, and
  the one on-disk result store.  One fsync'd record per completed
  :class:`~repro.experiments.runner.ScenarioResult` (its
  :mod:`repro.codec` JSON behind a CRC-guarded prefix: nothing on disk
  is a pickle), keyed by the same scenario hash
  ``--cache-dir`` uses, which opens a journal bound to no campaign
  (:meth:`ScenarioJournal.store`).  The first line is a header carrying
  the cache schema version, the code version and a digest of the
  campaign configuration, so a journal can never silently feed a
  *different* campaign.  Replay skips and counts torn or CRC-failed
  records (a ``SIGKILL`` mid-append tears at most the tail line)
  instead of aborting.
* :class:`CheckpointManager` — owns one journal plus the
  ``campaign.state.json`` summary (done/pending/failed counts and
  per-failure tracebacks).  It is handed to one
  :class:`~repro.experiments.parallel.Executor`, which consults it
  before dispatching a unit, journals each finished one, and writes the
  state summary when its ``with`` block ends.

Resume contract: replayed results decode ``==`` to the originals, with
the same types and dict order, so a campaign resumed with ``--resume
<dir>`` produces output **byte identical** to an uninterrupted run
(``tests/test_kill_resume.py``).

Graceful shutdown: :func:`graceful_shutdown` installs SIGINT/SIGTERM
handlers that *drain* — stop dispatching new units and let in-flight
workers finish (still bounded by the per-unit timeout) and be
journaled; the executor's ``with`` block then writes the state summary
and the CLI exits with :data:`EXIT_INTERRUPTED`.  A second signal
hard-cancels.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import re
import signal
import tempfile
import zlib
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro import codec
from repro.version import __version__
from repro.telemetry.log import get_logger
from repro.experiments.runner import ScenarioResult

log = get_logger("checkpoint")

PathLike = Union[str, Path]

#: Journal file-format version (bump on incompatible layout changes).
#: Version 1 carried base64 pickles, version 2 JSON results escaped into
#: a string field; version 3 carries them raw behind a sliceable prefix.
JOURNAL_SCHEMA_VERSION = 3

#: Exit code of a campaign that drained cleanly after SIGINT/SIGTERM:
#: finished scenarios are in its journal, if it has one, and the run is
#: resumable from it (EX_TEMPFAIL — "try again later").  Distinct from
#: 130 (hard cancel on a second signal).
EXIT_INTERRUPTED = 75

#: Exit code after a second signal forced a hard cancel (128 + SIGINT).
EXIT_HARD_CANCEL = 130


class CheckpointError(RuntimeError):
    """A checkpoint directory cannot serve the requested campaign."""


class CampaignInterrupted(RuntimeError):
    """Raised by a draining executor once in-flight units have finished.

    ``pending`` counts the units that were *not* dispatched; everything
    that completed before the drain is already journaled, so resuming
    re-runs only the pending remainder.
    """

    def __init__(self, pending: int, message: str = "") -> None:
        self.pending = pending
        super().__init__(
            message or f"drained with {pending} scenario(s) not dispatched"
        )


# ----------------------------------------------------------------------
# Atomic artifact writes
# ----------------------------------------------------------------------
def _fsync_directory(directory: Path) -> None:
    """Best-effort directory fsync so the rename itself is durable."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: PathLike, text: str, encoding: str = "utf-8") -> None:
    """Durably replace ``path`` with ``text`` (tmp + fsync + rename).

    The temp file lives in the destination directory so the final
    ``os.replace`` never crosses a filesystem boundary; a crash at any
    point leaves the previous file contents intact.
    """
    _place_file(Path(path), text.encode(encoding), os.replace)


def _place_file(path: Path, data: bytes, place: Callable[[str, Path], None]) -> None:
    """Fsync ``data`` into a temp file beside ``path``, then
    ``place(tmp, path)``: ``os.replace``, or ``os.link`` (create only)."""
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        place(tmp, path)
    finally:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
    _fsync_directory(path.parent)


def atomic_write_json(
    path: PathLike, blob: Any, indent: Optional[int] = 2, sort_keys: bool = True
) -> None:
    """Durably replace ``path`` with ``blob`` rendered as JSON.

    Byte-compatible with the historical ``json.dump(..., indent=2,
    sort_keys=True)`` + trailing newline format, so adopting it does
    not move any golden file.
    """
    atomic_write_text(path, json.dumps(blob, indent=indent, sort_keys=sort_keys) + "\n")


# ----------------------------------------------------------------------
# Scenario journal
# ----------------------------------------------------------------------
def config_digest(meta: Dict[str, Any]) -> str:
    """Stable digest of a campaign description + schema/code versions.

    Two runs share a journal only when this digest matches: same
    campaign parameters, same cache schema, same package version —
    the exact conditions under which a scenario hash means the same
    simulation.
    """
    from repro.experiments.parallel import CACHE_SCHEMA_VERSION

    payload = {
        "cache_schema": CACHE_SCHEMA_VERSION,
        "code_version": __version__,
        "journal_schema": JOURNAL_SCHEMA_VERSION,
        "meta": meta,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ScenarioJournal:
    """Append-only write-ahead log of completed scenario results.

    Line 1 is a header record; every further line is one result record
    ``{"crc":"<crc32, 8 hex digits>","key":"<scenario-hash>","result":
    <result JSON>}``: a fixed-layout prefix, then the result's
    :func:`repro.codec.dumps` text as it is, with the CRC taken over
    those payload bytes.  Each record is written in one ``write`` on an
    ``O_APPEND`` handle — so processes sharing a journal never
    overwrite each other's records — and ``fsync``'d before the writer
    moves on: a result is durable before the campaign acts on it.

    Replay at open slices each record and checks its CRC without
    parsing it; a lookup parses and decodes its payload once.  A line
    that fails either, or holds a result whose
    :func:`~repro.experiments.parallel.cache_key` is not its key, is
    counted in :attr:`torn` and served as a miss, never fatal.  A mismatched *header* is fatal
    (:class:`CheckpointError`): mixing results from a different
    campaign or code version would be corruption, not robustness.
    """

    FILENAME = "scenario.journal.jsonl"
    #: File name of a ``--cache-dir`` store (see :meth:`store`).
    STORE_FILENAME = "results-{digest}.jsonl"

    def __init__(self, path: PathLike, meta: Optional[Dict[str, Any]] = None) -> None:
        self.path = Path(path)
        self.meta = dict(meta or {})
        self.digest = config_digest(self.meta)
        #: key -> offset of its record, or the result itself when this
        #: process appended it.
        self._index: Dict[str, Union[int, ScenarioResult]] = {}
        #: Records replay found intact (a lookup that cannot decode one
        #: moves it to :attr:`torn`).
        self.replayed = 0
        #: Torn/CRC-failed/undecodable records skipped.
        self.torn = 0
        #: Records appended by this process.
        self.appended = 0
        self._fh = self._open()

    @classmethod
    def store(cls, directory: PathLike) -> "ScenarioJournal":
        """The ``--cache-dir`` result store: a journal bound to no campaign.

        Its file name carries the digest of the schema and package
        versions, so a version bump opens a fresh file (the old one's
        results would all miss: ``cache_key`` includes both versions).
        """
        return cls(Path(directory) / cls.STORE_FILENAME.format(digest=config_digest({})[:16]))

    # -- opening / replay ---------------------------------------------
    def _header_record(self) -> Dict[str, Any]:
        from repro.experiments.parallel import CACHE_SCHEMA_VERSION

        return {
            "type": "header",
            "journal_schema": JOURNAL_SCHEMA_VERSION,
            "cache_schema": CACHE_SCHEMA_VERSION,
            "code_version": __version__,
            "config_digest": self.digest,
            "meta": self.meta,
        }

    def _open(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Placed whole, so no opener sees a file without its header.
        header = _dump_record(self._header_record()).encode("utf-8")
        if not self.path.exists():
            try:
                _place_file(self.path, header, os.link)
            except FileExistsError:
                self._replay()  # a concurrent opener created it first
        elif not self._replay():
            # Unreadable header: nothing recoverable, restart the log.
            log.warning(
                "journal %s has an unreadable header; starting it fresh", self.path
            )
            _place_file(self.path, header, os.replace)
        fh = open(self.path, "ab", buffering=0)
        with open(self.path, "rb") as tail:
            tail.seek(-1, os.SEEK_END)
            # A SIGKILL mid-append can leave the tail line without its
            # newline; terminate it so the next append starts a fresh
            # record instead of garbling itself onto the tear.
            if tail.read(1) != b"\n":
                fh.write(b"\n")
        return fh

    def _check_header(self, record: Dict[str, Any]) -> None:
        """Refuse to serve a journal written for a different campaign."""
        if record.get("config_digest") == self.digest:
            return
        from repro.experiments.parallel import CACHE_SCHEMA_VERSION

        details = []
        if record.get("journal_schema") != JOURNAL_SCHEMA_VERSION:
            details.append(
                f"journal schema {record.get('journal_schema')!r} != "
                f"{JOURNAL_SCHEMA_VERSION}"
            )
        if record.get("cache_schema") != CACHE_SCHEMA_VERSION:
            details.append(
                f"cache schema {record.get('cache_schema')!r} != "
                f"{CACHE_SCHEMA_VERSION}"
            )
        if record.get("code_version") != __version__:
            details.append(
                f"code version {record.get('code_version')!r} != {__version__!r}"
            )
        if record.get("meta") != self.meta:
            details.append("campaign configuration differs")
        raise CheckpointError(
            f"journal {self.path} belongs to a different campaign "
            f"({'; '.join(details) or 'config digest mismatch'}); "
            "use a fresh --checkpoint-dir or resume with the original "
            "configuration"
        )

    def _replay(self) -> bool:
        """Index every valid record; return False on an unreadable header."""
        with open(self.path, "rb") as fh:
            try:
                header = json.loads(fh.readline())
            except ValueError:
                return False
            if not isinstance(header, dict) or header.get("type") != "header":
                return False
            self._check_header(header)
            offset = fh.tell()
            for line in fh:
                start, offset = offset, offset + len(line)
                if not line.strip():
                    continue
                try:
                    key, _ = _slice_record(line)
                except TornRecord:
                    self.torn += 1
                    continue
                self._index[key] = start
                self.replayed += 1
        return True

    # -- appending / lookup --------------------------------------------
    def append(self, key: str, result: ScenarioResult) -> bool:
        """Durably journal one completed result; False if ``key`` is
        already journaled (appends are idempotent per key)."""
        if key in self._index:
            return False
        payload = codec.dumps(result).encode("ascii")
        data = _RECORD % (zlib.crc32(payload), key.encode("ascii"), payload)
        # One unbuffered write: with O_APPEND the record lands whole at
        # the end of the file, whatever other writers do meanwhile.
        if self._fh.write(data) != len(data):
            raise OSError(f"short write to journal {self.path}")
        os.fsync(self._fh.fileno())
        self._index[key] = result
        self.appended += 1
        return True

    def get(self, key: str) -> Optional[ScenarioResult]:
        """The result journaled under ``key``, or ``None`` (a record
        that no longer decodes is counted in :attr:`torn` and dropped)."""
        entry = self._index.get(key)
        if entry is None or isinstance(entry, ScenarioResult):
            return entry
        try:
            with open(self.path, "rb") as fh:
                fh.seek(entry)
                found, payload = _slice_record(fh.readline())
            if found != key:
                raise TornRecord("record moved")
            result = _decode_under(key, payload)
        except (OSError, TornRecord):
            del self._index[key]
            self.replayed -= 1
            self.torn += 1
            return None
        return result

    def was_replayed(self, key: str) -> bool:
        """Whether ``key``'s record was on disk when the journal opened
        (not appended by this process)."""
        return isinstance(self._index.get(key), int)

    @property
    def results(self) -> Dict[str, ScenarioResult]:
        """Every readable result, in record order (decodes each one)."""
        decoded = {key: self.get(key) for key in list(self._index)}
        return {key: result for key, result in decoded.items() if result is not None}

    def close(self) -> None:
        if not self._fh.closed:
            os.fsync(self._fh.fileno())
            self._fh.close()

    def __len__(self) -> int:
        return len(self._index)


@dataclasses.dataclass
class JournalVerifyReport:
    """Outcome of :func:`verify_journal` (``repro-noc cache verify``).

    ``torn`` carries one ``"line N: reason"`` entry per unreadable
    record; ``torn_tail`` is true when the damage is confined to the
    final line (the signature of a SIGKILL mid-append — recoverable,
    but still rot worth knowing about before a week-long resume).
    """

    path: Path
    header_ok: bool
    header_error: Optional[str]
    total: int
    ok: int
    torn: List[str]
    missing_final_newline: bool

    @property
    def torn_tail(self) -> bool:
        if not self.torn:
            return self.missing_final_newline
        last_line = 1 + self.total  # header + result lines
        return len(self.torn) == 1 and self.torn[0].startswith(f"line {last_line}:")

    @property
    def clean(self) -> bool:
        return self.header_ok and not self.torn and not self.missing_final_newline

    def summary(self) -> str:
        if not self.header_ok:
            return f"{self.path}: unreadable header ({self.header_error})"
        line = f"{self.path}: {self.ok}/{self.total} records valid"
        if self.torn:
            kind = "torn tail" if self.torn_tail else f"{len(self.torn)} torn record(s)"
            line += f", {kind}"
        if self.missing_final_newline:
            line += ", missing final newline"
        return line


def verify_journal(path: PathLike) -> JournalVerifyReport:
    """Scan one scenario journal: header shape, per-record CRC, decoding.

    Structural verification only — the header digest is checked for
    *presence and shape*, not recomputed against the current code
    version (an old journal is valid history, not rot; resume-time
    compatibility gating is :class:`ScenarioJournal`'s job).  Exit-1
    rot, by contrast, is anything replay would silently skip: torn
    tails, CRC failures, undecodable or misfiled records.

    ``path`` may be the journal file itself (a checkpoint journal or a
    ``--cache-dir`` store) or a checkpoint directory (resolved via
    :attr:`ScenarioJournal.FILENAME`).
    """
    path = Path(path)
    if path.is_dir():
        path = path / ScenarioJournal.FILENAME
    if not path.exists():
        raise CheckpointError(f"no scenario journal at {path}")
    with open(path, "rb") as fh:
        raw = fh.read()
    missing_newline = bool(raw) and not raw.endswith(b"\n")
    lines = raw.splitlines()
    if not lines:
        return JournalVerifyReport(
            path=path, header_ok=False, header_error="empty file",
            total=0, ok=0, torn=[], missing_final_newline=False,
        )
    header_ok, header_error = True, None
    try:
        header = json.loads(lines[0])
        if not isinstance(header, dict) or header.get("type") != "header":
            header_ok, header_error = False, "first line is not a header record"
        elif not isinstance(header.get("config_digest"), str) or len(
            header["config_digest"]
        ) != 64:
            header_ok, header_error = False, "header carries no config digest"
        elif header.get("journal_schema") != JOURNAL_SCHEMA_VERSION:
            header_ok, header_error = False, (
                f"journal schema {header.get('journal_schema')!r} is not "
                f"{JOURNAL_SCHEMA_VERSION}"
            )
    except ValueError:
        header_ok, header_error = False, "first line is not valid JSON"
    total = ok = 0
    torn: List[str] = []
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        total += 1
        try:
            _decode_under(*_slice_record(line))
        except TornRecord as exc:
            torn.append(f"line {number}: {exc}")
        else:
            ok += 1
    return JournalVerifyReport(
        path=path, header_ok=header_ok, header_error=header_error,
        total=total, ok=ok, torn=torn,
        missing_final_newline=missing_newline,
    )


#: Bounds applied to worker tracebacks persisted in failure records, so
#: a crash-looping worker cannot balloon ``campaign.state.json``.
TRACEBACK_MAX_FRAMES = 30
TRACEBACK_MAX_BYTES = 8192


def bound_traceback(
    text: Optional[str],
    max_frames: int = TRACEBACK_MAX_FRAMES,
    max_bytes: int = TRACEBACK_MAX_BYTES,
) -> Optional[str]:
    """Clamp a formatted traceback to its most recent frames and a
    byte budget (the frames nearest the raise are the diagnostic ones).
    """
    if text is None:
        return None
    lines = text.splitlines()
    frame_starts = [
        index for index, line in enumerate(lines)
        if line.lstrip().startswith("File ")
    ]
    if len(frame_starts) > max_frames:
        keep_from = frame_starts[len(frame_starts) - max_frames]
        head = lines[:1] if lines and not lines[0].lstrip().startswith("File ") else []
        elided = len(frame_starts) - max_frames
        lines = head + [f"... {elided} frame(s) elided ..."] + lines[keep_from:]
    clamped = "\n".join(lines)
    if text.endswith("\n"):
        clamped += "\n"
    encoded = clamped.encode("utf-8")
    if len(encoded) > max_bytes:
        marker = "... truncated ...\n"
        budget = max_bytes - len(marker.encode("utf-8"))
        tail = encoded[-budget:].decode("utf-8", errors="ignore")
        newline = tail.find("\n")
        if 0 <= newline < len(tail) - 1:
            tail = tail[newline + 1:]
        clamped = marker + tail
    return clamped


def _dump_record(record: Dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


class TornRecord(ValueError):
    """A journal line that replay and lookup skip; the message says why."""


#: A result record: ``crc`` (of the payload bytes), ``key``, payload.
_RECORD = b'{"crc":"%08x","key":"%s","result":%s}\n'
_RECORD_PREFIX = re.compile(rb'\{"crc":"([0-9a-f]{8})","key":"(\w*)","result":')


def _slice_record(line: bytes) -> Tuple[str, bytes]:
    """``(key, payload)`` of a CRC-valid result record, else
    :class:`TornRecord`: slices the line, never parses it."""
    prefix = _RECORD_PREFIX.match(line)
    end = -2 if line.endswith(b"}\n") else -1
    if prefix is None or line[end] != ord("}"):
        raise TornRecord("not a result record (torn write)")
    crc, key = prefix.groups()
    payload = line[prefix.end():end]
    if zlib.crc32(payload) != int(crc, 16):
        raise TornRecord("CRC mismatch")
    return key.decode("ascii"), payload


def _decode(payload: Union[str, bytes], tp: Any) -> Any:
    try:
        return codec.loads(payload, tp)
    except codec.DecodeError as exc:
        raise TornRecord(f"payload is {exc}") from None


def _decode_under(key: str, payload: bytes) -> ScenarioResult:
    """The result in ``payload`` if it is the one ``key`` names: a
    record filed under another scenario's key is a torn record."""
    from repro.experiments.parallel import cache_key  # parallel imports this module

    result = _decode(payload, ScenarioResult)
    if cache_key(result.scenario, result.iteration) != key:
        raise TornRecord("result of another scenario (key mismatch)")
    return result


# ----------------------------------------------------------------------
# Wire records
# ----------------------------------------------------------------------
def encode_record(key: str, value: Any) -> Dict[str, Any]:
    """The ``key``/``crc``/``payload`` fields a result or work unit
    travels in between coordinator and workers."""
    payload = codec.dumps(value)
    return {"key": key, "crc": zlib.crc32(payload.encode("ascii")), "payload": payload}


def decode_record(record: Any, tp: Any = ScenarioResult) -> Tuple[str, Any]:
    """``(key, value)`` of an :func:`encode_record` record.

    Raises :class:`TornRecord` when the record fails its CRC, does not
    decode as ``tp``, or holds a result other than ``key``'s own.
    """
    if not isinstance(record, dict):
        raise TornRecord("record is not a JSON object")
    key, crc, payload = record.get("key"), record.get("crc"), record.get("payload")
    if not isinstance(key, str) or not isinstance(crc, int) or not isinstance(payload, str):
        raise TornRecord("malformed record fields")
    # encode_record writes ASCII; a non-ASCII payload (a lone surrogate
    # escape, say) is corrupt, not a reason to fail the encode below.
    if not payload.isascii() or zlib.crc32(payload.encode("ascii")) != crc:
        raise TornRecord("CRC mismatch")
    if tp is ScenarioResult:
        return key, _decode_under(key, payload)
    return key, _decode(payload, tp)


# ----------------------------------------------------------------------
# Checkpoint manager
# ----------------------------------------------------------------------
class CheckpointManager:
    """One campaign's durable state: journal + ``campaign.state.json``.

    The manager is handed to one
    :class:`~repro.experiments.parallel.Executor`, which owns it: the
    executor looks each unit up in :attr:`journal` before dispatching it,
    appends it the moment it completes, and calls :meth:`write_state`
    when its ``with`` block ends (complete, drained or over budget).
    ``meta`` describes the campaign (command + config); its digest gates
    resume compatibility (see :class:`ScenarioJournal`).
    """

    STATE_FILENAME = "campaign.state.json"

    def __init__(self, directory: PathLike, meta: Optional[Dict[str, Any]] = None) -> None:
        self.directory = Path(directory)
        if self.directory.exists() and not self.directory.is_dir():
            raise CheckpointError(
                f"checkpoint path exists and is not a directory: {self.directory}"
            )
        self.directory.mkdir(parents=True, exist_ok=True)
        self.meta = dict(meta or {})
        self.journal = ScenarioJournal(
            self.directory / ScenarioJournal.FILENAME, meta=self.meta
        )
        if self.journal.replayed or self.journal.torn:
            log.info(
                "journal replay: %d result(s) recovered, %d torn record(s) skipped",
                self.journal.replayed, self.journal.torn,
            )

    # -- accessors -----------------------------------------------------
    @property
    def state_path(self) -> Path:
        return self.directory / self.STATE_FILENAME

    def counters(self) -> Dict[str, int]:
        return {
            "replayed": self.journal.replayed,
            "torn": self.journal.torn,
            "appended": self.journal.appended,
        }

    def completed(self) -> int:
        return len(self.journal)

    # -- state summary -------------------------------------------------
    def write_state(
        self,
        status: str,
        pending: int = 0,
        failures: Iterable[object] = (),
        summary: Optional[str] = None,
    ) -> None:
        """Atomically publish the done/pending/failed summary.

        ``failures`` accepts
        :class:`~repro.experiments.parallel.ScenarioFailure` records
        (duck-typed), whose full tracebacks survive into the file so a
        dead campaign can be diagnosed without re-running it.
        ``summary`` is the executor's one-line accounting.
        """
        blob = {
            "status": status,
            "done": self.completed(),
            "pending": int(pending),
            "failed": [_failure_to_dict(failure) for failure in failures],
            "summary": summary,
            "journal": self.counters(),
            "config_digest": self.journal.digest,
            "code_version": __version__,
            "meta": self.meta,
        }
        atomic_write_json(self.state_path, blob)

    def close(self) -> None:
        self.journal.close()

    # -- resume helpers ------------------------------------------------
    @classmethod
    def load_meta(cls, directory: PathLike) -> Dict[str, Any]:
        """The campaign description stored in a checkpoint directory.

        Lets ``--resume <dir>`` re-derive the original configuration
        instead of trusting the user to retype every flag.
        """
        path = Path(directory) / ScenarioJournal.FILENAME
        try:
            with open(path, "r", encoding="utf-8") as fh:
                header = json.loads(fh.readline())
        except FileNotFoundError:
            raise CheckpointError(
                f"no scenario journal in {directory}; nothing to resume"
            ) from None
        except (OSError, ValueError) as exc:
            raise CheckpointError(
                f"cannot read journal header in {directory}: {exc}"
            ) from exc
        if not isinstance(header, dict) or header.get("type") != "header":
            raise CheckpointError(
                f"{path} is not a scenario journal (bad header)"
            )
        meta = header.get("meta")
        if not isinstance(meta, dict):
            raise CheckpointError(f"{path} header carries no campaign meta")
        return meta


def _failure_to_dict(failure: object) -> Dict[str, Any]:
    scenario = getattr(failure, "scenario", None)
    return {
        "label": getattr(scenario, "label", str(scenario)),
        "policy": getattr(scenario, "policy", None),
        "iteration": getattr(failure, "iteration", None),
        "error_type": getattr(failure, "error_type", None),
        "message": getattr(failure, "message", str(failure)),
        "attempts": getattr(failure, "attempts", None),
        "timed_out": getattr(failure, "timed_out", None),
        # Typed failure kind (timeout/cpu/oom/crash) and governor
        # verdicts, so resource-budget casualties are distinguishable
        # from plain crashes without reading tracebacks.
        "kind": getattr(failure, "kind", None),
        "quarantined": bool(getattr(failure, "quarantined", False)),
        "budget": getattr(failure, "budget", None),
        # Bounded: a crash-looping worker must not balloon the state file.
        "traceback": bound_traceback(getattr(failure, "traceback", None)),
    }


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------
@contextlib.contextmanager
def graceful_shutdown(
    executor, notify: Optional[Callable[[str], None]] = None
) -> Iterator[None]:
    """Install drain-on-signal handlers around a campaign body.

    First SIGINT/SIGTERM: ``executor.request_drain()`` — no new units
    are dispatched, in-flight workers finish (bounded by the per-unit
    timeout) and land in the executor's journal or result store, if it
    has one, and the campaign raises :class:`CampaignInterrupted` for
    the caller to exit with :data:`EXIT_INTERRUPTED`.  A second signal
    raises ``KeyboardInterrupt`` immediately (hard cancel).

    No-op when not running in the main thread (signal handlers cannot
    be installed there).
    """
    seen = {"count": 0}

    def _handler(signum, frame):  # noqa: ARG001 - signal handler signature
        seen["count"] += 1
        name = signal.Signals(signum).name
        if seen["count"] == 1:
            executor.request_drain()
            if notify is not None:
                store = executor.results_kept_in()
                kept = (
                    "but no journal or result store keeps them" if store is None
                    else f"and are kept in {store}"
                )
                notify(
                    f"received {name}: draining — in-flight scenarios finish "
                    f"{kept}; signal again to hard-cancel"
                )
        else:
            raise KeyboardInterrupt(f"hard cancel ({name} x{seen['count']})")

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, _handler)
        except (ValueError, OSError):  # non-main thread / unsupported platform
            pass
    try:
        yield
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
