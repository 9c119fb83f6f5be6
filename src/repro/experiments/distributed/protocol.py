"""Wire protocol of the distributed campaign engine.

Everything on the wire is JSON over plain HTTP (stdlib only — no new
dependencies).  Simulation objects travel as three fields: ``key``
(the scenario hash), ``payload`` (the :mod:`repro.codec` JSON text of
the ``WorkUnit`` going out or the
:class:`~repro.experiments.runner.ScenarioResult` coming back) and
``crc`` (CRC-32 of the payload bytes, as in a journal record), encoded
and decoded by :func:`~repro.experiments.checkpoint.encode_record` and
:func:`~repro.experiments.checkpoint.decode_record`.  A completion's
result is what gets journaled, and decoding builds nothing but the
declared dataclasses: no client can make the coordinator run code.

Endpoints (all bodies are JSON objects):

======================  ================================================
``POST /lease``         ``{"worker": id}`` →
                        ``{"status": "lease", "lease": id, "key": hash,
                        "payload": unit JSON, "crc": int,
                        "lease_timeout": s, "heartbeat": s}`` |
                        ``{"status": "wait", "retry_after": s}`` |
                        ``{"status": "draining", ...}`` |
                        ``{"status": "shutdown"}``
``POST /heartbeat``     ``{"worker": id, "lease": id}`` →
                        ``{"status": "ok" | "unknown"}`` (``unknown``
                        means the lease expired and was reassigned)
``POST /complete``      ``{"worker": id, "lease": id, "key": hash,
                        "payload": result JSON, "crc": int}`` →
                        ``{"status": "committed" | "duplicate" |
                        "unknown" | "rejected", ...}``
``POST /fail``          ``{"worker": id, "lease": id, "key": hash,
                        "error_type": str, "message": str,
                        "traceback": str}`` → ``{"status": "failed" |
                        "ignored"}`` (``ignored``: the lease was no
                        longer live); whether the scenario runs again
                        is the coordinator's executor's call
``GET /status``         → coordinator state, lease-table snapshot,
                        per-worker last-contact ages
======================  ================================================

A record that fails its CRC or its typed decode, or a result that is
not the leased scenario's own, is never committed: the coordinator
answers ``rejected`` and fails the attempt; a worker that cannot
decode its lease reports it through ``/fail`` as a ``ProtocolError``.

Robustness contract: a ``committed`` ack is sent only *after* the
result is fsync'd into the scenario journal, so a worker (or the whole
network) can die the instant after the ack without losing the work.
Duplicate and late completions are deduplicated by scenario hash —
re-executing a unit is always safe, re-committing it is a no-op.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Optional
from urllib.error import HTTPError, URLError
from urllib.request import Request, urlopen

#: Bump on incompatible wire-format changes; reported by /status.
#: Version 2 carries journal records, which a version-1 peer cannot
#: decode.
PROTOCOL_VERSION = 2

#: Default coordinator port of ``repro-noc serve`` (0 = ephemeral).
DEFAULT_PORT = 8765


class ProtocolError(RuntimeError):
    """An HTTP exchange returned something that is not valid protocol
    JSON, or a lease carried a record the worker cannot decode."""


@dataclasses.dataclass
class DistributedSpec:
    """Configuration of one embedded coordinator.

    Attributes
    ----------
    bind, port:
        Listen address.  Port ``0`` binds an ephemeral port (the bound
        address is available via ``Executor.distributed_address()`` and
        ``port_file``).
    lease_timeout:
        Seconds a lease stays valid without a heartbeat before the
        attempt counts as failed (and the executor retries it).
    heartbeat_interval:
        Seconds between worker heartbeats (``None`` = lease_timeout/4).
    poll_interval:
        Tick of the executor's lease-expiry scan, and the wait workers
        are told to sleep when no work is available.
    poison_threshold:
        Distinct workers that must fail a scenario before it is
        quarantined as poisoned instead of retried.  Once every live
        worker has failed it, each repeat failure counts as one more,
        so a fleet smaller than the threshold still settles it.
    port_file:
        When set, ``host:port`` is written here (atomically) once the
        coordinator is bound — how scripts find an ephemeral port.
    shutdown_grace:
        Seconds ``close()`` keeps the socket answering ``shutdown`` so
        polling workers exit cleanly instead of spinning on a dead
        address (the wait ends early once every recently-seen worker
        has acknowledged).

    Failed attempts are retried on the executor's own backoff schedule
    (``Executor(retry_backoff=...)``).
    """

    bind: str = "127.0.0.1"
    port: int = 0
    lease_timeout: float = 60.0
    heartbeat_interval: Optional[float] = None
    poll_interval: float = 0.2
    poison_threshold: int = 3
    port_file: Optional[str] = None
    shutdown_grace: float = 1.0

    def __post_init__(self) -> None:
        if self.shutdown_grace < 0:
            raise ValueError(
                f"shutdown_grace must be >= 0, got {self.shutdown_grace}"
            )
        if self.lease_timeout <= 0:
            raise ValueError(f"lease_timeout must be > 0, got {self.lease_timeout}")
        if self.poll_interval <= 0:
            raise ValueError(f"poll_interval must be > 0, got {self.poll_interval}")
        if self.poison_threshold < 1:
            raise ValueError(
                f"poison_threshold must be >= 1, got {self.poison_threshold}"
            )
        if self.heartbeat_interval is not None:
            if self.heartbeat_interval <= 0:
                raise ValueError(
                    f"heartbeat_interval must be > 0, got {self.heartbeat_interval}"
                )
            if self.heartbeat_interval >= self.lease_timeout:
                # A worker that heartbeats at (or slower than) the lease
                # timeout always loses its lease between beats.
                raise ValueError(
                    f"heartbeat_interval ({self.heartbeat_interval}) must be "
                    f"< lease_timeout ({self.lease_timeout})"
                )

    @property
    def heartbeat(self) -> float:
        """Effective heartbeat interval in seconds."""
        if self.heartbeat_interval is not None:
            return self.heartbeat_interval
        return max(self.lease_timeout / 4.0, 0.05)


def post_json(url: str, blob: Any, timeout: float = 30.0) -> Any:
    """One JSON-in/JSON-out POST; network errors propagate as
    :class:`urllib.error.URLError` for the caller's retry loop."""
    request = Request(
        url,
        data=json.dumps(blob).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    return _exchange(request, timeout)


def get_json(url: str, timeout: float = 30.0) -> Any:
    """One JSON GET (the ``/status`` endpoint)."""
    return _exchange(Request(url), timeout)


def _exchange(request: Request, timeout: float) -> Any:
    try:
        with urlopen(request, timeout=timeout) as response:
            raw = response.read()
    except HTTPError as exc:
        # The coordinator answers protocol-level problems with JSON
        # bodies on 4xx/5xx; surface those instead of the bare status.
        raw = exc.read()
        try:
            return json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise ProtocolError(f"{request.full_url}: HTTP {exc.code}") from exc
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"{request.full_url}: response is not JSON") from exc


__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_PORT",
    "DistributedSpec",
    "ProtocolError",
    "post_json",
    "get_json",
    "URLError",
]
