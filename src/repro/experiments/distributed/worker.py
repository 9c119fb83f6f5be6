"""Worker loop: lease scenarios from a coordinator, run, report back.

``repro-noc worker --connect HOST:PORT`` runs this loop.  Workers are
deliberately stateless — every durable fact lives in the coordinator's
lease table and write-ahead journal — so a worker can be SIGKILL'd,
restarted or partitioned at any instant:

* while computing, a background heartbeat thread keeps the lease
  alive; when the worker dies the heartbeats stop and the coordinator
  reassigns the scenario after the lease timeout;
* a completion that arrives after reassignment is still accepted if
  the scenario is undone (work is never discarded) and dropped
  idempotently if someone else finished first;
* scenario exceptions are reported via ``/fail`` with a bounded
  traceback and the worker moves on to the next lease — one poisoned
  scenario never takes a worker down with it;
* connection errors back off exponentially with seeded jitter
  (per-worker seed, so a restarting coordinator is not hammered by a
  synchronized fleet), and a worker that cannot reach its coordinator
  for ``max_errors`` consecutive attempts exits nonzero.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import zlib
from typing import Callable, Optional

from repro.telemetry.log import get_logger
from repro.experiments.checkpoint import (
    TornRecord,
    bound_traceback,
    decode_record,
    encode_record,
)
from repro.experiments.parallel import RetryBackoff, WorkUnit, _execute_unit
from repro.experiments.distributed.protocol import (
    ProtocolError,
    URLError,
    post_json,
)

log = get_logger("worker")


def default_worker_id() -> str:
    """``hostname-pid`` — unique per live process and debuggable."""
    return f"{socket.gethostname()}-{os.getpid()}"


class _Heartbeat(threading.Thread):
    """Keeps one lease alive while the scenario computes."""

    def __init__(
        self, base_url: str, worker_id: str, lease_id: str, interval: float
    ) -> None:
        super().__init__(name=f"heartbeat-{lease_id[:8]}", daemon=True)
        self.base_url = base_url
        self.worker_id = worker_id
        self.lease_id = lease_id
        self.interval = interval
        self.lost = False
        # Not named ``_stop``: Thread.join() calls an internal method
        # of that name, which an Event attribute would shadow.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            try:
                reply = post_json(
                    self.base_url + "/heartbeat",
                    {"worker": self.worker_id, "lease": self.lease_id},
                    timeout=max(self.interval, 5.0),
                )
            except (URLError, OSError, ProtocolError):
                continue  # transient: the lease has timeout slack
            if reply.get("status") == "unknown":
                # Reassigned under us; keep computing (the completion
                # may still be accepted) but remember for the log line.
                self.lost = True

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)


def run_worker(
    connect: str,
    worker_id: Optional[str] = None,
    poll: float = 1.0,
    max_errors: int = 30,
    execute: Callable = _execute_unit,
    request_timeout: float = 120.0,
) -> int:
    """Serve one coordinator until it says ``shutdown``.

    Returns a process exit code: ``0`` on an orderly shutdown, ``1``
    when the coordinator stayed unreachable for ``max_errors``
    consecutive attempts.
    """
    worker_id = worker_id or default_worker_id()
    base_url = connect if "://" in connect else f"http://{connect}"
    base_url = base_url.rstrip("/")
    # Seeded per worker id: every worker gets its own deterministic
    # jitter stream, and no two workers retry in lockstep.
    reconnect = RetryBackoff(
        max(poll, 0.1), jitter=0.5,
        seed=zlib.crc32(worker_id.encode("utf-8")),
    )
    errors = 0
    log.info("worker %s serving %s", worker_id, base_url)
    while True:
        try:
            reply = post_json(
                base_url + "/lease", {"worker": worker_id},
                timeout=request_timeout,
            )
        except (URLError, OSError, ProtocolError) as exc:
            errors += 1
            if errors >= max_errors:
                log.error(
                    "coordinator unreachable after %d attempts: %s",
                    errors, exc,
                )
                return 1
            time.sleep(reconnect.delay(min(errors, 6)))
            continue
        errors = 0
        status = reply.get("status")
        if status == "shutdown":
            log.info("worker %s: coordinator shut down, exiting", worker_id)
            return 0
        if status in ("wait", "draining"):
            time.sleep(float(reply.get("retry_after", poll)))
            continue
        if status != "lease":
            log.warning("worker %s: unexpected reply %r", worker_id, reply)
            time.sleep(poll)
            continue
        _serve_lease(base_url, worker_id, reply, execute, request_timeout)


def _serve_lease(
    base_url: str, worker_id: str, reply: dict,
    execute: Callable, request_timeout: float,
) -> None:
    lease_id = str(reply.get("lease", ""))
    key = str(reply.get("key", ""))
    try:
        _, unit = decode_record(reply, WorkUnit)
    except TornRecord as exc:
        _report_failure(
            base_url, worker_id, lease_id, key,
            "ProtocolError", f"lease payload corrupt: {exc}", None,
            request_timeout,
        )
        return
    heartbeat = _Heartbeat(
        base_url, worker_id, lease_id,
        float(reply.get("heartbeat", 5.0)),
    )
    heartbeat.start()
    try:
        # Encoding fails like the scenario would: reported, not fatal.
        record = encode_record(key, execute(unit))
    except BaseException as exc:  # noqa: BLE001 - reported, never fatal
        import traceback as traceback_module

        heartbeat.stop()
        _report_failure(
            base_url, worker_id, lease_id, key,
            type(exc).__name__, str(exc),
            bound_traceback(traceback_module.format_exc()),
            request_timeout,
        )
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        return
    heartbeat.stop()
    try:
        ack = post_json(
            base_url + "/complete",
            {"worker": worker_id, "lease": lease_id, **record},
            timeout=request_timeout,
        )
    except (URLError, OSError, ProtocolError) as exc:
        # The lease will expire and the scenario re-runs elsewhere;
        # losing this upload costs time, never correctness.
        log.warning(
            "worker %s: could not deliver %s (%s); lease will expire",
            worker_id, key[:12], exc,
        )
        return
    status = ack.get("status")
    if status == "duplicate":
        log.info(
            "worker %s: %s already completed elsewhere (dropped)",
            worker_id, key[:12],
        )
    elif status != "committed":
        log.warning(
            "worker %s: completion of %s not committed: %r",
            worker_id, key[:12], ack,
        )
    elif heartbeat.lost:
        log.info(
            "worker %s: late completion of %s accepted", worker_id, key[:12]
        )


def _report_failure(
    base_url: str, worker_id: str, lease_id: str, key: str,
    error_type: str, message: str, traceback: Optional[str],
    request_timeout: float,
) -> None:
    log.warning("worker %s: scenario %s failed: %s", worker_id, key[:12], message)
    try:
        post_json(
            base_url + "/fail",
            {
                "worker": worker_id, "lease": lease_id, "key": key,
                "error_type": error_type, "message": message,
                "traceback": traceback,
            },
            timeout=request_timeout,
        )
    except (URLError, OSError, ProtocolError):
        pass  # the lease expiry path reports it instead
