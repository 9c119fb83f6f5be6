"""Embedded campaign coordinator: HTTP lease server + commit pipeline.

One :class:`CoordinatorServer` lives inside the campaign process: it is
the remote attempt runner of the ``Executor``'s dispatch loop.  It owns
the :class:`~repro.experiments.distributed.lease.LeaseTable`, serves
the protocol endpoints on a ``ThreadingHTTPServer`` for ``repro-noc
worker`` processes, and hands what happens to a lease back to the
dispatch loop as events on a pipe (:attr:`CoordinatorServer.events`)
that the loop waits on alongside its child processes' pipes.

Durability ordering on ``/complete`` (the heart of the fault-tolerance
contract):

1. CRC-check and decode the uploaded result record, and check that
   the result is the leased scenario's own (a corrupt or foreign
   upload fails the attempt, and is never committed);
2. claim the key in the lease table (dedup point — duplicates and
   stragglers for parked keys are dropped here);
3. ``commit`` — the executor appends the result to the write-ahead
   scenario journal and fsyncs (idempotent per key);
4. only then ack ``committed`` to the worker and post the result
   event.

A coordinator SIGKILL between (3) and (4) therefore loses nothing: the
journal already holds the record and ``--resume`` serves it without
re-running.  A crash between (2) and (3) re-runs one scenario — safe,
because execution is a pure function of the unit.  A commit that
raises reopens the key, answers ``rejected`` and posts the exception,
which the executor's map raises: a broken journal stops the campaign
for ``--resume`` instead of cycling the fleet through recompute and
reject.
"""

from __future__ import annotations

import json
import multiprocessing
import pickle
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple

from repro.telemetry.log import get_logger
from repro.experiments.checkpoint import TornRecord, decode_record, encode_record
from repro.experiments.governor import FailureLedger
from repro.experiments.distributed.lease import (
    COMMITTED,
    LeaseFailure,
    LeaseTable,
)
from repro.experiments.distributed.protocol import (
    PROTOCOL_VERSION,
    DistributedSpec,
)

log = get_logger("distributed")

#: Coordinator lifecycle states (reported by ``/status``).
SERVING = "serving"
DRAINING = "draining"
SHUTDOWN = "shutdown"


class CoordinatorServer:
    """Lease coordinator bound to one executor.

    Parameters
    ----------
    spec:
        The :class:`DistributedSpec` (bind address, lease timing,
        poison threshold...).
    commit:
        Callable ``(key, ScenarioResult)`` invoked *before* a
        completion is acked — the executor journals there.  A raise
        reopens the work item (the result was not durable) and is
        posted as an ``error`` event.
    """

    def __init__(
        self,
        spec: DistributedSpec,
        commit: Optional[Callable[[str, object], None]] = None,
    ) -> None:
        self.spec = spec
        self.commit = commit
        #: Remote failures by worker; the executor files them and the
        #: table reads it to steer a worker away from what it failed.
        self.ledger = FailureLedger(spec.poison_threshold)
        self.table = LeaseTable(spec.lease_timeout, self.ledger)
        #: Receiving end of the event pipe: ``("result", key,
        #: ScenarioResult)``, ``("failed", key, LeaseFailure)`` and
        #: ``("error", key, exception)`` from the HTTP handler threads.
        self.events, self._events_in = multiprocessing.Pipe(duplex=False)
        self._events_lock = threading.Lock()
        self.state = SERVING
        #: Workers that polled after shutdown began (they saw the
        #: ``shutdown`` reply and are exiting — no need to wait longer).
        self._farewells: set = set()
        self.address: Tuple[str, int] = (spec.bind, spec.port)
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        server = self

        class Handler(_CoordinatorHandler):
            coordinator = server

        self._httpd = ThreadingHTTPServer((self.spec.bind, self.spec.port), Handler)
        self._httpd.daemon_threads = True
        self.address = (
            self._httpd.server_address[0],
            self._httpd.server_address[1],
        )
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-coordinator",
            daemon=True,
        )
        self._thread.start()
        if self.spec.port_file:
            from repro.experiments.checkpoint import atomic_write_text

            atomic_write_text(
                self.spec.port_file, f"{self.address[0]}:{self.address[1]}\n"
            )

    def submit(self, batch: List[Tuple[str, Tuple]]) -> None:
        """Make ``(key, WorkUnit)`` pairs leasable."""
        records = [encode_record(key, unit) for key, unit in batch]
        self.table.load([(r["key"], r["payload"], r["crc"]) for r in records])

    def expire_leases(self) -> List[LeaseFailure]:
        """Fail the leases of workers that stopped heartbeating."""
        expired = self.table.expire()
        for failure in expired:
            log.warning(
                "lease for %s expired (worker %s)", failure.key[:12], failure.worker
            )
        return expired

    def drain(self) -> List[str]:
        """Stop granting leases; returns the keys withdrawn unleased.
        In-flight leases finish or expire."""
        if self.state != SERVING:
            return []
        withdrawn = self.table.pause()
        self.state = DRAINING
        return withdrawn

    def close(self) -> None:
        """Shut down: polling workers are told to stop, socket closes."""
        self.table.pause()
        self.state = SHUTDOWN
        self._grace_period()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        self.events.close()
        self._events_in.close()

    def _grace_period(self) -> None:
        """Keep answering ``shutdown`` until live workers have seen it.

        A worker that polls a closed socket burns through its
        reconnect budget before exiting nonzero; one that reads the
        ``shutdown`` reply exits 0 immediately.  Workers whose last
        contact predates the window (e.g. SIGKILL'd mid-campaign) are
        not waited for.
        """
        if self._httpd is None or self.spec.shutdown_grace <= 0:
            return
        started = time.monotonic()
        window = max(3.0, 4 * self.spec.poll_interval)
        awaited = {
            worker for worker, seen in self.table.last_seen().items()
            if started - seen <= window
        }
        deadline = started + self.spec.shutdown_grace
        while awaited - self._farewells and time.monotonic() < deadline:
            time.sleep(0.02)

    def _post(self, kind: str, key: str, payload: object) -> None:
        """Hand one event to the dispatch loop (handler threads)."""
        with self._events_lock:
            try:
                self._events_in.send((kind, key, payload))
            except (pickle.PicklingError, TypeError, AttributeError):
                # An exception that does not pickle still stops the map.
                self._events_in.send((kind, key, RuntimeError(repr(payload))))

    # -- reporting -----------------------------------------------------
    def summary(self) -> str:
        counters = self.table.snapshot()["counters"]
        line = (
            f"distributed: {counters['committed']} committed over "
            f"{counters['leases_granted']} lease(s), "
            f"{len(self.table.last_seen())} worker(s)"
        )
        extras = []
        if counters["failed"]:
            extras.append(f"{counters['failed']} failed")
        if counters["expiries"]:
            extras.append(f"{counters['expiries']} expired")
        if counters["duplicates_dropped"]:
            extras.append(f"{counters['duplicates_dropped']} duplicate(s) dropped")
        if counters["late_accepted"]:
            extras.append(f"{counters['late_accepted']} late accepted")
        if extras:
            line += " (" + ", ".join(extras) + ")"
        return line

    def status(self) -> Dict[str, object]:
        now = time.monotonic()
        return {
            "protocol": PROTOCOL_VERSION,
            "state": self.state,
            "address": list(self.address),
            "table": self.table.snapshot(),
            "workers": {
                worker: round(now - seen, 3)
                for worker, seen in sorted(self.table.last_seen().items())
            },
        }

    # -- endpoint logic (called from handler threads) ------------------
    def handle_lease(self, body: Dict) -> Dict:
        worker = str(body.get("worker", "anonymous"))
        # Granting pauses before the state leaves SERVING, so a lease
        # granted here is one the drain lets finish.
        granted = self.table.grant(worker)
        if granted is None:
            if self.state == SHUTDOWN:
                self._farewells.add(worker)
                return {"status": "shutdown"}
            status = "draining" if self.state == DRAINING else "wait"
            return {"status": status, "retry_after": self.spec.poll_interval}
        grant, payload, crc = granted
        return {
            "status": "lease",
            "lease": grant.lease_id,
            "key": grant.key,
            "payload": payload,
            "crc": crc,
            "lease_timeout": self.spec.lease_timeout,
            "heartbeat": self.spec.heartbeat,
        }

    def handle_heartbeat(self, body: Dict) -> Dict:
        alive = self.table.heartbeat(str(body.get("lease", "")))
        return {"status": "ok" if alive else "unknown"}

    def handle_complete(self, body: Dict) -> Dict:
        worker = str(body.get("worker", "anonymous"))
        lease_id = str(body.get("lease", ""))
        key = str(body.get("key", ""))
        try:
            _, result = decode_record(body)
        except TornRecord as exc:
            # Corrupt in transit, or another scenario's result: never
            # commit; the attempt failed.
            self._report_failure(self.table.fail(
                lease_id, key, worker,
                {"error_type": "CorruptUpload", "message": str(exc),
                 "traceback": None},
            ))
            return {"status": "rejected", "reason": str(exc)}
        disposition = self.table.complete(lease_id, key, worker)
        if disposition != COMMITTED:
            return {"status": disposition}
        if self.commit is not None:
            try:
                self.commit(key, result)
            except Exception as exc:  # noqa: BLE001 - never ack a lost commit
                self.table.reopen(key)
                log.error("durable commit of %s failed: %s", key[:12], exc)
                self._post("error", key, exc)
                return {"status": "rejected", "reason": f"commit failed: {exc}"}
        self._post("result", key, result)
        return {"status": COMMITTED}

    def handle_fail(self, body: Dict) -> Dict:
        worker = str(body.get("worker", "anonymous"))
        key = str(body.get("key", ""))
        error = {
            "error_type": str(body.get("error_type", "WorkerError")),
            "message": str(body.get("message", "")),
            "traceback": body.get("traceback"),
        }
        failure = self.table.fail(str(body.get("lease", "")), key, worker, error)
        self._report_failure(failure)
        return {"status": "failed" if failure is not None else "ignored"}

    def _report_failure(self, failure: Optional[LeaseFailure]) -> None:
        if failure is not None:
            self._post("failed", failure.key, failure)


class _CoordinatorHandler(BaseHTTPRequestHandler):
    """Thin HTTP shim over :class:`CoordinatorServer` endpoint logic."""

    coordinator: CoordinatorServer = None  # injected per-server subclass
    protocol_version = "HTTP/1.1"

    ROUTES = {
        "/lease": "handle_lease",
        "/heartbeat": "handle_heartbeat",
        "/complete": "handle_complete",
        "/fail": "handle_fail",
    }

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        handler_name = self.ROUTES.get(self.path)
        if handler_name is None:
            self._reply(404, {"status": "error", "reason": "unknown endpoint"})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length).decode("utf-8"))
            if not isinstance(body, dict):
                raise ValueError("body must be a JSON object")
        except (ValueError, UnicodeDecodeError) as exc:
            self._reply(400, {"status": "error", "reason": f"bad request: {exc}"})
            return
        try:
            reply = getattr(self.coordinator, handler_name)(body)
        except Exception as exc:  # noqa: BLE001 - a handler bug must not kill the fleet
            log.error("coordinator %s handler failed: %s", self.path, exc)
            self._reply(500, {"status": "error", "reason": str(exc)})
            return
        self._reply(200, reply)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/status":
            self._reply(200, self.coordinator.status())
        else:
            self._reply(404, {"status": "error", "reason": "unknown endpoint"})

    def _reply(self, code: int, blob: Dict) -> None:
        raw = json.dumps(blob).encode("utf-8")
        try:
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(raw)))
            self.end_headers()
            self.wfile.write(raw)
        except (BrokenPipeError, ConnectionResetError):
            pass  # worker died mid-reply; its lease will expire

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        log.debug("%s %s", self.address_string(), format % args)
