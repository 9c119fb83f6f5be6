"""Embedded campaign coordinator: HTTP lease server + commit pipeline.

One :class:`CoordinatorServer` lives inside the campaign process (the
``Executor``'s distributed backend).  It owns the
:class:`~repro.experiments.distributed.lease.LeaseTable`, serves the
protocol endpoints on a ``ThreadingHTTPServer`` for ``repro-noc
worker`` processes, and feeds verified completions to the executor
through a thread-safe event queue.

Durability ordering on ``/complete`` (the heart of the fault-tolerance
contract):

1. CRC-check and decode the uploaded result record, and check that
   the result is the leased scenario's own (corrupt or foreign
   uploads are *requeued*, never committed);
2. claim the key in the lease table (dedup point — duplicates and
   post-poison stragglers are dropped here);
3. ``commit`` — the executor appends the result to the write-ahead
   scenario journal and fsyncs (idempotent per key);
4. only then ack ``committed`` to the worker and enqueue the result
   event.

A coordinator SIGKILL between (3) and (4) therefore loses nothing: the
journal already holds the record and ``--resume`` serves it without
re-running.  A crash between (2) and (3) re-runs one scenario — safe,
because execution is a pure function of the unit.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple

from repro.telemetry.log import get_logger
from repro.experiments.governor import (
    BROWNOUT,
    SHED,
    CircuitBreaker,
    OverloadGuard,
    process_rss_bytes,
)
from repro.experiments.checkpoint import TornRecord, decode_record, encode_record
from repro.experiments.parallel import RetryBackoff
from repro.experiments.distributed.lease import (
    COMMITTED,
    QUARANTINED,
    LeaseTable,
)
from repro.experiments.distributed.protocol import (
    PROTOCOL_VERSION,
    DistributedSpec,
)

log = get_logger("distributed")

#: Error type surfaced on quarantined scenarios' failure records.
POISON_ERROR_TYPE = "PoisonedScenario"

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
        reopens the work item (the result was not durable).
    """

    def __init__(
        self,
        spec: DistributedSpec,
        commit: Optional[Callable[[str, object], None]] = None,
    ) -> None:
        self.spec = spec
        self.commit = commit
        self.table = LeaseTable(
            lease_timeout=spec.lease_timeout,
            backoff=RetryBackoff(
                spec.requeue_backoff, spec.requeue_jitter, spec.jitter_seed
            ),
            poison_threshold=spec.poison_threshold,
        )
        #: ``("result", key, ScenarioResult)`` and ``("poisoned", key,
        #: error dict)`` events, consumed by the executor's map loop.
        self.events: "queue.Queue[Tuple[str, str, object]]" = queue.Queue()
        self.state = SERVING
        self.workers_seen: Dict[str, float] = {}
        #: Workers that polled after shutdown began (they saw the
        #: ``shutdown`` reply and are exiting — no need to wait longer).
        self._farewells: set = set()
        self.address: Tuple[str, int] = (spec.bind, spec.port)
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        #: Admission control on /lease: shed (HTTP 503 + Retry-After)
        #: when the pending-event queue or handler concurrency is
        #: saturated, brownout (defer new grants only) at 75%.
        self.guard = OverloadGuard(
            max_queue_depth=spec.queue_limit,
            max_inflight=spec.max_inflight,
        )
        #: Opens after K consecutive durable-commit failures: stop
        #: acking completions and drain instead of wedging the fleet
        #: against a broken journal.
        self.breaker = CircuitBreaker(spec.commit_breaker_threshold)
        self._inflight = 0
        self._inflight_lock = threading.Lock()

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
        """Load ``(key, WorkUnit)`` pairs into the lease table."""
        records = [encode_record(key, unit) for key, unit in batch]
        self.table.load([(r["key"], r["payload"], r["crc"]) for r in records])

    def expire_leases(self) -> None:
        """Reclaim dead-worker leases; surface any fresh poisonings."""
        for expired in self.table.expire():
            log.warning(
                "lease for %s expired (worker %s); %s",
                expired.key[:12], expired.worker,
                "quarantined" if expired.poisoned else "requeued",
            )
            if expired.poisoned:
                self.events.put(("poisoned", expired.key, expired.error))

    def drain(self) -> None:
        """Stop granting leases; in-flight ones finish or expire."""
        if self.state == SERVING:
            self.state = DRAINING
            self.table.pause()

    def close(self) -> None:
        """Shut down: polling workers are told to stop, socket closes."""
        self.state = SHUTDOWN
        self.table.pause()
        self._grace_period()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None

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
            worker for worker, seen in self.workers_seen.items()
            if started - seen <= window
        }
        deadline = started + self.spec.shutdown_grace
        while awaited - self._farewells and time.monotonic() < deadline:
            time.sleep(0.02)

    # -- request accounting (handler threads) --------------------------
    def _request_started(self) -> None:
        with self._inflight_lock:
            self._inflight += 1

    def _request_finished(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1

    @property
    def inflight(self) -> int:
        """Concurrently-processing HTTP requests (including this one)."""
        with self._inflight_lock:
            return self._inflight

    # -- reporting -----------------------------------------------------
    def summary(self) -> str:
        snap = self.table.snapshot()
        counters = snap["counters"]
        line = (
            f"distributed: {counters['committed']} committed over "
            f"{counters['leases_granted']} lease(s), "
            f"{len(self.workers_seen)} worker(s)"
        )
        extras = []
        if counters["expiries"]:
            extras.append(f"{counters['expiries']} expired")
        if counters["duplicates_dropped"]:
            extras.append(f"{counters['duplicates_dropped']} duplicate(s) dropped")
        if counters["late_accepted"]:
            extras.append(f"{counters['late_accepted']} late accepted")
        if counters["poisoned"]:
            extras.append(f"{counters['poisoned']} poisoned")
        if self.guard.counters["sheds"]:
            extras.append(f"{self.guard.counters['sheds']} lease(s) shed")
        if self.guard.counters["brownouts"]:
            extras.append(f"{self.guard.counters['brownouts']} brownout(s)")
        if self.breaker.trips:
            extras.append(f"commit breaker tripped {self.breaker.trips}x")
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
                for worker, seen in sorted(self.workers_seen.items())
            },
        }

    def healthz(self) -> Dict[str, object]:
        """Overload health for probes (served even while shedding)."""
        queue_depth = self.events.qsize()
        inflight = self.inflight
        verdict = self.guard.verdict(queue_depth, inflight)
        counters = self.table.snapshot()["counters"]
        healthy = verdict == "ok" and not self.breaker.open
        return {
            "status": "ok" if healthy else "degraded",
            "verdict": verdict,
            "state": self.state,
            "protocol": PROTOCOL_VERSION,
            "queue_depth": queue_depth,
            "queue_limit": self.spec.queue_limit,
            "inflight": inflight,
            "max_inflight": self.spec.max_inflight,
            "memory_rss_bytes": process_rss_bytes(),
            "lease_churn": {
                name: counters[name]
                for name in ("leases_granted", "expiries", "requeued",
                             "poisoned", "committed")
            },
            "workers": len(self.workers_seen),
            "shed": dict(self.guard.counters),
            "commit_breaker": self.breaker.snapshot(),
        }

    # -- endpoint logic (called from handler threads) ------------------
    def handle_lease(self, body: Dict) -> Dict:
        worker = str(body.get("worker", "anonymous"))
        self.workers_seen[worker] = time.monotonic()
        if self.state == SHUTDOWN:
            self._farewells.add(worker)
            return {"status": "shutdown"}
        if self.state == DRAINING:
            return {"status": "draining", "retry_after": self.spec.poll_interval}
        # Admission control: granting a lease is the one *optional*
        # piece of work here (completions and heartbeats release
        # resources; leases consume them), so it sheds first.  SHED is
        # a hard 503 + Retry-After; BROWNOUT defers new grants while
        # everything already in flight keeps being served.
        verdict = self.guard.assess(self.events.qsize(), self.inflight)
        if verdict == SHED:
            return {"status": "busy", "retry_after": self.spec.poll_interval}
        if verdict == BROWNOUT:
            return {
                "status": "wait",
                "retry_after": self.spec.poll_interval,
                "reason": "brownout",
            }
        granted = self.table.grant(worker)
        if granted is None:
            return {"status": "wait", "retry_after": self.spec.poll_interval}
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
        worker = str(body.get("worker", "anonymous"))
        self.workers_seen[worker] = time.monotonic()
        alive = self.table.heartbeat(str(body.get("lease", "")))
        return {"status": "ok" if alive else "unknown"}

    def handle_complete(self, body: Dict) -> Dict:
        worker = str(body.get("worker", "anonymous"))
        lease_id = str(body.get("lease", ""))
        key = str(body.get("key", ""))
        self.workers_seen[worker] = time.monotonic()
        if self.breaker.open:
            # The journal is broken: acking would promise durability we
            # cannot deliver.  Leave the lease alone (it expires and
            # requeues for the resume run) and keep draining.
            return {
                "status": "rejected",
                "reason": "commit circuit open; coordinator draining",
            }
        try:
            _, result = decode_record(body)
        except TornRecord as exc:
            # Corrupt in transit, or another scenario's result: never
            # commit, requeue for a clean run.
            disposition = self.table.fail(
                lease_id, key, worker,
                {"error_type": "CorruptUpload", "message": str(exc),
                 "traceback": None},
            )
            if disposition == QUARANTINED:
                self._emit_poison(key)
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
                if self.breaker.record_failure():
                    log.error(
                        "commit circuit breaker opened after %d consecutive "
                        "failures; draining instead of wedging",
                        self.breaker.consecutive_failures,
                    )
                    self.drain()
                return {"status": "rejected", "reason": f"commit failed: {exc}"}
            else:
                self.breaker.record_success()
        self.events.put(("result", key, result))
        return {"status": COMMITTED}

    def handle_fail(self, body: Dict) -> Dict:
        worker = str(body.get("worker", "anonymous"))
        key = str(body.get("key", ""))
        self.workers_seen[worker] = time.monotonic()
        error = {
            "error_type": str(body.get("error_type", "WorkerError")),
            "message": str(body.get("message", "")),
            "traceback": body.get("traceback"),
        }
        disposition = self.table.fail(
            str(body.get("lease", "")), key, worker, error
        )
        if disposition == QUARANTINED:
            self._emit_poison(key)
        return {"status": disposition}

    def _emit_poison(self, key: str) -> None:
        error = self.table.error_of(key) or {}
        error.setdefault("error_type", POISON_ERROR_TYPE)
        error["message"] = (
            f"failed on {len(error.get('workers') or []) or 'several'} "
            f"distinct worker(s): {error.get('message', 'no detail')}"
        )
        log.warning("scenario %s quarantined: %s", key[:12], error["message"])
        self.events.put(("poisoned", key, error))


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
        self.coordinator._request_started()
        try:
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
            if reply.get("status") == "busy":
                # Backpressure, not failure: 503 + Retry-After tells
                # generic HTTP clients the same thing the JSON body
                # tells repro-noc workers.
                self._reply(503, reply, retry_after=reply.get("retry_after"))
            else:
                self._reply(200, reply)
        finally:
            self.coordinator._request_finished()

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/status":
            self._reply(200, self.coordinator.status())
        elif self.path == "/healthz":
            # Served unconditionally — a saturated coordinator must
            # still tell probes *why* it is shedding.
            blob = self.coordinator.healthz()
            self._reply(200 if blob["status"] == "ok" else 503, blob)
        else:
            self._reply(404, {"status": "error", "reason": "unknown endpoint"})

    def _reply(
        self, code: int, blob: Dict, retry_after: Optional[float] = None
    ) -> None:
        raw = json.dumps(blob).encode("utf-8")
        try:
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(raw)))
            if retry_after is not None:
                # RFC 7231 wants integral seconds; round up so clients
                # never come back *before* the window ends.
                self.send_header("Retry-After", str(max(1, int(retry_after + 0.5))))
            self.end_headers()
            self.wfile.write(raw)
        except (BrokenPipeError, ConnectionResetError):
            pass  # worker died mid-reply; its lease will expire

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        log.debug("%s %s", self.address_string(), format % args)
