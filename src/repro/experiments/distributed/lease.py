"""Lease table: the coordinator's authoritative work ledger.

Every scenario in flight across the fleet is one :class:`WorkItem`
keyed by its content hash (the same hash the result cache and the
write-ahead journal use).  The table is a small, lock-guarded state
machine engineered around the failure matrix:

* **Worker crash / SIGKILL** — heartbeats stop, the lease deadline
  passes, :meth:`expire` returns the scenario to the queue (with
  exponential backoff + seeded jitter) and it is granted to the next
  worker.  Nothing committed is ever re-run: completions are
  deduplicated by key.
* **Partition / slow worker** — a worker that lost its lease but kept
  computing may still deliver: a valid result for an *undone* key is
  accepted (``late_accepted``; work is never thrown away), while a
  result for a key that someone else already completed is dropped
  idempotently (``duplicates_dropped``).
* **Poison scenario** — a scenario that fails on
  ``poison_threshold`` *distinct* workers is quarantined
  (``POISONED``) instead of wedging the campaign in a
  grant/crash/expire loop; the executor surfaces it as a
  :class:`~repro.experiments.parallel.ScenarioFailure` record.
* **Coordinator drain** — :meth:`pause` stops new grants; in-flight
  leases still complete (or expire), after which the caller can count
  :meth:`remaining` and raise ``CampaignInterrupted``.

The clock is injectable so expiry/backoff logic is unit-testable
without sleeping.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import uuid
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments.governor import classify_failure_kind
from repro.experiments.parallel import RetryBackoff

#: WorkItem lifecycle states.
PENDING = "pending"
LEASED = "leased"
DONE = "done"
POISONED = "poisoned"

#: Dispositions returned by :meth:`LeaseTable.complete` / :meth:`fail`.
COMMITTED = "committed"
DUPLICATE = "duplicate"
REQUEUED = "requeued"
QUARANTINED = "poisoned"
UNKNOWN = "unknown"


@dataclasses.dataclass
class LeaseGrant:
    """One granted lease: who computes which scenario until when."""

    lease_id: str
    key: str
    worker: str
    deadline: float


@dataclasses.dataclass
class ExpiredLease:
    """One lease the expiry scan reclaimed (crashed/partitioned worker)."""

    key: str
    worker: str
    poisoned: bool
    error: Dict[str, object]


class WorkItem:
    """One scenario's distributed execution state."""

    __slots__ = (
        "key", "payload", "crc", "state", "attempts",
        "failed_workers", "not_before", "lease", "last_error",
    )

    def __init__(self, key: str, payload: str, crc: int) -> None:
        self.key = key
        self.payload = payload
        self.crc = crc
        self.state = PENDING
        #: Failed attempts so far (drives the backoff schedule).
        self.attempts = 0
        #: Distinct workers that failed this scenario (poison evidence).
        self.failed_workers: set = set()
        #: Monotonic time before which the item must not be regranted.
        self.not_before = 0.0
        self.lease: Optional[LeaseGrant] = None
        self.last_error: Optional[Dict[str, object]] = None


class LeaseTable:
    """Thread-safe lease bookkeeping for one coordinator."""

    def __init__(
        self,
        lease_timeout: float = 60.0,
        backoff: Optional[RetryBackoff] = None,
        poison_threshold: int = 3,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.lease_timeout = lease_timeout
        self.backoff = backoff if backoff is not None else RetryBackoff(0.5)
        self.poison_threshold = poison_threshold
        self.clock = clock
        self.granting = True
        self._lock = threading.Lock()
        self._items: Dict[str, WorkItem] = {}
        self._order: List[str] = []
        self.counters: Dict[str, int] = {
            "leases_granted": 0,
            "heartbeats": 0,
            "committed": 0,
            "late_accepted": 0,
            "duplicates_dropped": 0,
            "expiries": 0,
            "requeued": 0,
            "poisoned": 0,
        }

    # -- loading -------------------------------------------------------
    def load(self, batch: List[Tuple[str, str, int]]) -> None:
        """Add ``(key, unit payload, crc)`` work; known keys ignored."""
        with self._lock:
            for key, payload, crc in batch:
                if key in self._items:
                    continue
                self._items[key] = WorkItem(key, payload, crc)
                self._order.append(key)

    # -- worker-facing transitions -------------------------------------
    def grant(self, worker: str) -> Optional[Tuple[LeaseGrant, str, int]]:
        """Lease the oldest eligible scenario to ``worker`` (or ``None``)."""
        now = self.clock()
        with self._lock:
            self._expire_locked(now)
            if not self.granting:
                return None
            for key in self._order:
                item = self._items[key]
                if item.state is not PENDING or item.not_before > now:
                    continue
                # A worker that already failed this scenario gets a
                # different one first — poison evidence needs distinct
                # workers, and its failure mode may be machine-local.
                if worker in item.failed_workers and self._other_eligible(
                    worker, now, skip=key
                ):
                    continue
                grant = LeaseGrant(
                    lease_id=uuid.uuid4().hex,
                    key=key,
                    worker=worker,
                    deadline=now + self.lease_timeout,
                )
                item.state = LEASED
                item.lease = grant
                self.counters["leases_granted"] += 1
                return grant, item.payload, item.crc
            return None

    def _other_eligible(self, worker: str, now: float, skip: str) -> bool:
        for key in self._order:
            item = self._items[key]
            if (
                key != skip
                and item.state is PENDING
                and item.not_before <= now
                and worker not in item.failed_workers
            ):
                return True
        return False

    def heartbeat(self, lease_id: str) -> bool:
        """Extend a live lease; ``False`` tells the worker it lost it."""
        now = self.clock()
        with self._lock:
            item = self._find_lease_locked(lease_id)
            if item is None:
                return False
            item.lease.deadline = now + self.lease_timeout
            self.counters["heartbeats"] += 1
            return True

    def complete(self, lease_id: str, key: str, worker: str) -> str:
        """Record a finished scenario; dedup strictly by key.

        Returns :data:`COMMITTED` (first valid completion — commit it),
        :data:`DUPLICATE` (someone already completed it — drop), or
        :data:`UNKNOWN` (key never belonged to this campaign).
        """
        with self._lock:
            item = self._items.get(key)
            if item is None:
                return UNKNOWN
            if item.state is DONE:
                self.counters["duplicates_dropped"] += 1
                return DUPLICATE
            if item.state is POISONED:
                # Already surfaced as a failure record; accepting now
                # would fork the campaign's view of the result set.
                self.counters["duplicates_dropped"] += 1
                return DUPLICATE
            expired_lease = (
                item.lease is None or item.lease.lease_id != lease_id
            )
            if expired_lease:
                # Partitioned/slow worker finishing after reassignment:
                # the key is still undone, so the work is kept.
                self.counters["late_accepted"] += 1
            item.state = DONE
            item.lease = None
            item.payload = ""  # the unit record is no longer needed
            self.counters["committed"] += 1
            return COMMITTED

    def reopen(self, key: str) -> None:
        """Undo a :meth:`complete` whose durable commit failed."""
        with self._lock:
            item = self._items.get(key)
            if item is not None and item.state is DONE:
                item.state = PENDING
                self.counters["committed"] -= 1

    def fail(
        self, lease_id: str, key: str, worker: str,
        error: Optional[Dict[str, object]] = None,
    ) -> str:
        """Record a worker-reported failure; requeue or quarantine."""
        now = self.clock()
        with self._lock:
            item = self._items.get(key)
            if item is None:
                return UNKNOWN
            if item.state in (DONE, POISONED):
                return DUPLICATE
            if item.state is LEASED and item.lease is not None and (
                item.lease.lease_id != lease_id
            ):
                # A reassigned worker reporting a stale failure must not
                # steal the live lease or its poison accounting.
                item.failed_workers.add(worker)
                return DUPLICATE
            return self._settle_failure_locked(item, worker, error, now)

    # -- expiry --------------------------------------------------------
    def expire(self, now: Optional[float] = None) -> List[ExpiredLease]:
        """Reclaim every lease past its deadline (crashed workers)."""
        with self._lock:
            return self._expire_locked(self.clock() if now is None else now)

    def _expire_locked(self, now: float) -> List[ExpiredLease]:
        reclaimed: List[ExpiredLease] = []
        for key in self._order:
            item = self._items[key]
            if item.state is not LEASED or item.lease is None:
                continue
            if item.lease.deadline > now:
                continue
            worker = item.lease.worker
            self.counters["expiries"] += 1
            error = {
                "error_type": "LeaseExpired",
                # A worker that stopped heartbeating is indistinguishable
                # from a hang: same typed kind as a parent-side deadline.
                "kind": "timeout",
                "message": (
                    f"worker {worker!r} stopped heartbeating "
                    f"(lease timeout {self.lease_timeout}s)"
                ),
                "traceback": None,
            }
            disposition = self._settle_failure_locked(item, worker, error, now)
            reclaimed.append(
                ExpiredLease(
                    key=key,
                    worker=worker,
                    poisoned=disposition == QUARANTINED,
                    error=dict(item.last_error or error),
                )
            )
        return reclaimed

    def _settle_failure_locked(
        self, item: WorkItem, worker: str,
        error: Optional[Dict[str, object]], now: float,
    ) -> str:
        item.lease = None
        item.attempts += 1
        item.failed_workers.add(worker)
        if error is not None:
            item.last_error = dict(error)
            item.last_error["attempts"] = item.attempts
            item.last_error["workers"] = sorted(item.failed_workers)
            item.last_error.setdefault(
                "kind",
                classify_failure_kind(str(error.get("error_type") or "")),
            )
        if len(item.failed_workers) >= self.poison_threshold:
            item.state = POISONED
            self.counters["poisoned"] += 1
            return QUARANTINED
        item.state = PENDING
        item.not_before = now + self.backoff.delay(item.attempts)
        self.counters["requeued"] += 1
        return REQUEUED

    def _find_lease_locked(self, lease_id: str) -> Optional[WorkItem]:
        for key in self._order:
            item = self._items[key]
            if (
                item.state is LEASED
                and item.lease is not None
                and item.lease.lease_id == lease_id
            ):
                return item
        return None

    # -- drain / accounting --------------------------------------------
    def pause(self) -> None:
        """Stop granting new leases (drain); in-flight ones stand."""
        with self._lock:
            self.granting = False

    def resume_granting(self) -> None:
        with self._lock:
            self.granting = True

    def active_leases(self) -> int:
        with self._lock:
            return sum(
                1 for item in self._items.values() if item.state is LEASED
            )

    def remaining(self) -> int:
        """Scenarios not yet settled (neither committed nor poisoned)."""
        with self._lock:
            return sum(
                1 for item in self._items.values()
                if item.state in (PENDING, LEASED)
            )

    def error_of(self, key: str) -> Optional[Dict[str, object]]:
        """Last recorded failure detail for a key (poison diagnostics)."""
        with self._lock:
            item = self._items.get(key)
            if item is None or item.last_error is None:
                return None
            return dict(item.last_error)

    def snapshot(self) -> Dict[str, object]:
        """Point-in-time view for ``/status`` and tests."""
        with self._lock:
            states = {PENDING: 0, LEASED: 0, DONE: 0, POISONED: 0}
            for item in self._items.values():
                states[item.state] += 1
            return {
                "total": len(self._items),
                "states": states,
                "granting": self.granting,
                "counters": dict(self.counters),
            }
