"""Lease table: who computes which scenario until when.

Every scenario the executor has handed to the fleet is one
:class:`WorkItem` keyed by its content hash (the same hash the result
cache and the write-ahead journal use).  The table is a small,
lock-guarded state machine that keeps lease state only; whether a
failed scenario runs again, and when, is the executor's decision (its
due-time retry queue and the :class:`~repro.experiments.governor.FailureLedger`):

* **Grant** — :meth:`grant` leases the oldest pending scenario,
  preferring one the polling worker has not failed yet (the ledger
  says which), because a failure may be machine-local.
* **Worker crash / SIGKILL** — heartbeats stop, the lease deadline
  passes and :meth:`expire` reports the attempt as failed
  (``LeaseExpired``, typed ``timeout``).
* **Partition / slow worker** — a worker that lost its lease but kept
  computing may still deliver: a valid result for a key that is
  pending or leased again is accepted (``late_accepted``; work is
  never thrown away), while a result for a key that someone else
  already completed is dropped idempotently (``duplicates_dropped``).
* **Failure** — :meth:`fail` and :meth:`expire` park the item and
  return a :class:`LeaseFailure` naming the identity to file it under
  in the ledger: the worker ID, or a fresh identity for a repeat
  failure once every live worker has failed the key, so a fleet
  smaller than ``poison_threshold`` still settles it.
* **Coordinator drain** — :meth:`pause` stops new grants and withdraws
  the scenarios nobody holds; in-flight leases still complete (or
  expire).

The clock is injectable so expiry logic is unit-testable without
sleeping.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import uuid
from typing import Callable, Dict, List, Optional, Tuple

from repro.experiments.governor import FailureLedger, classify_failure_kind

#: WorkItem lifecycle states.  ``failed`` parks an item until the
#: executor loads it again (a retry) or gives up on it.
PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"

#: Dispositions returned by :meth:`LeaseTable.complete`.
COMMITTED = "committed"
DUPLICATE = "duplicate"
UNKNOWN = "unknown"


@dataclasses.dataclass
class LeaseGrant:
    """One granted lease: who computes which scenario until when."""

    lease_id: str
    key: str
    worker: str
    deadline: float


@dataclasses.dataclass
class LeaseFailure:
    """One failed attempt: a worker's report or an expired lease."""

    key: str
    worker: str
    #: What the attempt is filed under in the failure ledger.
    identity: str
    #: ``error_type``/``message``/``traceback``/``kind``.
    error: Dict[str, object]


class WorkItem:
    """One scenario's lease state."""

    __slots__ = ("key", "payload", "crc", "state", "failures", "lease")

    def __init__(self, key: str, payload: str, crc: int) -> None:
        self.key = key
        self.payload = payload
        self.crc = crc
        self.state = PENDING
        #: Failed attempts so far (numbers repeat-failure identities).
        self.failures = 0
        self.lease: Optional[LeaseGrant] = None


class LeaseTable:
    """Thread-safe lease bookkeeping for one coordinator."""

    def __init__(
        self,
        lease_timeout: float,
        ledger: FailureLedger,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.lease_timeout = lease_timeout
        self.ledger = ledger
        self.clock = clock
        self.granting = True
        self._lock = threading.Lock()
        self._items: Dict[str, WorkItem] = {}
        self._order: List[str] = []
        #: worker -> last time it polled, heartbeat or reported.
        self._seen: Dict[str, float] = {}
        self.counters: Dict[str, int] = {
            "leases_granted": 0,
            "heartbeats": 0,
            "committed": 0,
            "late_accepted": 0,
            "duplicates_dropped": 0,
            "expiries": 0,
            "failed": 0,
        }

    # -- loading -------------------------------------------------------
    def load(self, batch: List[Tuple[str, str, int]]) -> None:
        """Make ``(key, unit payload, crc)`` work pending.

        A key already pending or leased is left alone; a failed or done
        one is pending again (the executor is retrying it).
        """
        with self._lock:
            for key, payload, crc in batch:
                item = self._items.get(key)
                if item is None:
                    self._items[key] = WorkItem(key, payload, crc)
                    self._order.append(key)
                elif item.state in (FAILED, DONE):
                    item.payload, item.crc = payload, crc
                    item.state = PENDING

    # -- worker-facing transitions -------------------------------------
    def grant(self, worker: str) -> Optional[Tuple[LeaseGrant, str, int]]:
        """Lease the oldest pending scenario to ``worker`` (or ``None``);
        every poll counts as contact, granted or not."""
        now = self.clock()
        with self._lock:
            self._seen[worker] = now
            if not self.granting:
                return None
            for key in self._order:
                item = self._items[key]
                if item.state is not PENDING:
                    continue
                # A worker that already failed this scenario gets a
                # different one first — poison evidence needs distinct
                # workers, and its failure mode may be machine-local.
                if self.ledger.failed(key, worker) and self._other_pending(
                    worker, skip=key
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

    def _other_pending(self, worker: str, skip: str) -> bool:
        return any(
            key != skip
            and self._items[key].state is PENDING
            and not self.ledger.failed(key, worker)
            for key in self._order
        )

    def heartbeat(self, lease_id: str) -> bool:
        """Extend a live lease; ``False`` tells the worker it lost it."""
        now = self.clock()
        with self._lock:
            item = self._find_lease_locked(lease_id)
            if item is None:
                return False
            item.lease.deadline = now + self.lease_timeout
            self._seen[item.lease.worker] = now
            self.counters["heartbeats"] += 1
            return True

    def complete(self, lease_id: str, key: str, worker: str) -> str:
        """Record a finished scenario; dedup strictly by key.

        Returns :data:`COMMITTED` (first valid completion — commit it),
        :data:`DUPLICATE` (someone already completed it — drop), or
        :data:`UNKNOWN` (no live work under that key: never part of
        the campaign, or parked after a failure).
        """
        with self._lock:
            self._seen[worker] = self.clock()
            item = self._items.get(key)
            if item is None or item.state is FAILED:
                return UNKNOWN
            if item.state is DONE:
                self.counters["duplicates_dropped"] += 1
                return DUPLICATE
            if item.lease is None or item.lease.lease_id != lease_id:
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
    ) -> Optional[LeaseFailure]:
        """Record a worker-reported failure of its live lease.

        ``None`` when there is nothing to report: an unknown key, or a
        stale lease (a reassigned worker must not steal the live lease).
        """
        now = self.clock()
        with self._lock:
            self._seen[worker] = now
            item = self._items.get(key)
            if item is None or item.state is not LEASED or (
                item.lease.lease_id != lease_id
            ):
                return None
            return self._fail_locked(item, error or {}, now)

    # -- expiry --------------------------------------------------------
    def expire(self) -> List[LeaseFailure]:
        """Fail every lease past its deadline (crashed workers)."""
        now = self.clock()
        with self._lock:
            reclaimed: List[LeaseFailure] = []
            for key in self._order:
                item = self._items[key]
                if item.state is not LEASED or item.lease.deadline > now:
                    continue
                self.counters["expiries"] += 1
                # A worker that stopped heartbeating is indistinguishable
                # from a hang: ``LeaseExpired`` is typed ``timeout``, like
                # a parent-side deadline.
                error = {
                    "error_type": "LeaseExpired",
                    "message": (
                        f"worker {item.lease.worker!r} stopped heartbeating "
                        f"(lease timeout {self.lease_timeout}s)"
                    ),
                    "traceback": None,
                }
                reclaimed.append(self._fail_locked(item, error, now))
            return reclaimed

    def _fail_locked(
        self, item: WorkItem, error: Dict[str, object], now: float
    ) -> LeaseFailure:
        worker = item.lease.worker
        item.state = FAILED
        item.lease = None
        item.failures += 1
        self.counters["failed"] += 1
        identity = worker
        if self.ledger.failed(item.key, worker) and not any(
            other != worker
            and now - seen <= self.lease_timeout
            and not self.ledger.failed(item.key, other)
            for other, seen in self._seen.items()
        ):
            # Every live worker has failed this key already: the repeat
            # is new evidence, or a fleet smaller than the threshold
            # would retry it forever.
            identity = f"{worker}#{item.failures}"
        error = dict(error)
        error.setdefault(
            "kind", classify_failure_kind(str(error.get("error_type") or ""))
        )
        return LeaseFailure(item.key, worker, identity, error)

    def _find_lease_locked(self, lease_id: str) -> Optional[WorkItem]:
        for key in self._order:
            item = self._items[key]
            if item.state is LEASED and item.lease.lease_id == lease_id:
                return item
        return None

    # -- drain / accounting --------------------------------------------
    def pause(self) -> List[str]:
        """Stop granting (drain) and withdraw the scenarios nobody
        holds; returns their keys.  In-flight leases stand."""
        with self._lock:
            self.granting = False
            withdrawn = [
                key for key in self._order if self._items[key].state is PENDING
            ]
            for key in withdrawn:
                self._items[key].state = FAILED
            return withdrawn

    def last_seen(self) -> Dict[str, float]:
        """worker -> clock reading of its last contact."""
        with self._lock:
            return dict(self._seen)

    def snapshot(self) -> Dict[str, object]:
        """Point-in-time view for ``/status`` and tests."""
        with self._lock:
            states = {PENDING: 0, LEASED: 0, DONE: 0, FAILED: 0}
            for item in self._items.values():
                states[item.state] += 1
            return {
                "total": len(self._items),
                "states": states,
                "granting": self.granting,
                "counters": dict(self.counters),
            }
