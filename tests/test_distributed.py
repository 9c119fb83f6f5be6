"""Tests for the distributed campaign engine (coordinator/worker).

Layered like the implementation:

* ``LeaseTable`` unit tests with an injected fake clock — grant /
  heartbeat / complete / fail / expire transitions, dedup by key, late
  acceptance, the failure-ledger identities poison quarantine counts;
* wire-protocol tests — the journal's CRC-guarded JSON records for
  units, spec validation;
* HTTP-level tests against a live ``CoordinatorServer`` — the
  durability ordering on ``/complete`` (commit before ack, reopen on
  commit failure), corrupt and foreign upload rejection, lease expiry
  and reassignment over the wire, late duplicates dropped
  idempotently, and the events the executor's dispatch loop consumes;
* in-process integration — a real ``Executor`` with worker threads
  running the real ``run_worker`` loop, asserting distributed results
  are identical to serial, poison scenarios surface as
  ``ScenarioFailure`` records (also on a one-worker fleet) and a
  failed durable commit stops the map;
* chaos tests — a subprocess coordinator (``--port 0``) and the
  ``repro-noc worker --connect`` processes the test spawns, one
  SIGKILL'd mid-campaign, requiring byte-identical campaign JSON vs an
  uninterrupted single-process run; coordinator SIGKILL + ``--resume``
  completing without re-running journaled scenarios.

Every unit and result on the wire is real: one 4-node scenario is
simulated per module and re-filed under each unit it stands in for.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import signal
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path

import pytest

from repro.experiments.checkpoint import TornRecord, decode_record, encode_record
from repro.experiments.config import ScenarioConfig
from repro.experiments.distributed import (
    CoordinatorServer,
    DistributedSpec,
    LeaseTable,
    run_worker,
)
from repro.experiments.distributed.lease import COMMITTED, DUPLICATE, UNKNOWN
from repro.experiments.distributed.protocol import get_json, post_json
from repro.experiments.governor import FailureLedger, GovernorSpec
from repro.experiments.parallel import (
    Executor,
    ScenarioFailure,
    WorkUnit,
    _execute_unit,
    cache_key,
)
from repro.experiments.runner import run_scenario

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

FAST = dict(cycles=300, warmup=100)


def tiny_units(n=4):
    base = ScenarioConfig(num_nodes=4, num_vcs=2, injection_rate=0.1, **FAST)
    policies = ("baseline", "rr-no-sensor", "sensor-wise")
    return [(base.with_policy(policies[i % 3]), i // 3) for i in range(n)]


def fingerprint(result):
    return (result.duty_cycles, result.md_vc, result.net_stats, result.initial_vths)


@functools.lru_cache(maxsize=None)
def _simulated_result():
    return run_scenario(*tiny_units(1)[0])


def tiny_result(unit):
    """A real 4-node result filed under ``unit`` (simulated once)."""
    scenario, iteration = unit
    return dataclasses.replace(
        _simulated_result(), scenario=scenario, iteration=iteration
    )


def completion(worker, lease, unit, result=None):
    """A ``/complete`` body: ``result`` (default: the unit's own) as a
    journal record filed under ``unit``'s key."""
    record = encode_record(cache_key(*unit), result or tiny_result(unit))
    return {"worker": worker, "lease": lease, **record}


# ----------------------------------------------------------------------
# LeaseTable state machine (fake clock: no sleeping)
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def make_table(clock, lease_timeout=10.0, poison_threshold=3):
    return LeaseTable(lease_timeout, FailureLedger(poison_threshold), clock)


def leased_count(table):
    return table.snapshot()["states"]["leased"]


def remaining(table):
    states = table.snapshot()["states"]
    return states["pending"] + states["leased"]


def fail_attempt(table, worker, key, error_type="E"):
    """One attempt of ``key`` on ``worker`` that fails, filed in the
    ledger and reloaded the way the executor's dispatch loop does;
    returns whether the key settled."""
    grant, payload, crc = table.grant(worker)
    assert grant.key == key
    failure = table.fail(
        grant.lease_id, key, worker, {"error_type": error_type, "message": "m"}
    )
    settled = table.ledger.record(key, failure.identity)
    if not settled:
        table.load([(key, payload, crc)])
    return settled


class TestLeaseTable:
    def test_grant_complete_lifecycle(self):
        clock = FakeClock()
        table = make_table(clock)
        table.load([("k1", "payload", 7)])
        grant, payload, crc = table.grant("w1")
        assert grant.key == "k1"
        assert grant.worker == "w1"
        assert grant.deadline == clock.now + 10.0
        assert (payload, crc) == ("payload", 7)
        assert leased_count(table) == 1

        assert table.complete(grant.lease_id, "k1", "w1") == COMMITTED
        assert remaining(table) == 0
        assert table.counters["committed"] == 1
        # Nothing left to grant.
        assert table.grant("w1") is None

    def test_duplicate_completion_dropped(self):
        clock = FakeClock()
        table = make_table(clock)
        table.load([("k1", "p", 0)])
        grant, _, _ = table.grant("w1")
        assert table.complete(grant.lease_id, "k1", "w1") == COMMITTED
        assert table.complete(grant.lease_id, "k1", "w2") == DUPLICATE
        assert table.counters["duplicates_dropped"] == 1
        assert table.counters["committed"] == 1

    def test_unknown_key_rejected(self):
        table = make_table(FakeClock())
        assert table.complete("lease", "nope", "w1") == UNKNOWN
        assert table.fail("lease", "nope", "w1") is None

    def test_load_is_idempotent(self):
        table = make_table(FakeClock())
        table.load([("k1", "p", 0)])
        table.load([("k1", "other", 1), ("k2", "p2", 2)])
        snap = table.snapshot()
        assert snap["total"] == 2
        grant, payload, _ = table.grant("w1")
        assert payload == "p"  # the first load wins

    def test_heartbeat_extends_deadline(self):
        clock = FakeClock()
        table = make_table(clock, lease_timeout=10.0)
        table.load([("k1", "p", 0)])
        grant, _, _ = table.grant("w1")
        clock.now += 8.0
        assert table.heartbeat(grant.lease_id)
        clock.now += 8.0  # 16s since grant, 8s since heartbeat: alive
        assert table.expire() == []
        assert leased_count(table) == 1
        assert not table.heartbeat("no-such-lease")

    def test_expiry_fails_the_attempt_until_reloaded(self):
        clock = FakeClock()
        table = make_table(clock, lease_timeout=10.0)
        table.load([("k1", "p", 0)])
        table.grant("w1")
        clock.now += 11.0
        (expired,) = table.expire()
        assert expired.key == "k1"
        assert expired.worker == "w1"
        assert expired.identity == "w1"
        assert expired.error["error_type"] == "LeaseExpired"
        assert table.counters["expiries"] == 1
        assert table.counters["failed"] == 1
        # Parked: retrying is the executor's call, so nothing is
        # granted (and a straggler's upload is not taken)...
        assert table.grant("w2") is None
        assert table.complete("stale", "k1", "w1") == UNKNOWN
        # ...until it loads the scenario again.
        table.load([("k1", "p", 0)])
        grant, _, _ = table.grant("w2")
        assert grant.key == "k1"

    def test_late_completion_accepted_when_undone(self):
        clock = FakeClock()
        table = make_table(clock, lease_timeout=10.0)
        table.load([("k1", "p", 0)])
        stale, _, _ = table.grant("w1")
        clock.now += 11.0
        table.expire()
        table.load([("k1", "p", 0)])  # the executor's retry
        live, _, _ = table.grant("w2")
        # The partitioned worker's upload lands first: kept.
        assert table.complete(stale.lease_id, "k1", "w1") == COMMITTED
        assert table.counters["late_accepted"] == 1
        # The live worker's upload is now a duplicate.
        assert table.complete(live.lease_id, "k1", "w2") == DUPLICATE

    def test_reopen_undoes_a_failed_commit(self):
        clock = FakeClock()
        table = make_table(clock)
        table.load([("k1", "p", 0)])
        grant, _, _ = table.grant("w1")
        assert table.complete(grant.lease_id, "k1", "w1") == COMMITTED
        table.reopen("k1")
        assert table.counters["committed"] == 0
        assert remaining(table) == 1
        regrant, _, _ = table.grant("w2")
        assert regrant.key == "k1"

    def test_poison_needs_distinct_workers(self):
        clock = FakeClock()
        table = make_table(clock, poison_threshold=2)
        assert table.grant("w2") is None  # w2 is live (it polled)
        table.load([("k1", "p", 0)])
        # The same worker failing twice is not poison evidence while
        # another live worker has not tried the scenario.
        for _ in range(2):
            assert fail_attempt(table, "w1", "k1") is False
        assert table.ledger.count("k1") == 1
        # A second distinct worker is.
        assert fail_attempt(table, "w2", "k1") is True
        assert table.ledger.failed("k1", "w1") and table.ledger.failed("k1", "w2")
        assert table.counters["failed"] == 3

    def test_lone_worker_repeat_failures_settle(self):
        # No other worker is live: every repeat is new evidence, so a
        # fleet smaller than the threshold still settles the key.
        clock = FakeClock()
        table = make_table(clock, poison_threshold=3)
        table.load([("k1", "p", 0)])
        assert [fail_attempt(table, "w1", "k1") for _ in range(3)] == [
            False, False, True,
        ]
        # The same holds once every live worker has failed it.
        table = make_table(clock, poison_threshold=3)
        table.load([("k1", "p", 0)])
        assert fail_attempt(table, "w1", "k1") is False
        assert fail_attempt(table, "w2", "k1") is False
        assert fail_attempt(table, "w1", "k1") is True
        # A worker that went quiet for a lease timeout is not live.
        table = make_table(clock, poison_threshold=2)
        assert table.grant("w2") is None
        clock.now += 11.0
        table.load([("k1", "p", 0)])
        assert fail_attempt(table, "w1", "k1") is False
        assert fail_attempt(table, "w1", "k1") is True

    def test_grant_prefers_unfailed_scenarios(self):
        clock = FakeClock()
        table = make_table(clock)
        table.load([("kA", "a", 0), ("kB", "b", 0)])
        assert fail_attempt(table, "w1", "kA") is False
        # w1 already failed kA, so it gets kB first; kA waits for w2.
        grant_b, _, _ = table.grant("w1")
        assert grant_b.key == "kB"
        grant_a, _, _ = table.grant("w2")
        assert grant_a.key == "kA"

    def test_grant_falls_back_to_failed_scenario_when_alone(self):
        clock = FakeClock()
        table = make_table(clock, poison_threshold=3)
        table.load([("kA", "a", 0)])
        assert fail_attempt(table, "w1", "kA") is False
        # Nothing else to hand out: w1 may retry its own failure.
        regrant, _, _ = table.grant("w1")
        assert regrant.key == "kA"

    def test_stale_failure_does_not_steal_live_lease(self):
        clock = FakeClock()
        table = make_table(clock, lease_timeout=10.0)
        table.load([("k1", "p", 0)])
        stale, _, _ = table.grant("w1")
        clock.now += 11.0
        table.expire()
        table.load([("k1", "p", 0)])
        live, _, _ = table.grant("w2")
        assert table.fail(stale.lease_id, "k1", "w1", None) is None
        # The live lease still stands and can complete.
        assert table.complete(live.lease_id, "k1", "w2") == COMMITTED

    def test_pause_stops_grants(self):
        table = make_table(FakeClock())
        table.load([("k1", "p", 0), ("k2", "p", 0)])
        held, _, _ = table.grant("w1")
        # The scenario nobody holds is withdrawn; the lease stands.
        assert table.pause() == ["k2"]
        assert table.grant("w2") is None
        assert table.complete(held.lease_id, "k1", "w1") == COMMITTED


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_payload_roundtrip(self):
        unit = tiny_units(1)[0]
        record = json.loads(json.dumps(encode_record(cache_key(*unit), unit)))
        key, back = decode_record(record, WorkUnit)
        assert key == cache_key(*unit)
        assert back == unit
        assert type(back) is tuple and type(back[0]) is ScenarioConfig

    def test_crc_mismatch_rejected(self):
        unit = tiny_units(1)[0]
        record = encode_record(cache_key(*unit), unit)
        record["crc"] ^= 1
        with pytest.raises(TornRecord, match="CRC"):
            decode_record(record, WorkUnit)

    def test_bad_payload_rejected(self):
        payload = "!!! not json !!!"
        record = dict(encode_record("k", 0), payload=payload)
        record["crc"] = zlib.crc32(payload.encode("utf-8"))
        with pytest.raises(TornRecord, match="not a"):
            decode_record(record, WorkUnit)
        with pytest.raises(TornRecord, match="not a JSON object"):
            decode_record("not a record", WorkUnit)
        # A JSON body may carry a lone surrogate, which no UTF-8 encodes.
        with pytest.raises(TornRecord, match="CRC"):
            decode_record(dict(record, payload="\ud800"), WorkUnit)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DistributedSpec(lease_timeout=0)
        with pytest.raises(ValueError):
            DistributedSpec(poll_interval=0)
        with pytest.raises(ValueError):
            DistributedSpec(poison_threshold=0)

    def test_heartbeat_interval_defaults_to_quarter_lease(self):
        assert DistributedSpec(lease_timeout=60.0).heartbeat == 15.0
        assert DistributedSpec(lease_timeout=60.0, heartbeat_interval=2.0).heartbeat == 2.0


# ----------------------------------------------------------------------
# Coordinator over live HTTP
# ----------------------------------------------------------------------
def _spec(**overrides):
    base = dict(
        bind="127.0.0.1", port=0, lease_timeout=30.0, poll_interval=0.05,
        poison_threshold=2,
        shutdown_grace=0.0,  # HTTP tests drive fake workers by hand
    )
    base.update(overrides)
    return DistributedSpec(**base)


class _LiveCoordinator:
    """Context manager: a started CoordinatorServer + its base URL."""

    def __init__(self, spec, commit=None):
        self.server = CoordinatorServer(spec, commit=commit)

    def __enter__(self):
        self.server.start()
        host, port = self.server.address
        self.url = f"http://{host}:{port}"
        return self

    def __exit__(self, *exc):
        self.server.close()

    def event(self):
        """The next event posted for the dispatch loop."""
        assert self.server.events.poll(10.0), "no event posted"
        return self.server.events.recv()

    def retry(self, unit):
        """What the dispatch loop does with a failed attempt: file it
        in the ledger and load the scenario again; returns the failure."""
        kind, key, failure = self.event()
        assert (kind, key) == ("failed", cache_key(*unit))
        self.server.ledger.record(key, failure.identity)
        self.server.submit([(key, unit)])
        return failure


class TestCoordinatorHTTP:
    def test_lease_complete_commit_ordering(self):
        committed = []
        unit = tiny_units(1)[0]
        key, result = cache_key(*unit), tiny_result(unit)
        with _LiveCoordinator(_spec(), commit=lambda k, r: committed.append((k, r))) as live:
            live.server.submit([(key, unit)])
            reply = post_json(live.url + "/lease", {"worker": "w1"})
            assert reply["status"] == "lease"
            assert reply["key"] == key
            assert decode_record(reply, WorkUnit) == (key, unit)

            ack = post_json(live.url + "/complete", completion("w1", reply["lease"], unit))
            assert ack["status"] == "committed"
            # The durable commit ran before the ack was sent.
            assert committed == [(key, result)]
            assert live.event() == ("result", key, result)

    def test_late_duplicate_dropped_idempotently(self):
        committed = []
        unit = tiny_units(1)[0]
        key = cache_key(*unit)
        spec = _spec(lease_timeout=0.15)
        with _LiveCoordinator(spec, commit=lambda k, r: committed.append(k)) as live:
            live.server.submit([(key, unit)])
            stale = post_json(live.url + "/lease", {"worker": "w1"})
            time.sleep(0.3)  # w1 partitioned: no heartbeats
            # The dispatch loop's expiry scan, then its retry.
            (expired,) = live.server.expire_leases()
            assert expired.error["error_type"] == "LeaseExpired"
            live.server.submit([(key, unit)])
            fresh = post_json(live.url + "/lease", {"worker": "w2"})
            assert fresh["status"] == "lease"
            assert fresh["key"] == key

            ack1 = post_json(live.url + "/complete", completion("w1", stale["lease"], unit))
            assert ack1["status"] == "committed"  # undone: work kept
            ack2 = post_json(live.url + "/complete", completion("w2", fresh["lease"], unit))
            assert ack2["status"] == "duplicate"
            assert committed == [key]  # exactly one durable commit
            counters = live.server.table.snapshot()["counters"]
            assert counters["late_accepted"] == 1
            assert counters["duplicates_dropped"] == 1

    def test_corrupt_upload_rejected_and_requeued(self):
        committed = []
        unit = tiny_units(1)[0]
        key = cache_key(*unit)
        with _LiveCoordinator(_spec(), commit=lambda k, r: committed.append(k)) as live:
            live.server.submit([(key, unit)])
            lease = post_json(live.url + "/lease", {"worker": "w1"})
            body = completion("w1", lease["lease"], unit)
            ack = post_json(live.url + "/complete", dict(body, crc=body["crc"] ^ 1))
            assert ack["status"] == "rejected"
            assert committed == []
            # The attempt failed; retried, the scenario gets a clean run.
            assert live.retry(unit).error["error_type"] == "CorruptUpload"
            retry = post_json(live.url + "/lease", {"worker": "w2"})
            assert retry["status"] == "lease" and retry["key"] == key
            ack = post_json(live.url + "/complete", completion("w2", retry["lease"], unit))
            assert ack["status"] == "committed"
            assert committed == [key]

    def test_foreign_result_rejected_and_requeued(self):
        committed = []
        unit, other = tiny_units(2)
        key = cache_key(*unit)
        with _LiveCoordinator(_spec(), commit=lambda k, r: committed.append(k)) as live:
            live.server.submit([(key, unit)])
            lease = post_json(live.url + "/lease", {"worker": "w1"})
            # A CRC-valid record of another unit's result, filed under
            # the leased key: never committed, never served.
            body = completion("w1", lease["lease"], unit, tiny_result(other))
            ack = post_json(live.url + "/complete", body)
            assert ack["status"] == "rejected"
            assert "another scenario" in ack["reason"]
            assert committed == []
            # Only the failed attempt is posted, never a result.
            assert live.retry(unit).error["error_type"] == "CorruptUpload"
            assert not live.server.events.poll()
            retry = post_json(live.url + "/lease", {"worker": "w2"})
            assert retry["status"] == "lease" and retry["key"] == key
            ack = post_json(live.url + "/complete", completion("w2", retry["lease"], unit))
            assert ack["status"] == "committed"
            assert committed == [key]

    def test_commit_failure_never_acked(self):
        calls = []
        unit = tiny_units(1)[0]
        key = cache_key(*unit)

        def flaky_commit(key, result):
            calls.append(key)
            if len(calls) == 1:
                raise OSError("disk full")

        with _LiveCoordinator(_spec(), commit=flaky_commit) as live:
            live.server.submit([(key, unit)])
            lease = post_json(live.url + "/lease", {"worker": "w1"})
            body = completion("w1", lease["lease"], unit)
            assert post_json(live.url + "/complete", body)["status"] == "rejected"
            # Reopened: a retry (same upload) commits durably this time.
            release = post_json(live.url + "/lease", {"worker": "w1"})
            body["lease"] = release["lease"]
            assert post_json(live.url + "/complete", body)["status"] == "committed"
            assert calls == [key, key]

    def test_fail_reports_poison_after_distinct_workers(self):
        unit = tiny_units(1)[0]
        key = cache_key(*unit)
        with _LiveCoordinator(_spec(poison_threshold=2)) as live:
            live.server.submit([(key, unit)])
            settled = []
            for worker in ("w1", "w2"):
                lease = post_json(live.url + "/lease", {"worker": worker})
                reply = post_json(
                    live.url + "/fail",
                    {"worker": worker, "lease": lease["lease"], "key": key,
                     "error_type": "ValueError", "message": "cursed",
                     "traceback": "tb"},
                )
                assert reply["status"] == "failed"
                kind, event_key, failure = live.event()
                assert (kind, event_key) == ("failed", key)
                assert failure.identity == worker
                assert failure.error["error_type"] == "ValueError"
                assert failure.error["traceback"] == "tb"
                settled.append(live.server.ledger.record(key, failure.identity))
                live.server.submit([(key, unit)])
            # Poisoned once the second distinct worker failed it.
            assert settled == [False, True]
            # A report for a lease that is no longer live changes nothing.
            reply = post_json(
                live.url + "/fail",
                {"worker": "w1", "lease": "stale", "key": key,
                 "error_type": "ValueError", "message": "late"},
            )
            assert reply["status"] == "ignored"
            assert not live.server.events.poll()

    def test_status_endpoint_and_unknown_routes(self):
        with _LiveCoordinator(_spec()) as live:
            post_json(live.url + "/lease", {"worker": "w1"})
            status = get_json(live.url + "/status")
            assert status["protocol"] == 2
            assert status["state"] == "serving"
            assert "w1" in status["workers"]
            assert status["table"]["total"] == 0
            assert post_json(live.url + "/nope", {})["status"] == "error"
            assert get_json(live.url + "/nope")["status"] == "error"

    def test_draining_and_shutdown_replies(self):
        with _LiveCoordinator(_spec()) as live:
            live.server.drain()
            assert post_json(live.url + "/lease", {"worker": "w"})["status"] == "draining"
            url = live.url
            live.server.state = "shutdown"
            assert post_json(url + "/lease", {"worker": "w"})["status"] == "shutdown"

    def test_port_file_written(self, tmp_path):
        port_file = tmp_path / "coordinator.addr"
        with _LiveCoordinator(_spec(port_file=str(port_file))) as live:
            host, port = live.server.address
            assert port_file.read_text() == f"{host}:{port}\n"


# ----------------------------------------------------------------------
# In-process integration: Executor + real run_worker loops in threads
# ----------------------------------------------------------------------
def _echo_execute(unit):
    return tiny_result(unit)


def _cursed_execute(unit):
    scenario, iteration = unit
    if scenario.policy == "rr-no-sensor":
        raise ValueError("cursed policy")
    return tiny_result(unit)


def _always_fail_execute(unit):
    raise ValueError("always fails")


def _filed_under(result):
    return (result.scenario.policy, result.iteration)


def _worker_threads(executor, count, execute):
    host, port = executor.distributed_address()
    threads = []
    for index in range(count):
        thread = threading.Thread(
            target=run_worker,
            args=(f"{host}:{port}",),
            kwargs=dict(
                worker_id=f"test-worker-{index}", poll=0.05, execute=execute
            ),
            daemon=True,
        )
        thread.start()
        threads.append(thread)
    return threads


def _reap(executor, threads):
    executor.close()  # workers see "shutdown" and exit their loops
    for thread in threads:
        thread.join(timeout=10.0)
        assert not thread.is_alive()


class TestExecutorDistributed:
    def test_map_results_identical_to_serial(self):
        units = tiny_units(4)
        executor = Executor(
            max_workers=1,
            distributed=_spec(lease_timeout=30.0, shutdown_grace=2.0),
        )
        threads = _worker_threads(executor, 2, _execute_unit)
        try:
            results = executor.map(units)
        finally:
            _reap(executor, threads)
        assert [fingerprint(r) for r in results] == [
            fingerprint(run_scenario(s, i)) for s, i in units
        ]
        assert "distributed: 4 committed" in executor.summary()

    def test_poison_becomes_failure_record_in_map_robust(self):
        units = tiny_units(3)  # policies baseline, rr-no-sensor, sensor-wise
        executor = Executor(
            max_workers=1, retry_backoff=0.01,
            distributed=_spec(poison_threshold=2, shutdown_grace=2.0),
        )
        threads = _worker_threads(executor, 2, _cursed_execute)
        try:
            results = executor.map_robust(units)
        finally:
            _reap(executor, threads)
        assert _filed_under(results[0]) == ("baseline", 0)
        assert _filed_under(results[2]) == ("sensor-wise", 0)
        failure = results[1]
        assert isinstance(failure, ScenarioFailure)
        assert failure.error_type == "ValueError"
        assert "cursed policy" in failure.message
        # Quarantine needed two distinct workers; a worker with no other
        # work may retry its own failure first, so attempts can exceed 2.
        assert failure.attempts >= 2
        assert executor.failure_records == [failure]
        assert executor.stats.failures == 1

    def test_plain_map_raises_on_poison(self):
        units = tiny_units(2)[1:2]  # just the cursed rr-no-sensor unit
        executor = Executor(
            max_workers=1, retry_backoff=0.01,
            distributed=_spec(poison_threshold=1, shutdown_grace=2.0),
        )
        threads = _worker_threads(executor, 1, _cursed_execute)
        try:
            with pytest.raises(RuntimeError, match="quarantined"):
                executor.map(units)
        finally:
            _reap(executor, threads)

    def test_remote_commits_flow_through_journal(self, tmp_path):
        from repro.experiments.checkpoint import CheckpointManager

        units = tiny_units(3)
        checkpoint = CheckpointManager(tmp_path, meta={"m": 1})
        executor = Executor(
            max_workers=1, checkpoint=checkpoint,
            distributed=_spec(shutdown_grace=2.0),
        )
        threads = _worker_threads(executor, 2, _execute_unit)
        try:
            baseline = executor.map(units)
        finally:
            _reap(executor, threads)
        checkpoint.close()
        # Every remote completion was committed write-ahead: a serial
        # resume serves all units from the journal, byte-identically.
        resumed_exec = Executor(
            max_workers=1, checkpoint=CheckpointManager(tmp_path, meta={"m": 1})
        )
        resumed = resumed_exec.map(units)
        resumed_exec.checkpoint.close()
        assert resumed_exec.stats.journal_hits == 3
        assert [fingerprint(r) for r in resumed] == [
            fingerprint(r) for r in baseline
        ]

    def test_drain_interrupts_distributed_map(self):
        units = tiny_units(6)
        executor = Executor(
            max_workers=1, distributed=_spec(shutdown_grace=2.0)
        )
        from repro.experiments.checkpoint import CampaignInterrupted

        def drain_after_first_completion(line):
            if line.startswith("["):  # unit progress, not server banner
                executor.request_drain()

        executor.progress = drain_after_first_completion
        threads = _worker_threads(executor, 1, _execute_unit)
        try:
            with pytest.raises(CampaignInterrupted) as info:
                executor.map(units)
            assert 1 <= info.value.pending <= 5
        finally:
            _reap(executor, threads)


    def test_eight_workers_commit_every_unit_once(self):
        # More workers than cores, with frequent thread switches: the
        # event pipe, the lease table and the commit lock must lose no
        # completion and commit none twice.  A fleet this size never
        # needed admission control to make progress.
        units = [
            (scenario.replace(seed=seed), iteration)
            for seed in range(8) for scenario, iteration in tiny_units(3)
        ]
        executor = Executor(max_workers=1, distributed=_spec(shutdown_grace=2.0))
        interval = sys.getswitchinterval()
        threads = _worker_threads(executor, 8, _echo_execute)
        try:
            sys.setswitchinterval(1e-5)
            results = executor.map(units)
        finally:
            sys.setswitchinterval(interval)
            _reap(executor, threads)
        assert [_filed_under(r) + (r.scenario.seed,) for r in results] == [
            (s.policy, i, s.seed) for s, i in units
        ]
        assert f"distributed: {len(units)} committed" in executor.summary()

    def test_single_worker_poison_settles(self):
        # One worker and poison_threshold 3: the lone worker's repeat
        # failures are the only evidence there can be, so the scenario
        # is quarantined after 3 attempts instead of retrying forever.
        executor = Executor(
            max_workers=1, retry_backoff=0.01,
            distributed=_spec(poison_threshold=3, shutdown_grace=2.0),
        )
        outcome = []
        threads = _worker_threads(executor, 1, _always_fail_execute)
        mapper = threading.Thread(
            target=lambda: outcome.extend(executor.map_robust(tiny_units(1))),
            daemon=True,
        )
        started = time.monotonic()
        try:
            mapper.start()
            mapper.join(timeout=30.0)
            assert not mapper.is_alive(), "poison never settled"
        finally:
            _reap(executor, threads)
        assert time.monotonic() - started < 30.0
        (failure,) = outcome
        assert isinstance(failure, ScenarioFailure)
        assert failure.quarantined
        assert failure.attempts == 3
        assert failure.error_type == "ValueError"

    def test_failed_commit_stops_the_map(self):
        executor = Executor(max_workers=1, distributed=_spec(shutdown_grace=2.0))

        def broken_store(key, result):
            raise OSError("disk full")

        executor._store = broken_store  # what the coordinator commits through
        threads = _worker_threads(executor, 1, _echo_execute)
        try:
            # Raised out of the map, as a failing local store would be;
            # the completion was rejected, never acked.
            with pytest.raises(OSError, match="disk full"):
                executor.map(tiny_units(2))
            counters = executor._server.table.snapshot()["counters"]
            assert counters["committed"] == 0
        finally:
            _reap(executor, threads)

    def test_unenforceable_knobs_rejected(self):
        spec = _spec()
        for knobs in (
            dict(timeout=60.0), dict(retries=1),
            dict(governor=GovernorSpec(cpu_seconds=2.0)),
        ):
            with pytest.raises(ValueError, match="--timeout, --retries or --budget"):
                Executor(distributed=spec, **knobs)


# ----------------------------------------------------------------------
# Chaos: subprocess coordinator + workers, SIGKILL mid-campaign
# ----------------------------------------------------------------------
FAULT_ARGS = [
    "fault-campaign",
    "--cycles", "1200", "--warmup", "200", "--sample-period", "32",
    "--kinds", "sensor-dropout,up-down-drop",
    "--fault-rates", "0.0,0.5,1.0",
]


def _spawn(args, extra=(), stderr=subprocess.PIPE):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args, *extra],
        env=env,
        cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL,
        stderr=stderr,
    )


def _run(args, extra=()):
    proc = _spawn(args, extra)
    _, stderr = proc.communicate(timeout=600)
    return proc.returncode, stderr.decode()


def _read_port_file(path, deadline=120.0):
    start = time.monotonic()
    while time.monotonic() - start < deadline:
        if path.exists() and path.read_text().strip():
            return path.read_text().strip()
        time.sleep(0.05)
    raise AssertionError("coordinator never wrote its port file")


def _wait_for_status(url, predicate, deadline=120.0):
    start = time.monotonic()
    status = None
    while time.monotonic() - start < deadline:
        try:
            status = get_json(url + "/status", timeout=5.0)
        except Exception:
            time.sleep(0.05)
            continue
        if predicate(status):
            return status
        time.sleep(0.05)
    raise AssertionError(f"coordinator status never satisfied predicate: {status}")


def _spawn_workers(address, count=2):
    """``count`` ``repro-noc worker --connect`` processes."""
    return [
        _spawn(["worker", "--connect", address, "--poll", "0.2"],
               stderr=subprocess.DEVNULL)
        for _ in range(count)
    ]


def _stop(procs):
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=60)


class TestChaos:
    def test_worker_sigkill_byte_identical_json(self, tmp_path):
        golden = tmp_path / "golden.json"
        code, stderr = _run(FAULT_ARGS, ["--json", str(golden)])
        assert code == 0, stderr

        port_file = tmp_path / "coordinator.addr"
        dist_json = tmp_path / "distributed.json"
        proc = _spawn(
            FAULT_ARGS,
            ["--port", "0", "--port-file", str(port_file),
             "--lease-timeout", "2", "--json", str(dist_json)],
        )
        workers = []
        try:
            address = _read_port_file(port_file)
            workers = _spawn_workers(address)
            _wait_for_status(
                "http://" + address,
                lambda s: len(s["workers"]) >= 2
                and s["table"]["states"]["leased"] >= 1,
            )
            victim = workers[0]
            victim.send_signal(signal.SIGKILL)
            _, stderr_bytes = proc.communicate(timeout=600)
            # The survivor saw the coordinator's "shutdown" and left.
            assert workers[1].wait(timeout=60) == 0
        finally:
            _stop([proc, *workers])
        stderr = stderr_bytes.decode()
        assert proc.returncode == 0, stderr
        assert victim.returncode == -signal.SIGKILL
        assert dist_json.read_bytes() == golden.read_bytes()

    def test_coordinator_sigkill_then_resume_completes(self, tmp_path):
        golden = tmp_path / "golden.json"
        code, stderr = _run(FAULT_ARGS, ["--json", str(golden)])
        assert code == 0, stderr

        ckpt = tmp_path / "ckpt"
        port_file = tmp_path / "coordinator.addr"
        proc = _spawn(
            FAULT_ARGS,
            ["--port", "0", "--port-file", str(port_file),
             "--checkpoint-dir", str(ckpt), "--json", str(tmp_path / "never.json")],
        )
        workers = []
        try:
            address = _read_port_file(port_file)
            workers = _spawn_workers(address)
            _wait_for_status(
                "http://" + address,
                lambda s: s["table"]["states"]["done"] >= 2,
            )
            proc.kill()  # SIGKILL: no drain, no cleanup — journal only
            proc.wait(timeout=60)
        finally:
            # The crash takes the whole host with it in this scenario.
            _stop([proc, *workers])
        assert proc.returncode == -signal.SIGKILL
        journal = ckpt / "scenario.journal.jsonl"
        committed_lines = journal.read_bytes().count(b"\n") - 1  # - header
        assert committed_lines >= 2

        resumed_json = tmp_path / "resumed.json"
        code, stderr = _run(
            ["fault-campaign", "--resume", str(ckpt), "--json", str(resumed_json)]
        )
        assert code == 0, stderr
        # Remote workers' commits were durable: the serial resume served
        # them from the journal instead of re-running.
        assert "resumed from journal" in stderr
        assert resumed_json.read_bytes() == golden.read_bytes()


# ----------------------------------------------------------------------
# Spec validation and typed failure kinds
# ----------------------------------------------------------------------
class TestGovernanceSpecValidation:
    def test_heartbeat_interval_must_fit_inside_the_lease(self):
        with pytest.raises(ValueError):
            DistributedSpec(heartbeat_interval=0)
        with pytest.raises(ValueError):
            DistributedSpec(lease_timeout=10.0, heartbeat_interval=10.0)
        with pytest.raises(ValueError):
            DistributedSpec(lease_timeout=10.0, heartbeat_interval=15.0)
        # The widest still-valid interval is accepted.
        assert DistributedSpec(lease_timeout=10.0, heartbeat_interval=9.0)

    def test_requeue_backoff_and_jitter_must_be_nonnegative(self):
        # A failed lease is requeued on the executor's retry backoff.
        with pytest.raises(ValueError):
            Executor(retry_backoff=-0.1, distributed=_spec())
        with pytest.raises(ValueError):
            Executor(retry_jitter=-0.1, distributed=_spec())
        assert Executor(retry_backoff=0.0, retry_jitter=0.0, distributed=_spec())

    def test_retry_and_admission_knobs_are_not_spec_fields(self):
        # Retries use the executor's backoff; there is no admission
        # control or commit breaker to tune.
        assert [f.name for f in dataclasses.fields(DistributedSpec)] == [
            "bind", "port", "lease_timeout", "heartbeat_interval",
            "poll_interval", "poison_threshold", "port_file", "shutdown_grace",
        ]


class TestLeaseFailureKinds:
    def test_worker_failure_kind_derived_from_error_type(self):
        clock = FakeClock()
        table = make_table(clock)
        table.load([("k1", "p", 0)])
        grant, _, _ = table.grant("w1")
        failure = table.fail(
            grant.lease_id, "k1", "w1",
            {"error_type": "MemoryError", "message": "oom", "traceback": None},
        )
        assert failure.error["kind"] == "oom"

    def test_expiry_is_typed_timeout(self):
        clock = FakeClock()
        table = make_table(clock, lease_timeout=10.0)
        table.load([("k1", "p", 0)])
        table.grant("w1")
        clock.now += 11.0
        (expired,) = table.expire()
        assert expired.error["kind"] == "timeout"
        assert expired.error["error_type"] == "LeaseExpired"


def _oom_execute(unit):
    scenario, iteration = unit
    if scenario.policy == "rr-no-sensor":
        raise MemoryError("worker address-space budget")
    return tiny_result(unit)


class TestDistributedFailureKinds:
    def test_poisoned_memory_failure_is_typed_oom_and_quarantined(self):
        units = tiny_units(3)  # policies baseline, rr-no-sensor, sensor-wise
        executor = Executor(
            max_workers=1, retry_backoff=0.01,
            distributed=_spec(poison_threshold=2, shutdown_grace=2.0),
        )
        threads = _worker_threads(executor, 2, _oom_execute)
        try:
            results = executor.map_robust(units)
        finally:
            _reap(executor, threads)
        assert _filed_under(results[0]) == ("baseline", 0)
        assert _filed_under(results[2]) == ("sensor-wise", 0)
        failure = results[1]
        assert isinstance(failure, ScenarioFailure)
        assert failure.error_type == "MemoryError"
        assert failure.kind == "oom"
        assert failure.quarantined
