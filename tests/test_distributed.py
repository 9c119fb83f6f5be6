"""Tests for the distributed campaign engine (coordinator/worker).

Layered like the implementation:

* ``LeaseTable`` unit tests with an injected fake clock — grant /
  heartbeat / complete / fail / expire transitions, dedup by key, late
  acceptance, poison quarantine, backoff windows;
* wire-protocol tests — the journal's CRC-guarded JSON records for
  units, spec validation;
* HTTP-level tests against a live ``CoordinatorServer`` — the
  durability ordering on ``/complete`` (commit before ack, reopen on
  commit failure), corrupt and foreign upload rejection, lease expiry
  and reassignment over the wire, late duplicates dropped
  idempotently;
* in-process integration — a real ``Executor`` with worker threads
  running the real ``run_worker`` loop, asserting distributed results
  are identical to serial and poison scenarios surface as
  ``ScenarioFailure`` records;
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
from repro.experiments.distributed.lease import (
    COMMITTED,
    DUPLICATE,
    QUARANTINED,
    REQUEUED,
    UNKNOWN,
)
from repro.experiments.distributed.protocol import get_json, post_json
from repro.experiments.parallel import (
    Executor,
    RetryBackoff,
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


def make_table(clock, lease_timeout=10.0, poison_threshold=3, backoff_base=1.0):
    return LeaseTable(
        lease_timeout=lease_timeout,
        backoff=RetryBackoff(backoff_base, jitter=0.0),
        poison_threshold=poison_threshold,
        clock=clock,
    )


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
        assert table.active_leases() == 1

        assert table.complete(grant.lease_id, "k1", "w1") == COMMITTED
        assert table.remaining() == 0
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
        assert table.fail("lease", "nope", "w1") == UNKNOWN

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
        assert table.active_leases() == 1
        assert not table.heartbeat("no-such-lease")

    def test_expiry_requeues_with_backoff_window(self):
        clock = FakeClock()
        table = make_table(clock, lease_timeout=10.0, backoff_base=2.0)
        table.load([("k1", "p", 0)])
        table.grant("w1")
        clock.now += 11.0
        (expired,) = table.expire()
        assert expired.key == "k1"
        assert expired.worker == "w1"
        assert not expired.poisoned
        assert expired.error["error_type"] == "LeaseExpired"
        assert table.counters["expiries"] == 1
        assert table.counters["requeued"] == 1
        # Inside the backoff window nothing is granted...
        assert table.grant("w2") is None
        # ...after it the scenario is reassigned.
        clock.now += 2.0
        grant, _, _ = table.grant("w2")
        assert grant.key == "k1"

    def test_late_completion_accepted_when_undone(self):
        clock = FakeClock()
        table = make_table(clock, lease_timeout=10.0, backoff_base=0.0)
        table.load([("k1", "p", 0)])
        stale, _, _ = table.grant("w1")
        clock.now += 11.0
        table.expire()
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
        assert table.remaining() == 1
        regrant, _, _ = table.grant("w2")
        assert regrant.key == "k1"

    def test_poison_needs_distinct_workers(self):
        clock = FakeClock()
        table = make_table(clock, poison_threshold=2, backoff_base=0.0)
        table.load([("k1", "p", 0)])
        # The same worker failing twice is not poison evidence.
        for _ in range(2):
            grant, _, _ = table.grant("w1")
            assert table.fail(grant.lease_id, "k1", "w1", {"error_type": "E", "message": "m"}) == REQUEUED
        assert table.counters["poisoned"] == 0
        # A second distinct worker is.
        grant, _, _ = table.grant("w2")
        assert (
            table.fail(grant.lease_id, "k1", "w2", {"error_type": "E", "message": "m"})
            == QUARANTINED
        )
        assert table.counters["poisoned"] == 1
        assert table.remaining() == 0
        error = table.error_of("k1")
        assert error["workers"] == ["w1", "w2"]
        assert error["attempts"] == 3

    def test_grant_prefers_unfailed_scenarios(self):
        clock = FakeClock()
        table = make_table(clock, backoff_base=0.0)
        table.load([("kA", "a", 0), ("kB", "b", 0)])
        grant, _, _ = table.grant("w1")
        assert grant.key == "kA"
        table.fail(grant.lease_id, "kA", "w1", None)
        # w1 already failed kA, so it gets kB first; kA waits for w2.
        grant_b, _, _ = table.grant("w1")
        assert grant_b.key == "kB"
        grant_a, _, _ = table.grant("w2")
        assert grant_a.key == "kA"

    def test_grant_falls_back_to_failed_scenario_when_alone(self):
        clock = FakeClock()
        table = make_table(clock, backoff_base=0.0, poison_threshold=3)
        table.load([("kA", "a", 0)])
        grant, _, _ = table.grant("w1")
        table.fail(grant.lease_id, "kA", "w1", None)
        # Nothing else to hand out: w1 may retry its own failure.
        regrant, _, _ = table.grant("w1")
        assert regrant.key == "kA"

    def test_stale_failure_does_not_steal_live_lease(self):
        clock = FakeClock()
        table = make_table(clock, lease_timeout=10.0, backoff_base=0.0)
        table.load([("k1", "p", 0)])
        stale, _, _ = table.grant("w1")
        clock.now += 11.0
        table.expire()
        live, _, _ = table.grant("w2")
        assert table.fail(stale.lease_id, "k1", "w1", None) == DUPLICATE
        # The live lease still stands and can complete.
        assert table.complete(live.lease_id, "k1", "w2") == COMMITTED

    def test_pause_stops_grants(self):
        table = make_table(FakeClock())
        table.load([("k1", "p", 0)])
        table.pause()
        assert table.grant("w1") is None
        table.resume_granting()
        assert table.grant("w1") is not None


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
        requeue_backoff=0.0, requeue_jitter=0.0, poison_threshold=2,
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
            kind, event_key, event_result = live.server.events.get_nowait()
            assert (kind, event_key, event_result) == ("result", key, result)

    def test_late_duplicate_dropped_idempotently(self):
        committed = []
        unit = tiny_units(1)[0]
        key = cache_key(*unit)
        spec = _spec(lease_timeout=0.15)
        with _LiveCoordinator(spec, commit=lambda k, r: committed.append(k)) as live:
            live.server.submit([(key, unit)])
            stale = post_json(live.url + "/lease", {"worker": "w1"})
            time.sleep(0.3)  # w1 partitioned: no heartbeats
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
            # The scenario went back in the queue for a clean run.
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
            assert live.server.events.empty()
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
            for worker, expected in (("w1", "requeued"), ("w2", "poisoned")):
                lease = post_json(live.url + "/lease", {"worker": worker})
                reply = post_json(
                    live.url + "/fail",
                    {"worker": worker, "lease": lease["lease"], "key": key,
                     "error_type": "ValueError", "message": "cursed",
                     "traceback": "tb"},
                )
                assert reply["status"] == expected
            kind, event_key, error = live.server.events.get_nowait()
            assert kind == "poisoned"
            assert event_key == key
            assert error["error_type"] == "ValueError"
            assert "2 distinct worker(s)" in error["message"]

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
            max_workers=1,
            distributed=_spec(
                poison_threshold=2, requeue_backoff=0.01, shutdown_grace=2.0
            ),
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
            max_workers=1,
            distributed=_spec(
                poison_threshold=1, requeue_backoff=0.01, shutdown_grace=2.0
            ),
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
# Overload protection: spec knobs, /healthz, backpressure, breaker
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
        with pytest.raises(ValueError):
            DistributedSpec(requeue_backoff=-0.1)
        with pytest.raises(ValueError):
            DistributedSpec(requeue_jitter=-0.1)
        assert DistributedSpec(requeue_backoff=0.0, requeue_jitter=0.0)

    def test_overload_knobs_validated(self):
        with pytest.raises(ValueError):
            DistributedSpec(max_inflight=0)
        with pytest.raises(ValueError):
            DistributedSpec(queue_limit=0)
        with pytest.raises(ValueError):
            DistributedSpec(commit_breaker_threshold=0)


class TestLeaseFailureKinds:
    def test_worker_failure_kind_derived_from_error_type(self):
        clock = FakeClock()
        table = make_table(clock)
        table.load([("k1", "p", 0)])
        grant, _, _ = table.grant("w1")
        table.fail(
            grant.lease_id, "k1", "w1",
            {"error_type": "MemoryError", "message": "oom", "traceback": None},
        )
        assert table.error_of("k1")["kind"] == "oom"

    def test_expiry_is_typed_timeout(self):
        clock = FakeClock()
        table = make_table(clock, lease_timeout=10.0)
        table.load([("k1", "p", 0)])
        table.grant("w1")
        clock.now += 11.0
        (expired,) = table.expire()
        assert expired.error["kind"] == "timeout"
        assert expired.error["error_type"] == "LeaseExpired"


class TestOverloadProtection:
    def test_healthz_reports_ok_when_idle(self):
        with _LiveCoordinator(_spec()) as live:
            blob = get_json(live.url + "/healthz")
            assert blob["status"] == "ok"
            assert blob["verdict"] == "ok"
            assert blob["queue_depth"] == 0
            assert blob["queue_limit"] == 1024
            assert blob["max_inflight"] == 32
            assert blob["memory_rss_bytes"] > 0
            assert blob["commit_breaker"]["open"] is False
            assert set(blob["lease_churn"]) == {
                "leases_granted", "expiries", "requeued", "poisoned",
                "committed",
            }

    def test_saturated_lease_sheds_with_503_and_retry_after(self):
        import urllib.error
        import urllib.request

        unit = tiny_units(1)[0]
        with _LiveCoordinator(_spec(queue_limit=2)) as live:
            live.server.submit([(cache_key(*unit), unit)])
            for _ in range(2):  # results nobody folded in yet: overload
                live.server.events.put(("noise", "", None))
            body = json.dumps({"worker": "w1"}).encode("utf-8")
            request = urllib.request.Request(
                live.url + "/lease", data=body,
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            error = excinfo.value
            assert error.code == 503
            assert int(error.headers["Retry-After"]) >= 1
            reply = json.loads(error.read().decode("utf-8"))
            assert reply["status"] == "busy"
            assert reply["retry_after"] > 0
            # Shed means *no lease granted*, and the health probe says
            # why — while still answering (degraded, never a hang).
            assert live.server.table.snapshot()["counters"]["leases_granted"] == 0
            health = get_json(live.url + "/healthz")
            assert health["status"] == "degraded"
            assert health["verdict"] == "shed"
            assert live.server.guard.counters["sheds"] == 1
            assert "1 lease(s) shed" in live.server.summary()

    def test_brownout_defers_new_grants(self):
        unit = tiny_units(1)[0]
        with _LiveCoordinator(_spec(queue_limit=4)) as live:
            live.server.submit([(cache_key(*unit), unit)])
            for _ in range(3):  # 0.75 of the queue limit: brownout
                live.server.events.put(("noise", "", None))
            reply = post_json(live.url + "/lease", {"worker": "w1"})
            assert reply["status"] == "wait"
            assert reply["reason"] == "brownout"
            assert get_json(live.url + "/healthz")["verdict"] == "brownout"
            # Pressure released: the same worker gets its lease.
            for _ in range(3):
                live.server.events.get_nowait()
            assert post_json(live.url + "/lease", {"worker": "w1"})["status"] == "lease"

    def test_worker_rides_out_backpressure_and_completes(self):
        spec = _spec(queue_limit=1, poll_interval=0.05)
        with _LiveCoordinator(spec) as live:
            live.server.events.put(("noise", "", None))  # saturate
            unit = tiny_units(1)[0]
            live.server.submit([(cache_key(*unit), unit)])
            host, port = live.server.address
            thread = threading.Thread(
                target=run_worker,
                args=(f"{host}:{port}",),
                kwargs=dict(worker_id="bp-worker", poll=0.05,
                            execute=_echo_execute),
                daemon=True,
            )
            thread.start()
            time.sleep(0.5)
            # Saturated the whole time: busy replies, no grants, and
            # the worker treated them as backpressure, not errors.
            counters = live.server.table.snapshot()["counters"]
            assert counters["leases_granted"] == 0
            assert live.server.guard.counters["sheds"] > 0
            assert thread.is_alive()
            live.server.events.get_nowait()  # relieve the pressure
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                if live.server.table.snapshot()["counters"]["committed"] == 1:
                    break
                time.sleep(0.05)
            assert live.server.table.snapshot()["counters"]["committed"] == 1
            live.server.state = "shutdown"
            thread.join(timeout=10.0)
            assert not thread.is_alive()

    def test_commit_breaker_opens_and_drains(self):
        def broken_commit(key, result):
            raise OSError("disk full")

        unit = tiny_units(1)[0]
        spec = _spec(commit_breaker_threshold=2)
        with _LiveCoordinator(spec, commit=broken_commit) as live:
            live.server.submit([(cache_key(*unit), unit)])
            for attempt in range(2):
                lease = post_json(live.url + "/lease", {"worker": "w1"})
                assert lease["status"] == "lease"
                ack = post_json(
                    live.url + "/complete", completion("w1", lease["lease"], unit)
                )
                assert ack["status"] == "rejected"
                assert "commit failed" in ack["reason"]
            # Threshold hit: the breaker opened and the coordinator
            # drains instead of wedging in a grant/commit-fail loop.
            assert live.server.breaker.open
            assert live.server.state == "draining"
            ack = post_json(live.url + "/complete", completion("w2", "stale", unit))
            assert ack["status"] == "rejected"
            assert "commit circuit open" in ack["reason"]
            assert post_json(live.url + "/lease", {"worker": "w1"})["status"] == "draining"
            assert "commit breaker tripped 1x" in live.server.summary()
            health = get_json(live.url + "/healthz")
            assert health["status"] == "degraded"
            assert health["commit_breaker"]["open"] is True


def _oom_execute(unit):
    scenario, iteration = unit
    if scenario.policy == "rr-no-sensor":
        raise MemoryError("worker address-space budget")
    return tiny_result(unit)


class TestDistributedFailureKinds:
    def test_poisoned_memory_failure_is_typed_oom_and_quarantined(self):
        units = tiny_units(3)  # policies baseline, rr-no-sensor, sensor-wise
        executor = Executor(
            max_workers=1,
            distributed=_spec(
                poison_threshold=2, requeue_backoff=0.01, shutdown_grace=2.0
            ),
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
