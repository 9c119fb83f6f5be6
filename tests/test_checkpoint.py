"""Tests for the crash-safe checkpoint layer.

The load-bearing properties:

* atomic writes — an artifact file is either the old bytes or the new
  bytes, byte-compatible with the historical ``json.dump`` format;
* the write-ahead journal round-trips results exactly through its JSON
  codec, tolerates a torn tail (skip + count, never abort) and rejects
  corrupted payloads via the per-record CRC and the declared types;
* resume — an executor pointed at a journal serves completed units
  from it and the final artifacts are byte-identical to an
  uninterrupted run;
* drain — ``request_drain`` stops dispatch, in-flight units finish and
  the map raises ``CampaignInterrupted`` with the pending count.
"""

from __future__ import annotations

import base64
import dataclasses
import importlib
import json
import multiprocessing
import pickle
import zlib
from pathlib import Path

import pytest

from repro.experiments.checkpoint import (
    TRACEBACK_MAX_BYTES,
    CampaignInterrupted,
    CheckpointError,
    CheckpointManager,
    ScenarioJournal,
    atomic_write_json,
    atomic_write_text,
    bound_traceback,
    encode_result,
    verify_journal,
)
from repro.experiments.campaign import CampaignConfig, run_campaign
from repro.experiments.config import REAL_TRAFFIC, ScenarioConfig
from repro.experiments.parallel import (
    CACHE_SCHEMA_VERSION,
    Executor,
    ScenarioFailure,
    cache_key,
    make_executor,
)
from repro.experiments.runner import run_scenario
from repro.experiments.sweeps import run_injection_sweep
from repro.faults.campaign import FaultCampaignConfig, run_fault_campaign
from repro.faults.spec import FAULT_KINDS, FaultSpec
from repro.version import __version__

FAST = dict(cycles=300, warmup=100)


def tiny_units(n=3):
    base = ScenarioConfig(num_nodes=4, num_vcs=2, injection_rate=0.1, **FAST)
    policies = ("baseline", "rr-no-sensor", "sensor-wise")
    return [(base.with_policy(policies[i % 3]), i // 3) for i in range(n)]


def fingerprint(result):
    return (result.duty_cycles, result.md_vc, result.net_stats, result.initial_vths)


def mapped(units, **kwargs):
    """``(results, stats)`` of one closed executor's map."""
    executor = Executor(max_workers=1, **kwargs)
    try:
        return executor.map(units), executor.stats
    finally:
        executor.close()


def payload_record(key, payload):
    """A result record around any ``payload`` text, with a valid CRC."""
    return json.dumps({
        "type": "result", "key": key, "payload": payload,
        "crc": zlib.crc32(payload.encode()) & 0xFFFFFFFF,
    })


def tamper_payload(line):
    """The record with one payload digit changed and its CRC left stale."""
    record = json.loads(line)
    payload = record["payload"]
    at = next(i for i, c in enumerate(payload) if c.isdigit())
    record["payload"] = payload[:at] + str((int(payload[at]) + 1) % 10) + payload[at + 1:]
    assert zlib.crc32(record["payload"].encode()) & 0xFFFFFFFF != record["crc"]
    return json.dumps(record)


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------
class TestAtomicWrites:
    def test_writes_content(self, tmp_path):
        path = tmp_path / "artifact.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"

    def test_replaces_existing(self, tmp_path):
        path = tmp_path / "artifact.txt"
        path.write_text("old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_no_temp_litter(self, tmp_path):
        path = tmp_path / "artifact.txt"
        atomic_write_text(path, "x")
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.txt"]

    def test_json_byte_compatible_with_json_dump(self, tmp_path):
        """Adopting atomic_write_json must not move any golden file."""
        blob = {"b": [1, 2], "a": {"z": None, "y": 0.5}}
        path = tmp_path / "blob.json"
        atomic_write_json(path, blob)
        assert path.read_text() == json.dumps(blob, indent=2, sort_keys=True) + "\n"

    def test_failure_leaves_old_file(self, tmp_path):
        path = tmp_path / "blob.json"
        atomic_write_json(path, {"ok": 1})
        with pytest.raises(TypeError):
            atomic_write_json(path, {"bad": object()})
        assert json.loads(path.read_text()) == {"ok": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["blob.json"]


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
class TestScenarioJournal:
    def _result(self):
        scenario, iteration = tiny_units(1)[0]
        return cache_key(scenario, iteration), run_scenario(scenario, iteration)

    def test_roundtrip_exact(self, tmp_path):
        key, result = self._result()
        journal = ScenarioJournal(tmp_path / "j.jsonl", meta={"m": 1})
        journal.append(key, result)
        journal.close()

        replayed = ScenarioJournal(tmp_path / "j.jsonl", meta={"m": 1})
        assert replayed.replayed == 1
        assert replayed.torn == 0
        assert fingerprint(replayed.get(key)) == fingerprint(result)
        replayed.close()

    def test_append_is_idempotent(self, tmp_path):
        key, result = self._result()
        journal = ScenarioJournal(tmp_path / "j.jsonl", meta={})
        journal.append(key, result)
        journal.append(key, result)
        journal.close()
        lines = (tmp_path / "j.jsonl").read_text().splitlines()
        assert len(lines) == 2  # header + one record

    def test_torn_tail_skipped_and_counted(self, tmp_path):
        key, result = self._result()
        path = tmp_path / "j.jsonl"
        journal = ScenarioJournal(path, meta={})
        journal.append(key, result)
        journal.close()

        # SIGKILL mid-append: truncate the last record partway through.
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 40])

        replayed = ScenarioJournal(path, meta={})
        assert replayed.replayed == 0
        assert replayed.torn == 1
        assert replayed.get(key) is None
        # The journal stays appendable after terminating the torn line.
        replayed.append(key, result)
        replayed.close()
        again = ScenarioJournal(path, meta={})
        assert again.replayed == 1
        assert fingerprint(again.get(key)) == fingerprint(result)
        again.close()

    def test_crc_mismatch_rejected(self, tmp_path):
        key, result = self._result()
        path = tmp_path / "j.jsonl"
        journal = ScenarioJournal(path, meta={})
        journal.append(key, result)
        journal.close()

        header, record_line = path.read_text().splitlines()
        # Valid JSON, valid payload text, stale CRC.
        path.write_text(header + "\n" + tamper_payload(record_line) + "\n")

        replayed = ScenarioJournal(path, meta={})
        assert replayed.torn == 1
        assert replayed.get(key) is None
        replayed.close()

    def test_garbage_line_skipped(self, tmp_path):
        key, result = self._result()
        path = tmp_path / "j.jsonl"
        journal = ScenarioJournal(path, meta={})
        journal.append(key, result)
        journal.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not json at all\n")
            fh.write('{"type": "result", "key": 42}\n')
        replayed = ScenarioJournal(path, meta={})
        assert replayed.replayed == 1
        assert replayed.torn == 2
        replayed.close()

    def test_different_meta_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        ScenarioJournal(path, meta={"config": {"cycles": 100}}).close()
        with pytest.raises(CheckpointError, match="different campaign"):
            ScenarioJournal(path, meta={"config": {"cycles": 200}})

    def test_unreadable_header_starts_fresh(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("garbage header\n")
        journal = ScenarioJournal(path, meta={"m": 1})
        assert journal.replayed == 0
        journal.close()
        # Recreated with a valid header: reopens cleanly.
        ScenarioJournal(path, meta={"m": 1}).close()


class TestCheckpointManager:
    def test_load_meta_roundtrip(self, tmp_path):
        meta = {"command": "campaign", "config": {"cycles": 150, "seed": 1}}
        CheckpointManager(tmp_path, meta=meta).close()
        assert CheckpointManager.load_meta(tmp_path) == meta

    def test_load_meta_missing_journal(self, tmp_path):
        with pytest.raises(CheckpointError, match="nothing to resume"):
            CheckpointManager.load_meta(tmp_path)

    def test_write_state_contents(self, tmp_path):
        manager = CheckpointManager(tmp_path, meta={"command": "x", "config": {}})
        scenario, iteration = tiny_units(1)[0]
        failure = ScenarioFailure(
            scenario=scenario, iteration=iteration, error_type="ValueError",
            message="boom", attempts=2, timed_out=False, wall_seconds=0.1,
            traceback="Traceback (most recent call last):\n  boom\n",
        )
        manager.write_state("interrupted", pending=3, failures=[failure])
        manager.close()

        state = json.loads((tmp_path / "campaign.state.json").read_text())
        assert state["status"] == "interrupted"
        assert state["pending"] == 3
        assert state["done"] == 0
        assert state["meta"] == {"command": "x", "config": {}}
        (entry,) = state["failed"]
        assert entry["error_type"] == "ValueError"
        assert "Traceback" in entry["traceback"]
        # Typed-kind fields always ride along (derived "crash" here).
        assert entry["kind"] == "crash"
        assert entry["quarantined"] is False
        assert entry["budget"] is None

    def test_write_state_carries_budget_verdicts(self, tmp_path):
        manager = CheckpointManager(tmp_path, meta={"command": "x", "config": {}})
        scenario, iteration = tiny_units(1)[0]
        budget = {
            "predicted": {"work": 1.0, "cpu_seconds": 5.0, "rss_bytes": 1},
            "budget": {"wall_seconds": 3.0, "cpu_seconds": 1.0, "rss_bytes": 1},
            "actual_wall_seconds": 2.5,
        }
        failure = ScenarioFailure(
            scenario=scenario, iteration=iteration, error_type="WorkerDied",
            message="budget", attempts=2, timed_out=False, wall_seconds=2.5,
            kind="cpu", quarantined=True, budget=budget,
        )
        manager.write_state("budget-exceeded", pending=1, failures=[failure])
        manager.close()

        state = json.loads((tmp_path / "campaign.state.json").read_text())
        assert state["status"] == "budget-exceeded"
        (entry,) = state["failed"]
        assert entry["kind"] == "cpu"
        assert entry["quarantined"] is True
        assert entry["budget"] == budget


# ----------------------------------------------------------------------
# Executor integration: journal hits, resume, drain
# ----------------------------------------------------------------------
class TestExecutorCheckpoint:
    def test_results_journaled_and_resumed(self, tmp_path):
        units = tiny_units(3)
        first = Executor(
            max_workers=1, checkpoint=CheckpointManager(tmp_path, meta={"m": 1})
        )
        baseline = first.map(units)
        first.checkpoint.close()
        assert first.stats.journal_hits == 0

        second = Executor(
            max_workers=1, checkpoint=CheckpointManager(tmp_path, meta={"m": 1})
        )
        resumed = second.map(units)
        second.checkpoint.close()
        assert second.stats.journal_hits == 3
        assert [fingerprint(r) for r in resumed] == [
            fingerprint(r) for r in baseline
        ]

    def test_partial_journal_runs_only_missing(self, tmp_path):
        units = tiny_units(3)
        seed = CheckpointManager(tmp_path, meta={"m": 1})
        seed.journal.append(cache_key(*units[0]), run_scenario(*units[0]))
        seed.close()

        executor = Executor(
            max_workers=1, checkpoint=CheckpointManager(tmp_path, meta={"m": 1})
        )
        results = executor.map(units)
        executor.checkpoint.close()
        assert executor.stats.journal_hits == 1
        assert [fingerprint(r) for r in results] == [
            fingerprint(run_scenario(s, i)) for s, i in units
        ]

    def test_drain_raises_campaign_interrupted(self, tmp_path):
        units = tiny_units(4)
        executor = Executor(
            max_workers=1, checkpoint=CheckpointManager(tmp_path, meta={"m": 1})
        )
        # Drain after the first completed unit reports progress.
        executor.progress = lambda line: executor.request_drain()
        with pytest.raises(CampaignInterrupted) as info:
            executor.map(units)
        executor.checkpoint.close()
        assert info.value.pending == 3
        assert executor.checkpoint.completed() == 1

        # Resuming completes the remainder, identically.
        resumed = Executor(
            max_workers=1, checkpoint=CheckpointManager(tmp_path, meta={"m": 1})
        )
        results = resumed.map(units)
        resumed.checkpoint.close()
        assert resumed.stats.journal_hits == 1
        assert [fingerprint(r) for r in results] == [
            fingerprint(run_scenario(s, i)) for s, i in units
        ]

    def test_map_robust_journal_resume(self, tmp_path):
        units = tiny_units(2)
        first = Executor(
            max_workers=1, checkpoint=CheckpointManager(tmp_path, meta={"m": 2})
        )
        baseline = first.map_robust(units)
        first.checkpoint.close()

        second = Executor(
            max_workers=1, checkpoint=CheckpointManager(tmp_path, meta={"m": 2})
        )
        resumed = second.map_robust(units)
        second.checkpoint.close()
        assert second.stats.journal_hits == 2
        assert [fingerprint(r) for r in resumed] == [
            fingerprint(r) for r in baseline
        ]

    def test_make_executor_checkpoint_forces_executor(self, tmp_path):
        assert make_executor(1) is None
        manager = CheckpointManager(tmp_path, meta={})
        executor = make_executor(1, checkpoint=manager)
        assert isinstance(executor, Executor)
        assert executor.checkpoint is manager
        manager.close()


# ----------------------------------------------------------------------
# Failure records
# ----------------------------------------------------------------------
def _crashing_worker(unit):
    raise ValueError("synthetic crash for checkpoint tests")


class TestFailureRecords:
    def test_traceback_survives_process_boundary(self):
        units = tiny_units(1)
        executor = Executor(max_workers=1, worker=_crashing_worker)
        (outcome,) = executor.map_robust(units)
        assert isinstance(outcome, ScenarioFailure)
        assert outcome.error_type == "ValueError"
        assert outcome.traceback is not None
        assert "synthetic crash for checkpoint tests" in outcome.traceback
        assert "Traceback" in outcome.traceback
        assert executor.failure_records == [outcome]


# ----------------------------------------------------------------------
# Cache verify
# ----------------------------------------------------------------------
class TestCacheVerify:
    """``cache verify --cache-dir`` audits the ``--cache-dir`` store,
    which is a journal, with :func:`verify_journal`."""

    def _populated(self, tmp_path):
        store = ScenarioJournal.store(tmp_path)
        unit = tiny_units(1)[0]
        store.append(cache_key(*unit), run_scenario(*unit))
        store.close()
        return store.path

    def test_clean_cache(self, tmp_path):
        report = verify_journal(self._populated(tmp_path))
        assert report.total == report.ok == 1
        assert report.clean
        assert "1/1 records valid" in report.summary()

    def test_truncated_entry_reported(self, tmp_path):
        path = self._populated(tmp_path)
        path.write_bytes(path.read_bytes()[:-40])
        report = verify_journal(path)
        assert report.ok == 0
        assert len(report.torn) == 1
        assert report.torn_tail
        assert not report.clean

    def test_wrong_type_reported(self, tmp_path):
        path = self._populated(tmp_path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(payload_record("deadbeef", '{"not":"a result"}') + "\n")
        report = verify_journal(path)
        assert report.ok == 1
        (torn,) = report.torn
        assert torn.startswith("line 3:")
        assert "fields of ScenarioResult do not match" in torn

    def test_cli_exit_codes(self, tmp_path):
        from repro.cli import main

        path = self._populated(tmp_path)
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0
        path.write_bytes(path.read_bytes()[:-40])
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 1


# ----------------------------------------------------------------------
# Journal verify (cache verify --checkpoint-dir)
# ----------------------------------------------------------------------
class TestVerifyJournal:
    def _journal(self, tmp_path, records=2):
        journal = ScenarioJournal(tmp_path / "scenario.journal.jsonl", meta={"m": 1})
        for unit in tiny_units(records):
            journal.append(cache_key(*unit), run_scenario(*unit))
        journal.close()
        return journal.path

    def test_clean_journal(self, tmp_path):
        path = self._journal(tmp_path)
        report = verify_journal(path)
        assert report.header_ok
        assert (report.total, report.ok) == (2, 2)
        assert report.torn == []
        assert report.clean
        assert "2/2 records valid" in report.summary()

    def test_directory_resolves_to_journal(self, tmp_path):
        self._journal(tmp_path)
        assert verify_journal(tmp_path).clean

    def test_missing_journal_is_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="no scenario journal"):
            verify_journal(tmp_path)

    def test_torn_tail_diagnosed(self, tmp_path):
        path = self._journal(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 40])
        report = verify_journal(path)
        assert report.ok == 1
        assert len(report.torn) == 1
        assert report.torn_tail
        assert not report.clean
        assert "torn tail" in report.summary()

    def test_crc_mismatch_diagnosed(self, tmp_path):
        path = self._journal(tmp_path, records=1)
        header, record_line = path.read_text().splitlines()
        path.write_text(header + "\n" + tamper_payload(record_line) + "\n")
        report = verify_journal(path)
        assert report.ok == 0
        assert "CRC mismatch" in report.torn[0]
        assert not report.torn_tail or len(report.torn) == 1

    def test_mid_file_damage_is_not_a_torn_tail(self, tmp_path):
        path = self._journal(tmp_path, records=3)
        lines = path.read_text().splitlines()
        lines[2] = lines[2][:-30]  # damage a middle record
        path.write_text("\n".join(lines) + "\n")
        report = verify_journal(path)
        assert len(report.torn) == 1
        assert not report.torn_tail

    def test_bad_header_reported(self, tmp_path):
        path = tmp_path / "scenario.journal.jsonl"
        path.write_text("not json\n")
        report = verify_journal(path)
        assert not report.header_ok
        assert not report.clean
        assert "unreadable header" in report.summary()

    def test_cli_checkpoint_dir_exit_codes(self, tmp_path):
        from repro.cli import main

        self._journal(tmp_path)
        assert main(["cache", "verify", "--checkpoint-dir", str(tmp_path)]) == 0
        journal = tmp_path / "scenario.journal.jsonl"
        journal.write_bytes(journal.read_bytes()[:-40])
        assert main(["cache", "verify", "--checkpoint-dir", str(tmp_path)]) == 1

    def test_cli_requires_some_directory(self):
        from repro.cli import main

        assert main(["cache", "verify"]) == 2

    def test_cli_both_directories_combined(self, tmp_path):
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        ckpt_dir = tmp_path / "ckpt"
        unit = tiny_units(1)[0]
        result = run_scenario(*unit)
        store = ScenarioJournal.store(cache_dir)
        store.append(cache_key(*unit), result)
        store.close()
        journal = ScenarioJournal(
            ckpt_dir / "scenario.journal.jsonl", meta={"m": 1}
        )
        journal.append(cache_key(*unit), result)
        journal.close()
        args = ["cache", "verify", "--cache-dir", str(cache_dir),
                "--checkpoint-dir", str(ckpt_dir)]
        assert main(args) == 0
        # Rot in either store fails the combined scan.
        store.path.write_bytes(store.path.read_bytes()[:-40])
        assert main(args) == 1


# ----------------------------------------------------------------------
# Result codec: exact round trips, and refusals of forged records
# ----------------------------------------------------------------------
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

CODEC_FAULTS = {
    "stuck-sensor": FaultSpec(
        "stuck-sensor", stuck_vc=1, stuck_reading=0.31, vc=0, onset=50, duration=200
    ),
    "sensor-dropout": FaultSpec("sensor-dropout"),
    "down-up-drop": FaultSpec("down-up-drop", rate=0.5, seed=3),
    "down-up-delay": FaultSpec("down-up-delay", delay=4),
    "down-up-corrupt": FaultSpec("down-up-corrupt", rate=0.25),
    "up-down-drop": FaultSpec("up-down-drop", rate=1.0, command="gate"),
    "stuck-gated": FaultSpec("stuck-gated", rate=0.5, vc=1, extra_wake_cycles=3),
}
CODEC_CASES = ("default", *CODEC_FAULTS, "traced", "benchmark-mix", "regime")


def codec_unit(case, tmp_path):
    base = ScenarioConfig(
        num_nodes=4, num_vcs=2, injection_rate=0.1, sensor_sample_period=32, **FAST
    )
    if case in CODEC_FAULTS:
        return base.replace(faults=(CODEC_FAULTS[case],), validate_every=50), 0
    if case == "traced":
        return base.traced(str(tmp_path / "trace")), 0
    if case == "benchmark-mix":
        return base.replace(traffic=REAL_TRAFFIC), 1
    if case == "regime":
        return base.replace(regime="nbti-pbti"), 0
    return base, 0


class TestResultCodec:
    def test_cases_cover_every_fault_kind(self):
        assert set(CODEC_FAULTS) == set(FAULT_KINDS)

    @pytest.mark.parametrize("case", CODEC_CASES)
    def test_round_trip_is_exact(self, case, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        workloads = importlib.import_module("workloads")
        scenario, iteration = codec_unit(case, tmp_path)
        result = run_scenario(scenario, iteration)
        key = cache_key(scenario, iteration)
        store = ScenarioJournal.store(tmp_path / "store")
        store.append(key, result)
        store.close()

        reopened = ScenarioJournal.store(tmp_path / "store")
        decoded = reopened.get(key)
        reopened.close()
        assert decoded == result
        # Same types and dict order, hence the same bytes and digests.
        assert list(decoded.port_duty) == list(result.port_duty)
        assert encode_result(decoded) == encode_result(result)
        assert workloads.digest(decoded) == workloads.digest(result)


def _set(*path, value):
    def mutate(blob):
        *parents, last = path
        target = blob
        for name in parents:
            target = target[name]
        target[last] = value
        return blob

    return mutate


def _drop(*path):
    def mutate(blob):
        *parents, last = path
        target = blob
        for name in parents:
            target = target[name]
        del target[last]
        return blob

    return mutate


#: Ways a CRC-valid payload can still be wrong, each a blob -> blob edit
#: of a real result's JSON.
FORGERIES = {
    "missing-field": _drop("md_vc"),
    "extra-field": _set("__reduce__", value="os.system"),
    "str-for-int": _set("md_vc", value="0"),
    "bool-for-int": _set("iteration", value=True),
    "float-for-int": _set("violations", value=0.5),
    "str-for-dict": _set("port_duty", value="x"),
    "bad-pair": _set("port_duty", value=[[0, "east", [1.0]]]),
    "bad-key-type": _set("port_duty", 0, 0, value=["0", "east"]),
    "short-tuple-key": _set("port_duty", 0, 0, value=[0]),
    "nested-missing-field": _drop("net_stats", "cycles"),
    "invalid-config": _set("scenario", "cycles", value=0),
    "unknown-fault-kind": _set(
        "scenario", "faults",
        value=[dict(dataclasses.asdict(FaultSpec("sensor-dropout")), kind="melted")],
    ),
    "not-an-object": lambda blob: [blob],
    # Well-formed results filed under another unit's key.
    "another-policy": _set("scenario", "policy", value="sensor-wise"),
    "another-iteration": _set("iteration", value=1),
}


class TestForgedRecords:
    """A record that passes the CRC is still input from outside the
    program: a wrong shape is a torn record and a miss, never an error
    and never anything but the declared dataclasses."""

    def _forge(self, tmp_path, unit, payload):
        store = ScenarioJournal.store(tmp_path)
        store.close()
        with open(store.path, "a", encoding="utf-8") as fh:
            fh.write(payload_record(cache_key(*unit), payload) + "\n")
        return store.path

    @pytest.mark.parametrize("forgery", sorted(FORGERIES))
    def test_wrong_shape_is_a_counted_miss(self, forgery, tmp_path):
        unit = tiny_units(1)[0]
        result = run_scenario(*unit)
        blob = FORGERIES[forgery](json.loads(encode_result(result)))
        path = self._forge(tmp_path, unit, json.dumps(blob))

        store = ScenarioJournal.store(tmp_path)
        assert (store.replayed, store.torn) == (1, 0)  # the CRC holds
        assert store.get(cache_key(*unit)) is None
        assert (store.replayed, store.torn) == (0, 1)
        store.close()
        (torn,) = verify_journal(path).torn

        # An executor recomputes the unit, counts the record once, and
        # appends a good record that the next run is served from.
        (fresh,), stats = mapped([unit], cache=tmp_path)
        assert fingerprint(fresh) == fingerprint(result)
        assert (stats.cache_hits, stats.cache_corrupt) == (0, 1)
        again, stats = mapped([unit], cache=tmp_path)
        assert (stats.cache_hits, again) == (1, [fresh])

    def test_payload_that_is_not_json(self, tmp_path):
        unit = tiny_units(1)[0]
        path = self._forge(tmp_path, unit, "{not json")
        store = ScenarioJournal.store(tmp_path)
        assert store.get(cache_key(*unit)) is None
        assert store.torn == 1
        store.close()
        (torn,) = verify_journal(path).torn
        assert "not a ScenarioResult" in torn


# ----------------------------------------------------------------------
# Campaign drivers handed an executor and a checkpoint
# ----------------------------------------------------------------------
def _drive_campaign(executor, checkpoint, out):
    config = CampaignConfig(
        cycles=150, warmup=50, iterations=1, include_real_traffic=False
    )
    run_campaign(config, json_dir=out, executor=executor, checkpoint=checkpoint)


def _drive_fault_campaign(executor, checkpoint, out):
    config = FaultCampaignConfig(
        kinds=("sensor-dropout",), fault_rates=(0.0, 1.0),
        policies=("sensor-wise",), **FAST,
    )
    run_fault_campaign(config, executor=executor, checkpoint=checkpoint)


def _drive_sweep(executor, checkpoint, out):
    base = ScenarioConfig(num_nodes=4, num_vcs=2, **FAST)
    run_injection_sweep(
        [0.05, 0.1], base=base, executor=executor, checkpoint=checkpoint
    )


class TestDriversJournalThroughGivenExecutor:
    """A checkpoint handed to a driver beside an executor built without
    one is journaled through, and a resume is served from it."""

    @pytest.mark.parametrize(
        "drive", [_drive_campaign, _drive_fault_campaign, _drive_sweep]
    )
    def test_checkpoint_attached_and_resumed(self, drive, tmp_path):
        first = Executor(max_workers=1)
        checkpoint = CheckpointManager(tmp_path / "ckpt", meta={"m": 1})
        drive(first, checkpoint, tmp_path / "first")
        checkpoint.close()
        assert first.stats.units_total > 0
        assert len(checkpoint.journal) == checkpoint.journal.appended > 0

        resumed = Executor(max_workers=1)
        checkpoint = CheckpointManager(tmp_path / "ckpt", meta={"m": 1})
        drive(resumed, checkpoint, tmp_path / "resumed")
        checkpoint.close()
        assert resumed.stats.journal_hits == first.stats.units_total
        assert checkpoint.journal.appended == 0


# ----------------------------------------------------------------------
# One store type: the --cache-dir store and the checkpoint journal
# ----------------------------------------------------------------------
def _share_store(cache_dir, units, barrier):
    executor = Executor(max_workers=1, cache=cache_dir)
    # Both processes hold the store open before either appends.
    barrier.wait(timeout=60)
    executor.map(units)
    executor.close()


class TestResultStore:
    def test_hit_from_either_store_lands_in_the_other(self, tmp_path):
        units = tiny_units(3)
        mapped(units, cache=tmp_path / "cache")

        def checkpoint():
            return CheckpointManager(tmp_path / "ckpt", meta={"m": 1})

        manager = checkpoint()
        served, stats = mapped(units, cache=tmp_path / "cache", checkpoint=manager)
        manager.write_state("complete")
        manager.close()
        assert stats.cache_hits == 3
        state = json.loads((tmp_path / "ckpt" / "campaign.state.json").read_text())
        assert state["done"] == 3

        # A resume without the cache is served from the journal...
        manager = checkpoint()
        resumed, stats = mapped(units, checkpoint=manager)
        manager.close()
        assert (stats.journal_hits, resumed) == (3, served)
        # ...and journal hits fill an empty cache.
        manager = checkpoint()
        mapped(units, checkpoint=manager, cache=tmp_path / "fresh-cache")
        manager.close()
        cached, stats = mapped(units, cache=tmp_path / "fresh-cache")
        assert (stats.cache_hits, cached) == (3, served)

    def test_two_processes_share_one_store(self, tmp_path):
        units = tiny_units(4)
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        writers = [
            ctx.Process(target=_share_store, args=(tmp_path, units[i::2], barrier))
            for i in range(2)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=120)
            assert writer.exitcode == 0
        _, stats = mapped(units, cache=tmp_path)
        assert stats.cache_hits == len(units)
        assert stats.cache_corrupt == 0
        (store,) = tmp_path.glob("results-*.jsonl")
        assert verify_journal(store).clean

    def test_stale_pickle_entry_is_a_miss(self, tmp_path):
        unit = tiny_units(1)[0]
        (tmp_path / f"{cache_key(*unit)}.pkl").write_bytes(
            pickle.dumps(run_scenario(*unit))
        )
        _, stats = mapped([unit], cache=tmp_path)
        assert stats.cache_hits == 0
        assert stats.cache_corrupt == 0

    def test_v1_pickle_journal_refused_on_resume(self, tmp_path):
        meta = {"command": "campaign", "config": {}}
        unit = tiny_units(1)[0]
        blob = pickle.dumps(run_scenario(*unit))
        header = {
            "type": "header", "journal_schema": 1,
            "cache_schema": CACHE_SCHEMA_VERSION, "code_version": __version__,
            "config_digest": "0" * 64, "meta": meta,
        }
        record = {
            "type": "result", "key": cache_key(*unit),
            "crc": zlib.crc32(blob) & 0xFFFFFFFF,
            "payload": base64.b64encode(blob).decode("ascii"),
        }
        (tmp_path / ScenarioJournal.FILENAME).write_text(
            json.dumps(header) + "\n" + json.dumps(record) + "\n"
        )
        assert CheckpointManager.load_meta(tmp_path) == meta
        with pytest.raises(CheckpointError, match="journal schema 1 != 2"):
            CheckpointManager(tmp_path, meta=meta)

    def test_version_bump_opens_a_fresh_store(self, tmp_path, monkeypatch):
        from repro.experiments import checkpoint as checkpoint_module

        unit = tiny_units(1)[0]
        mapped([unit], cache=tmp_path)
        monkeypatch.setattr(checkpoint_module, "__version__", "0.0.0-next")
        bumped = ScenarioJournal.store(tmp_path)
        assert len(bumped) == 0
        bumped.close()
        assert len(list(tmp_path.glob("results-*.jsonl"))) == 2


# ----------------------------------------------------------------------
# Bounded tracebacks
# ----------------------------------------------------------------------
def _fake_traceback(frames):
    lines = ["Traceback (most recent call last):"]
    for n in range(frames):
        lines.append(f'  File "mod{n}.py", line {n}, in fn{n}')
        lines.append(f"    call_{n}()")
    lines.append("ValueError: boom")
    return "\n".join(lines) + "\n"


class TestBoundTraceback:
    def test_short_traceback_untouched(self):
        text = _fake_traceback(5)
        assert bound_traceback(text) == text

    def test_none_passthrough(self):
        assert bound_traceback(None) is None

    def test_deep_traceback_keeps_most_recent_frames(self):
        text = _fake_traceback(100)
        bounded = bound_traceback(text, max_frames=30)
        assert "70 frame(s) elided" in bounded
        assert bounded.startswith("Traceback (most recent call last):")
        assert bounded.rstrip().endswith("ValueError: boom")
        # The frames nearest the raise survive; the oldest do not.
        assert "mod99.py" in bounded
        assert "mod0.py" not in bounded

    def test_byte_budget_enforced(self):
        huge = "Traceback (most recent call last):\n" + (
            '  File "a.py", line 1, in f\n    ' + "x" * 4000 + "\n"
        ) * 10
        bounded = bound_traceback(huge, max_frames=30, max_bytes=8192)
        assert len(bounded.encode("utf-8")) <= 8192 + 64  # + marker slack
        assert "truncated" in bounded

    def test_failure_records_bounded_in_state_file(self, tmp_path):
        manager = CheckpointManager(tmp_path, meta={"command": "x", "config": {}})
        scenario, iteration = tiny_units(1)[0]
        failure = ScenarioFailure(
            scenario=scenario, iteration=iteration, error_type="ValueError",
            message="boom", attempts=1, timed_out=False, wall_seconds=0.1,
            traceback=_fake_traceback(500),
        )
        manager.write_state("interrupted", pending=0, failures=[failure])
        manager.close()
        state = json.loads((tmp_path / "campaign.state.json").read_text())
        (entry,) = state["failed"]
        assert len(entry["traceback"].encode("utf-8")) <= TRACEBACK_MAX_BYTES + 64
        assert "elided" in entry["traceback"]
