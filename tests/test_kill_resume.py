"""Kill-mid-campaign integration tests: the resume bar is byte-identity.

Two interruption modes are exercised end to end:

* SIGKILL — no cleanup code runs at all; only the write-ahead journal's
  per-record fsync protects finished scenarios.  A resumed run must
  produce final JSON byte-identical to an uninterrupted run.
* SIGTERM — the graceful path: the campaign drains (in-flight scenarios
  finish and are journaled), writes ``campaign.state.json`` with status
  ``interrupted`` and exits with the distinct resumable code 75.

Plus an in-process campaign drain/resume asserting the persisted table
JSON is byte-identical.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.experiments.campaign import CampaignConfig, run_campaign
from repro.experiments.checkpoint import (
    EXIT_INTERRUPTED,
    CampaignInterrupted,
    CheckpointManager,
)
from repro.experiments.parallel import Executor

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: Small but not instant: ~10 cells of >= 0.1s each, so there is a wide
#: window to interrupt after some results are journaled but before the
#: campaign finishes.
FAULT_ARGS = [
    "fault-campaign",
    "--cycles", "1200", "--warmup", "200", "--sample-period", "32",
    "--kinds", "sensor-dropout,up-down-drop",
    "--fault-rates", "0.0,0.5,1.0",
]


def _spawn(args, extra=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args, *extra],
        env=env,
        cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )


def _run(args, extra=()):
    proc = _spawn(args, extra)
    _, stderr = proc.communicate(timeout=300)
    return proc.returncode, stderr.decode()


def _wait_for_journal_records(directory, minimum, deadline=120.0):
    """Block until the journal holds ``minimum`` result records."""
    journal = Path(directory) / "scenario.journal.jsonl"
    start = time.monotonic()
    while time.monotonic() - start < deadline:
        if journal.exists():
            lines = journal.read_bytes().count(b"\n")
            if lines >= minimum + 1:  # + header line
                return
        time.sleep(0.01)
    raise AssertionError(f"journal never reached {minimum} records")


class TestSigkillResume:
    def test_sigkill_then_resume_byte_identical(self, tmp_path):
        golden = tmp_path / "golden.json"
        code, stderr = _run(FAULT_ARGS, ["--json", str(golden)])
        assert code == 0, stderr

        ckpt = tmp_path / "ckpt"
        victim_json = tmp_path / "victim.json"
        proc = _spawn(
            FAULT_ARGS, ["--checkpoint-dir", str(ckpt), "--json", str(victim_json)]
        )
        try:
            _wait_for_journal_records(ckpt, minimum=2)
            proc.kill()  # SIGKILL: no handlers, no flush, no atexit
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == -signal.SIGKILL
        assert not victim_json.exists()

        resumed_json = tmp_path / "resumed.json"
        code, stderr = _run(
            ["fault-campaign", "--resume", str(ckpt), "--json", str(resumed_json)]
        )
        assert code == 0, stderr
        assert resumed_json.read_bytes() == golden.read_bytes()
        # Resume actually reused journaled work rather than starting over.
        assert "resumed from journal" in stderr

    def test_sigkill_torn_tail_tolerated(self, tmp_path):
        """A journal truncated mid-record still resumes byte-identically."""
        golden = tmp_path / "golden.json"
        code, stderr = _run(FAULT_ARGS, ["--json", str(golden)])
        assert code == 0, stderr

        ckpt = tmp_path / "ckpt"
        proc = _spawn(FAULT_ARGS, ["--checkpoint-dir", str(ckpt)])
        try:
            _wait_for_journal_records(ckpt, minimum=2)
            proc.kill()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()

        # Tear the tail record as a mid-append crash would.
        journal = ckpt / "scenario.journal.jsonl"
        raw = journal.read_bytes()
        journal.write_bytes(raw[: len(raw) - 37])

        resumed_json = tmp_path / "resumed.json"
        code, stderr = _run(
            ["fault-campaign", "--resume", str(ckpt), "--json", str(resumed_json)]
        )
        assert code == 0, stderr
        assert resumed_json.read_bytes() == golden.read_bytes()


class TestSigtermDrain:
    def test_sigterm_drains_and_resumes(self, tmp_path):
        golden = tmp_path / "golden.json"
        code, stderr = _run(FAULT_ARGS, ["--json", str(golden)])
        assert code == 0, stderr

        ckpt = tmp_path / "ckpt"
        proc = _spawn(FAULT_ARGS, ["--checkpoint-dir", str(ckpt)])
        try:
            _wait_for_journal_records(ckpt, minimum=1)
            proc.send_signal(signal.SIGTERM)
            _, stderr_bytes = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
        stderr = stderr_bytes.decode()
        assert proc.returncode == EXIT_INTERRUPTED, stderr
        assert "draining" in stderr
        assert "--resume" in stderr  # the hint names the flag

        state = json.loads((ckpt / "campaign.state.json").read_text())
        assert state["status"] == "interrupted"
        assert state["pending"] > 0
        assert state["done"] >= 1
        # Drain flushed the journal: every done unit is on disk.
        journal = (ckpt / "scenario.journal.jsonl").read_text().splitlines()
        assert len(journal) == state["done"] + 1  # + header

        resumed_json = tmp_path / "resumed.json"
        code, stderr = _run(
            ["fault-campaign", "--resume", str(ckpt), "--json", str(resumed_json)]
        )
        assert code == 0, stderr
        assert resumed_json.read_bytes() == golden.read_bytes()
        state = json.loads((ckpt / "campaign.state.json").read_text())
        assert state["status"] == "complete"
        assert state["pending"] == 0


class TestSigtermDrainWithoutJournal:
    """A drained run names the store that kept its finished scenarios —
    or says that none did — instead of promising a journal."""

    ARGS = ["table3", "--cycles", "20000", "--warmup", "100"]

    def _drain(self, extra):
        """SIGTERM the run after its first progress line; return the
        stderr that followed it."""
        proc = _spawn(self.ARGS, extra)
        lines = []
        progressed = threading.Event()

        def read():
            for raw in proc.stderr:
                lines.append(raw.decode())
                # The first progress line comes from inside the drain
                # handlers' scope: a finished scenario.
                if b"[1/18]" in raw:
                    progressed.set()
            progressed.set()  # end of stream: the run is over

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        try:
            assert progressed.wait(timeout=120), "no progress line in 120s"
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=120)
            reader.join(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        stderr = "".join(lines)
        first = next(
            (i for i, line in enumerate(lines) if "[1/18]" in line), None
        )
        assert first is not None, stderr
        assert proc.returncode == EXIT_INTERRUPTED, stderr
        return "".join(lines[first + 1:])

    def test_no_store_says_so(self):
        stderr = self._drain(["--jobs", "2"])
        assert "draining" in stderr
        assert "no journal or result store" in stderr
        assert "journal flushed" not in stderr
        assert "None" not in stderr

    def test_serial_run_drains(self):
        stderr = self._drain([])
        assert "draining" in stderr
        assert "no journal or result store" in stderr

    def test_cache_dir_is_named(self, tmp_path):
        cache = tmp_path / "cache"
        stderr = self._drain(["--jobs", "2", "--cache-dir", str(cache)])
        assert f"result store {cache}" in stderr
        assert "journal" not in stderr
        assert "None" not in stderr


class TestInProcessCampaignResume:
    def test_campaign_drain_then_resume_tables_byte_identical(self, tmp_path):
        config = CampaignConfig(
            cycles=150, warmup=50, iterations=1, seed=1,
            include_real_traffic=False,
        )
        golden_dir = tmp_path / "golden"
        run_campaign(config, json_dir=golden_dir)

        ckpt_dir = tmp_path / "ckpt"
        interrupted_dir = tmp_path / "interrupted"
        checkpoint = CheckpointManager(ckpt_dir, meta={"m": 1})
        executor = Executor(max_workers=1, checkpoint=checkpoint)
        completions = {"n": 0}

        def drain_after_five(line):
            completions["n"] += 1
            if completions["n"] >= 5:
                executor.request_drain()

        executor.progress = drain_after_five
        with pytest.raises(CampaignInterrupted):
            with executor:
                run_campaign(config, json_dir=interrupted_dir, executor=executor)
        state = json.loads((ckpt_dir / "campaign.state.json").read_text())
        assert state["status"] == "interrupted"
        done_at_interrupt = state["done"]
        assert done_at_interrupt >= 1

        resumed_dir = tmp_path / "resumed"
        checkpoint = CheckpointManager(ckpt_dir, meta={"m": 1})
        with Executor(max_workers=1, checkpoint=checkpoint) as executor:
            result = run_campaign(config, json_dir=resumed_dir, executor=executor)
        assert result.table3 is not None

        golden_files = sorted(p.name for p in golden_dir.iterdir())
        assert golden_files == sorted(p.name for p in resumed_dir.iterdir())
        for name in golden_files:
            assert (resumed_dir / name).read_bytes() == (
                golden_dir / name
            ).read_bytes(), name

        state = json.loads((ckpt_dir / "campaign.state.json").read_text())
        assert state["status"] == "complete"
        # The resumed run re-used (not re-ran) the journaled scenarios.
        assert state["journal"]["replayed"] == done_at_interrupt
