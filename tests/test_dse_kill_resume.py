"""Kill-mid-search integration tests for ``repro-noc dse search``.

Mirrors ``tests/test_kill_resume.py``: the DSE engine's per-generation
``ga.state.json`` plus the executor's write-ahead scenario journal must
make an interrupted search resumable with byte-identical final output.

* SIGTERM — graceful drain: in-flight evaluations finish and are
  journaled, ``campaign.state.json`` and ``ga.state.json`` both record
  ``interrupted``, the process exits 75, and ``--resume`` completes the
  search byte-identically.
* In-process drain — deterministic variant driving
  ``Executor.request_drain`` directly, plus SIGKILL-style state checks.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.dse.ga import DSEEngine, GAConfig
from repro.dse.objectives import resolve_objectives
from repro.dse.report import DSEResult
from repro.dse.space import DesignSpace, Parameter
from repro.experiments.checkpoint import (
    EXIT_INTERRUPTED,
    CampaignInterrupted,
    CheckpointManager,
)
from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import Executor

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: ~24 evaluations of >= 0.05s each: a wide window to interrupt after
#: some results are journaled but before the search finishes.
SEARCH_ARGS = [
    "dse", "search",
    "--nodes", "2", "--cycles", "2500", "--warmup", "300",
    "--population", "6", "--generations", "4",
    "--seed", "13",
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
    journal = Path(directory) / "scenario.journal.jsonl"
    start = time.monotonic()
    while time.monotonic() - start < deadline:
        if journal.exists():
            lines = journal.read_bytes().count(b"\n")
            if lines >= minimum + 1:  # + header line
                return
        time.sleep(0.01)
    raise AssertionError(f"journal never reached {minimum} records")


class TestSigtermDrain:
    def test_sigterm_drains_and_resumes_byte_identical(self, tmp_path):
        golden = tmp_path / "golden.json"
        code, stderr = _run(SEARCH_ARGS, ["--out", str(golden)])
        assert code == 0, stderr

        ckpt = tmp_path / "ckpt"
        victim = tmp_path / "victim.json"
        proc = _spawn(
            SEARCH_ARGS,
            ["--checkpoint-dir", str(ckpt), "--out", str(victim)],
        )
        interrupted = True
        try:
            _wait_for_journal_records(ckpt, minimum=2)
            proc.send_signal(signal.SIGTERM)
            _, stderr_bytes = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
        stderr = stderr_bytes.decode()
        if proc.returncode == 0:
            # The search outran the signal; nothing to resume.
            interrupted = False
        else:
            assert proc.returncode == EXIT_INTERRUPTED, stderr
            assert "--resume" in stderr
            assert not victim.exists()
            state = json.loads((ckpt / "campaign.state.json").read_text())
            assert state["status"] == "interrupted"
            ga_state = json.loads((ckpt / "ga.state.json").read_text())
            assert ga_state["status"] in ("interrupted", "running")

        resumed = tmp_path / "resumed.json"
        code, stderr = _run(
            ["dse", "search", "--resume", str(ckpt), "--out", str(resumed)]
        )
        assert code == 0, stderr
        assert resumed.read_bytes() == golden.read_bytes()
        if interrupted:
            # Resume reused journaled evaluations rather than starting over.
            assert "resumed from journal" in stderr
        state = json.loads((ckpt / "campaign.state.json").read_text())
        assert state["status"] == "complete"
        ga_state = json.loads((ckpt / "ga.state.json").read_text())
        assert ga_state["status"] == "complete"


class TestInProcessDrainResume:
    def space(self):
        base = ScenarioConfig(num_nodes=2, cycles=300, warmup=100)
        return DesignSpace(
            parameters=(
                Parameter.categorical("policy", ("rr-no-sensor", "sensor-wise")),
                Parameter("rotation_period", (16, 64, 256)),
                Parameter("wake_latency", (1, 2)),
                Parameter("buffer_depth", (2, 4)),
            ),
            base=base,
        )

    def config(self):
        return GAConfig(population=4, generations=3, seed=3)

    def run_to_completion(self, checkpoint=None, executor=None):
        engine = DSEEngine(
            self.space(), resolve_objectives(["md_duty", "p95_latency"]),
            self.config(), executor=executor, checkpoint=checkpoint,
        )
        engine.run(resume=checkpoint is not None)
        return DSEResult.from_archive(
            engine.space, engine.objectives, engine.archive,
            counters=engine.counters,
        )

    def test_drain_mid_generation_then_resume_byte_identical(self, tmp_path):
        golden = self.run_to_completion().to_json()

        ckpt_dir = tmp_path / "ckpt"
        checkpoint = CheckpointManager(ckpt_dir, meta={"m": 1})
        executor = Executor(max_workers=1, checkpoint=checkpoint)
        completions = {"n": 0}

        def drain_mid_generation(line):
            completions["n"] += 1
            # 4 units in generation 0, 2 fresh in generation 1: draining
            # at the 7th completion tears generation 2 with exactly one
            # of its units already journaled.
            if completions["n"] >= 7:
                executor.request_drain()

        executor.progress = drain_mid_generation
        engine = DSEEngine(
            self.space(), resolve_objectives(["md_duty", "p95_latency"]),
            self.config(), executor=executor, checkpoint=checkpoint,
        )
        with pytest.raises(CampaignInterrupted):
            engine.run()
        checkpoint.close()

        # The drain hit mid-generation-1: ga.state.json still points at
        # the generation being evaluated, and the journal holds the
        # completed units of the torn generation.
        ga_state = json.loads((ckpt_dir / "ga.state.json").read_text())
        assert ga_state["status"] == "interrupted"
        done_before = len(
            (ckpt_dir / "scenario.journal.jsonl").read_text().splitlines()
        ) - 1
        assert done_before >= 6

        checkpoint = CheckpointManager(ckpt_dir, meta={"m": 1})
        executor = Executor(max_workers=1, checkpoint=checkpoint)
        resumed = self.run_to_completion(checkpoint=checkpoint, executor=executor)
        checkpoint.close()
        assert resumed.to_json() == golden
        # Journaled units of the interrupted generation were replayed,
        # not re-simulated.
        assert executor.stats.journal_hits >= 1
