"""Tests for the repro-noc command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_parse(self):
        parser = build_parser()
        for argv in (
            ["setup"],
            ["table2", "--cycles", "100"],
            ["table3"],
            ["table3", "--jobs", "4", "--cache-dir", "cache"],
            ["table4", "--iterations", "2"],
            ["campaign", "--jobs", "0"],
            ["sweep", "--jobs", "2"],
            ["area", "--vcs", "2"],
            ["vth", "--rate", "0.2"],
            ["cooperation"],
            ["simulate", "--policy", "baseline"],
        ):
            assert parser.parse_args(argv).command == argv[0]


class TestCommands:
    def test_setup(self, capsys):
        assert main(["setup"]) == 0
        assert "TABLE I" in capsys.readouterr().out

    def test_area(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "3.25%" in out
        assert "< 4%" in out

    def test_area_custom_geometry(self, capsys):
        assert main(["area", "--vcs", "2", "--ports", "5"]) == 0
        assert "10 x" in capsys.readouterr().out  # 5 ports x 2 VCs sensors

    def test_simulate(self, capsys):
        assert main([
            "simulate", "--cycles", "1500", "--warmup", "300",
            "--policy", "sensor-wise",
        ]) == 0
        out = capsys.readouterr().out
        assert "duty cycles" in out
        assert "MD VC" in out

    def test_vth(self, capsys):
        assert main(["vth", "--cycles", "1500", "--warmup", "300", "--vcs", "2"]) == 0
        assert "Saving vs baseline" in capsys.readouterr().out

    def test_cooperation(self, capsys):
        assert main(["cooperation", "--cycles", "1500", "--warmup", "300"]) == 0
        assert "Cooperation gain" in capsys.readouterr().out

    def test_table3_small(self, capsys):
        # Keep it tiny: the full table is exercised by the benchmarks.
        assert main(["table3", "--cycles", "1200", "--warmup", "200"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "4core-inj0.10" in out
        assert "16core-inj0.30" in out

    def test_table3_jobs_matches_serial(self, capsys, tmp_path):
        args = ["table3", "--cycles", "800", "--warmup", "200"]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        cache = str(tmp_path / "cache")
        assert main(args + ["--jobs", "2", "--cache-dir", cache]) == 0
        captured = capsys.readouterr()
        assert captured.out == serial_out
        assert "scenarios" in captured.err  # executor summary on stderr
        # Cached rerun: identical table again, all hits.
        assert main(args + ["--jobs", "2", "--cache-dir", cache]) == 0
        captured = capsys.readouterr()
        assert captured.out == serial_out
        assert "(18 cached)" in captured.err


class TestGovernanceFlags:
    def _args(self, argv):
        return build_parser().parse_args(argv)

    def test_budget_and_poison_flags_parse_on_campaign_commands(self):
        parser = build_parser()
        for command in ("table3", "campaign", "sweep", "fault-campaign"):
            args = parser.parse_args([
                command, "--budget-cpu", "2", "--budget-wall", "30",
                "--budget-rss", "512", "--budget-scale", "1.5",
                "--poison-threshold", "2",
            ])
            assert args.budget_cpu == 2.0
            assert args.poison_threshold == 2

    def test_no_budget_flags_means_no_governor(self):
        from repro.cli import _make_governor

        assert _make_governor(self._args(["campaign"])) is None

    def test_budget_flag_enables_adaptive_governance(self):
        from repro.cli import _make_governor

        spec = _make_governor(self._args(["campaign", "--budget"]))
        assert spec is not None
        assert spec.adaptive
        assert spec.cpu_seconds is None
        assert spec.scale == 1.0

    def test_explicit_budget_flags_imply_budget(self):
        from repro.cli import _make_governor

        spec = _make_governor(self._args([
            "campaign", "--budget-cpu", "2.5", "--budget-rss", "64",
            "--budget-scale", "2.0",
        ]))
        assert spec.cpu_seconds == 2.5
        assert spec.rss_bytes == 64 * 1024 * 1024
        assert spec.scale == 2.0
        assert spec.wall_seconds is None

    def test_poison_threshold_reaches_distributed_spec(self):
        from repro.cli import _make_distributed

        spec = _make_distributed(self._args([
            "fault-campaign", "--port", "0", "--poison-threshold", "5",
        ]))
        assert spec is not None
        assert spec.poison_threshold == 5
        assert spec.port == 0

    def test_port_with_budget_or_timeout_is_a_usage_error(self, tmp_path):
        from repro.cli import _executing

        # Remote workers enforce none of these: refused up front, not
        # silently dropped.
        for extra in (
            ["--budget-cpu", "2", "--timeout", "60"],
            ["--budget"],
            ["--timeout", "60"],
            ["--retries", "1"],
        ):
            args = self._args(["fault-campaign", "--port", "0", *extra])
            with pytest.raises(SystemExit) as info:
                with _executing(args, None):
                    pass
            assert info.value.code == 2
        # Without --port the same flags build a governed local executor.
        args = self._args(["fault-campaign", "--budget-cpu", "2", "--timeout", "60"])
        with _executing(args, None) as executor:
            assert executor.governor is not None and executor.timeout == 60.0

    def test_no_port_means_local_execution(self):
        from repro.cli import _make_distributed

        assert _make_distributed(self._args(["fault-campaign"])) is None
        # Workers attach with 'repro-noc worker --connect'; the campaign
        # spawns none itself.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--workers", "2"])
