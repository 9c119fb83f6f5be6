"""Tests for the network validator and the campaign runner."""

from __future__ import annotations

import re

import pytest

from repro.experiments.campaign import CampaignConfig, run_campaign
from repro.faults.channels import FaultyChannel
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultSpec
from repro.noc.topology import LOCAL
from repro.noc.validation import validate_network
from tests.conftest import build_small_network


class TestValidator:
    def test_healthy_network_has_no_violations(self):
        net = build_small_network(policy="sensor-wise", flit_rate=0.25)
        net.run(600)
        assert validate_network(net) == []

    @pytest.mark.parametrize("policy", ["baseline", "rr-no-sensor", "static-reserve"])
    def test_all_policies_validate_clean(self, policy):
        net = build_small_network(policy=policy, flit_rate=0.2)
        net.run(400)
        assert validate_network(net) == []

    def test_run_with_validate_every(self):
        net = build_small_network(policy="sensor-wise", flit_rate=0.2)
        net.run(300, validate_every=50)  # must not raise

    def test_validate_every_rejects_negative(self):
        net = build_small_network(flit_rate=0.0)
        with pytest.raises(ValueError):
            net.run(10, validate_every=-1)

    def test_detects_injected_corruption(self):
        """Manually corrupt upstream credit state: the sweep flags it."""
        net = build_small_network(policy="baseline", flit_rate=0.1)
        net.run(200)
        entry = net.routers[0].outputs[0].upstream.entries[0]
        entry.credits = entry.max_credits + 3
        violations = validate_network(net)
        assert any("credits" in v for v in violations)

    def test_detects_power_disagreement(self):
        """Gate a buffer behind the upstream's back: flagged."""
        net = build_small_network(policy="baseline", flit_rate=0.0)
        net.run(100)
        net.routers[0].inputs[0].unit.vcs[0].buffer.gate()
        violations = validate_network(net)
        assert any("gated" in v for v in violations)

    def test_run_raises_on_violation(self):
        net = build_small_network(policy="baseline", flit_rate=0.0)
        net.run(10)
        net.routers[0].inputs[0].unit.vcs[0].buffer.gate()
        with pytest.raises(RuntimeError, match="invariant violations"):
            net.run(10, validate_every=1)

    def test_sweep_follows_swapped_up_down_channel(self):
        """A validated run after ``FaultInjector.apply`` sweeps the
        FaultyChannel now wired in, not the emptied channel it replaced."""
        net = build_small_network(policy="baseline", flit_rate=0.0, link_latency=32)
        assert net.run(64, validate_every=16, raise_on_violation=False) == 0
        FaultInjector([
            FaultSpec("up-down-drop", router=2, port="local", command="wake"),
        ]).apply(net)
        wiring = net.routers[2].inputs[LOCAL]
        line = wiring.control_channel
        assert isinstance(line, FaultyChannel)
        # The upstream gated VC0 and has woken it again; the wake is lost.
        wiring.unit.vcs[0].buffer.gate()
        line.send(("wake", 0), net.cycle)
        assert (line.dropped, line.in_flight) == (1, 0)
        expected = "router 2 local VC0: upstream gated=False but buffer is gated"
        with pytest.raises(RuntimeError, match=re.escape(expected)):
            net.run(16, validate_every=16)
        # A command still in flight on the line masks the disagreement.
        line.send(("gate", 1), net.cycle)
        assert line.in_flight == 1
        assert net.run(16, validate_every=16, raise_on_violation=False) == 0
        assert line.in_flight == 1
        # It lands after the next sweep; the one after sees VC0, and
        # VC1 now gated behind the upstream's back too.
        assert net.run(32, validate_every=16, raise_on_violation=False) == 2


class TestLatencyPercentiles:
    def test_percentiles_ordered(self):
        net = build_small_network(policy="sensor-wise", flit_rate=0.3)
        net.run(1500)
        stats = net.stats()
        assert (
            stats.p50_packet_latency
            <= stats.p95_packet_latency
            <= stats.p99_packet_latency
            <= stats.max_packet_latency
        )
        assert stats.p50_packet_latency > 0

    def test_empty_window_percentiles_zero(self):
        net = build_small_network(flit_rate=0.0)
        net.run(50)
        stats = net.stats()
        assert stats.p50_packet_latency == 0.0
        assert stats.p99_packet_latency == 0.0

    def test_str_mentions_p95(self):
        net = build_small_network(flit_rate=0.2)
        net.run(400)
        assert "p95" in str(net.stats())


class TestCampaign:
    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("campaign")
        config = CampaignConfig(cycles=1500, warmup=300, iterations=1)
        return run_campaign(
            config,
            report_path=out / "report.md",
            json_dir=out / "json",
        ), out

    def test_report_written(self, result):
        _, out = result
        text = (out / "report.md").read_text()
        assert "# Reproduction campaign report" in text
        assert "Table II" in text and "Table IV" in text
        assert "cooperation" in text.lower()

    def test_json_artifacts_written(self, result):
        _, out = result
        for name in ("table2.json", "table3.json", "table4.json", "vth_saving.json"):
            assert (out / "json" / name).exists()

    def test_json_round_trips(self, result):
        from repro.experiments.persistence import load_artifact
        from repro.experiments.tables import SyntheticTable

        campaign, out = result
        loaded = load_artifact(out / "json" / "table2.json", SyntheticTable)
        assert loaded.gaps() == pytest.approx(campaign.table2.gaps())

    def test_skip_real_traffic(self, tmp_path):
        config = CampaignConfig(cycles=1200, warmup=200, include_real_traffic=False)
        result = run_campaign(config)
        assert result.table4 is None
        assert "Table IV" not in result.to_markdown()

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            CampaignConfig(cycles=0)
        with pytest.raises(ValueError):
            CampaignConfig(iterations=0)

    def test_cli_campaign(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "r.md"
        assert main([
            "campaign", "--cycles", "1200", "--warmup", "200",
            "--iterations", "1", "--skip-real", "--out", str(out),
        ]) == 0
        assert out.exists()
        assert "report written" in capsys.readouterr().out
