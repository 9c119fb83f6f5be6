"""Tests for the fault-injection layer (specs, channels, injector,
campaigns) and the determinism guarantees it advertises."""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import Executor
from repro.experiments.runner import build_network, run_scenario
from repro.faults import (
    FAULT_KINDS,
    FaultCampaignConfig,
    FaultInjector,
    FaultSpec,
    FaultyChannel,
    derive_seed,
    make_specs,
    run_fault_campaign,
)
from repro.nbti.model import NBTIModel
from repro.nbti.sensor import SensorBank
from repro.nbti.transistor import PMOSDevice


# ----------------------------------------------------------------------
# FaultSpec
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_known_kinds_construct(self):
        for kind in FAULT_KINDS:
            kwargs = {}
            if kind == "stuck-sensor":
                kwargs["stuck_vc"] = 0
            if kind == "down-up-delay":
                kwargs["delay"] = 2
            spec = FaultSpec(kind, **kwargs)
            assert spec.kind == kind

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "no-such-fault"},
            {"kind": "sensor-dropout", "router": -1},
            {"kind": "sensor-dropout", "onset": -5},
            {"kind": "sensor-dropout", "duration": 0},
            {"kind": "down-up-drop", "rate": 1.5},
            {"kind": "down-up-delay", "delay": 0},
            {"kind": "stuck-sensor"},  # needs stuck_vc or stuck_reading
            {"kind": "stuck-gated", "extra_wake_cycles": 0},
            {"kind": "up-down-drop", "command": "reboot"},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(**kwargs)

    def test_activity_window(self):
        spec = FaultSpec("sensor-dropout", onset=10, duration=5)
        assert not spec.active(9)
        assert spec.active(10)
        assert spec.active(14)
        assert not spec.active(15)
        forever = FaultSpec("sensor-dropout", onset=3)
        assert forever.active(10_000_000)

    def test_is_frozen_and_hashable(self):
        spec = FaultSpec("sensor-dropout")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.rate = 0.5
        assert hash(spec) == hash(FaultSpec("sensor-dropout"))


class TestDeriveSeed:
    def test_deterministic(self):
        spec = FaultSpec("down-up-drop", rate=0.5, seed=7)
        assert derive_seed(spec, 1) == derive_seed(spec, 1)

    def test_sensitive_to_all_inputs(self):
        spec = FaultSpec("down-up-drop", rate=0.5, seed=7)
        base = derive_seed(spec, 1)
        assert derive_seed(spec, 2) != base
        assert derive_seed(spec, 1, "other") != base
        assert derive_seed(dataclasses.replace(spec, seed=8), 1) != base


# ----------------------------------------------------------------------
# FaultyChannel
# ----------------------------------------------------------------------
class TestFaultyChannel:
    def test_inactive_is_transparent(self):
        ch = FaultyChannel("c", latency=1, onset=100, drop_probability=1.0)
        ch.send("a", 0)
        assert ch.pop_ready(1) == ["a"]
        assert ch.dropped == 0

    def test_drops_everything_at_rate_one(self):
        ch = FaultyChannel("c", latency=1, drop_probability=1.0)
        for cycle in range(5):
            ch.send(cycle, cycle)
        assert ch.pop_ready(10) == []
        assert ch.dropped == 5

    def test_drop_filter_restricts_drops(self):
        ch = FaultyChannel(
            "c", latency=1, drop_probability=1.0,
            drop_filter=lambda item: item[0] == "wake",
        )
        ch.send(("wake", 0), 0)
        ch.send(("gate", 1), 0)
        assert ch.pop_ready(1) == [("gate", 1)]
        assert ch.dropped == 1

    def test_extra_delay_shifts_arrival(self):
        ch = FaultyChannel("c", latency=1, extra_delay=3)
        ch.send("x", 0)
        assert ch.pop_ready(1) == []
        assert ch.pop_ready(4) == ["x"]
        assert ch.delayed == 1

    def test_noise_injects_at_most_one_item_per_cycle(self):
        ch = FaultyChannel(
            "c", latency=1, noise_probability=1.0, noise_values=[9], seed=3
        )
        got = ch.pop_ready(5)
        assert got == [9]
        # Second poll of the same cycle must not double-inject.
        assert ch.pop_ready(5) == []
        assert ch.corrupted == 1

    @pytest.mark.parametrize("probability", [0.3, 0.0003])
    def test_noise_is_drawn_ahead_in_per_cycle_order(self, probability):
        """Pre-drawn noise fires on the cycles, with the items, that one
        draw per active cycle gives, whether the channel is polled every
        cycle or only at its ``next_due`` cycles (rare noise crosses the
        draw-ahead horizon)."""
        values = [0, 1, 2, 3]

        def make():
            return FaultyChannel("c", latency=1, onset=20,
                                 noise_probability=probability,
                                 noise_values=values, seed=7)

        rng = random.Random(7)
        expected = [
            (cycle, rng.choice(values))
            for cycle in range(20, 20_000)
            if rng.random() < probability
        ]
        assert len(expected) > 2
        dense = make()
        got = [(c, item) for c in range(20_000) for item in dense.pop_ready(c)]
        assert got == expected
        sparse = make()
        got = []
        cycle = sparse.next_due(0)
        while cycle < 20_000:
            got += [(cycle, item) for item in sparse.pop_ready(cycle)]
            cycle = sparse.next_due(cycle + 1)
        assert got == expected
        assert sparse._rng.getstate() == dense._rng.getstate()

    def test_noise_requires_values(self):
        with pytest.raises(ValueError):
            FaultyChannel("c", noise_probability=0.5)

    def test_adopt_preserves_in_flight_items(self):
        from repro.noc.link import Channel

        old = Channel("c", latency=2)
        old.send("legacy", 0)
        ch = FaultyChannel("c", latency=2, drop_probability=1.0).adopt(old)
        assert ch.pop_ready(2) == ["legacy"]


# ----------------------------------------------------------------------
# SensorBank.sample_age
# ----------------------------------------------------------------------
class TestSampleAge:
    def test_age_tracks_actual_measurements(self):
        model = NBTIModel.calibrated()
        bank = SensorBank(
            [PMOSDevice(0.18, model), PMOSDevice(0.181, model)],
            sample_period=10,
        )
        assert bank.last_sample_cycle == -1
        assert bank.sample_age(4) == 5  # never sampled: counts from -1
        bank.sample(4)
        assert bank.last_sample_cycle == 4
        assert bank.sample_age(4) == 0
        bank.sample(9)  # period not elapsed -> no measurement
        assert bank.sample_age(9) == 5
        bank.sample(14)  # period elapsed -> fresh measurement
        assert bank.sample_age(14) == 0


# ----------------------------------------------------------------------
# FaultInjector wiring
# ----------------------------------------------------------------------
def _tiny_scenario(**overrides):
    defaults = dict(
        num_nodes=4, num_vcs=2, cycles=200, warmup=50,
        sensor_sample_period=32,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestFaultInjector:
    def test_unknown_router_rejected(self):
        net = build_network(_tiny_scenario())
        spec = FaultSpec("sensor-dropout", router=99)
        with pytest.raises(ValueError, match="router 99"):
            FaultInjector([spec]).apply(net)

    def test_unknown_port_rejected(self):
        net = build_network(_tiny_scenario())
        # Router 0 of a 2x2 mesh has no west neighbour.
        spec = FaultSpec("sensor-dropout", router=0, port="west")
        with pytest.raises(ValueError, match="no input port"):
            FaultInjector([spec]).apply(net)

    def test_duplicate_site_rejected(self):
        net = build_network(_tiny_scenario())
        specs = [
            FaultSpec("down-up-drop", rate=0.5),
            FaultSpec("down-up-delay", delay=2),
        ]
        with pytest.raises(ValueError, match="same site"):
            FaultInjector(specs).apply(net)

    def test_double_apply_rejected(self):
        injector = FaultInjector([FaultSpec("sensor-dropout")])
        injector.apply(build_network(_tiny_scenario()))
        with pytest.raises(RuntimeError):
            injector.apply(build_network(_tiny_scenario()))

    def test_distinct_wires_on_one_port_compose(self):
        net = build_network(_tiny_scenario())
        injector = FaultInjector([
            FaultSpec("sensor-dropout"),
            FaultSpec("down-up-drop", rate=0.5),
            FaultSpec("up-down-drop", rate=0.5),
        ])
        injector.apply(net)
        assert len(injector.bank_faults) == 1
        assert len(injector.down_up_channels) == 1
        assert len(injector.up_down_channels) == 1

    def test_counters_cover_every_hook(self):
        injector = FaultInjector([FaultSpec("sensor-dropout")])
        injector.apply(build_network(_tiny_scenario()))
        counters = injector.counters()
        assert set(counters) == {
            "sensor_samples_dropped", "sensor_stuck_reports",
            "down_up_dropped", "down_up_delayed", "down_up_corrupted",
            "up_down_dropped", "wakes_blocked", "wakes_delayed",
            "emergency_wakes",
        }


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def _fault_kwargs(kind):
    kwargs = dict(kind=kind, router=0, port="east", seed=5)
    if kind == "stuck-sensor":
        kwargs["stuck_vc"] = 1
    if kind == "down-up-delay":
        kwargs["delay"] = 3
    if kind in ("down-up-drop", "down-up-corrupt", "up-down-drop", "stuck-gated"):
        kwargs["rate"] = 0.5
    return kwargs


class TestFaultDeterminism:
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_identical_runs_identical_results(self, kind):
        scenario = _tiny_scenario(faults=(FaultSpec(**_fault_kwargs(kind)),))
        a = run_scenario(scenario)
        b = run_scenario(scenario)
        assert a.duty_cycles == b.duty_cycles
        assert a.net_stats.avg_packet_latency == b.net_stats.avg_packet_latency
        assert a.fault_counters == b.fault_counters
        assert a.violations == b.violations


# ----------------------------------------------------------------------
# Fault campaign
# ----------------------------------------------------------------------
class TestFaultCampaign:
    CONFIG = FaultCampaignConfig(
        num_nodes=4, num_vcs=2, cycles=150, warmup=50,
        sensor_sample_period=16, validate_every=25,
        kinds=("sensor-dropout", "down-up-drop"),
        fault_rates=(0.0, 1.0),
    )

    def test_make_specs_rate_zero_is_faultless(self):
        assert make_specs("sensor-dropout", 0.0, self.CONFIG) == ()

    def test_make_specs_window_kinds_scale_duration(self):
        (spec,) = make_specs("sensor-dropout", 0.5, self.CONFIG)
        assert spec.duration == (self.CONFIG.warmup + self.CONFIG.cycles) // 2
        (full,) = make_specs("sensor-dropout", 1.0, self.CONFIG)
        assert full.duration is None

    def test_report_json_identical_serial_vs_parallel(self):
        serial = run_fault_campaign(self.CONFIG)
        parallel = run_fault_campaign(
            self.CONFIG, executor=Executor(max_workers=2, timeout=300, retries=1)
        )
        assert serial.to_json() == parallel.to_json()

    def test_report_shape_and_baseline(self):
        report = run_fault_campaign(self.CONFIG)
        # 2 policies x (1 baseline + 2 kinds x 1 nonzero rate)
        assert len(report.rows) == 6
        for policy in self.CONFIG.policies:
            base = report.baseline(policy)
            assert base is not None and base.rate == 0.0
            assert base.violations == 0
        markdown = report.to_markdown()
        assert "sensor-dropout" in markdown and "| policy |" in markdown
