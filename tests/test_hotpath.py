"""Hot-path engine tests: interval NBTI accounting, engine selection
between the SoA engine and the dense stepping oracle, the unified
most-degraded tie-break, and the engine-agnostic ``validate_every``
code path.

The load-bearing property throughout is **byte-identity**: the interval
accounting and the SoA engine's skipped cycles must produce exactly the
results of the per-cycle stepping loop, not merely statistically
similar ones.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.nbti.model import NBTIModel
from repro.nbti.process_variation import ProcessVariationModel
from repro.nbti.transistor import PMOSDevice
from repro.noc.buffer import PowerState, VCBuffer
from repro.noc.network import Network
from repro.traffic.synthetic import SyntheticTraffic

from tests.conftest import build_small_network, per_cycle_reference


def make_tracked_buffer() -> VCBuffer:
    return VCBuffer(4, device=PMOSDevice(0.18, NBTIModel.calibrated()))


def harvest(net: Network):
    """Everything a scenario run reads back, as one comparable value."""
    duty = {
        (r.router_id, port): net.duty_cycles(r.router_id, port)
        for r in net.routers
        for port in r.input_ports
    }
    counters = {
        key: device.counter.snapshot() for key, device in net.devices.items()
    }
    return net.cycle, duty, counters, net.stats().__dict__


def run_pair(policy: str, flit_rate: float, cycles: int, warmup: int = 0,
             **kwargs):
    """Run identical networks on the auto engine and the stepped oracle."""
    nets = []
    for engine in (None, "stepped"):
        net = build_small_network(policy=policy, flit_rate=flit_rate, **kwargs)
        net.force_engine = engine
        if warmup:
            net.run(warmup)
            net.reset_nbti()
            net.reset_stats()
        net.run(cycles)
        nets.append(net)
    return nets


class TestIntervalAccounting:
    """VCBuffer interval mode vs the per-cycle reference mode."""

    def test_interval_matches_per_cycle_reference(self):
        """Drive two buffers through one transition script: interval
        accounting must book exactly what per-cycle ticking books."""
        script = {2: "gate", 5: "wake", 7: "gate", 8: "wake0", 9: "gate"}
        interval = make_tracked_buffer()
        reference = make_tracked_buffer()
        for cycle in range(12):
            op = script.get(cycle)
            if op == "gate":
                interval.gate(cycle=cycle)
                reference.gate()
            elif op == "wake":
                interval.wake(2, cycle=cycle)
                reference.wake(2)
            elif op == "wake0":
                interval.wake(0, cycle=cycle)
                reference.wake(0)
            interval.tick_power()
            reference.tick_power()
            reference.device.tick(stressed=reference.powered)
        interval.nbti_flush(12)
        assert interval.device.counter.snapshot() == \
            reference.device.counter.snapshot()

    def test_wake_zero_latency_books_recovery_interval(self):
        buf = make_tracked_buffer()
        buf.gate(cycle=0)
        buf.wake(0, cycle=5)
        assert buf.state is PowerState.ON
        buf.nbti_flush(10)
        # Cycles 0-4 gated, 5-9 on.
        assert buf.device.counter.snapshot() == (5, 5)

    def test_rewake_while_waking_does_not_reflush(self):
        buf = make_tracked_buffer()
        buf.gate(cycle=0)
        buf.wake(3, cycle=4)       # books 4 recovery cycles
        buf.wake(1, cycle=6)       # ignored: no countdown reset, no flush
        assert buf.state is PowerState.WAKING
        for _ in range(3):
            buf.tick_power()
        assert buf.state is PowerState.ON
        buf.nbti_flush(10)
        # Cycles 0-3 gated, 4-9 powered (WAKING counts as stress).
        assert buf.device.counter.snapshot() == (6, 4)

    def test_gate_wake_gate_on_consecutive_cycles(self):
        buf = make_tracked_buffer()
        buf.gate(cycle=1)          # books cycle 0 as stress
        buf.wake(1, cycle=2)       # books cycle 1 as recovery
        buf.gate(cycle=3)          # books cycle 2 (WAKING) as stress
        assert buf.state is PowerState.GATED
        buf.nbti_flush(5)          # books cycles 3-4 as recovery
        assert buf.device.counter.snapshot() == (2, 3)

    def test_emergency_wake_books_recovery_before_flip(self):
        from tests.test_noc_buffer import make_flit

        buf = make_tracked_buffer()
        buf.on_push_unpowered = lambda b, f: True
        buf.gate(cycle=2)          # cycles 0-1 stress
        buf.push(make_flit(), cycle=7)   # cycles 2-6 recovery, then ON
        assert buf.state is PowerState.ON
        buf.nbti_flush(9)          # cycles 7-8 stress
        assert buf.device.counter.snapshot() == (4, 5)

    def test_flush_is_idempotent_and_monotonic(self):
        buf = make_tracked_buffer()
        buf.nbti_flush(5)
        buf.nbti_flush(5)
        buf.nbti_flush(3)          # past cycle: no-op, never negative
        assert buf.device.counter.snapshot() == (5, 0)

    def test_rebase_discards_unbooked_interval(self):
        buf = make_tracked_buffer()
        buf.nbti_flush(4)
        buf.device.counter.reset()
        buf.nbti_rebase(10)
        buf.nbti_flush(15)
        assert buf.device.counter.snapshot() == (5, 0)


def count_steps(net: Network) -> list:
    """Instrument ``net.step``; the returned one-item list counts calls."""
    calls = [0]
    original = net.step

    def counting_step():
        calls[0] += 1
        original()

    net.step = counting_step
    return calls


class TestFastForwardEquivalence:
    """Network.run on the auto-selected SoA engine, which skips idle
    cycles, vs the dense stepping loop."""

    @pytest.mark.parametrize("policy", [
        "sensor-wise", "rr-no-sensor", "rr-no-sensor-no-traffic",
        "baseline", "static-reserve",
    ])
    def test_low_rate_runs_identical(self, policy):
        fast, slow = run_pair(policy, flit_rate=0.02, cycles=3000)
        assert harvest(fast) == harvest(slow)

    def test_identical_after_warmup_and_reset(self):
        fast, slow = run_pair("sensor-wise", flit_rate=0.02,
                              cycles=2000, warmup=500)
        assert harvest(fast) == harvest(slow)

    def test_identical_with_null_traffic(self):
        fast, slow = run_pair("sensor-wise", flit_rate=0.0, cycles=2000)
        assert harvest(fast) == harvest(slow)

    def test_identical_at_moderate_rate(self):
        """Few quiescent windows, but any that occur must still be exact."""
        fast, slow = run_pair("sensor-wise", flit_rate=0.2, cycles=1500)
        assert harvest(fast) == harvest(slow)

    def test_fast_forward_actually_skips_cycles(self):
        """An eligible run never falls back to dense stepping."""
        net = build_small_network(policy="sensor-wise", flit_rate=0.01)
        steps = count_steps(net)
        net.run(4000)
        assert net.cycle == 4000
        assert steps[0] == 0, "an eligible run stepped densely"

    def test_traffic_rng_position_matches_stepping(self):
        """After an SoA run the traffic RNG must sit exactly where
        per-cycle stepping would have left it."""
        fast, slow = run_pair("sensor-wise", flit_rate=0.01, cycles=3000)
        assert fast.traffic._rng.bit_generator.state == \
            slow.traffic._rng.bit_generator.state

    @pytest.mark.parametrize("policy,rate", [
        ("sensor-wise", 0.02), ("rr-no-sensor", 0.02),
        ("sensor-wise", 0.2),
    ])
    def test_per_cycle_reference_engine_identical(self, policy, rate):
        """The per-cycle reference (one tick per device per cycle,
        dense loop) must reproduce the interval engine bit for bit."""
        fast = build_small_network(policy=policy, flit_rate=rate)
        reference = per_cycle_reference(
            build_small_network(policy=policy, flit_rate=rate)
        )
        for net in (fast, reference):
            net.run(400)
            net.reset_nbti()
            net.reset_stats()
            net.run(2000)
        assert harvest(fast) == harvest(reference)

    def test_cycle_free_policy_needs_no_epoch_pin(self):
        """Sensor-wise declares a cycle-free healthy decision, so the SoA
        engine schedules no epoch re-runs for it (jumps may cross
        rotation boundaries of the — never engaged — degraded fallback),
        and eligibility does not even need a declared period."""
        from repro.noc.soa import SoAEngine

        net = build_small_network(policy="sensor-wise", flit_rate=0.01)
        assert SoAEngine(net)._periods == []
        for port in net.upstream_ports():
            for engine in port.engines:
                engine.policy.epoch_period = None
        assert net._soa_eligible()


class TestFastForwardGates:
    """SoA eligibility: conditions that must force the dense stepping
    loop, and ones that must not."""

    def test_telemetry_keeps_soa_eligible(self):
        from repro.telemetry.config import TelemetryConfig
        from repro.telemetry.runtime import Telemetry

        net = build_small_network()
        assert net._soa_eligible()
        Telemetry(TelemetryConfig()).attach(net)
        assert net._soa_eligible()

    def test_traced_scenario_never_steps(self, monkeypatch):
        """A traced default-config scenario runs entirely on SoA."""
        from repro.experiments.config import ScenarioConfig
        from repro.experiments.runner import run_scenario

        calls = [0]
        original = Network.step

        def counting_step(net):
            calls[0] += 1
            original(net)

        monkeypatch.setattr(Network, "step", counting_step)
        scenario = ScenarioConfig(
            num_nodes=4, cycles=600, warmup=150, seed=1
        ).traced(trace_dir=None, formats=())
        assert run_scenario(scenario).telemetry.total_events > 0
        assert calls[0] == 0

    def test_traced_cycle_free_policy_is_epoch_pinned(self):
        """A traced sensor-wise policy emits events from ``decide``, so
        unlike the untraced case (no pin, see
        ``test_cycle_free_policy_needs_no_epoch_pin``) the SoA engine
        re-runs it at every fallback-rotation boundary."""
        from repro.noc.soa import SoAEngine
        from repro.telemetry.config import TelemetryConfig
        from repro.telemetry.runtime import Telemetry

        net = build_small_network(policy="sensor-wise", flit_rate=0.01)
        Telemetry(TelemetryConfig()).attach(net)
        assert SoAEngine(net)._periods == [64]
        # Without a declared period there is nothing to pin the traced
        # re-decisions to, so the run must step densely.
        for port in net.upstream_ports():
            for engine in port.engines:
                engine.policy.epoch_period = None
        assert not net._soa_eligible()

    def test_fault_injection_keeps_soa_eligible(self, monkeypatch):
        """Fault hooks declare the cycles they act on, so a faulted
        network runs on SoA without a single dense step."""
        from repro.faults import FaultInjector, FaultSpec

        calls = [0]
        original = Network.step

        def counting_step(net):
            calls[0] += 1
            original(net)

        monkeypatch.setattr(Network, "step", counting_step)
        net = build_small_network(sensor_sample_period=64)
        spec = FaultSpec("sensor-dropout", router=0, port="east",
                         onset=100, duration=300)
        injector = FaultInjector([spec], master_seed=3).apply(net)
        assert net._soa_eligible()
        net.run(600)
        assert calls[0] == 0
        # Samples due at 128, 192, ... are dropped until the window
        # closes at 400: one drop per cycle, booked in bulk.
        assert injector.counters()["sensor_samples_dropped"] == 400 - 128

    def test_opaque_traffic_stays_eligible(self):
        """A generator without ``next_injection_cycle`` is simply
        consulted every cycle by the SoA engine."""
        net = build_small_network()

        class Opaque:
            def inject(self, cycle):
                return []

        net.traffic = Opaque()
        assert net._soa_eligible()
        net.run(100)
        assert net.cycle == 100

    def test_undeclared_time_varying_epoch_disables_plan(self):
        net = build_small_network(policy="rr-no-sensor")
        policy = net.upstream_ports()[0].engines[0].policy
        policy.epoch_period = None  # varying epoch, period withdrawn
        assert not net._soa_eligible()

    def test_plan_collects_declared_epoch_periods(self):
        """The SoA engine re-runs policies at their declared epoch
        boundaries."""
        from repro.noc.soa import SoAEngine

        net = build_small_network(policy="rr-no-sensor")
        assert net._soa_eligible()
        assert SoAEngine(net)._periods == [64]


class TestTrafficScout:
    """SyntheticTraffic.next_injection_cycle / advance contracts."""

    def test_scout_does_not_consume_the_stream(self):
        a = SyntheticTraffic("uniform", 4, flit_rate=0.05, seed=3)
        b = SyntheticTraffic("uniform", 4, flit_rate=0.05, seed=3)
        a.next_injection_cycle(0)
        for cycle in range(300):
            assert a.inject(cycle) == b.inject(cycle)

    def test_scout_lower_bound_holds(self):
        """Scouting is non-consuming, so the same generator can be
        scouted and then stepped: no injection before the bound, one at
        the bound (uniform pattern never maps a node onto itself)."""
        gen = SyntheticTraffic("uniform", 4, flit_rate=0.02, seed=9)
        cycle = 0
        for _ in range(20):
            target = gen.next_injection_cycle(cycle)
            assert target >= cycle
            for c in range(cycle, target):
                assert gen.inject(c) == []
            assert gen.inject(target), "scout overshot the first injection"
            cycle = target + 1

    def test_advance_matches_sequential_draws(self):
        """Over an injection-free window (advance's contract), bulk
        consumption leaves the stream exactly where inject() would."""
        a = SyntheticTraffic("uniform", 4, flit_rate=0.02, seed=5)
        b = SyntheticTraffic("uniform", 4, flit_rate=0.02, seed=5)
        gap = a.next_injection_cycle(0)
        assert gap > 0
        for cycle in range(gap):
            assert a.inject(cycle) == []
        b.advance(gap)
        assert a._rng.bit_generator.state == b._rng.bit_generator.state

    @pytest.mark.parametrize("nodes", [4, 64])
    @pytest.mark.parametrize("rate", [0.002, 0.05, 0.3])
    def test_mixed_scout_inject_advance_match_stepping(self, nodes, rate):
        """Scouts (repeated, with small and large horizons), whole and
        partial advances over the scouted gap, and injects inside or at
        the end of it, mixed at random over 2000+ cycles: every inject
        returns what per-cycle stepping returns, and the RNG state
        matches stepping's after every operation — starting from a
        state whose buffered 32-bit half (``has_uint32``) is set."""
        mixed = SyntheticTraffic("uniform", nodes, flit_rate=rate, seed=21)
        ref = SyntheticTraffic("uniform", nodes, flit_rate=rate, seed=21)
        for gen in (mixed, ref):
            gen._rng.integers(nodes - 1)
        assert ref._rng.bit_generator.state["has_uint32"] == 1
        ops = random.Random(nodes * 7 + int(rate * 1000))
        cycle = 0
        while cycle < 2400:
            horizon = ops.choice([3, 1 << 14])
            target = mixed.next_injection_cycle(cycle, horizon=horizon)
            assert mixed.next_injection_cycle(cycle) == target
            while cycle < target:
                if ops.random() < 0.5:
                    step = ops.randint(1, target - cycle)
                    mixed.advance(step)
                    for c in range(cycle, cycle + step):
                        assert ref.inject(c) == []
                    cycle += step
                else:
                    assert mixed.inject(cycle) == ref.inject(cycle) == []
                    cycle += 1
                assert mixed._rng.bit_generator.state == \
                    ref._rng.bit_generator.state
            for _ in range(ops.randint(1, 3)):
                assert mixed.inject(cycle) == ref.inject(cycle)
                cycle += 1
                assert mixed._rng.bit_generator.state == \
                    ref._rng.bit_generator.state

    def test_zero_rate_scouts_to_infinity(self):
        gen = SyntheticTraffic("uniform", 4, flit_rate=0.0, seed=1)
        assert gen.next_injection_cycle(123) == math.inf

    def test_base_generator_reports_unsupported(self):
        from repro.traffic.base import TrafficGenerator

        class Plain(TrafficGenerator):
            def inject(self, cycle):
                return []

        assert Plain(4).next_injection_cycle(0) is None

    def test_null_traffic_never_injects(self):
        from repro.traffic.base import NullTraffic

        gen = NullTraffic(4)
        assert gen.next_injection_cycle(7) == math.inf
        gen.advance(1000)  # must be a no-op, not an error


class TestTieBreak:
    """Most-degraded selection on exactly tied readings: lowest index,
    everywhere (the sensor banks' fixed priority-encoder rule)."""

    def test_process_variation_most_degraded_prefers_lowest_key(self):
        pv = ProcessVariationModel()
        vths = {(0, 1, 1): 0.19, (0, 1, 0): 0.19, (0, 0, 1): 0.18}
        assert pv.most_degraded(vths) == (0, 1, 0)

    def test_runner_harvest_prefers_lowest_vc(self, monkeypatch):
        """End-to-end regression: with every initial Vth identical, the
        harvested md_vc (and every per-port md_at) must be VC 0 — the
        old harvest picked the *highest* tied index and disagreed with
        the network's Down_Up latch."""
        from repro.experiments.config import ScenarioConfig
        from repro.experiments.runner import run_scenario

        monkeypatch.setattr(
            ProcessVariationModel, "sample",
            lambda self, count: [self.mean_vth] * count,
        )
        scenario = ScenarioConfig(cycles=60, warmup=0, validate_every=0)
        result = run_scenario(scenario)
        assert result.md_vc == 0
        for router, port in result.port_initial_vths:
            assert result.md_at(router, port) == 0

    def test_sensor_bank_argmax_prefers_lowest_vc(self):
        from repro.nbti.sensor import SensorBank

        model = NBTIModel.calibrated()
        devices = [PMOSDevice(0.18, model) for _ in range(4)]
        bank = SensorBank(devices, sample_period=8)
        assert bank.most_degraded == 0
        assert bank.most_degraded_in(2, 2) == 2
        bank.sample(0)
        assert bank.most_degraded == 0


class TestValidateEveryReconciled:
    """Network.run is the single validation code path, on either engine."""

    def test_healthy_run_counts_zero(self):
        net = build_small_network(flit_rate=0.1)
        assert net.run(200, validate_every=16) == 0

    def test_raises_on_first_violation_by_default(self, monkeypatch):
        import repro.noc.validation as validation

        net = build_small_network(flit_rate=0.1)
        monkeypatch.setattr(
            validation, "validate_network", lambda n: ["synthetic violation"]
        )
        with pytest.raises(RuntimeError, match="synthetic violation"):
            net.run(64, validate_every=16)

    def test_counts_all_violations_when_not_raising(self, monkeypatch):
        import repro.noc.validation as validation

        net = build_small_network(flit_rate=0.1)
        monkeypatch.setattr(
            validation, "validate_network", lambda n: ["synthetic violation"]
        )
        # 64 cycles / sweep every 16 = 4 sweeps, one finding each.
        assert net.run(64, validate_every=16, raise_on_violation=False) == 4

    def test_validation_runs_on_soa(self, monkeypatch):
        """Validation does not gate the engine: an eligible network
        validates between SoA spans, sweeping after every full chunk."""
        import repro.noc.validation as validation

        sweeps = []
        real = validation.validate_network

        def counting_validate(net):
            sweeps.append(net.cycle)
            return real(net)

        monkeypatch.setattr(validation, "validate_network", counting_validate)
        net = build_small_network(flit_rate=0.01)
        steps = count_steps(net)
        assert net.run(500, validate_every=100) == 0
        assert steps[0] == 0
        assert sweeps == [100, 200, 300, 400, 500]

    def test_forced_stepping_holds_under_validation(self):
        net = build_small_network(flit_rate=0.01)
        net.force_engine = "stepped"
        steps = count_steps(net)
        net.run(500, validate_every=100)
        assert steps[0] == 500

    @pytest.mark.parametrize("engine", [None, "stepped"])
    def test_no_sweep_after_partial_chunk(self, monkeypatch, engine):
        """Sweeps count full chunks from the start of each call."""
        import repro.noc.validation as validation

        monkeypatch.setattr(
            validation, "validate_network", lambda n: ["synthetic violation"]
        )
        net = build_small_network(flit_rate=0.1)
        net.force_engine = engine
        net.run(10)
        assert net.run(70, validate_every=16, raise_on_violation=False) == 4
        assert net.cycle == 80

    def test_unknown_engine_rejected(self):
        # "auto" is not a synonym of None: only None/"soa"/"stepped".
        for engine in ("fast", "auto"):
            net = build_small_network()
            net.force_engine = engine
            with pytest.raises(ValueError, match="unknown force_engine"):
                net.run(10)

    def test_rejects_negative_arguments(self):
        net = build_small_network()
        with pytest.raises(ValueError):
            net.run(-1)
        with pytest.raises(ValueError):
            net.run(10, validate_every=-1)


class TestRunEndFlush:
    """Counter reads after run()/accessors need no manual flush."""

    def test_duty_cycles_consistent_after_manual_stepping(self):
        net = build_small_network(policy="sensor-wise", flit_rate=0.1)
        for _ in range(137):
            net.step()
        duty = net.duty_cycles(0, "east")
        dev = net.device(0, "east", 0)
        assert dev.counter.total_cycles == 137
        assert len(duty) == net.config.total_vcs

    def test_run_books_every_cycle_exactly_once(self):
        net = build_small_network(policy="sensor-wise", flit_rate=0.02)
        net.run(1000)
        for device in net.devices.values():
            assert device.counter.total_cycles == 1000

    def test_harvest_flushes_the_network_at_most_once(self, monkeypatch):
        """run_scenario's harvest reads every port's duty cycles and
        devices after Network.run has flushed: that is at most one more
        network-wide flush, not one per read (which grows as N^2)."""
        from repro.experiments.config import ScenarioConfig
        from repro.experiments.runner import run_scenario
        from repro.noc.input_unit import InputUnit

        unit_flushes = [0]
        flush, run = InputUnit.nbti_flush, Network.run

        def counting_flush(unit, cycle):
            unit_flushes[0] += 1
            flush(unit, cycle)

        def run_then_count(net, *args, **kwargs):
            violations = run(net, *args, **kwargs)
            unit_flushes[0] = 0  # count only what follows the last run
            return violations

        monkeypatch.setattr(InputUnit, "nbti_flush", counting_flush)
        monkeypatch.setattr(Network, "run", run_then_count)
        result = run_scenario(ScenarioConfig(
            num_nodes=64, cycles=40, warmup=0, validate_every=0,
        ))
        assert unit_flushes[0] <= len(result.port_duty)


def run_counting_policy_work(policy, faulted, monkeypatch, cycles=1200):
    """A 4x4 SoA run at 0.1 load, in three segments, that records every
    ``run_policy`` call ending in a memo hit and every round-robin
    ``decide`` as (policy, context values, candidate phase)."""
    from repro.core.policies import RoundRobinSensorlessPolicy
    from repro.faults import FaultInjector, FaultSpec
    from repro.noc.output_unit import UpstreamPort

    work = {"calls": 0, "hits": [], "decides": []}
    run_policy = UpstreamPort.run_policy
    decide = RoundRobinSensorlessPolicy.decide

    def spy_run_policy(port, cycle):
        before = [(e._policy_key, e.last_decision) for e in port.engines]
        decisions = run_policy(port, cycle)
        work["calls"] += 1
        if all(e._policy_key == key and last is not None
               for e, (key, last) in zip(port.engines, before)):
            work["hits"].append((cycle, port))
        return decisions

    def spy_decide(policy, ctx):
        phase = (ctx.cycle // policy.rotation_period) % ctx.num_vcs
        work["decides"].append((
            id(policy), ctx.vc_states, ctx.new_traffic,
            ctx.most_degraded_vc, ctx.sensor_faulted, phase,
        ))
        return decide(policy, ctx)

    monkeypatch.setattr(UpstreamPort, "run_policy", spy_run_policy)
    monkeypatch.setattr(RoundRobinSensorlessPolicy, "decide", spy_decide)
    net = build_small_network(
        policy=policy, num_nodes=16, flit_rate=0.1, seed=3,
        sensor_sample_period=32,
    )
    net.force_engine = "soa"
    if faulted:
        FaultInjector(
            [FaultSpec("sensor-dropout", router=5, port="east", seed=3)],
            master_seed=3,
        ).apply(net)
    for _ in range(3):
        net.run(cycles // 3)
    if faulted and policy == "sensor-wise":
        assert net.stats().sensor_degraded_cycles > 0
    return work


class TestPolicyStageWork:
    """The SoA policy stage does only work whose outcome stepping would
    observe: no re-run that is certain to hit the memo, and no
    round-robin ``decide`` whose (context, candidate) was decided
    before."""

    @pytest.mark.parametrize(
        "policy", ["sensor-wise", "rr-no-sensor", "rejuvenation"]
    )
    @pytest.mark.parametrize("faulted", [False, True],
                             ids=["fault-free", "faulted"])
    def test_no_run_policy_call_hits_the_memo(self, policy, faulted,
                                               monkeypatch):
        work = run_counting_policy_work(policy, faulted, monkeypatch)
        assert work["calls"] > 0
        assert work["hits"] == []

    @pytest.mark.parametrize("policy, faulted", [
        ("rr-no-sensor", False),
        ("rr-no-sensor", True),
        # A degraded sensor-wise port decides through its rr fallback.
        ("sensor-wise", True),
    ], ids=["rr-fault-free", "rr-faulted", "sensor-wise-fallback"])
    def test_round_robin_decides_once_per_context_and_phase(
        self, policy, faulted, monkeypatch
    ):
        work = run_counting_policy_work(policy, faulted, monkeypatch)
        decides = work["decides"]
        assert decides
        assert len(decides) == len(set(decides))
