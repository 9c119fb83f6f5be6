"""Unit tests for the recovery policies (Algorithms 1 and 2)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import (
    ALL_POLICIES,
    PAPER_POLICIES,
    BaselinePolicy,
    RoundRobinNoTrafficPolicy,
    RoundRobinSensorlessPolicy,
    SensorWisePolicy,
    make_policy_factory,
)
from repro.noc.policy_api import OutVCState, PolicyContext, PolicyDecision, states_of


def ctx(states, new_traffic=False, md=None, cycle=0):
    return PolicyContext(
        cycle=cycle,
        vc_states=states_of(states),
        new_traffic=new_traffic,
        most_degraded_vc=md,
    )


class TestBaseline:
    def test_everything_stays_awake(self):
        decision = BaselinePolicy().decide(ctx(["idle", "recovery", "active"]))
        assert decision.awake == frozenset((0, 1, 2))
        assert not decision.enable

    def test_flags(self):
        p = BaselinePolicy()
        assert not p.uses_sensor and not p.uses_traffic and p.stable


class TestRoundRobinSensorless:
    """Algorithm 1 truth table."""

    def test_no_traffic_gates_everything(self):
        p = RoundRobinSensorlessPolicy(rotation_period=1)
        decision = p.decide(ctx(["idle", "idle"], new_traffic=False))
        assert decision.awake == frozenset()
        assert not decision.enable

    def test_traffic_keeps_candidate_awake(self):
        p = RoundRobinSensorlessPolicy(rotation_period=1)
        decision = p.decide(ctx(["idle", "idle", "idle"], new_traffic=True, cycle=0))
        assert decision.enable
        assert decision.awake == frozenset((0,))
        assert decision.idle_vc == 0

    def test_candidate_rotates_with_cycle(self):
        p = RoundRobinSensorlessPolicy(rotation_period=1)
        for cycle in range(6):
            decision = p.decide(ctx(["idle"] * 3, new_traffic=True, cycle=cycle))
            assert decision.idle_vc == cycle % 3

    def test_rotation_period_slows_candidate(self):
        p = RoundRobinSensorlessPolicy(rotation_period=10)
        assert p.candidate(ctx(["idle"] * 4, cycle=9)) == 0
        assert p.candidate(ctx(["idle"] * 4, cycle=10)) == 1

    def test_scan_skips_active_vcs(self):
        p = RoundRobinSensorlessPolicy(rotation_period=1)
        decision = p.decide(ctx(["active", "idle", "idle"], new_traffic=True, cycle=0))
        assert decision.idle_vc == 1

    def test_recovery_vc_can_be_selected(self):
        p = RoundRobinSensorlessPolicy(rotation_period=1)
        decision = p.decide(ctx(["recovery", "idle"], new_traffic=True, cycle=0))
        assert decision.idle_vc == 0
        assert decision.awake == frozenset((0,))

    def test_all_active_nothing_to_keep(self):
        p = RoundRobinSensorlessPolicy(rotation_period=1)
        decision = p.decide(ctx(["active", "active"], new_traffic=True, cycle=0))
        assert decision.awake == frozenset()

    def test_wraparound_scan(self):
        p = RoundRobinSensorlessPolicy(rotation_period=1)
        # cycle 2 -> candidate 2; VC2 active -> wraps to VC0.
        decision = p.decide(ctx(["idle", "active", "active"], new_traffic=True, cycle=2))
        assert decision.idle_vc == 0

    def test_invalid_rotation_period(self):
        with pytest.raises(ValueError):
            RoundRobinSensorlessPolicy(rotation_period=0)

    def test_epoch_tracks_rotation(self):
        p = RoundRobinSensorlessPolicy(rotation_period=8)
        assert p.epoch(7) == 0
        assert p.epoch(8) == 1


class TestRoundRobinNoTraffic:
    def test_always_keeps_one_awake(self):
        p = RoundRobinNoTrafficPolicy(rotation_period=1)
        decision = p.decide(ctx(["idle", "idle"], new_traffic=False, cycle=0))
        assert decision.enable
        assert decision.awake == frozenset((0,))


class TestSensorWise:
    """Algorithm 2 truth table."""

    def test_no_traffic_gates_everything_including_md(self):
        p = SensorWisePolicy()
        decision = p.decide(ctx(["idle"] * 4, new_traffic=False, md=1))
        assert decision.awake == frozenset()
        assert not decision.enable

    def test_traffic_keeps_last_scanned_idle_awake(self):
        p = SensorWisePolicy()
        decision = p.decide(ctx(["idle"] * 4, new_traffic=True, md=1))
        # MD (1) gated first, then 0 and 2; survivor is VC3.
        assert decision.awake == frozenset((3,))
        assert decision.enable
        assert decision.idle_vc == 3

    def test_md_gated_first_even_when_last(self):
        p = SensorWisePolicy()
        decision = p.decide(ctx(["idle"] * 4, new_traffic=True, md=3))
        assert 3 not in decision.awake
        assert decision.awake == frozenset((2,))

    def test_md_survives_when_only_idle(self):
        p = SensorWisePolicy()
        decision = p.decide(
            ctx(["active", "idle", "active", "active"], new_traffic=True, md=1)
        )
        assert decision.awake == frozenset((1,))
        assert decision.idle_vc == 1

    def test_recovery_vcs_reconsidered_each_cycle(self):
        """Lines 5-8: previously gated VCs are part of the idle pool."""
        p = SensorWisePolicy()
        decision = p.decide(
            ctx(["recovery", "recovery", "idle"], new_traffic=True, md=2)
        )
        # Pool {0,1,2}; gate MD=2, then 0; survivor 1 (woken from recovery).
        assert decision.awake == frozenset((1,))

    def test_all_active_no_survivor(self):
        p = SensorWisePolicy()
        decision = p.decide(ctx(["active", "active"], new_traffic=True, md=0))
        assert decision.awake == frozenset()
        assert not decision.enable  # nothing kept idle -> enable meaningless

    def test_missing_md_falls_back_to_vc0(self):
        p = SensorWisePolicy()
        decision = p.decide(ctx(["idle", "idle"], new_traffic=True, md=None))
        assert 0 not in decision.awake  # VC0 treated as most degraded

    def test_no_traffic_variant_always_reserves_one(self):
        p = SensorWisePolicy(use_traffic=False)
        assert p.name == "sensor-wise-no-traffic"
        decision = p.decide(ctx(["idle"] * 4, new_traffic=False, md=1))
        assert len(decision.awake) == 1
        assert decision.enable

    def test_no_traffic_variant_survivor_is_highest_non_md(self):
        p = SensorWisePolicy(use_traffic=False)
        for md in range(4):
            decision = p.decide(ctx(["idle"] * 4, new_traffic=False, md=md))
            expected = 2 if md == 3 else 3
            assert decision.awake == frozenset((expected,))

    def test_flags(self):
        full = SensorWisePolicy()
        assert full.uses_sensor and full.uses_traffic and full.stable
        ablated = SensorWisePolicy(use_traffic=False)
        assert ablated.uses_sensor and not ablated.uses_traffic


STATE_STRATEGY = st.lists(
    st.sampled_from(["idle", "active", "recovery"]), min_size=2, max_size=6
)


class TestPolicyProperties:
    @settings(max_examples=80, deadline=None)
    @given(states=STATE_STRATEGY, traffic=st.booleans(), data=st.data())
    def test_sensor_wise_invariants(self, states, traffic, data):
        md = data.draw(st.integers(min_value=0, max_value=len(states) - 1))
        p = SensorWisePolicy()
        decision = p.decide(ctx(states, new_traffic=traffic, md=md))
        decision.validate(len(states))
        non_active = {i for i, s in enumerate(states) if s != "active"}
        # Awake VCs are all from the non-active pool.
        assert decision.awake <= non_active
        # At most one VC is reserved.
        assert len(decision.awake) <= 1
        # With traffic and >= 2 non-active VCs, the MD VC must recover.
        if traffic and md in non_active and len(non_active) >= 2:
            assert md not in decision.awake

    @settings(max_examples=80, deadline=None)
    @given(states=STATE_STRATEGY, traffic=st.booleans(), cycle=st.integers(0, 1000))
    def test_rr_invariants(self, states, traffic, cycle):
        p = RoundRobinSensorlessPolicy(rotation_period=7)
        decision = p.decide(ctx(states, new_traffic=traffic, cycle=cycle))
        decision.validate(len(states))
        non_active = {i for i, s in enumerate(states) if s != "active"}
        assert decision.awake <= non_active
        assert len(decision.awake) <= 1
        if not traffic:
            assert decision.awake == frozenset()

    @settings(max_examples=80, deadline=None)
    @given(states=STATE_STRATEGY, traffic=st.booleans(), data=st.data())
    def test_stable_policies_are_fixed_points(self, states, traffic, data):
        """Re-deciding on the post-decision states yields the same
        decision — the property the memoization relies on."""
        md = data.draw(st.integers(min_value=0, max_value=len(states) - 1))
        for policy in (
            SensorWisePolicy(),
            SensorWisePolicy(use_traffic=False),
            RoundRobinSensorlessPolicy(rotation_period=1_000_000),
            BaselinePolicy(),
        ):
            first = policy.decide(ctx(states, new_traffic=traffic, md=md))
            after = [
                "active" if s == "active"
                else ("idle" if i in first.awake else "recovery")
                for i, s in enumerate(states)
            ]
            second = policy.decide(ctx(after, new_traffic=traffic, md=md))
            assert second.awake == first.awake
            assert second.enable == first.enable


class _Recorder:
    """Tracer stand-in: keeps every instant but its timestamp."""

    def __init__(self):
        self.events = []

    def instant(self, name, cat, tid=0, args=None, ts=0):
        self.events.append((name, cat, tid, args))


#: (policy, sensor_faulted): every registered policy healthy, and every
#: sensor-consuming one degraded (sensor-wise then runs its fallback).
PHASE_CASES = [(name, False) for name in ALL_POLICIES] + [
    (name, True)
    for name in ALL_POLICIES
    if make_policy_factory(name)().uses_sensor
]


class TestDecisionPhase:
    """The upstream port's decision cache shares one entry between all
    cycles whose epochs map to the same ``decision_phase``: that is only
    sound if such cycles decide, and trace, alike."""

    @pytest.mark.parametrize(
        "name, faulted", PHASE_CASES,
        ids=[f"{n}{'-faulted' if f else ''}" for n, f in PHASE_CASES],
    )
    @settings(max_examples=60, deadline=None)
    @given(
        states=STATE_STRATEGY,
        traffic=st.booleans(),
        first=st.integers(0, 1 << 16),
        second=st.integers(0, 1 << 16),
        data=st.data(),
    )
    def test_equal_phase_decides_alike(
        self, name, faulted, states, traffic, first, second, data
    ):
        md = data.draw(st.none() | st.integers(0, len(states) - 1))
        policy = make_policy_factory(name)()
        recorder = _Recorder()
        for p in (policy, getattr(policy, "fallback", None)):
            if p is not None:
                p.trace, p.trace_tid = recorder, 1

        def phase(cycle):
            return policy.decision_phase(policy.epoch(cycle), len(states), faulted)

        target = phase(first)
        while phase(second) != target:
            second += 1
        outcomes = []
        for cycle in (first, second):
            recorder.events = []
            decision = policy.decide(PolicyContext(
                cycle=cycle, vc_states=states_of(states), new_traffic=traffic,
                most_degraded_vc=md, sensor_faulted=faulted,
            ))
            outcomes.append((decision, recorder.events))
        assert outcomes[0] == outcomes[1]


class TestFactory:
    def test_all_policies_constructible(self):
        for name in ALL_POLICIES:
            policy = make_policy_factory(name)()
            assert policy.name == name

    def test_factory_produces_fresh_instances(self):
        factory = make_policy_factory("sensor-wise")
        assert factory() is not factory()

    def test_rotation_period_forwarded(self):
        policy = make_policy_factory("rr-no-sensor", rotation_period=5)()
        assert policy.rotation_period == 5

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_policy_factory("magic")

    def test_paper_policies_subset(self):
        assert set(PAPER_POLICIES) <= set(ALL_POLICIES)
        assert PAPER_POLICIES == ("rr-no-sensor", "sensor-wise-no-traffic", "sensor-wise")
