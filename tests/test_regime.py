"""Tests for the aging-regime subsystem: burn-in pre-stress, joint
NBTI+PBTI accounting, technology overrides and the rejuvenation policy
family — plus the guarantee that the default ``fresh`` regime is a
byte-exact no-op on the historical behaviour."""

from __future__ import annotations

import math

import pytest

from repro.core.policies import (
    RejuvenationPolicy,
    RejuvenationSensorPolicy,
    make_policy_factory,
)
from repro.dse.space import DesignSpace, Parameter, default_space, parse_param_spec
from repro.experiments.campaign import CampaignConfig
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import build_network
from repro.nbti.constants import (
    PBTI_ANCHOR_DELTA_VTH,
    SECONDS_PER_YEAR,
    TECH_45NM,
)
from repro.nbti.delay import delay_factor, joint_bti_delay_factor
from repro.nbti.duty_cycle import DutyCycleCounter
from repro.nbti.model import NBTIModel
from repro.nbti.regime import ALL_REGIMES, STRESS_REGIMES, StressRegime, get_regime
from repro.nbti.transistor import PMOSDevice
from repro.noc.policy_api import OutVCState, PolicyContext

IDLE = OutVCState.IDLE
ACTIVE = OutVCState.ACTIVE
RECOVERY = OutVCState.RECOVERY


def ctx(cycle, states, new_traffic=True, md=None, faulted=False) -> PolicyContext:
    return PolicyContext(
        cycle=cycle,
        vc_states=tuple(states),
        new_traffic=new_traffic,
        most_degraded_vc=md,
        sensor_faulted=faulted,
    )


# ----------------------------------------------------------------------
# Regime registry and validation
# ----------------------------------------------------------------------
class TestRegimeRegistry:
    def test_known_regimes(self):
        assert set(ALL_REGIMES) == {"fresh", "burn-in", "nbti-pbti", "finfet-pbti"}
        assert ALL_REGIMES == tuple(sorted(STRESS_REGIMES))

    def test_lookup(self):
        assert get_regime("fresh").is_fresh
        assert not get_regime("burn-in").is_fresh
        with pytest.raises(ValueError, match="fresh"):
            get_regime("overclocked")

    def test_fresh_takes_no_branches(self):
        fresh = get_regime("fresh")
        assert fresh.burn_in_years == 0.0
        assert not fresh.pbti
        assert fresh.technology is None
        assert fresh.burn_in_shift(NBTIModel.calibrated()) == 0.0
        assert fresh.pbti_model(TECH_45NM) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            StressRegime(name="x", burn_in_years=-1.0)
        with pytest.raises(ValueError):
            StressRegime(name="x", burn_in_alpha=0.0)
        with pytest.raises(ValueError):
            StressRegime(name="x", burn_in_alpha=1.5)
        with pytest.raises(ValueError):
            StressRegime(name="x", pbti_anchor_delta_vth=0.0)
        with pytest.raises(KeyError):
            StressRegime(name="x", technology="1nm-unobtainium")

    def test_scenario_rejects_unknown_regime(self):
        with pytest.raises(ValueError, match="regime"):
            ScenarioConfig(regime="overclocked")

    def test_campaign_config_validates_regime(self):
        assert CampaignConfig(regime="burn-in").regime == "burn-in"
        with pytest.raises(ValueError, match="regime"):
            CampaignConfig(regime="overclocked")


# ----------------------------------------------------------------------
# Fresh regime: provably a no-op
# ----------------------------------------------------------------------
SMALL = dict(num_nodes=4, num_vcs=2, injection_rate=0.1, cycles=400, warmup=0)


def all_devices(network, scenario):
    total_vcs = scenario.num_vcs * scenario.num_vnets
    for router in network.routers:
        for port in router.input_ports:
            for vc in range(total_vcs):
                yield network.device(router.router_id, port, vc)


class TestFreshNoOp:
    def test_default_regime_is_fresh(self):
        assert ScenarioConfig().regime == "fresh"
        assert ScenarioConfig().stress_regime.is_fresh

    def test_fresh_network_has_no_pbti_models(self):
        scenario = ScenarioConfig(**SMALL)
        net = build_network(scenario)
        assert net.pbti_model is None
        assert all(d.pbti_model is None for d in all_devices(net, scenario))
        assert all(d.pbti_delta_vth(1.0) == 0.0 for d in all_devices(net, scenario))

    def test_fresh_technology_unchanged(self):
        scenario = ScenarioConfig(**SMALL)
        assert scenario.noc_config().technology is TECH_45NM


# ----------------------------------------------------------------------
# Burn-in pre-stress
# ----------------------------------------------------------------------
class TestBurnIn:
    def networks(self):
        fresh = build_network(ScenarioConfig(**SMALL))
        aged = build_network(ScenarioConfig(regime="burn-in", **SMALL))
        return fresh, aged

    def test_uniform_positive_vth_shift(self):
        fresh, aged = self.networks()
        scenario = ScenarioConfig(**SMALL)
        regime = get_regime("burn-in")
        tech = scenario.noc_config().technology
        expected = NBTIModel.calibrated(tech).delta_vth(
            regime.burn_in_alpha, regime.burn_in_years * SECONDS_PER_YEAR
        )
        assert expected > 0.0
        assert expected == regime.burn_in_shift(NBTIModel.calibrated(tech))
        for df, da in zip(
            all_devices(fresh, scenario), all_devices(aged, scenario)
        ):
            assert da.initial_vth == pytest.approx(df.initial_vth + expected)

    def test_md_ranking_preserved(self):
        """A constant offset can't change which VC is most degraded."""
        fresh, aged = self.networks()
        scenario = ScenarioConfig(**SMALL)

        def ranking(net):
            vths = [
                net.device(0, net.routers[0].input_ports[0], vc).initial_vth
                for vc in range(scenario.num_vcs)
            ]
            return max(range(len(vths)), key=lambda v: (vths[v], -v))

        assert ranking(fresh) == ranking(aged)


# ----------------------------------------------------------------------
# Joint NBTI+PBTI accounting
# ----------------------------------------------------------------------
class TestPbti:
    def test_device_sums_both_shifts(self):
        model = NBTIModel.calibrated()
        pbti = NBTIModel.calibrated_pbti()
        device = PMOSDevice(0.2, model, pbti_model=pbti)
        device.tick(stressed=True, cycles=600)
        device.tick(stressed=False, cycles=400)
        horizon = 3.0 * SECONDS_PER_YEAR
        nbti_part = device.nbti_delta_vth(horizon)
        pbti_part = device.pbti_delta_vth(horizon)
        assert nbti_part > 0.0 and pbti_part > 0.0
        assert device.delta_vth(horizon) == pytest.approx(nbti_part + pbti_part)
        # PBTI is calibrated to half the NBTI anchor shift; both models
        # share the alpha dependence so the ratio carries over exactly.
        assert pbti_part / nbti_part == pytest.approx(0.5, rel=1e-6)

    def test_pbti_network_ages_faster(self):
        scenario = ScenarioConfig(**SMALL)
        joint = build_network(ScenarioConfig(regime="nbti-pbti", **SMALL))
        assert joint.pbti_model is not None
        for device in all_devices(joint, scenario):
            assert device.pbti_model is joint.pbti_model
            assert device.pbti_delta_vth(SECONDS_PER_YEAR) >= 0.0

    def test_calibrated_pbti_anchor(self):
        pbti = NBTIModel.calibrated_pbti()
        three_years = 3.0 * SECONDS_PER_YEAR
        assert pbti.delta_vth(1.0, three_years) == pytest.approx(
            PBTI_ANCHOR_DELTA_VTH, rel=1e-6
        )

    def test_finfet_regime_swaps_technology(self):
        scenario = ScenarioConfig(regime="finfet-pbti", **SMALL)
        tech = scenario.noc_config().technology
        assert tech.name == "14nm-finfet"
        net = build_network(scenario)
        assert net.pbti_model is not None
        assert net.pbti_model.tech is tech


# ----------------------------------------------------------------------
# Delay and duty-cycle helpers
# ----------------------------------------------------------------------
class TestDelayHelpers:
    def test_joint_delay_factor_matches_summed_shift(self):
        assert joint_bti_delay_factor(0.03, 0.015) == pytest.approx(
            delay_factor(0.045)
        )
        assert joint_bti_delay_factor(0.03, 0.0) == pytest.approx(delay_factor(0.03))

    def test_negative_pbti_rejected(self):
        with pytest.raises(ValueError):
            joint_bti_delay_factor(0.03, -0.01)

    def test_recovery_fraction_complements_alpha(self):
        counter = DutyCycleCounter()
        counter.record(True, 300)
        counter.record(False, 700)
        assert counter.recovery_fraction == pytest.approx(1.0 - counter.alpha)
        assert counter.recovery_fraction == pytest.approx(0.7)


# ----------------------------------------------------------------------
# Rejuvenation policy family
# ----------------------------------------------------------------------
class TestRejuvenationPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RejuvenationPolicy(period=0)
        with pytest.raises(ValueError):
            RejuvenationPolicy(period=100, duration=0)
        with pytest.raises(ValueError):
            RejuvenationPolicy(period=100, duration=101)

    def test_epoch_contract(self):
        """epoch() is constant within every epoch_period bucket."""
        policy = RejuvenationPolicy(period=96, duration=36)
        assert policy.epoch_period == math.gcd(96, 36) == 12
        for cycle in range(3 * 96):
            bucket_start = (cycle // policy.epoch_period) * policy.epoch_period
            assert policy.epoch(cycle) == policy.epoch(bucket_start)
        # In-window and out-of-window buckets are distinct epochs.
        assert policy.epoch(0) != policy.epoch(36)
        assert policy.epoch(36) != policy.epoch(96)

    def test_window_schedule(self):
        policy = RejuvenationPolicy(period=100, duration=25)
        assert policy.in_window(0)
        assert policy.in_window(24)
        assert not policy.in_window(25)
        assert not policy.in_window(99)
        assert policy.in_window(100)

    def test_outside_window_never_gates(self):
        policy = RejuvenationPolicy(period=100, duration=25)
        decision = policy.decide(ctx(50, (IDLE, RECOVERY), new_traffic=False))
        assert decision.awake == frozenset({0, 1})
        assert not decision.enable

    def test_in_window_no_traffic_gates_everything(self):
        policy = RejuvenationPolicy(period=100, duration=25)
        decision = policy.decide(ctx(10, (IDLE, IDLE), new_traffic=False))
        assert decision.awake == frozenset()
        assert not decision.enable

    def test_in_window_traffic_keeps_one_survivor(self):
        policy = RejuvenationPolicy(period=100, duration=25)
        decision = policy.decide(ctx(10, (IDLE, IDLE), new_traffic=True))
        assert decision.awake == frozenset({0})
        assert decision.enable and decision.idle_vc == 0

    def test_survivor_rotates_with_window_index(self):
        policy = RejuvenationPolicy(period=100, duration=25)
        first = policy.decide(ctx(10, (IDLE, IDLE), new_traffic=True))
        second = policy.decide(ctx(110, (IDLE, IDLE), new_traffic=True))
        assert first.awake == frozenset({0})
        assert second.awake == frozenset({1})

    def test_survivor_scan_skips_active(self):
        policy = RejuvenationPolicy(period=100, duration=25)
        decision = policy.decide(ctx(10, (ACTIVE, RECOVERY), new_traffic=True))
        assert decision.awake == frozenset({1})

    def test_all_active_gates_nothing_extra(self):
        policy = RejuvenationPolicy(period=100, duration=25)
        decision = policy.decide(ctx(10, (ACTIVE, ACTIVE), new_traffic=True))
        assert decision.awake == frozenset()
        assert not decision.enable

    def test_sensor_variant_recovers_md_first(self):
        policy = RejuvenationSensorPolicy(period=100, duration=25)
        decision = policy.decide(ctx(10, (IDLE, IDLE), new_traffic=True, md=0))
        # VC 0 is the MD VC: it must be gated, VC 1 survives.
        assert decision.awake == frozenset({1})

    def test_sensor_variant_md_only_candidate_survives(self):
        policy = RejuvenationSensorPolicy(period=100, duration=25)
        decision = policy.decide(ctx(10, (IDLE, ACTIVE), new_traffic=True, md=0))
        assert decision.awake == frozenset({0})

    def test_sensor_variant_degrades_on_faulted_sensor(self):
        policy = RejuvenationSensorPolicy(period=100, duration=25)
        static = RejuvenationPolicy(period=100, duration=25)
        for cycle in (3, 17):
            faulted = policy.decide(
                ctx(cycle, (IDLE, IDLE), new_traffic=True, md=0, faulted=True)
            )
            assert faulted == static.decide(ctx(cycle, (IDLE, IDLE), new_traffic=True))

    def test_factory_defaults_derive_from_rotation_period(self):
        policy = make_policy_factory("rejuvenation", rotation_period=64)()
        assert (policy.period, policy.duration) == (1024, 256)
        custom = make_policy_factory(
            "rejuvenation-sensor",
            rejuvenation_period=200,
            rejuvenation_duration=40,
        )()
        assert isinstance(custom, RejuvenationSensorPolicy)
        assert (custom.period, custom.duration) == (200, 40)


# ----------------------------------------------------------------------
# Engine equivalence: stepped / SoA
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", ["rejuvenation", "rejuvenation-sensor"])
def test_engines_agree_on_loaded_rejuvenation(policy):
    from tests.test_soa_equivalence import assert_engines_agree

    assert_engines_agree(policy, 0.05, 2600, 3)


@pytest.mark.parametrize("policy", ["rejuvenation", "rejuvenation-sensor"])
def test_engines_agree_on_idle_rejuvenation(policy):
    """Quiescent network: the SoA engine must stop its jumps at the
    gcd(period, duration) epoch boundaries to replay window edges."""
    from tests.test_soa_equivalence import assert_engines_agree

    assert_engines_agree(policy, 0.0, 2400, 5)


# ----------------------------------------------------------------------
# DSE integration
# ----------------------------------------------------------------------
class TestDseRegimeAxis:
    def test_default_space_has_regime_and_rejuvenation(self):
        space = default_space()
        by_name = {p.name: p for p in space.parameters}
        assert "fresh" in by_name["regime"].levels
        assert "rejuvenation" in by_name["policy"].levels

    def test_parse_regime_spec_is_categorical(self):
        p = parse_param_spec("regime=fresh,burn-in")
        assert p.levels == ("fresh", "burn-in")
        assert not p.numeric

    def test_unknown_regime_invalidates_genome(self):
        space = DesignSpace(
            [Parameter.categorical("regime", ("fresh", "overclocked"))]
        )
        genomes = list(space.enumerate_genomes())
        validity = {space.values(g)["regime"]: space.valid(g) for g in genomes}
        assert validity == {"fresh": True, "overclocked": False}

    def test_decode_threads_regime_into_scenario(self):
        space = DesignSpace([Parameter.categorical("regime", ("burn-in",))])
        genome = next(iter(space.enumerate_genomes()))
        assert space.decode(genome).regime == "burn-in"
