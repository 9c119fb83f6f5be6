"""Tests for within-die process-variation sampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ALL_POLICIES
from repro.core.policies import make_policy_factory
from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.nbti.constants import TECH_32NM, TECH_45NM
from repro.nbti.process_variation import ProcessVariationModel, scenario_seed

from tests.test_soa_equivalence import forced_engine


class TestScenarioSeed:
    def test_deterministic(self):
        assert scenario_seed("4core", 0.1) == scenario_seed("4core", 0.1)

    def test_sensitive_to_every_part(self):
        base = scenario_seed("a", 1, 0.1)
        assert base != scenario_seed("b", 1, 0.1)
        assert base != scenario_seed("a", 2, 0.1)
        assert base != scenario_seed("a", 1, 0.2)

    def test_order_sensitive(self):
        assert scenario_seed("a", "b") != scenario_seed("b", "a")

    def test_fits_in_63_bits(self):
        for parts in (("x",), ("x", 1, 2.5), (b"bytes",)):
            seed = scenario_seed(*parts)
            assert 0 <= seed < 2**63

    def test_distinct_types_distinct_seeds(self):
        # repr-based hashing distinguishes 1 from "1".
        assert scenario_seed(1) != scenario_seed("1")


class TestProcessVariationModel:
    def test_same_seed_same_samples(self):
        a = ProcessVariationModel(seed=5).sample(10)
        b = ProcessVariationModel(seed=5).sample(10)
        assert a == b

    def test_different_seed_different_samples(self):
        a = ProcessVariationModel(seed=5).sample(10)
        b = ProcessVariationModel(seed=6).sample(10)
        assert a != b

    def test_sample_statistics_match_parameters(self):
        model = ProcessVariationModel(mean_vth=0.180, sigma_vth=0.005, seed=1)
        draws = model.sample(20000)
        assert np.mean(draws) == pytest.approx(0.180, abs=2e-4)
        assert np.std(draws) == pytest.approx(0.005, abs=3e-4)

    def test_paper_parameters_are_default(self):
        model = ProcessVariationModel()
        assert model.mean_vth == TECH_45NM.vth_nominal == 0.180
        assert model.sigma_vth == TECH_45NM.vth_sigma == 0.005

    def test_for_technology(self):
        model = ProcessVariationModel.for_technology(TECH_32NM, seed=3)
        assert model.mean_vth == 0.160

    def test_clipping_at_four_sigma(self):
        model = ProcessVariationModel(mean_vth=0.180, sigma_vth=0.005, seed=2)
        draws = model.sample(50000)
        assert max(draws) <= 0.180 + 4 * 0.005 + 1e-12
        assert min(draws) >= 0.180 - 4 * 0.005 - 1e-12

    def test_die_to_die_offset_shifts_everything(self):
        base = ProcessVariationModel(seed=4).sample(100)
        shifted = ProcessVariationModel(seed=4, die_to_die_offset=0.010).sample(100)
        for b, s in zip(base, shifted):
            assert s == pytest.approx(b + 0.010)

    def test_zero_count(self):
        assert ProcessVariationModel().sample(0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            ProcessVariationModel().sample(-1)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ProcessVariationModel(mean_vth=0.0)
        with pytest.raises(ValueError):
            ProcessVariationModel(sigma_vth=-0.001)

    def test_samples_always_positive(self):
        model = ProcessVariationModel(mean_vth=0.005, sigma_vth=0.01, seed=9)
        assert all(v > 0.0 for v in model.sample(1000))


class TestSampleChip:
    KEYS = [(r, p, v) for r in range(2) for p in range(2) for v in range(2)]

    def test_every_key_assigned(self):
        vths = ProcessVariationModel(seed=1).sample_chip(self.KEYS)
        assert set(vths) == set(self.KEYS)

    def test_reproducible_assignment(self):
        a = ProcessVariationModel(seed=1).sample_chip(self.KEYS)
        b = ProcessVariationModel(seed=1).sample_chip(self.KEYS)
        assert a == b

    def test_most_degraded_is_argmax(self):
        model = ProcessVariationModel(seed=1)
        vths = model.sample_chip(self.KEYS)
        md = model.most_degraded(vths)
        assert vths[md] == max(vths.values())

    def test_most_degraded_of_empty_chip_rejected(self):
        with pytest.raises(ValueError):
            ProcessVariationModel().most_degraded({})

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_most_degraded_tie_break_deterministic(self, seed):
        model = ProcessVariationModel(seed=seed)
        vths = model.sample_chip(self.KEYS)
        md1 = model.most_degraded(vths)
        md2 = model.most_degraded(dict(reversed(list(vths.items()))))
        assert md1 == md2


class TestSensorlessPoliciesIgnorePV:
    """A policy with ``uses_sensor = False`` never reads a threshold
    voltage, so the PV draw moves its reported Vths but none of its
    buffer duty cycles, on either engine and under a pre-aged regime."""

    SENSORLESS = tuple(
        name for name in ALL_POLICIES
        if not make_policy_factory(name)().uses_sensor
    )

    def test_the_sensorless_set(self):
        assert self.SENSORLESS == (
            "baseline", "rejuvenation", "rr-no-sensor",
            "rr-no-sensor-no-traffic", "static-reserve",
        )

    @pytest.mark.parametrize("regime", ["fresh", "burn-in"])
    @pytest.mark.parametrize("policy", SENSORLESS)
    def test_port_duty_is_pv_invariant(self, policy, regime):
        for engine in ("soa", "stepped"):
            results = []
            with forced_engine(engine):
                for pv_seed in (7, 8):
                    results.append(run_scenario(ScenarioConfig(
                        num_nodes=4, num_vcs=2, injection_rate=0.2,
                        policy=policy, regime=regime, cycles=400, warmup=100,
                        pv_seed=pv_seed,
                    )))
            first, second = results
            assert first.port_initial_vths != second.port_initial_vths
            assert first.port_duty == second.port_duty, (engine, policy)
