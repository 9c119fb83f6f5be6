"""Scenario runner: build a network from a scenario, run it, harvest
duty cycles and network statistics.

The runner enforces the paper's consistency rules:

* the process-variation Vth sample is frozen per {architecture,
  traffic} pair (every policy sees the same most-degraded VC), and
* the traffic stream is derived from (scenario seed, iteration) only —
  never from the policy — so policies are compared on identical
  workloads.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Dict, List, Optional, Tuple

from repro.core.policies import make_policy_factory
from repro.nbti.model import NBTIModel
from repro.nbti.process_variation import ProcessVariationModel, scenario_seed
from repro.noc.network import Network, SimStats
from repro.noc.topology import port_id, port_name
from repro.telemetry.runtime import Telemetry, TelemetrySummary
from repro.traffic.real import BenchmarkTraffic
from repro.traffic.synthetic import SyntheticTraffic

from repro.experiments.config import ScenarioConfig


@dataclasses.dataclass
class ScenarioResult:
    """Everything harvested from one scenario run.

    Attributes
    ----------
    scenario:
        The configuration that produced this result.
    iteration:
        Traffic iteration index (benchmark-mix runs use 0..9).
    duty_cycles:
        NBTI-duty-cycles (%) per VC at the measured port.
    md_vc:
        Ground-truth most-degraded VC at the measured port (argmax of
        the PV-sampled initial Vth — constant per scenario, as in the
        paper).
    port_duty:
        Duty cycles for *every* router input port:
        ``(router, port_name) -> [duty per VC]``.
    initial_vths:
        Initial |Vth| per VC at the measured port (volts).
    port_initial_vths:
        Initial |Vth| per VC for every router input port (volts); the
        per-port ground-truth most-degraded VC is its argmax.
    net_stats:
        Latency/throughput aggregate over the measured window.
    build_seconds:
        Host time spent constructing the network (topology wiring, PV
        sampling, traffic setup).
    sim_seconds:
        Host time spent simulating (warm-up + measured cycles).
    violations:
        Total :func:`repro.noc.validation.validate_network` findings over
        the measured window (only collected when the scenario sets
        ``validate_every > 0``; zero otherwise).
    fault_counters:
        :meth:`FaultInjector.counters` aggregate for faulted scenarios;
        ``None`` for fault-free runs.
    telemetry:
        :class:`~repro.telemetry.runtime.TelemetrySummary` of the run
        when the scenario opted in (``scenario.telemetry``); ``None``
        otherwise.
    """

    scenario: ScenarioConfig
    iteration: int
    duty_cycles: List[float]
    md_vc: int
    port_duty: Dict[Tuple[int, str], List[float]]
    initial_vths: List[float]
    port_initial_vths: Dict[Tuple[int, str], List[float]]
    net_stats: SimStats
    build_seconds: float
    sim_seconds: float
    violations: int = 0
    fault_counters: Optional[Dict[str, int]] = None
    telemetry: Optional[TelemetrySummary] = None

    @property
    def wall_seconds(self) -> float:
        """Total host time (construction + simulation)."""
        return self.build_seconds + self.sim_seconds

    @property
    def md_duty(self) -> float:
        """Duty cycle of the most-degraded VC at the measured port."""
        return self.duty_cycles[self.md_vc]

    def duty_at(self, router: int, port: str) -> List[float]:
        """Duty cycles at an arbitrary router input port."""
        return self.port_duty[(router, port)]

    def md_at(self, router: int, port: str) -> int:
        """Ground-truth most-degraded VC at an arbitrary input port.

        Ties break toward the lowest VC index — the same fixed
        priority-encoder rule the sensor banks use, so harvested
        ground truth and sensed verdicts can never diverge on ties.
        """
        vths = self.port_initial_vths[(router, port)]
        return max(range(len(vths)), key=lambda v: (vths[v], -v))


def build_traffic(scenario: ScenarioConfig, iteration: int = 0):
    """Construct the scenario's traffic generator (policy-independent)."""
    traffic_seed = scenario_seed(
        "traffic", scenario.num_nodes, scenario.traffic,
        scenario.injection_rate, scenario.seed, iteration,
    )
    if scenario.is_real_traffic:
        mix_seed = scenario_seed("mix", scenario.num_nodes, scenario.seed, iteration)
        # On multi-vnet platforms, MOESI responses ride their own vnet
        # (protocol-deadlock separation, paper Table I).
        response_vnet = 1 if scenario.num_vnets > 1 else 0
        return BenchmarkTraffic.random(
            scenario.num_nodes,
            mix_seed=mix_seed,
            traffic_seed=traffic_seed,
            response_vnet=response_vnet,
        )
    return SyntheticTraffic(
        scenario.traffic,
        scenario.num_nodes,
        flit_rate=scenario.injection_rate,
        packet_length=scenario.packet_length,
        seed=traffic_seed,
    )


def build_network(
    scenario: ScenarioConfig,
    iteration: int = 0,
    nbti_model: Optional[NBTIModel] = None,
) -> Network:
    """Assemble the network for a scenario (traffic + policy + PV).

    The scenario's stress regime is resolved here: a technology
    override already reached ``config`` via :meth:`ScenarioConfig.noc_config`,
    burn-in pre-stress becomes a constant Vth offset on the PV sampler
    (computed from the same calibrated model the network will age
    under, so sensors and the MD ranking see pre-aged devices), and the
    PBTI companion model is attached to every device.  The default
    ``fresh`` regime takes none of these branches and builds the exact
    historical network.
    """
    config = scenario.noc_config()
    regime = scenario.stress_regime
    pv = ProcessVariationModel.for_technology(
        config.technology, seed=scenario.effective_pv_seed
    )
    if regime.burn_in_years > 0.0:
        aging_model = (
            nbti_model if nbti_model is not None
            else NBTIModel.calibrated(config.technology)
        )
        pv = pv.with_burn_in(regime.burn_in_shift(aging_model))
    factory = make_policy_factory(
        scenario.policy, rotation_period=scenario.rotation_period
    )
    return Network(
        config,
        factory,
        traffic=build_traffic(scenario, iteration),
        nbti_model=nbti_model,
        pv_model=pv,
        pbti_model=regime.pbti_model(config.technology),
    )


def _phase(telemetry: Optional[Telemetry], name: str):
    """A runner-phase span, or a no-op for untraced runs."""
    if telemetry is None:
        return contextlib.nullcontext()
    return telemetry.span(name)


def run_scenario(
    scenario: ScenarioConfig,
    iteration: int = 0,
    nbti_model: Optional[NBTIModel] = None,
) -> ScenarioResult:
    """Run one scenario end to end and collect its measurements."""
    telemetry = None
    if scenario.telemetry is not None:
        telemetry = Telemetry(
            scenario.telemetry,
            run_name=f"{scenario.label}-{scenario.policy}-i{iteration}",
        )
    try:
        return _run_scenario(scenario, iteration, nbti_model, telemetry)
    except BaseException:
        # Finalize the trace files (the Chrome array needs its closing
        # bracket) before the failure propagates.
        if telemetry is not None:
            telemetry.tracer.close()
        raise


def _run_scenario(
    scenario: ScenarioConfig,
    iteration: int,
    nbti_model: Optional[NBTIModel],
    telemetry: Optional[Telemetry],
) -> ScenarioResult:
    started = time.perf_counter()
    with _phase(telemetry, "build"):
        network = build_network(scenario, iteration, nbti_model)
        injector = None
        if scenario.faults:
            from repro.faults.injector import FaultInjector

            injector = FaultInjector(scenario.faults, master_seed=scenario.seed)
            injector.apply(network)
        # Instrument before warm-up: the trace must contain every gating
        # transition so the power state at the measurement-window start
        # is derivable by replay (the reconciliation tests rely on it).
        if telemetry is not None:
            telemetry.attach(network)
            if injector is not None:
                telemetry.attach_faults(injector)
    built = time.perf_counter()
    if scenario.warmup:
        with _phase(telemetry, "warmup"):
            network.run(scenario.warmup)
            network.reset_nbti()
            network.reset_stats()
    with _phase(telemetry, "measure"):
        violations = network.run(
            scenario.cycles,
            validate_every=scenario.validate_every,
            raise_on_violation=False,
        )
    simulated = time.perf_counter()

    with _phase(telemetry, "harvest"):
        measured_port = port_id(scenario.measure_port)
        total_vcs = scenario.num_vcs * scenario.num_vnets
        duty = network.duty_cycles(scenario.measure_router, measured_port)
        initial = [
            network.device(scenario.measure_router, measured_port, vc).initial_vth
            for vc in range(total_vcs)
        ]
        # Lowest index on ties: the sensor banks' priority-encoder rule.
        md_vc = max(range(total_vcs), key=lambda v: (initial[v], -v))

        port_duty: Dict[Tuple[int, str], List[float]] = {}
        port_initial: Dict[Tuple[int, str], List[float]] = {}
        for router in network.routers:
            for port in router.input_ports:
                key = (router.router_id, port_name(port))
                port_duty[key] = router.duty_cycles(port)
                port_initial[key] = [
                    network.device(router.router_id, port, vc).initial_vth
                    for vc in range(total_vcs)
                ]
        net_stats = network.stats()

    return ScenarioResult(
        scenario=scenario,
        iteration=iteration,
        duty_cycles=duty,
        md_vc=md_vc,
        port_duty=port_duty,
        initial_vths=initial,
        port_initial_vths=port_initial,
        net_stats=net_stats,
        build_seconds=built - started,
        sim_seconds=simulated - built,
        violations=violations,
        fault_counters=injector.counters() if injector is not None else None,
        telemetry=(
            telemetry.finalize(network, scenario) if telemetry is not None else None
        ),
    )


def run_policies(
    scenario: ScenarioConfig,
    policies,
    iteration: int = 0,
    executor=None,
) -> Dict[str, ScenarioResult]:
    """Run the same scenario under several policies.

    Traffic and PV are identical across policies by construction; only
    the recovery decisions differ (the paper's comparison protocol).
    An :class:`~repro.experiments.parallel.Executor` fans the policies
    out across workers (results are identical to the serial path).
    """
    if executor is not None:
        results = executor.map(
            [(scenario.with_policy(policy), iteration) for policy in policies]
        )
        return dict(zip(policies, results))
    return {
        policy: run_scenario(scenario.with_policy(policy), iteration)
        for policy in policies
    }
