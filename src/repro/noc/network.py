"""Top-level network: builds and steps the whole simulated chip.

The :class:`Network` assembles routers, network interfaces, links and the
NBTI instrumentation from a :class:`~repro.noc.config.NoCConfig`, then
advances everything in lock-step.  Per cycle, the phases run in a fixed
order so the simulation is fully deterministic:

1. deliveries (flits, credits, Up_Down commands, Down_Up reports),
2. ejection at the NIs,
3. traffic injection into the NI source queues,
4. pre-VA recovery policies (routers, then NIs),
5. VC allocation,
6. switch allocation + traversal (routers), NI flit sends,
7. NBTI aging + sensor sampling.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from repro.nbti.model import NBTIModel
from repro.nbti.process_variation import ProcessVariationModel, VCKey
from repro.nbti.sensor import IdealSensor, NBTISensor, SensorBank
from repro.nbti.transistor import PMOSDevice
from repro.noc.buffer import VCBuffer
from repro.noc.config import NoCConfig
from repro.noc.flit import PacketFactory
from repro.noc.input_unit import InputUnit
from repro.noc.interface import NetworkInterface
from repro.noc.link import Channel
from repro.noc.output_unit import UpstreamPort
from repro.noc.policy_api import RecoveryPolicy
from repro.noc.router import InputWiring, OutputWiring, Router
from repro.noc.routing import build_routing
from repro.noc.topology import LOCAL, Topology, build_topology, port_name
from repro.stats.summary import QuantileSketch

#: Builds a fresh policy instance for each upstream port.
PolicyFactory = Callable[[], RecoveryPolicy]

#: Builds a fresh sensor model for each sensor bank.
SensorFactory = Callable[[], NBTISensor]


@dataclasses.dataclass
class SimStats:
    """Aggregate network statistics over the measured window."""

    cycles: int
    packets_injected: int
    packets_ejected: int
    flits_injected: int
    flits_ejected: int
    avg_packet_latency: float
    max_packet_latency: int
    throughput_flits_per_node_cycle: float
    p50_packet_latency: float = 0.0
    p95_packet_latency: float = 0.0
    p99_packet_latency: float = 0.0
    #: Down_Up watchdog accounting, summed over every (port, vnet)
    #: engine: degrade transitions and cycles spent in the degraded
    #: (sensor-less fallback) mode.  Zero in healthy runs.
    sensor_degrade_events: int = 0
    sensor_degraded_cycles: int = 0

    def __str__(self) -> str:
        return (
            f"cycles={self.cycles} pkts={self.packets_ejected}/{self.packets_injected} "
            f"lat(avg/p95/max)={self.avg_packet_latency:.2f}/"
            f"{self.p95_packet_latency:.0f}/{self.max_packet_latency} "
            f"thru={self.throughput_flits_per_node_cycle:.4f} flits/node/cycle"
        )


class Network:
    """A fully wired NoC with NBTI instrumentation.

    Parameters
    ----------
    config:
        Static network parameters.
    policy_factory:
        Called once per upstream port to create its recovery policy.
    traffic:
        Object with ``inject(cycle) -> list[(src, dst, length|None)]``;
        see :class:`repro.traffic.base.TrafficGenerator`.
    nbti_model:
        Shared aging model; default is the calibrated 45 nm model.
    pbti_model:
        Optional PBTI companion model attached to every device (joint
        NBTI+PBTI regimes; see :mod:`repro.nbti.regime`).  ``None``
        keeps the historical NBTI-only accounting.
    pv_model:
        Process-variation sampler for initial Vth values; default uses
        ``config.seed`` (scenario runners freeze it per scenario).
    sensor_factory:
        Builds the measurement model of each sensor bank (ideal default).
    """

    #: Engine override for :meth:`run` (class attribute so tests and
    #: benchmarks can force an arm globally or per instance without
    #: widening ``ScenarioConfig``):  ``None`` picks the SoA engine
    #: when eligible, else dense stepping; "soa" requires eligibility
    #: (raises otherwise); "stepped" forces the dense per-cycle loop,
    #: the oracle.
    force_engine: Optional[str] = None

    def __init__(
        self,
        config: NoCConfig,
        policy_factory: PolicyFactory,
        traffic=None,
        nbti_model: Optional[NBTIModel] = None,
        pv_model: Optional[ProcessVariationModel] = None,
        sensor_factory: Optional[SensorFactory] = None,
        pbti_model: Optional[NBTIModel] = None,
    ) -> None:
        self.config = config
        self.topology: Topology = build_topology(config.topology, config.num_nodes)
        self.routing = build_routing(config.routing, self.topology)
        self.traffic = traffic
        self.nbti_model = nbti_model if nbti_model is not None else NBTIModel.calibrated(config.technology)
        self.pbti_model = pbti_model
        self.pv_model = (
            pv_model
            if pv_model is not None
            else ProcessVariationModel.for_technology(config.technology, seed=config.seed)
        )
        self.sensor_factory = sensor_factory if sensor_factory is not None else IdealSensor
        self.packet_factory = PacketFactory()
        self.cycle = 0
        #: First cycle of the measurement window (bumped by reset_stats).
        self.stats_window_start = 0
        #: Flit-conservation offset: injected + pending - ejected -
        #: in_flight equals this at all times.  Zero from build;
        #: reset_stats re-bases it so mid-run counter resets (warm-up
        #: discard) don't fake conservation violations.
        self.conservation_baseline = 0
        #: The validation sweep plan of the :meth:`run` call in progress.
        self._sweep_plan = None

        self.routers: List[Router] = []
        self.interfaces: List[NetworkInterface] = []
        #: Devices keyed by (router, input port, vc) in canonical order.
        self.devices: Dict[VCKey, PMOSDevice] = {}
        # Flat traversal lists, filled by _build(): units carrying NBTI
        # devices, units with power/occupancy state, every delay line
        # (whole-network state inspection), and every sensor bank.
        self._nbti_units: List[InputUnit] = []
        #: Cycle of the last network-wide flush (see flush_nbti).
        self._nbti_flushed_at: Optional[int] = None
        self._power_units: List[InputUnit] = []
        self._all_channels: List[Channel] = []
        self._sensor_banks: List[SensorBank] = []

        self._build(policy_factory)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, policy_factory: PolicyFactory) -> None:
        cfg = self.config
        topo = self.topology

        # Canonical VC key order for PV sampling: router, port, vc.
        in_ports: Dict[int, List[int]] = {n: [LOCAL] for n in range(topo.num_nodes)}
        out_ports: Dict[int, List[int]] = {n: [LOCAL] for n in range(topo.num_nodes)}
        for link in topo.links():
            out_ports[link.src_router].append(link.src_port)
            in_ports[link.dst_router].append(link.dst_port)
        for ports in in_ports.values():
            ports.sort()
        for ports in out_ports.values():
            ports.sort()

        vc_keys: List[VCKey] = [
            (node, port, vc)
            for node in range(topo.num_nodes)
            for port in in_ports[node]
            for vc in range(cfg.total_vcs)
        ]
        initial_vths = self.pv_model.sample_chip(vc_keys)
        cycle_time = cfg.technology.clock_period_s * cfg.aging_time_scale
        for key, vth in initial_vths.items():
            self.devices[key] = PMOSDevice(
                vth, self.nbti_model, cycle_time_s=cycle_time,
                pbti_model=self.pbti_model,
            )

        # Channels for every upstream->downstream pair, keyed by the
        # downstream (router, input port).
        def make_channels(tag: str) -> Dict[str, Channel]:
            return {
                "data": Channel(f"{tag}.data", cfg.link_latency),
                "credit": Channel(f"{tag}.credit", cfg.link_latency),
                "up_down": Channel(f"{tag}.up_down", cfg.link_latency),
                "down_up": Channel(f"{tag}.down_up", cfg.link_latency),
            }

        # Build per-router input units and the NI ejection units.
        input_units: Dict[Tuple[int, int], InputUnit] = {}
        channels: Dict[Tuple[int, int], Dict[str, Channel]] = {}
        for node in range(topo.num_nodes):
            for port in in_ports[node]:
                tag = f"r{node}.{port_name(port)}"
                chans = make_channels(tag)
                channels[(node, port)] = chans
                buffers = []
                bank_devices = []
                for vc in range(cfg.total_vcs):
                    device = self.devices[(node, port, vc)]
                    buffers.append(VCBuffer(cfg.buffer_depth, device=device))
                    bank_devices.append(device)
                bank = SensorBank(
                    bank_devices,
                    sensor=self.sensor_factory(),
                    sample_period=cfg.sensor_sample_period,
                )
                route_fn = self._route_fn(node)
                input_units[(node, port)] = InputUnit(
                    buffers,
                    chans["credit"],
                    route_fn,
                    sensor_bank=bank,
                    wake_latency=cfg.wake_latency,
                )

        # Ejection units (NI side of each router's LOCAL output port).
        eject_units: Dict[int, InputUnit] = {}
        eject_channels: Dict[int, Dict[str, Channel]] = {}
        for node in range(topo.num_nodes):
            chans = make_channels(f"ni{node}.eject")
            eject_channels[node] = chans
            buffers = [
                VCBuffer(cfg.buffer_depth, device=None, track_nbti=False)
                for _ in range(cfg.total_vcs)
            ]
            eject_units[node] = InputUnit(
                buffers,
                chans["credit"],
                route_fn=lambda dst: LOCAL,
                sensor_bank=None,
                wake_latency=cfg.wake_latency,
            )

        # Upstream ports: one per router output port + one per NI.  The
        # Down_Up watchdog thresholds derive from the sensing physics:
        # a healthy bank heartbeats every sample_period (plus the link
        # latency), so two missed heartbeats is unambiguous staleness,
        # and verdict changes can never legitimately arrive closer than
        # one sample period apart.
        md_stale_after = 2 * cfg.sensor_sample_period + 2 * cfg.link_latency
        md_min_change_interval = cfg.sensor_sample_period

        def make_upstream(down_chans: Dict[str, Channel]) -> UpstreamPort:
            return UpstreamPort(
                cfg.num_vcs,
                cfg.buffer_depth,
                None,
                down_chans["data"],
                down_chans["up_down"],
                wake_latency=cfg.wake_latency,
                num_vnets=cfg.num_vnets,
                policy_factory=policy_factory,
                md_stale_after=md_stale_after,
                md_min_change_interval=md_min_change_interval,
            )

        # Router construction.
        neighbor_of: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for link in topo.links():
            neighbor_of[(link.src_router, link.src_port)] = (link.dst_router, link.dst_port)

        for node in range(topo.num_nodes):
            inputs: Dict[int, InputWiring] = {}
            for port in in_ports[node]:
                chans = channels[(node, port)]
                inputs[port] = InputWiring(
                    unit=input_units[(node, port)],
                    data_channel=chans["data"],
                    control_channel=chans["up_down"],
                )
            outputs: Dict[int, OutputWiring] = {}
            for port in out_ports[node]:
                if port == LOCAL:
                    down_chans = eject_channels[node]
                else:
                    down_node, down_port = neighbor_of[(node, port)]
                    down_chans = channels[(down_node, down_port)]
                outputs[port] = OutputWiring(
                    upstream=make_upstream(down_chans),
                    credit_channel=down_chans["credit"],
                    down_up_channel=down_chans["down_up"],
                )
            router = Router(node, inputs, outputs, cfg.num_vcs, cfg.num_vnets)
            for port in in_ports[node]:
                router.down_up_channels[port] = channels[(node, port)]["down_up"]
            self.routers.append(router)

        # Network interfaces: injection upstream drives LOCAL input port.
        for node in range(topo.num_nodes):
            local_chans = channels[(node, LOCAL)]
            injection = make_upstream(local_chans)
            ni = NetworkInterface(node, injection, eject_units[node])
            # The NI drains: credits + Down_Up of its injection port, and
            # data + Up_Down commands of its ejection unit.
            ni._inj_credit_channel = local_chans["credit"]
            ni._inj_down_up_channel = local_chans["down_up"]
            ni._eject_data_channel = eject_channels[node]["data"]
            ni._eject_control_channel = eject_channels[node]["up_down"]
            self.interfaces.append(ni)

        # Flat traversal lists (canonical build order).
        for node in range(topo.num_nodes):
            for port in in_ports[node]:
                unit = input_units[(node, port)]
                self._nbti_units.append(unit)
                self._power_units.append(unit)
                if unit.sensor_bank is not None:
                    self._sensor_banks.append(unit.sensor_bank)
            self._power_units.append(eject_units[node])
        for chans in channels.values():
            self._all_channels.extend(chans.values())
        for chans in eject_channels.values():
            self._all_channels.extend(chans.values())

        # Initial Down_Up latch: every upstream port learns each vnet's
        # most-degraded VC of its downstream before the first cycle.
        for node in range(topo.num_nodes):
            router = self.routers[node]
            for port in router.input_ports:
                bank = router.inputs[port].unit.sensor_bank
                if bank is None:
                    continue
                readings = bank.readings
                for vnet in range(cfg.num_vnets):
                    start = vnet * cfg.num_vcs
                    chunk = readings[start:start + cfg.num_vcs]
                    md = start + max(range(cfg.num_vcs), key=lambda i: (chunk[i], -i))
                    if port == LOCAL:
                        self.interfaces[node].injection_port.set_most_degraded(md, 0)
                    else:
                        up_node, up_port = neighbor_of_inverse(topo, node, port)
                        self.routers[up_node].outputs[up_port].upstream.set_most_degraded(md, 0)

    def _route_fn(self, node: int):
        routing = self.routing
        return lambda dst: routing.route(node, dst)

    # ------------------------------------------------------------------
    # Simulation loop
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the whole network by one cycle."""
        cycle = self.cycle
        for router in self.routers:
            router.phase_deliver(cycle)
        for ni in self.interfaces:
            self._ni_deliver(ni, cycle)
            ni.phase_eject(cycle)
        self._inject_traffic(cycle)
        for router in self.routers:
            router.phase_policy(cycle)
        for ni in self.interfaces:
            ni.phase_policy(cycle)
        for router in self.routers:
            router.phase_va(cycle)
        for ni in self.interfaces:
            ni.phase_va(cycle)
        for router in self.routers:
            router.phase_sa_st(cycle)
        for ni in self.interfaces:
            ni.phase_send(cycle)
        for router in self.routers:
            router.phase_nbti(cycle)
        self.cycle = cycle + 1

    def run(
        self,
        cycles: int,
        validate_every: int = 0,
        raise_on_violation: bool = True,
    ) -> int:
        """Advance the network ``cycles`` cycles; return the violation count.

        Eligible networks (see :meth:`_soa_eligible`) run on the
        event-directed SoA engine (:mod:`repro.noc.soa`), which skips
        provably idle components and cycles; everything else steps
        densely with :meth:`step`, the oracle the SoA engine reproduces
        byte for byte.  :attr:`force_engine` overrides the choice.

        Device counters are flushed on return, so post-run duty-cycle
        reads need no extra synchronization.

        Parameters
        ----------
        validate_every:
            When positive, run :func:`repro.noc.validation.validate_network`
            after every full N-cycle chunk counted from the start of the
            call (never after a final partial chunk), over one
            :class:`~repro.noc.validation.SweepPlan` built per call.
            A sweep costs ~10 µs on a 2x2 mesh and ~0.1-0.2 ms on an
            8x8 one: at N=16, 2-3 % of a loaded run's sim time.
            Validation does not affect the engine choice: the chosen
            engine advances chunk by chunk (the SoA engine stays
            attached across chunks; the sweep is read-only).
        raise_on_violation:
            With ``validate_every > 0``: raise ``RuntimeError`` on the
            first violation (debugging aid, the default) or count every
            violation and return the total (the campaigns' dependability
            metric).  Both callers share this one code path.
        """
        if cycles < 0:
            raise ValueError(f"cycles must be non-negative, got {cycles}")
        if validate_every < 0:
            raise ValueError(f"validate_every must be >= 0, got {validate_every}")
        force = self.force_engine
        if force not in (None, "soa", "stepped"):
            raise ValueError(f"unknown force_engine {force!r}")
        if force != "stepped" and self._soa_eligible():
            from repro.noc.soa import SoAEngine

            engine = SoAEngine(self).attached()
        elif force == "soa":
            raise RuntimeError(
                "force_engine='soa' but the network is not SoA-eligible "
                "(a policy that is not stable, or whose epochs are not "
                "declared)"
            )
        else:
            engine = contextlib.nullcontext(self._step_until)
        from repro.noc.validation import SweepPlan, validate_network

        start = self.cycle
        end = start + cycles
        chunk = validate_every or cycles
        violations = 0
        # One plan per call: the wiring may change between calls.
        self._sweep_plan = SweepPlan(self) if validate_every else None
        try:
            with engine as advance:
                while self.cycle < end:
                    advance(min(end, self.cycle + chunk))
                    if validate_every and (self.cycle - start) % validate_every == 0:
                        found = validate_network(self)
                        if found and raise_on_violation:
                            raise RuntimeError(
                                f"invariant violations at cycle {self.cycle}: "
                                + "; ".join(found[:5])
                            )
                        violations += len(found)
        finally:
            self._sweep_plan = None
        self.flush_nbti()
        return violations

    def _step_until(self, end: int) -> None:
        """Dense per-cycle stepping up to ``end`` (the oracle engine)."""
        while self.cycle < end:
            self.step()

    def _soa_eligible(self) -> bool:
        """Check SoA engine eligibility (see ``noc/soa.py``).

        Ineligible networks step densely.  Eligibility requires every
        recovery policy to be *stable*, with an untraced cycle-free
        healthy decision, a declared ``epoch_period`` (whose boundaries
        the engine re-runs the policy at), or a constant epoch.

        Faults, degraded watchdogs and the watchdog thresholds do not
        matter: every fault hook and watchdog declares the cycles it
        acts on, and the engine visits exactly those (see
        ``noc/soa.py``).  A traffic generator without
        ``next_injection_cycle`` support does not disqualify a run
        either; the engine then consults it every cycle.
        """
        for port in self.upstream_ports():
            for engine in port.engines:
                policy = engine.policy
                if not policy.stable:
                    return False
                if policy.cycle_free_decide and policy.trace is None:
                    continue
                period = getattr(policy, "epoch_period", None)
                if period is None and policy.epoch(0) != policy.epoch(1 << 30):
                    return False
        return True

    @staticmethod
    def _ni_deliver(ni: NetworkInterface, cycle: int) -> None:
        for vc in ni._inj_credit_channel.pop_ready(cycle):
            ni.injection_port.on_credit(vc)
        for vc in ni._inj_down_up_channel.pop_ready(cycle):
            ni.injection_port.set_most_degraded(vc, cycle)
        unit = ni.ejection_unit
        for command, vc in ni._eject_control_channel.pop_ready(cycle):
            unit.apply_command(command, vc, cycle)
        unit.tick_power()
        for vc, flit in ni._eject_data_channel.pop_ready(cycle):
            unit.receive_flit(vc, flit, cycle)

    def _inject_traffic(self, cycle: int) -> None:
        if self.traffic is None:
            return
        for injection in self.traffic.inject(cycle):
            src, dst, length = injection[0], injection[1], injection[2]
            vnet = injection[3] if len(injection) > 3 else 0
            pkt_len = length if length is not None else self.config.packet_length
            packet = self.packet_factory.create(src, dst, pkt_len, cycle, vnet=vnet)
            self.interfaces[src].enqueue(packet)

    # ------------------------------------------------------------------
    # NBTI / statistics accessors
    # ------------------------------------------------------------------
    def flush_nbti(self) -> None:
        """Book every device's unaccounted interval up to the current
        cycle (call before reading counters outside :meth:`run`).

        A second flush at the same cycle returns at once: the first
        moved every interval anchor up to the cycle, anchors never move
        back, and a power transition books its own interval, so there
        is nothing left to book.
        """
        cycle = self.cycle
        if cycle == self._nbti_flushed_at:
            return
        self._nbti_flushed_at = cycle
        for unit in self._nbti_units:
            unit.nbti_flush(cycle)

    def duty_cycles(self, router: int, port) -> List[float]:
        """Per-VC NBTI-duty-cycles (%) at a router input port.

        ``port`` accepts a port id or a compass name (``"east"``).
        """
        from repro.noc.topology import port_id

        pid = port if isinstance(port, int) else port_id(port)
        self.flush_nbti()
        return self.routers[router].duty_cycles(pid)

    def device(self, router: int, port, vc: int) -> PMOSDevice:
        """The PMOS device guarding one router input VC buffer."""
        from repro.noc.topology import port_id

        pid = port if isinstance(port, int) else port_id(port)
        self.flush_nbti()
        return self.devices[(router, pid, vc)]

    def reset_nbti(self) -> None:
        """Zero every duty-cycle counter (discard warm-up stress)."""
        for device in self.devices.values():
            device.counter.reset()
        # Interval accounting restarts here: the unbooked tail of the
        # warm-up is discarded along with the counters.
        cycle = self.cycle
        for unit in self._nbti_units:
            for ivc in unit.vcs:
                ivc.buffer.nbti_rebase(cycle)

    def upstream_ports(self) -> List[UpstreamPort]:
        """Every upstream port in the NoC (router outputs + NI injectors)."""
        ports = [
            router.outputs[p].upstream
            for router in self.routers
            for p in router.output_ports
        ]
        ports.extend(ni.injection_port for ni in self.interfaces)
        return ports

    def reset_stats(self) -> None:
        """Drop NI latency/throughput statistics (warm-up discard).

        Watchdog degrade *counters* restart with the window; the health
        state itself (timestamps, faulted flags) carries over — a port
        degraded during warm-up is still degraded afterwards.
        """
        for ni in self.interfaces:
            ni.reset_stats()
        for port in self.upstream_ports():
            for engine in port.engines:
                engine.degrade_events = 0
                engine.degraded_cycles = 0
        self.stats_window_start = self.cycle
        pending = sum(ni.pending_flits for ni in self.interfaces)
        self.conservation_baseline = pending - self.in_flight_flits()

    def in_flight_flits(self) -> int:
        """Flits currently buffered or on a link (conservation checks)."""
        buffered = sum(r.occupancy() for r in self.routers)
        buffered += sum(ni.ejection_unit.occupancy() for ni in self.interfaces)
        on_links = 0
        for router in self.routers:
            for port in router.input_ports:
                on_links += router.inputs[port].data_channel.in_flight
        for ni in self.interfaces:
            on_links += ni._eject_data_channel.in_flight
        pending = sum(ni.pending_flits for ni in self.interfaces)
        return buffered + on_links + pending

    def stats(self) -> SimStats:
        """Aggregate latency/throughput statistics."""
        records = [rec for ni in self.interfaces for rec in ni.ejection_records]
        latencies = sorted(rec.latency for rec in records)
        flits_ejected = sum(ni.flits_ejected for ni in self.interfaces)
        window = self.cycle - self.stats_window_start
        cycles = max(1, window)

        # Streaming percentiles: below the sketch's sample budget this
        # reproduces sorted(latencies)[int(q*(n-1))] exactly, so golden
        # artifacts are byte-stable; beyond it, memory stays bounded.
        sketch = QuantileSketch()
        for latency in latencies:
            sketch.add(latency)

        def percentile(q: float) -> float:
            return float(sketch.quantile(q))

        degrade_events = 0
        degraded_cycles = 0
        for port in self.upstream_ports():
            for engine in port.engines:
                degrade_events += engine.degrade_events
                degraded_cycles += engine.degraded_cycles

        return SimStats(
            cycles=window,
            packets_injected=sum(ni.packets_injected for ni in self.interfaces),
            packets_ejected=sum(ni.packets_ejected for ni in self.interfaces),
            flits_injected=sum(ni.flits_injected for ni in self.interfaces),
            flits_ejected=flits_ejected,
            avg_packet_latency=(sum(latencies) / len(latencies)) if latencies else 0.0,
            max_packet_latency=max(latencies) if latencies else 0,
            throughput_flits_per_node_cycle=flits_ejected / (cycles * self.config.num_nodes),
            p50_packet_latency=percentile(0.50),
            p95_packet_latency=percentile(0.95),
            p99_packet_latency=percentile(0.99),
            sensor_degrade_events=degrade_events,
            sensor_degraded_cycles=degraded_cycles,
        )


def neighbor_of_inverse(topology: Topology, node: int, in_port: int) -> Tuple[int, int]:
    """Find the (upstream router, upstream output port) feeding an input
    port — the inverse of the topology's link direction.

    Backed by a per-topology ``(dst, dst_port) -> (src, src_port)`` map
    built on first use, mirroring :meth:`Topology.neighbor`'s forward
    map: network construction queries this once per input port, and a
    linear link scan each time made the wiring quadratic on large
    meshes.
    """
    table = getattr(topology, "_upstream_map", None)
    if table is None:
        table = {
            (link.dst_router, link.dst_port): (link.src_router, link.src_port)
            for link in topology.links()
        }
        topology._upstream_map = table
    try:
        return table[(node, in_port)]
    except KeyError:
        raise ValueError(
            f"no upstream feeds router {node} port {port_name(in_port)}"
        ) from None
