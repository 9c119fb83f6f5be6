"""Install :class:`FaultSpec` hooks into a built :class:`Network`.

The injector is the only component that knows where each fault kind
physically lives:

* sensor faults install a :class:`SensorBankFault` as the targeted
  ``SensorBank.fault`` hook,
* Down_Up / Up_Down faults swap the targeted control channel for a
  :class:`~repro.faults.channels.FaultyChannel` (both the sender's and
  the receiver's reference, so the wiring stays consistent),
* stuck-gated faults install per-buffer ``wake_fault`` hooks, and
* kinds that can lose wake commands (``up-down-drop``, ``stuck-gated``)
  additionally arm the emergency wake-on-arrival relaxation
  (``VCBuffer.on_push_unpowered``) on the targeted buffers so the
  network degrades instead of crashing (documented in
  docs/RESILIENCE.md; the power-agreement validator tolerates the
  transient disagreement only for these kinds).

The simulator core stays fault-free unless ``apply`` is called; every
hook's randomness is seeded via :func:`repro.faults.spec.derive_seed`.
Every hook also declares the cycles it acts on (window edges, noise
cycles, measurements), so faulted networks run on the SoA engine.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.noc.network import Network, neighbor_of_inverse
from repro.noc.topology import LOCAL, port_id
from repro.faults.channels import FaultyChannel
from repro.faults.spec import DOWN_UP_KINDS, FaultSpec, derive_seed
from repro.telemetry import probes


class SensorBankFault:
    """``SensorBank.fault`` hook: dropout or stuck-at behaviour.

    ``sensor-dropout`` suppresses measurements inside the activity
    window — the verdict freezes and, because the bank's
    ``last_sample_cycle`` stops advancing, the router stops emitting the
    Down_Up heartbeat (which is exactly what the upstream staleness
    watchdog detects).  ``stuck-sensor`` keeps measuring but distorts
    the outcome: a pinned device reading or a pinned reported VC.

    A faulted bank is visited by ``Router.phase_nbti`` every cycle when
    stepping, and only at :meth:`next_event` cycles on the SoA engine.
    In between, a visit would only repeat a counted effect (a dropped
    sample, a stuck report per vnet), so the hook books the cycles it
    was not visited on at its next visit and at :meth:`book` calls.

    Parameters
    ----------
    spec:
        The fault.
    num_vcs:
        VCs per vnet: ``phase_nbti`` reduces each vnet's slice of the
        bank separately, and a stuck VC is reported once per slice.
    cycle:
        The cycle the hook is installed at (the first it accounts for).
    """

    __slots__ = (
        "spec", "num_vcs", "samples_dropped", "stuck_reports", "trace",
        "_cycle",
    )

    def __init__(self, spec: FaultSpec, num_vcs: int, cycle: int = 0) -> None:
        self.spec = spec
        self.num_vcs = num_vcs
        self.samples_dropped = 0
        self.stuck_reports = 0
        self.trace = None
        # Last visited cycle; everything before it is booked.
        self._cycle = cycle - 1

    def sample(self, bank, cycle: int) -> int:
        if cycle > self._cycle + 1:
            self.book(bank, cycle)
        self._cycle = cycle
        spec = self.spec
        if not spec.active(cycle):
            return bank._sample(cycle)
        if spec.kind == "sensor-dropout":
            due = (
                bank._last_sample_cycle < 0
                or cycle - bank._last_sample_cycle >= bank.sample_period
            )
            if due:
                self.samples_dropped += 1
                if self.trace is not None:
                    self.trace.instant(
                        probes.FAULT_SAMPLE_DROPPED, "fault",
                        tid=bank.trace_id, ts=cycle,
                    )
            return bank._last_md
        # stuck-sensor: measure normally, then distort.
        md = bank._sample(cycle)
        if spec.stuck_reading is not None and bank._last_sample_cycle == cycle:
            vc = spec.vc if spec.vc is not None else 0
            bank._last_readings[vc % len(bank.devices)] = spec.stuck_reading
            bank._last_md = bank._argmax(bank._last_readings)
            md = bank._last_md
        return md

    def most_degraded_in(self, bank, start: int, count: int) -> int:
        spec = self.spec
        if (
            spec.kind == "stuck-sensor"
            and spec.stuck_vc is not None
            and spec.active(self._cycle)
        ):
            self.stuck_reports += 1
            if self.trace is not None:
                self.trace.instant(
                    probes.FAULT_STUCK_REPORT, "fault",
                    tid=bank.trace_id,
                    args={"vc": start + (spec.stuck_vc % count)},
                    ts=self._cycle,
                )
            return start + (spec.stuck_vc % count)
        return bank._most_degraded_in(start, count)

    def next_event(self, bank, cycle: int, due: int):
        """The first cycle ``>= cycle`` the bank must be visited on.

        ``due`` is the bank's next regular measurement.  A dropout
        window suppresses the measurements due inside it (the next one
        is then the window's end), and both window edges are events: a
        stuck verdict flips there, which triggers a Down_Up send.
        Returns ``inf`` when nothing is left to visit for.
        """
        spec = self.spec
        end = None if spec.duration is None else spec.onset + spec.duration
        if spec.kind == "sensor-dropout" and spec.active(due):
            due = end if end is not None else float("inf")
        for edge in (spec.onset, end):
            if edge is not None and cycle <= edge < due:
                due = edge
        return due

    def book(self, bank, cycle: int) -> None:
        """Book every cycle after the last visit, up to ``cycle``
        (exclusive), as if the bank had been visited on each.

        Nothing a visit reads can change on an unvisited cycle: the
        window edges and the measurements are visits (see
        :meth:`next_event`).  Trace events are emitted cycle by cycle,
        in the order visits would have emitted them.
        """
        first = self._cycle + 1
        if cycle <= first:
            return
        self._cycle = cycle - 1
        spec = self.spec
        start = max(first, spec.onset)
        stop = cycle if spec.duration is None else min(cycle, spec.onset + spec.duration)
        trace = self.trace
        if spec.kind == "sensor-dropout":
            last = bank._last_sample_cycle
            if last >= 0:
                start = max(start, last + bank.sample_period)
            if stop > start:
                self.samples_dropped += stop - start
                if trace is not None:
                    for c in range(start, stop):
                        trace.instant(
                            probes.FAULT_SAMPLE_DROPPED, "fault",
                            tid=bank.trace_id, ts=c,
                        )
        elif spec.stuck_vc is not None and stop > start:
            width = self.num_vcs
            slices = range(0, len(bank.devices), width)
            self.stuck_reports += (stop - start) * len(slices)
            if trace is not None:
                for c in range(start, stop):
                    for first_vc in slices:
                        trace.instant(
                            probes.FAULT_STUCK_REPORT, "fault",
                            tid=bank.trace_id,
                            args={"vc": first_vc + spec.stuck_vc % width},
                            ts=c,
                        )


class WakeFault:
    """``VCBuffer.wake_fault`` hook: lose or slow wake commands."""

    __slots__ = ("spec", "clock", "blocked", "delayed", "trace", "_rng")

    def __init__(self, spec: FaultSpec, clock: Callable[[], int], seed: int) -> None:
        self.spec = spec
        self.clock = clock
        self.blocked = 0
        self.delayed = 0
        self.trace = None
        self._rng = random.Random(seed)

    def __call__(self, latency: int) -> Optional[int]:
        spec = self.spec
        if not spec.active(self.clock()):
            return latency
        if self._rng.random() >= spec.rate:
            return latency
        if spec.extra_wake_cycles is None:
            self.blocked += 1
            if self.trace is not None:
                self.trace.instant(
                    probes.FAULT_WAKE_BLOCKED, "fault", ts=self.clock()
                )
            return None
        self.delayed += 1
        if self.trace is not None:
            self.trace.instant(
                probes.FAULT_WAKE_DELAYED, "fault",
                args={"extra": spec.extra_wake_cycles}, ts=self.clock(),
            )
        return latency + spec.extra_wake_cycles


class EmergencyWake:
    """``VCBuffer.on_push_unpowered`` hook: wake-on-arrival relaxation.

    Models a buffer whose arriving flit energizes the rail itself (the
    wordline doubles as a wake signal).  Unconditional — once a wake has
    been lost, the stranded flit may arrive long after the fault's
    window closed and must still be absorbed rather than crash.
    """

    __slots__ = ("count", "trace")

    def __init__(self) -> None:
        self.count = 0
        self.trace = None

    def __call__(self, buffer, flit) -> bool:
        self.count += 1
        if self.trace is not None:
            self.trace.instant(
                probes.FAULT_EMERGENCY_WAKE, "fault", tid=buffer.trace_id
            )
        return True


class FaultInjector:
    """Applies a list of :class:`FaultSpec` to a built network.

    Parameters
    ----------
    specs:
        The faults to install.  At most one spec may target a given
        (site, channel) pair — stacking two faults on one physical wire
        is rejected rather than silently composed.
    master_seed:
        Campaign-level seed mixed into every per-spec RNG.
    """

    def __init__(self, specs: Sequence[FaultSpec], master_seed: int = 0) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.master_seed = master_seed
        self.bank_faults: List[SensorBankFault] = []
        self.down_up_channels: List[FaultyChannel] = []
        self.up_down_channels: List[FaultyChannel] = []
        self.wake_faults: List[WakeFault] = []
        self.emergency_wakes: List[EmergencyWake] = []
        self._applied = False

    # ------------------------------------------------------------------
    def apply(self, network: Network) -> "FaultInjector":
        """Install every spec's hooks; idempotence is not supported."""
        if self._applied:
            raise RuntimeError("FaultInjector.apply may only be called once")
        self._applied = True
        taken: Dict[Tuple[int, int, str], FaultSpec] = {}
        for spec in self.specs:
            node, pid = self._resolve_site(network, spec)
            wire = (
                "down_up" if spec.kind in DOWN_UP_KINDS
                else "up_down" if spec.kind == "up-down-drop"
                else spec.kind
            )
            key = (node, pid, wire)
            if key in taken:
                raise ValueError(
                    f"faults {taken[key]} and {spec} target the same site"
                )
            taken[key] = spec
            if spec.kind in ("stuck-sensor", "sensor-dropout"):
                self._install_bank_fault(network, spec, node, pid)
            elif spec.kind in DOWN_UP_KINDS:
                self._swap_down_up(network, spec, node, pid)
            elif spec.kind == "up-down-drop":
                self._swap_up_down(network, spec, node, pid)
            elif spec.kind == "stuck-gated":
                self._install_wake_fault(network, spec, node, pid)
            else:  # pragma: no cover - FaultSpec validates kinds
                raise AssertionError(f"unhandled fault kind {spec.kind}")
        return self

    # ------------------------------------------------------------------
    def _resolve_site(self, network: Network, spec: FaultSpec) -> Tuple[int, int]:
        if not 0 <= spec.router < len(network.routers):
            raise ValueError(
                f"fault targets router {spec.router} but the network has "
                f"{len(network.routers)} routers"
            )
        pid = port_id(spec.port)
        router = network.routers[spec.router]
        if pid not in router.inputs:
            have = sorted(router.inputs)
            raise ValueError(
                f"router {spec.router} has no input port {spec.port!r} "
                f"(ports: {have})"
            )
        return spec.router, pid

    def _install_bank_fault(self, network: Network, spec: FaultSpec, node: int, pid: int) -> None:
        bank = network.routers[node].inputs[pid].unit.sensor_bank
        if bank is None:
            raise ValueError(f"no sensor bank at router {node} port {spec.port!r}")
        if bank.fault is not None:
            raise ValueError(
                f"sensor bank at router {node} port {spec.port!r} already faulted"
            )
        fault = SensorBankFault(spec, network.config.num_vcs, network.cycle)
        bank.fault = fault
        self.bank_faults.append(fault)

    def _swap_down_up(self, network: Network, spec: FaultSpec, node: int, pid: int) -> None:
        router = network.routers[node]
        old = router.down_up_channels[pid]
        faulty: FaultyChannel = FaultyChannel(
            old.name,
            old.latency,
            onset=spec.onset,
            duration=spec.duration,
            drop_probability=spec.rate if spec.kind == "down-up-drop" else 0.0,
            extra_delay=spec.delay if spec.kind == "down-up-delay" else 0,
            noise_probability=spec.rate if spec.kind == "down-up-corrupt" else 0.0,
            noise_values=(
                list(range(network.config.total_vcs))
                if spec.kind == "down-up-corrupt" else ()
            ),
            seed=derive_seed(spec, self.master_seed, "down_up"),
        ).adopt(old)
        self._replace_channel(network, old, faulty)
        router.down_up_channels[pid] = faulty
        if pid == LOCAL:
            network.interfaces[node]._inj_down_up_channel = faulty
        else:
            up_node, up_port = neighbor_of_inverse(network.topology, node, pid)
            network.routers[up_node].outputs[up_port].down_up_channel = faulty
        self.down_up_channels.append(faulty)

    def _swap_up_down(self, network: Network, spec: FaultSpec, node: int, pid: int) -> None:
        wiring = network.routers[node].inputs[pid]
        old = wiring.control_channel
        drop_filter = None
        if spec.command is not None:
            wanted = spec.command
            drop_filter = lambda item, _w=wanted: item[0] == _w
        faulty: FaultyChannel = FaultyChannel(
            old.name,
            old.latency,
            onset=spec.onset,
            duration=spec.duration,
            drop_probability=spec.rate,
            drop_filter=drop_filter,
            seed=derive_seed(spec, self.master_seed, "up_down"),
        ).adopt(old)
        self._replace_channel(network, old, faulty)
        wiring.control_channel = faulty
        if pid == LOCAL:
            network.interfaces[node].injection_port.control_channel = faulty
        else:
            up_node, up_port = neighbor_of_inverse(network.topology, node, pid)
            network.routers[up_node].outputs[up_port].upstream.control_channel = faulty
        self.up_down_channels.append(faulty)
        # Lost wakes would otherwise hard-crash on the next flit arrival.
        if spec.command != "gate":
            self._arm_emergency_wake(network, spec, node, pid)

    @staticmethod
    def _replace_channel(network: Network, old, new) -> None:
        """Swap ``new`` in for ``old`` in the whole-network channel list."""
        channels = network._all_channels
        channels[channels.index(old)] = new

    def _install_wake_fault(self, network: Network, spec: FaultSpec, node: int, pid: int) -> None:
        unit = network.routers[node].inputs[pid].unit
        clock = lambda: network.cycle
        for vc, ivc in enumerate(unit.vcs):
            if spec.vc is not None and vc != spec.vc:
                continue
            fault = WakeFault(
                spec, clock, derive_seed(spec, self.master_seed, f"wake{vc}")
            )
            ivc.buffer.wake_fault = fault
            self.wake_faults.append(fault)
        self._arm_emergency_wake(network, spec, node, pid)

    def _arm_emergency_wake(self, network: Network, spec: FaultSpec, node: int, pid: int) -> None:
        unit = network.routers[node].inputs[pid].unit
        for vc, ivc in enumerate(unit.vcs):
            if spec.vc is not None and vc != spec.vc:
                continue
            if ivc.buffer.on_push_unpowered is None:
                hook = EmergencyWake()
                ivc.buffer.on_push_unpowered = hook
                self.emergency_wakes.append(hook)

    # ------------------------------------------------------------------
    def attach_telemetry(self, tracer) -> None:
        """Point every installed hook at a tracer (see repro.telemetry).

        Call after :meth:`apply`; fault activity then shows up as
        ``fault.*`` instant events alongside the component probes.
        """
        for fault in self.bank_faults:
            fault.trace = tracer
        for fault in self.wake_faults:
            fault.trace = tracer
        for hook in self.emergency_wakes:
            hook.trace = tracer

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """Aggregate fault-activity counters across every installed hook."""
        return {
            "sensor_samples_dropped": sum(f.samples_dropped for f in self.bank_faults),
            "sensor_stuck_reports": sum(f.stuck_reports for f in self.bank_faults),
            "down_up_dropped": sum(c.dropped for c in self.down_up_channels),
            "down_up_delayed": sum(c.delayed for c in self.down_up_channels),
            "down_up_corrupted": sum(c.corrupted for c in self.down_up_channels),
            "up_down_dropped": sum(c.dropped for c in self.up_down_channels),
            "wakes_blocked": sum(f.blocked for f in self.wake_faults),
            "wakes_delayed": sum(f.delayed for f in self.wake_faults),
            "emergency_wakes": sum(h.count for h in self.emergency_wakes),
        }
