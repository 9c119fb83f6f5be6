"""The 3-stage virtual-channel wormhole router.

Pipeline (paper Sec. III, Garnet-style):

1. **BW + RC** — an arriving flit is written into its VC buffer; a head
   flit computes its route.
2. **VA + SA** — the *pre-VA recovery policy* runs first (the paper's
   addition), then VC allocation grants downstream VCs to new packets and
   switch allocation picks at most one flit per input port and per output
   port.
3. **ST + LT** — granted flits traverse the crossbar and the link,
   arriving at the next router after the link latency.

A flit therefore spends a minimum of 3 cycles per hop.  The router never
mixes packets in a VC buffer and holds a VC from head arrival to tail
departure (wormhole with per-packet VCs), which together with XY routing
keeps the mesh deadlock-free.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.noc.arbiter import RoundRobinArbiter
from repro.noc.input_unit import InputUnit, InputVC
from repro.noc.link import Channel
from repro.noc.output_unit import UpstreamPort
from repro.noc.policy_api import OutVCState
from repro.noc.topology import port_name

#: Hot-loop constant for the inlined credit check in phase_sa_st.
_ACTIVE = OutVCState.ACTIVE


@dataclasses.dataclass
class InputWiring:
    """An input port with the channels arriving from its upstream."""

    unit: InputUnit
    data_channel: Channel
    control_channel: Channel


@dataclasses.dataclass
class OutputWiring:
    """An output port with the channels arriving back from downstream."""

    upstream: UpstreamPort
    credit_channel: Channel
    down_up_channel: Channel


class Router:
    """One NoC router; the :class:`~repro.noc.network.Network` drives its
    per-cycle phases in lock-step with all other routers.

    Parameters
    ----------
    router_id:
        Node id of the tile this router belongs to.
    inputs, outputs:
        Wiring per connected port id (LOCAL plus the topology links).
    num_vcs:
        Virtual channels per virtual network.
    num_vnets:
        Virtual networks per port (total VCs = ``num_vcs * num_vnets``).
    """

    def __init__(
        self,
        router_id: int,
        inputs: Dict[int, InputWiring],
        outputs: Dict[int, OutputWiring],
        num_vcs: int,
        num_vnets: int = 1,
    ) -> None:
        self.router_id = router_id
        self.inputs = inputs
        self.outputs = outputs
        self.num_vcs = num_vcs
        self.num_vnets = num_vnets
        self.total_vcs = num_vcs * num_vnets
        self.input_ports: List[int] = sorted(inputs)
        self.output_ports: List[int] = sorted(outputs)
        #: Output port id -> its upstream port (hot-path lookup).
        self._upstreams: Dict[int, UpstreamPort] = {
            p: outputs[p].upstream for p in self.output_ports
        }
        #: Per-(output port, vnet) count of resident packets still
        #: awaiting VA — the paper's ``is_new_traffic_outport_x()`` in
        #: O(1), kept per message class.
        self.va_pending: Dict[int, List[int]] = {
            p: [0] * num_vnets for p in self.output_ports
        }
        self._va_arbiters: Dict[Tuple[int, int], RoundRobinArbiter] = {
            (p, vn): RoundRobinArbiter(len(self.input_ports) * self.total_vcs)
            for p in self.output_ports
            for vn in range(num_vnets)
        }
        #: Hot-path VA scan order: ((output port, vnet), the port's
        #: va_pending list, vnet, upstream port, VA arbiter).
        self._va_scan: List[tuple] = [
            (key, self.va_pending[key[0]], key[1], self._upstreams[key[0]], arbiter)
            for key, arbiter in self._va_arbiters.items()
        ]
        self._sa_input_arbiters: Dict[int, RoundRobinArbiter] = {
            p: RoundRobinArbiter(self.total_vcs) for p in self.input_ports
        }
        #: Hot-path scan order: (input index, input unit, SA input
        #: arbiter), saving the per-cycle wiring-dict lookups in the
        #: VA/SA phases.
        self._unit_scan: List[Tuple[int, InputUnit, RoundRobinArbiter]] = [
            (i, inputs[p].unit, self._sa_input_arbiters[p])
            for i, p in enumerate(self.input_ports)
        ]
        self._sa_output_arbiters: Dict[int, RoundRobinArbiter] = {
            p: RoundRobinArbiter(len(self.input_ports)) for p in self.output_ports
        }
        self.flits_routed = 0
        #: Set by the network at wiring time: maps an input port to the
        #: Down_Up channel toward its upstream.
        self.down_up_channels: Dict[int, Channel] = {}
        #: Last most-degraded id sent upstream per (input port, vnet).
        self._last_md_sent: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # Phase 0: deliveries (links, credits, control, Down_Up)
    # ------------------------------------------------------------------
    def phase_deliver(self, cycle: int) -> None:
        """Apply everything whose link latency elapsed this cycle."""
        for port in self.input_ports:
            wiring = self.inputs[port]
            unit = wiring.unit
            for command, vc in wiring.control_channel.pop_ready(cycle):
                unit.apply_command(command, vc, cycle)
            unit.tick_power()
            for vc, flit in wiring.data_channel.pop_ready(cycle):
                unit.receive_flit(vc, flit, cycle)
                if flit.is_head:
                    outport = unit.vcs[vc].outport
                    self.va_pending[outport][flit.vnet] += 1
        for port in self.output_ports:
            wiring = self.outputs[port]
            for vc in wiring.credit_channel.pop_ready(cycle):
                wiring.upstream.on_credit(vc)
            for vc in wiring.down_up_channel.pop_ready(cycle):
                wiring.upstream.set_most_degraded(vc, cycle)

    # ------------------------------------------------------------------
    # Phase 1: pre-VA recovery policies
    # ------------------------------------------------------------------
    def phase_policy(self, cycle: int) -> None:
        """Run the recovery policies of every output port (one per vnet)."""
        for port in self.output_ports:
            upstream = self.outputs[port].upstream
            pending = self.va_pending[port]
            for vnet in range(self.num_vnets):
                upstream.set_new_traffic(pending[vnet] > 0, vnet)
            upstream.run_policy(cycle)

    # ------------------------------------------------------------------
    # Phase 2: VC allocation
    # ------------------------------------------------------------------
    def phase_va(self, cycle: int) -> bool:
        """Grant at most one downstream VC per (output port, vnet) per
        cycle, restricted to the requester's own virtual network.

        Returns True when some request is still pending afterwards (the
        event-directed engine uses this to keep or drop the router from
        its VA work set; the dense engine ignores it)."""
        remaining = False
        requesters = None
        for key, pending, vnet, upstream, arbiter in self._va_scan:
            if pending[vnet] <= 0:
                continue
            if not upstream.has_allocatable(cycle, vnet):
                remaining = True
                continue
            if requesters is None:
                # One scan serves every (port, vnet): a grant only takes
                # its own requester out of the running.
                requesters = self._va_requesters(cycle)
            group = requesters.get(key)
            if group is None:
                remaining = True
                continue
            ivc = group[arbiter.grant(group)]
            out_vc = upstream.allocate_vc(cycle, packet_id=ivc.packet_id, vnet=vnet)
            if out_vc is None:
                remaining = True
                continue
            ivc.out_vc = out_vc
            ivc.sa_ready_at = cycle + 1
            pending[vnet] -= 1
            if pending[vnet] > 0:
                remaining = True
        return remaining

    def _va_requesters(self, cycle: int) -> Dict[Tuple[int, int], Dict[int, InputVC]]:
        """VA requesters per (output port, vnet): flat arbiter index ->
        input VC, in ascending index order."""
        groups: Dict[Tuple[int, int], Dict[int, InputVC]] = {}
        width = self.total_vcs
        base = 0
        for _, unit, _ in self._unit_scan:
            if unit.busy_count:  # no resident packet => no VA request
                for vc, ivc in enumerate(unit.vcs):
                    if ivc.busy and ivc.out_vc is None:
                        flits = ivc.buffer._flits
                        # BW+RC is stage 1: the head may request VA the
                        # cycle *after* it was written.
                        if flits and flits[0].arrived_cycle < cycle:
                            key = (ivc.outport, ivc.vnet)
                            group = groups.get(key)
                            if group is None:
                                groups[key] = {base + vc: ivc}
                            else:
                                group[base + vc] = ivc
            base += width
        return groups

    # ------------------------------------------------------------------
    # Phase 3: switch allocation + switch/link traversal
    # ------------------------------------------------------------------
    def phase_sa_st(self, cycle: int) -> int:
        """Move at most one flit per input port and per output port.

        Returns the number of flits traversed (the event-directed engine
        uses 0 as the trigger to re-check whether the router still holds
        resident packets; the dense engine ignores it)."""
        # Stage 1: each input port nominates one eligible VC.  A VC
        # competes for the switch when it holds an allocated output VC,
        # its SA hold-off has elapsed, its front flit arrived on an
        # earlier cycle (BW+RC is stage 1), and the upstream has a
        # credit (UpstreamPort.can_send, inlined).  Ports with no
        # resident packet are skipped outright.
        upstreams = self._upstreams
        nominations = None  # (out port, input index, unit, vc), inputs ascending
        for in_idx, unit, arbiter in self._unit_scan:
            if unit.busy_count == 0:
                continue
            eligible = None
            for vc, ivc in enumerate(unit.vcs):
                out_vc = ivc.out_vc
                if out_vc is None or ivc.sa_ready_at > cycle:
                    continue
                flits = ivc.buffer._flits
                if not flits or flits[0].arrived_cycle >= cycle:
                    continue
                entry = upstreams[ivc.outport].entries[out_vc]
                if entry.state is _ACTIVE and entry.credits > 0:
                    if eligible is None:
                        eligible = [vc]
                    else:
                        eligible.append(vc)
            if eligible is not None:
                vc = arbiter.grant(eligible)
                nomination = (unit.vcs[vc].outport, in_idx, unit, vc)
                if nominations is None:
                    nominations = [nomination]
                else:
                    nominations.append(nomination)
        if nominations is None:
            return 0
        # Stage 2: each targeted output port accepts one nomination.
        arbiters = self._sa_output_arbiters
        if len(nominations) == 1:
            winners = nominations
            out_port, in_idx, _, _ = nominations[0]
            arbiters[out_port].grant((in_idx,))
        else:
            # out port -> {input index: nomination}, in port order.
            targets: Dict[int, Dict[int, tuple]] = {}
            for nomination in nominations:
                group = targets.get(nomination[0])
                if group is None:
                    targets[nomination[0]] = {nomination[1]: nomination}
                else:
                    group[nomination[1]] = nomination
            winners = [
                group[arbiters[out_port].grant(group)]
                for out_port, group in sorted(targets.items())
            ]
        # The winners traverse the switch and the link.  Each nomination
        # checked its entry's state and credit this very cycle, and no
        # other input can send on that entry, so send_flit's guards hold.
        for out_port, _, unit, vc in winners:
            ivc = unit.vcs[vc]
            out_vc = ivc.out_vc
            # Inlined InputUnit.pop_flit ...
            flit = ivc.buffer._flits.popleft()
            unit.credit_channel.send(vc, cycle)
            tail = flit.is_tail
            if tail:
                ivc.release()
                unit.busy_count -= 1
            flit.hops += 1
            # ... and UpstreamPort.send_flit.
            upstream = upstreams[out_port]
            entry = upstream.entries[out_vc]
            entry.credits -= 1
            upstream.data_channel.send((out_vc, flit), cycle)
            if tail:
                # The release waits for the last credit (on_credit): a
                # send always leaves one outstanding.
                entry.tail_sent = True
        moved = len(winners)
        self.flits_routed += moved
        return moved

    # ------------------------------------------------------------------
    # Phase 4: NBTI aging + sensor sampling
    # ------------------------------------------------------------------
    def phase_nbti(self, cycle: int) -> None:
        """Refresh sensor samples and the Down_Up most-degraded reports.

        One most-degraded id is maintained per (input port, vnet) —
        the comparator reduces each vnet's sensor slice independently.
        The Down_Up wires always carry a value; re-sending on changes
        and on every actual sensor measurement (a once-per-sample-period
        heartbeat, plus the initial latch done at build time) is an
        exact equivalent that also lets the upstream watchdog observe a
        dead sensor bank as a missing heartbeat.

        Aging uses interval accounting: device counters are only flushed
        up to ``cycle + 1`` when a measurement is actually due (the old
        per-cycle order ticked before sampling, so the sample cycle
        itself counts in the post-delivery power state).  Between
        samples a fault-free bank's readings — and hence the per-vnet
        most-degraded reduction — cannot change, so the whole phase is
        skipped.  A fault hook may distort the reduction on any cycle,
        so faulted banks take the dense path on every call (the SoA
        engine calls only at the hook's declared events; the hook books
        the cycles in between).  The per-cycle
        tick schedule this replaces survives only as a test oracle
        (``per_cycle_reference`` in ``tests/conftest.py``).
        """
        n_vcs = self.num_vcs
        for port in self.input_ports:
            unit = self.inputs[port].unit
            bank = unit.sensor_bank
            if bank is None:
                continue
            if bank.fault is None:
                last = bank.last_sample_cycle
                if last >= 0 and cycle - last < bank.sample_period:
                    continue  # no measurement due; Down_Up holds its value
            unit.nbti_flush(cycle + 1)
            bank.sample(cycle)
            refreshed = bank.last_sample_cycle == cycle
            for vnet in range(self.num_vnets):
                current = bank.most_degraded_in(vnet * n_vcs, n_vcs)
                key = (port, vnet)
                if refreshed or self._last_md_sent.get(key) != current:
                    self._last_md_sent[key] = current
                    self._down_up_send(port, current, cycle)

    def _down_up_send(self, port: int, vc: int, cycle: int) -> None:
        channel = self.down_up_channels.get(port)
        if channel is not None:
            channel.send(vc, cycle)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def duty_cycles(self, port: int) -> List[float]:
        """NBTI-duty-cycles (percent) of the VCs on input port ``port``."""
        return self.inputs[port].unit.duty_cycles()

    def occupancy(self) -> int:
        """Total flits buffered in this router."""
        return sum(self.inputs[p].unit.occupancy() for p in self.input_ports)

    def __repr__(self) -> str:
        ports = ",".join(port_name(p) for p in self.input_ports)
        return f"Router(id={self.router_id}, ports=[{ports}])"
