"""On-demand structural validation of a live network.

The simulator's data structures enforce many invariants inline (credit
under/overflow, buffer overflow, push-into-gated, packet mixing raise
immediately).  :func:`validate_network` sweeps the *cross-cutting*
invariants that no single operation can check — upstream/downstream
state agreement, conservation, wormhole consistency — and returns a
list of violation descriptions (empty = healthy).

Intended uses: debugging new policies/topologies
(``Network.run(..., validate_every=N)``), the fault campaigns'
dependability metric, and the test suite's fuzzing harness.  A sweep
walks the flat tables of a :class:`SweepPlan` once and words a message
only for a failed check: ~10 µs on a 2x2 mesh, 20-35 µs on a 4x4 and
90-165 µs on an 8x8 one, idle to loaded (``BENCH_validation.json``),
so per-cycle validation is affordable well beyond small repros.
"""

from __future__ import annotations

from operator import itemgetter
from typing import List

from repro.noc.buffer import PowerState
from repro.noc.policy_api import OutVCState
from repro.noc.topology import LOCAL, port_name

_GATED = PowerState.GATED
_WAKING = PowerState.WAKING
_ACTIVE = OutVCState.ACTIVE


class SweepPlan:
    """A network's wiring flattened into the tables one sweep walks.

    Rows hold the live objects (input VCs, buffers, out-VC entries,
    channels, queues), so a plan stays exact only while the wiring
    stands: build a new one after anything rewires the network
    (``FaultInjector.apply`` swaps control channels).
    :meth:`Network.run` builds one per call and holds it for the call.
    """

    __slots__ = ("inputs", "outputs", "interfaces", "queues", "send_queues")

    def __init__(self, network) -> None:
        from repro.noc.network import neighbor_of_inverse

        #: (router, port, vc, InputVC, buffer, upstream OutVCEntry,
        #: Up_Down channel) per router input VC, in wiring order.
        self.inputs = []
        #: (router, port, vc, OutVCEntry) per router output VC.
        self.outputs = []
        links = []
        for router in network.routers:
            rid = router.router_id
            for port in router.input_ports:
                wiring = router.inputs[port]
                if port == LOCAL:
                    upstream = network.interfaces[rid].injection_port
                else:
                    up_node, up_port = neighbor_of_inverse(network.topology, rid, port)
                    upstream = network.routers[up_node].outputs[up_port].upstream
                for vc, ivc in enumerate(wiring.unit.vcs):
                    self.inputs.append((
                        rid, port, vc, ivc, ivc.buffer, upstream.entries[vc],
                        wiring.control_channel,
                    ))
                links.append(wiring.data_channel)
            for port in router.output_ports:
                for vc, entry in enumerate(router.outputs[port].upstream.entries):
                    self.outputs.append((rid, port, vc, entry))
        self.interfaces = network.interfaces
        links.extend(ni._eject_data_channel for ni in self.interfaces)
        #: Every flit-holding deque but the NI send queues: buffers
        #: (router inputs, then NI ejection) and data links.
        self.queues = [row[4]._flits for row in self.inputs]
        self.queues.extend(
            ivc.buffer._flits for ni in self.interfaces for ivc in ni.ejection_unit.vcs
        )
        self.queues.extend(channel._queue for channel in links)
        self.send_queues = [q for ni in self.interfaces for q in ni._send_queues]


def validate_network(network) -> List[str]:
    """Sweep all cross-cutting invariants; return violation strings.

    Walks the plan of the validating :meth:`Network.run` call in
    progress, or a fresh one.  Messages come grouped by family, in this
    order: buffers, credit bounds, power agreement, wormhole state,
    conservation.
    """
    plan = getattr(network, "_sweep_plan", None) or SweepPlan(network)
    buffers: List[str] = []
    credits: List[str] = []
    power: List[str] = []
    wormhole = []  # (router, message): sorted per router below
    for rid, port, vc, ivc, buf, entry, control in plan.inputs:
        flits = buf._flits
        n = len(flits)
        state = buf._state
        busy = ivc.busy
        if n > buf.capacity:
            buffers.append(f"{_vc(rid, port, vc)}: occupancy beyond capacity")
        if state is _GATED:
            if n:
                buffers.append(f"{_vc(rid, port, vc)}: gated buffer holds flits")
            if busy:
                buffers.append(f"{_vc(rid, port, vc)}: gated buffer owns a packet")
        if busy and ivc.outport is None:
            buffers.append(f"{_vc(rid, port, vc)}: resident packet without a route")
        # Commands still in flight on Up_Down let the views differ.
        if ((state is _GATED) != entry.gated and state is not _WAKING
                and not control.in_flight):
            power.append(
                f"{_vc(rid, port, vc)}: upstream gated={entry.gated} but "
                f"buffer is {state.value}"
            )
        if n and not busy:
            wormhole.append((rid, f"{_vc(rid, port, vc)}: flits buffered but VC not busy"))
        if n > 1:
            pids = {f.packet_id for f in flits}
            if len(pids) > 1:
                wormhole.append((rid, f"{_vc(rid, port, vc)}: packet mixing {sorted(pids)}"))
            seqs = [f.seq for f in flits]
            if seqs != sorted(seqs):
                wormhole.append((rid, f"{_vc(rid, port, vc)}: flits out of order {seqs}"))
    for rid, port, vc, entry in plan.outputs:
        if not 0 <= entry.credits <= entry.max_credits:
            credits.append(
                f"router {rid} out {port_name(port)} VC{vc}: credits "
                f"{entry.credits} outside [0, {entry.max_credits}]"
            )
        if entry.gated and entry.state is _ACTIVE:
            wormhole.append(
                (rid, f"router {rid} out {port_name(port)} VC{vc}: ACTIVE entry is gated")
            )
    violations = buffers + credits + power
    # Stable: per router, input-VC messages stay ahead of out-VC ones.
    violations.extend(message for _, message in sorted(wormhole, key=itemgetter(0)))

    # Injected flits = ejected + in flight (NI send queues included).
    interfaces = plan.interfaces
    injected = sum(ni.flits_injected for ni in interfaces)
    ejected = sum(ni.flits_ejected for ni in interfaces)
    pending = sum(map(len, plan.send_queues))
    in_flight = sum(map(len, plan.queues)) + pending
    # The baseline is 0 from build and re-based by Network.reset_stats,
    # so the check also holds after a mid-run warm-up counter reset.
    baseline = getattr(network, "conservation_baseline", 0)
    if injected + pending != ejected + in_flight + baseline:
        violations.append(
            f"conservation violated: injected={injected} pending={pending} "
            f"ejected={ejected} in_flight={in_flight} (baseline {baseline})"
        )
    return violations


def _vc(router: int, port: int, vc: int) -> str:
    return f"router {router} {port_name(port)} VC{vc}"
