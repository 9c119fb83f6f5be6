"""Network interface (NI): packet injection and ejection at a tile.

Each tile's NI plays two roles:

* **Injection** — the NI is the *upstream* of its router's LOCAL input
  port.  It owns an :class:`~repro.noc.output_unit.UpstreamPort` (with a
  recovery policy, exactly like a router output port, so the methodology
  covers local ports too), a source queue of packets awaiting VC
  allocation, and per-VC flit send queues.
* **Ejection** — the NI hosts the buffers behind the router's LOCAL
  output port and drains them every cycle, recording packet latency.
  Ejection buffers are excluded from NBTI statistics by default (they
  are NI structures, not the router VC buffers the paper instruments).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.noc.arbiter import RoundRobinArbiter
from repro.noc.flit import Flit, Packet
from repro.noc.input_unit import InputUnit
from repro.noc.output_unit import UpstreamPort
from repro.noc.policy_api import OutVCState

#: Hot-loop constant for the inlined credit check in phase_send.
_ACTIVE = OutVCState.ACTIVE


class EjectionRecord:
    """Latency/throughput record of one ejected packet."""

    __slots__ = ("packet_id", "src", "dst", "injected_cycle", "ejected_cycle", "hops", "length")

    def __init__(self, flit: Flit, ejected_cycle: int, length: int) -> None:
        self.packet_id = flit.packet_id
        self.src = flit.src
        self.dst = flit.dst
        self.injected_cycle = flit.injected_cycle
        self.ejected_cycle = ejected_cycle
        self.hops = flit.hops
        self.length = length

    @property
    def latency(self) -> int:
        """End-to-end packet latency in cycles (injection to tail eject)."""
        return self.ejected_cycle - self.injected_cycle


class NetworkInterface:
    """The injection/ejection endpoint of one tile.

    Parameters
    ----------
    node_id:
        Tile id (== router id).
    injection_port:
        Upstream port driving the router's LOCAL input port.
    ejection_unit:
        Input unit holding the ejection buffers fed by the router's
        LOCAL output port.
    """

    def __init__(
        self,
        node_id: int,
        injection_port: UpstreamPort,
        ejection_unit: InputUnit,
    ) -> None:
        self.node_id = node_id
        self.injection_port = injection_port
        self.ejection_unit = ejection_unit
        total_vcs = injection_port.total_vcs
        self.num_vnets = injection_port.num_vnets
        #: Packets waiting for a VC (the "new packets" of the paper),
        #: queued per virtual network so message classes cannot
        #: head-of-line block each other.
        self.source_queues: List[Deque[Packet]] = [
            deque() for _ in range(self.num_vnets)
        ]
        #: Flits of allocated packets, per (global) VC: (ready_at, flit).
        self._send_queues: List[Deque[Tuple[int, Flit]]] = [
            deque() for _ in range(total_vcs)
        ]
        self._send_arbiter = RoundRobinArbiter(total_vcs)
        # Statistics.
        self.packets_injected = 0
        self.flits_injected = 0
        self.packets_ejected = 0
        self.flits_ejected = 0
        self.ejection_records: List[EjectionRecord] = []
        self._record_stats = True
        #: Tail bookkeeping for latency: packet_id -> flit count seen.
        self._partial_lengths: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet) -> None:
        """Accept a freshly generated packet into its vnet's queue."""
        if packet.src != self.node_id:
            raise ValueError(
                f"packet {packet!r} injected at NI {self.node_id} but src={packet.src}"
            )
        if not 0 <= packet.vnet < self.num_vnets:
            raise ValueError(
                f"packet {packet!r} targets vnet {packet.vnet} but the NI "
                f"has {self.num_vnets} vnet(s)"
            )
        self.source_queues[packet.vnet].append(packet)

    @property
    def source_queue(self) -> Deque[Packet]:
        """Vnet-0 source queue (single-vnet convenience)."""
        return self.source_queues[0]

    @property
    def has_new_traffic(self) -> bool:
        """``is_new_traffic`` over all vnets (diagnostics)."""
        return any(self.source_queues)

    def phase_policy(self, cycle: int) -> None:
        """Run the recovery policies of the injection port."""
        for vnet, queue in enumerate(self.source_queues):
            self.injection_port.set_new_traffic(bool(queue), vnet)
        self.injection_port.run_policy(cycle)

    def phase_va(self, cycle: int) -> None:
        """Allocate a VC to the oldest waiting packet of each vnet
        (at most one allocation per vnet per cycle)."""
        for vnet, queue in enumerate(self.source_queues):
            if not queue:
                continue
            packet = queue[0]
            vc = self.injection_port.allocate_vc(
                cycle, packet_id=packet.packet_id, vnet=vnet
            )
            if vc is None:
                continue
            queue.popleft()
            send_queue = self._send_queues[vc]
            for flit in packet.flits():
                send_queue.append((cycle + 1, flit))
            self.packets_injected += 1

    def phase_send(self, cycle: int) -> None:
        """Send at most one flit into the router (the NI's ST stage)."""
        port = self.injection_port
        entries = port.entries
        ready = None
        for vc, queue in enumerate(self._send_queues):
            if queue and queue[0][0] <= cycle:
                # Inlined UpstreamPort.can_send.
                entry = entries[vc]
                if entry.state is _ACTIVE and entry.credits > 0:
                    if ready is None:
                        ready = [vc]
                    else:
                        ready.append(vc)
        if ready is None:
            return
        vc = self._send_arbiter.grant(ready)
        _, flit = self._send_queues[vc].popleft()
        port.send_flit(vc, flit, cycle)
        self.flits_injected += 1

    @property
    def pending_flits(self) -> int:
        """Flits still queued at the NI (allocated but not sent)."""
        return sum(len(q) for q in self._send_queues)

    @property
    def pending_packets(self) -> int:
        """Packets not yet fully handed to the network."""
        queued = sum(len(q) for q in self.source_queues)
        return queued + sum(1 for q in self._send_queues if q)

    # ------------------------------------------------------------------
    # Ejection
    # ------------------------------------------------------------------
    def phase_eject(self, cycle: int) -> None:
        """Drain every ejection buffer (unbounded ejection bandwidth)."""
        for vc, ivc in enumerate(self.ejection_unit.vcs):
            while not ivc.buffer.is_empty:
                flit = self.ejection_unit.pop_flit(vc, cycle)
                self._account_ejected(flit, cycle)

    def _account_ejected(self, flit: Flit, cycle: int) -> None:
        if flit.dst != self.node_id:
            raise RuntimeError(
                f"misrouted flit at NI {self.node_id}: {flit!r}"
            )
        self.flits_ejected += 1
        seen = self._partial_lengths.get(flit.packet_id, 0) + 1
        if flit.is_tail:
            self._partial_lengths.pop(flit.packet_id, None)
            self.packets_ejected += 1
            if self._record_stats:
                self.ejection_records.append(EjectionRecord(flit, cycle, seen))
        else:
            self._partial_lengths[flit.packet_id] = seen

    # ------------------------------------------------------------------
    # Statistics control
    # ------------------------------------------------------------------
    def reset_stats(self, record: bool = True) -> None:
        """Drop throughput/latency stats (e.g. after warm-up)."""
        self.packets_injected = 0
        self.flits_injected = 0
        self.packets_ejected = 0
        self.flits_ejected = 0
        self.ejection_records.clear()
        self._record_stats = record

    def __repr__(self) -> str:
        return (
            f"NetworkInterface(node={self.node_id}, queued={len(self.source_queue)}, "
            f"pending_flits={self.pending_flits})"
        )
