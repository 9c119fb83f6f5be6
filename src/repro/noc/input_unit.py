"""Downstream input port: VC buffers, route state and power-command sink.

The input unit physically hosts the VC buffers (the red buffers of the
paper's Fig. 1B) and therefore also hosts the NBTI sensors.  All of its
power transitions are *commanded* by the upstream port over the
``Up_Down`` control channel; the unit merely executes them and keeps the
per-VC wormhole state needed to forward flits onward:

* ``busy`` — a packet currently owns the VC (head arrived, tail not yet
  departed); no packet mixing is allowed (paper Sec. III-A).
* ``outport`` — route computed for the resident packet (RC at head
  arrival, i.e. the BW+RC pipeline stage).
* ``out_vc`` — VC allocated at *this* router's output toward the next
  hop (``None`` until the local VA stage grants one).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.nbti.sensor import SensorBank
from repro.noc.buffer import BufferError, PowerState, VCBuffer
from repro.noc.flit import Flit
from repro.noc.link import Channel


class InputVC:
    """State of one virtual channel of an input port."""

    __slots__ = ("buffer", "busy", "outport", "out_vc", "sa_ready_at", "packet_id", "vnet")

    def __init__(self, buffer: VCBuffer) -> None:
        self.buffer = buffer
        self.busy = False
        self.outport: Optional[int] = None
        self.out_vc: Optional[int] = None
        self.sa_ready_at = 0
        self.packet_id: Optional[int] = None
        #: Virtual network of the resident packet (valid while busy).
        self.vnet = 0

    @property
    def wants_va(self) -> bool:
        """A resident head flit still needs an output VC."""
        return self.busy and self.out_vc is None

    def release(self) -> None:
        """Tail departed: free the VC for the next packet."""
        self.busy = False
        self.outport = None
        self.out_vc = None
        self.packet_id = None

    def __repr__(self) -> str:
        return (
            f"InputVC(busy={self.busy}, outport={self.outport}, "
            f"out_vc={self.out_vc}, buf={self.buffer!r})"
        )


class InputUnit:
    """All VCs of one input port, plus its credit channel and sensors.

    Parameters
    ----------
    buffers:
        One :class:`VCBuffer` per VC.
    credit_channel:
        Delay line delivering credits back to the upstream port.
    route_fn:
        ``route_fn(dst_node) -> outport`` — the router's RC stage for
        this port (ejection units pass a constant-LOCAL function).
    sensor_bank:
        Optional NBTI sensor bank over the buffers' PMOS devices.
    wake_latency:
        Cycles a buffer needs to power back ON after a wake command.
    """

    __slots__ = (
        "vcs", "credit_channel", "route_fn", "sensor_bank", "wake_latency",
        "flits_received", "busy_count", "_any_waking",
    )

    def __init__(
        self,
        buffers: List[VCBuffer],
        credit_channel: Channel,
        route_fn: Callable[[int], int],
        sensor_bank: Optional[SensorBank] = None,
        wake_latency: int = 1,
    ) -> None:
        if not buffers:
            raise ValueError("an input unit needs at least one VC buffer")
        self.vcs = [InputVC(buf) for buf in buffers]
        self.credit_channel = credit_channel
        self.route_fn = route_fn
        self.sensor_bank = sensor_bank
        self.wake_latency = wake_latency
        self.flits_received = 0
        #: VCs with a resident packet (lets the router skip idle ports).
        self.busy_count = 0
        self._any_waking = False

    @property
    def num_vcs(self) -> int:
        return len(self.vcs)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def receive_flit(self, vc: int, flit: Flit, cycle: int) -> None:
        """BW(+RC) stage: write an arriving flit into its VC buffer."""
        ivc = self.vcs[vc]
        flit.arrived_cycle = cycle
        if flit.is_head:
            if ivc.busy:
                raise BufferError(
                    f"packet mixing on vc {vc}: {flit!r} while "
                    f"packet {ivc.packet_id} is resident"
                )
            ivc.busy = True
            ivc.packet_id = flit.packet_id
            ivc.outport = self.route_fn(flit.dst)
            ivc.vnet = flit.vnet
            self.busy_count += 1
        elif not ivc.busy or ivc.packet_id != flit.packet_id:
            raise BufferError(f"body/tail flit without resident head on vc {vc}: {flit!r}")
        ivc.buffer.push(flit, cycle)
        self.flits_received += 1

    def pop_flit(self, vc: int, cycle: int) -> Flit:
        """ST stage: remove the front flit and return a credit upstream."""
        ivc = self.vcs[vc]
        flit = ivc.buffer.pop()
        self.credit_channel.send(vc, cycle)
        if flit.is_tail:
            ivc.release()
            self.busy_count -= 1
        return flit

    # ------------------------------------------------------------------
    # Power commands (Up_Down link sink)
    # ------------------------------------------------------------------
    def apply_command(self, command: str, vc: int, cycle: Optional[int] = None) -> None:
        """Execute a gate/wake command from the upstream port.

        ``cycle`` enables the buffers' interval NBTI accounting (see
        :class:`VCBuffer`); omit it only in per-cycle-tick unit tests.
        """
        buffer = self.vcs[vc].buffer
        if command == "gate":
            buffer.gate(cycle=cycle)
        elif command == "wake":
            buffer.wake(self.wake_latency, cycle=cycle)
            self._any_waking = True
        else:
            raise ValueError(f"unknown power command {command!r}")

    def tick_power(self) -> None:
        """Advance wake countdowns (once per cycle).

        Skipped entirely while no buffer is waking (the common case).
        """
        if not self._any_waking:
            return
        still_waking = False
        for ivc in self.vcs:
            buffer = ivc.buffer
            buffer.tick_power()
            if buffer.state is PowerState.WAKING:
                still_waking = True
        self._any_waking = still_waking

    def nbti_tick(self) -> None:
        """Age every buffer's PMOS by one cycle in its power state.

        The simulator itself uses interval accounting
        (:meth:`nbti_flush`); this per-cycle tick is the reference the
        intervals must reproduce (``per_cycle_reference`` in
        ``tests/conftest.py`` drives a whole network with it).
        """
        gated = PowerState.GATED
        for ivc in self.vcs:
            buffer = ivc.buffer
            device = buffer.device
            if device is None or not buffer.track_nbti:
                continue
            counter = device.counter
            if buffer._state is gated:
                counter.recovery_cycles += 1
            else:
                counter.stress_cycles += 1

    def nbti_flush(self, cycle: int) -> None:
        """Book every buffer's unaccounted interval up to ``cycle``."""
        for ivc in self.vcs:
            ivc.buffer.nbti_flush(cycle)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def duty_cycles(self) -> List[float]:
        """Per-VC NBTI-duty-cycles in percent (100.0 without a device)."""
        out: List[float] = []
        for ivc in self.vcs:
            device = ivc.buffer.device
            out.append(device.duty_cycle if device is not None else 100.0)
        return out

    def occupancy(self) -> int:
        """Total buffered flits across all VCs."""
        return sum(len(ivc.buffer) for ivc in self.vcs)

    def __repr__(self) -> str:
        return f"InputUnit(vcs={self.vcs!r})"
