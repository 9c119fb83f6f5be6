"""Power-gateable virtual-channel buffer.

Every input-port VC of a router is a small flit FIFO guarded by a header
PMOS sleep transistor (paper Sec. III-A).  The buffer has three power
states:

* ``ON`` — powered; storing flits or idle.  **NBTI stress.**
* ``WAKING`` — supply ramping back up after a wake command; cannot accept
  flits yet.  Counted as stress (the rail is energized).
* ``GATED`` — supply cut by the sleep transistor.  **NBTI recovery.**

Gating is only legal when the buffer is empty (the upstream router only
gates VCs whose ``out_vc_state`` is IDLE, so this holds by construction;
the buffer still enforces it defensively).

NBTI accounting
---------------
Aging uses interval accounting: pass the current ``cycle`` to every
power transition (:meth:`gate`/:meth:`wake`/:meth:`push`) and call
:meth:`nbti_flush` before any counter read.  The buffer keeps an
*anchor* — the first cycle not yet accounted — and books whole
``[anchor, cycle)`` intervals in bulk, so the cost is O(transitions)
rather than O(cycles).  Only GATED<->powered transitions flush
(WAKING->ON stays on the stress side of the boundary).
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Optional, Tuple

from repro.nbti.transistor import PMOSDevice
from repro.noc.flit import Flit
from repro.telemetry import probes


class PowerState(enum.Enum):
    """Supply state of a VC buffer."""

    ON = "on"
    WAKING = "waking"
    GATED = "gated"


class BufferError(RuntimeError):
    """Raised on illegal buffer operations (overflow, push-while-gated...)."""


class VCBuffer:
    """A flit FIFO with power gating and NBTI accounting hooks.

    Parameters
    ----------
    capacity:
        Buffer depth in flits (paper: 4).
    device:
        Optional :class:`PMOSDevice` representing the buffer's worst PMOS;
        when present, :meth:`nbti_flush` ages it by whole intervals.
    track_nbti:
        Whether this buffer participates in NBTI statistics (ejection
        buffers at the NIs are excluded by default).
    """

    __slots__ = (
        "capacity", "device", "track_nbti", "wake_fault", "on_push_unpowered",
        "trace", "trace_id", "_flits", "_state", "_wake_remaining",
        "_nbti_anchor",
    )

    def __init__(
        self,
        capacity: int,
        device: Optional[PMOSDevice] = None,
        track_nbti: bool = True,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"buffer capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.device = device
        self.track_nbti = track_nbti
        #: Optional fault hooks (see :mod:`repro.faults`).  ``wake_fault``
        #: maps a wake latency to a modified latency (or ``None`` to drop
        #: the wake entirely: a stuck sleep transistor).  ``on_push_unpowered``
        #: is consulted when a flit arrives at a non-ON buffer; returning
        #: True forces an emergency wake-on-arrival instead of the hard
        #: :class:`BufferError`.  Both stay ``None`` in fault-free runs.
        self.wake_fault = None
        self.on_push_unpowered = None
        #: Telemetry handle + track id (see repro.telemetry.runtime);
        #: ``None``/0 outside traced runs.
        self.trace = None
        self.trace_id = 0
        self._flits: Deque[Flit] = deque()
        self._state = PowerState.ON
        self._wake_remaining = 0
        #: First cycle not yet booked into the duty-cycle counter.
        self._nbti_anchor = 0

    # ------------------------------------------------------------------
    # FIFO behaviour
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._flits)

    @property
    def is_empty(self) -> bool:
        return not self._flits

    @property
    def is_full(self) -> bool:
        return len(self._flits) >= self.capacity

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self._flits)

    def front(self) -> Optional[Flit]:
        """Peek the oldest buffered flit, or None when empty."""
        return self._flits[0] if self._flits else None

    @property
    def flits(self) -> Tuple[Flit, ...]:
        """Read-only snapshot of the buffered flits, oldest first."""
        return tuple(self._flits)

    def push(self, flit: Flit, cycle: Optional[int] = None) -> None:
        """Append a flit; the buffer must be powered and not full.

        Pass the current ``cycle`` so an emergency wake-on-arrival
        books the preceding recovery interval before the state flips.
        """
        if self._state is not PowerState.ON:
            if self.on_push_unpowered is not None and self.on_push_unpowered(self, flit):
                # Emergency wake-on-arrival: the flit's own wordline
                # energizes the rail (documented relaxation; faults only).
                if cycle is not None and self._state is PowerState.GATED:
                    self.nbti_flush(cycle)
                self._state = PowerState.ON
                self._wake_remaining = 0
                if self.trace is not None:
                    self.trace.instant(
                        probes.BUFFER_EMERGENCY_WAKE, "buffer", tid=self.trace_id
                    )
            else:
                raise BufferError(f"push into a {self._state.value} buffer: {flit!r}")
        if len(self._flits) >= self.capacity:
            raise BufferError(f"buffer overflow (capacity {self.capacity}): {flit!r}")
        self._flits.append(flit)

    def pop(self) -> Flit:
        """Remove and return the oldest flit."""
        if not self._flits:
            raise BufferError("pop from an empty buffer")
        return self._flits.popleft()

    # ------------------------------------------------------------------
    # Power gating
    # ------------------------------------------------------------------
    @property
    def state(self) -> PowerState:
        return self._state

    @property
    def powered(self) -> bool:
        """True when the rail is energized (ON or WAKING) — NBTI stress."""
        return self._state is not PowerState.GATED

    @property
    def can_accept(self) -> bool:
        """True when a flit may be pushed this cycle."""
        return self._state is PowerState.ON and not self.is_full

    def gate(self, cycle: Optional[int] = None) -> None:
        """Cut the supply.  Only legal on an empty buffer; idempotent.

        Pass the current ``cycle``: the stress interval up to
        (excluding) this cycle is booked before the state flips, so
        cycle ``cycle`` itself counts as recovery — exactly what
        per-cycle ticking after deliveries produces.
        """
        if self._flits:
            raise BufferError("cannot gate a buffer that is storing flits")
        if self._state is PowerState.GATED:
            return
        if cycle is not None:
            self.nbti_flush(cycle)
        if self.trace is not None:
            self.trace.instant(probes.BUFFER_GATE, "buffer", tid=self.trace_id)
        self._state = PowerState.GATED
        self._wake_remaining = 0

    def wake(self, latency: int = 1, cycle: Optional[int] = None) -> None:
        """Begin restoring the supply; ready after ``latency`` cycles.

        Waking an already-ON buffer is a no-op; re-waking a WAKING buffer
        does not extend its countdown.  Pass the current ``cycle``: the
        recovery interval up to (excluding) this cycle is booked before
        the rail re-energizes.
        """
        if latency < 0:
            raise ValueError(f"wake latency must be non-negative, got {latency}")
        if self._state is PowerState.ON:
            return
        if self._state is PowerState.WAKING:
            return
        if self.wake_fault is not None:
            latency = self.wake_fault(latency)
            if latency is None:
                return  # wake command lost in the sleep-transistor driver
        if cycle is not None:
            self.nbti_flush(cycle)
        if self.trace is not None:
            self.trace.instant(
                probes.BUFFER_WAKE, "buffer", tid=self.trace_id,
                args={"latency": latency},
            )
        if latency == 0:
            self._state = PowerState.ON
        else:
            self._state = PowerState.WAKING
            self._wake_remaining = latency

    def tick_power(self) -> None:
        """Advance the wake countdown by one cycle (call once per cycle)."""
        if self._state is PowerState.WAKING:
            self._wake_remaining -= 1
            if self._wake_remaining <= 0:
                self._state = PowerState.ON
                if self.trace is not None:
                    self.trace.instant(
                        probes.BUFFER_WAKE_COMPLETE, "buffer", tid=self.trace_id
                    )

    # ------------------------------------------------------------------
    # NBTI hooks
    # ------------------------------------------------------------------
    def nbti_flush(self, cycle: int) -> None:
        """Book the interval ``[anchor, cycle)`` in the current state.

        Called before every GATED<->powered transition and before any
        counter read (sensor sample, harvest).
        """
        delta = cycle - self._nbti_anchor
        if delta <= 0:
            return
        self._nbti_anchor = cycle
        device = self.device
        if device is not None and self.track_nbti:
            counter = device.counter
            if self._state is PowerState.GATED:
                counter.recovery_cycles += delta
            else:
                counter.stress_cycles += delta

    def nbti_rebase(self, cycle: int) -> None:
        """Restart interval accounting at ``cycle``, discarding the
        unbooked interval (used with counter resets: warm-up discard)."""
        self._nbti_anchor = cycle

    def __repr__(self) -> str:
        return (
            f"VCBuffer(len={len(self._flits)}/{self.capacity}, "
            f"state={self._state.value})"
        )
