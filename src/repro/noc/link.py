"""Link modelling: fixed-latency delay lines for flits, credits and control.

A physical link between an upstream output port and a downstream input
port carries four channels in this model:

* the **data channel** (flits, ``flit_width`` bits wide),
* the **credit channel** back to the upstream router,
* the ``Up_Down`` **control channel** added by the methodology
  (``log2(num_vc)`` VC-id lines + 1 enable line), and
* the ``Down_Up`` **control channel** (``log2(num_vc)`` lines carrying the
  most-degraded VC id).

All channels share the same latency (1 cycle by default, matching the
paper's single-cycle link traversal at 1 GHz).  :class:`DelayLine` is the
generic building block; :class:`Channel` simply names one instance.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, List, Optional, Tuple, TypeVar

T = TypeVar("T")

#: Shared empty result for :meth:`DelayLine.pop_ready`; never mutated.
_EMPTY: List = []


class DelayLine(Generic[T]):
    """A FIFO with a fixed delivery latency in cycles.

    Items sent at cycle ``t`` become visible to :meth:`pop_ready` at cycle
    ``t + latency``.  Storage is a plain deque of ``(due, item)`` pairs:
    the latency is a per-line constant and senders only move forward in
    time, so delivery times are nondecreasing in send order and the
    append order *is* the delivery order.  Subclasses that can reorder
    deliveries (:class:`~repro.faults.channels.FaultyChannel` adds per-
    item extra delay) replace the storage with a heap and override the
    queue operations.
    """

    __slots__ = ("latency", "_queue", "on_send")

    def __init__(self, latency: int = 1) -> None:
        if latency < 0:
            raise ValueError(f"link latency must be non-negative, got {latency}")
        self.latency = latency
        self._queue: Deque[Tuple[int, T]] = deque()
        #: Optional observer called with the delivery cycle of every
        #: enqueued item.  The event-directed SoA engine installs one per
        #: channel so it only visits delay lines that actually hold due
        #: items; ``None`` (the default) outside SoA runs.
        self.on_send = None

    def send(self, item: T, cycle: int) -> None:
        """Enqueue ``item`` for delivery at ``cycle + latency``."""
        due = cycle + self.latency
        self._queue.append((due, item))
        if self.on_send is not None:
            self.on_send(due)

    def pop_ready(self, cycle: int) -> List[T]:
        """Dequeue every item whose delivery time is <= ``cycle``.

        Returns a shared immutable-by-convention empty list when nothing
        is ready (the overwhelmingly common case in a lightly loaded
        network) — callers only iterate the result.
        """
        queue = self._queue
        if not queue or queue[0][0] > cycle:
            return _EMPTY
        out: List[T] = []
        while queue and queue[0][0] <= cycle:
            out.append(queue.popleft()[1])
        return out

    def next_due(self, cycle: int) -> Optional[int]:
        """When :meth:`pop_ready` next returns something: the earliest
        queued item's due cycle, or ``None`` when the line is empty.

        ``cycle`` is the first cycle the caller will pop at; lines with
        a schedule of their own (wire noise on a
        :class:`~repro.faults.channels.FaultyChannel`) report it from
        there on.  The SoA engine visits each line only at this cycle.
        """
        queue = self._queue
        return queue[0][0] if queue else None

    @property
    def in_flight(self) -> int:
        """Number of items currently travelling on the line."""
        return len(self._queue)

    def __repr__(self) -> str:
        return f"DelayLine(latency={self.latency}, in_flight={self.in_flight})"


class Channel(DelayLine[T]):
    """A named :class:`DelayLine`, for nicer diagnostics."""

    __slots__ = ("name",)

    def __init__(self, name: str, latency: int = 1) -> None:
        super().__init__(latency)
        self.name = name

    def __repr__(self) -> str:
        return f"Channel({self.name!r}, latency={self.latency}, in_flight={self.in_flight})"


class LossyChannel(Channel[T]):
    """A channel that drops items — a fault-injection instrument.

    The simulator's correctness contract assumes reliable links; this
    class exists to *test* that assumption: dropping ``Up_Down`` wake
    commands, for example, desynchronizes the upstream power view from
    the downstream buffers and must surface as a hard error rather than
    silent corruption (see ``tests/test_fault_injection.py``).

    Parameters
    ----------
    drop_probability:
        Independent per-item drop chance in ``[0, 1]``.
    seed:
        Seed of the private drop RNG (runs stay reproducible).
    drop_filter:
        Optional predicate; only items for which it returns True are
        eligible for dropping (e.g. only ``("wake", vc)`` commands).
    """

    __slots__ = ("drop_probability", "dropped", "_rng", "drop_filter")

    def __init__(
        self,
        name: str,
        latency: int = 1,
        drop_probability: float = 0.0,
        seed: int = 0,
        drop_filter=None,
    ) -> None:
        super().__init__(name, latency)
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError(
                f"drop_probability must be in [0, 1], got {drop_probability}"
            )
        import random

        self.drop_probability = drop_probability
        self.dropped = 0
        self._rng = random.Random(seed)
        self.drop_filter = drop_filter

    def send(self, item: T, cycle: int) -> None:
        eligible = self.drop_filter is None or self.drop_filter(item)
        if eligible and self._rng.random() < self.drop_probability:
            self.dropped += 1
            return
        super().send(item, cycle)
