"""Faulty control channels: drop, delay and corrupt link items.

A :class:`FaultyChannel` is a drop-in :class:`~repro.noc.link.Channel`
replacement the :class:`~repro.faults.injector.FaultInjector` swaps into
the wiring of a targeted port.  Within the fault's activity window it

* drops sent items with a per-item probability (optionally filtered,
  e.g. only ``("wake", vc)`` commands),
* adds a fixed extra delay to every sent item, and/or
* injects spurious receiver-side items (wire noise) with a per-cycle
  probability, drawn uniformly from ``noise_values``.

Outside the window it behaves exactly like the channel it replaced.
All randomness comes from a private ``random.Random`` seeded via
:func:`repro.faults.spec.derive_seed`, so runs are reproducible across
processes and across serial/parallel execution.

Wire noise is a per-cycle decision, but the channel draws the decision
sequence ahead, up to the next cycle that fires, in exactly the order a
per-cycle draw would take.  :meth:`FaultyChannel.next_due` therefore
names the next noise cycle like any other delivery, and the SoA engine
visits the channel only then.  Pre-drawing is sound because the noise
is the only consumer of its RNG: the injector never puts a second fault
(and so a second draw stream, such as per-item drops) on the same wire.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.noc.link import Channel

T = TypeVar("T")

#: Most cycles of noise decisions drawn ahead in one go: a window that
#: never closes, at a tiny rate, must not spin on an unbounded draw.
_NOISE_HORIZON = 4096

#: ``_noise_item`` marker: nothing fires before ``_noise_next``; the
#: draw resumes there.
_RESUME = object()


class FaultyChannel(Channel[T]):
    """A channel that misbehaves during a fault's activity window.

    Parameters
    ----------
    name, latency:
        As for :class:`Channel` (copy them from the replaced channel).
    onset, duration:
        Activity window ``[onset, onset + duration)``; ``None`` duration
        never ends.
    drop_probability:
        Per-sent-item drop chance while active.
    drop_filter:
        Optional predicate restricting which items may be dropped.
    extra_delay:
        Extra cycles added to each item sent while active.
    noise_probability:
        Per-cycle chance of injecting one spurious item on the receive
        side while active (one decision per cycle, drawn ahead).
    noise_values:
        Candidate spurious items (e.g. ``range(total_vcs)`` for a
        Down_Up channel); required when ``noise_probability > 0``.
    seed:
        Seed of the private fault RNG.
    """

    __slots__ = (
        "onset", "duration", "drop_probability", "drop_filter",
        "extra_delay", "noise_probability", "noise_values",
        "dropped", "delayed", "corrupted",
        "_seq", "_rng", "_noise_next", "_noise_item",
    )

    def __init__(
        self,
        name: str,
        latency: int = 1,
        onset: int = 0,
        duration: Optional[int] = None,
        drop_probability: float = 0.0,
        drop_filter: Optional[Callable[[T], bool]] = None,
        extra_delay: int = 0,
        noise_probability: float = 0.0,
        noise_values: Sequence[T] = (),
        seed: int = 0,
    ) -> None:
        super().__init__(name, latency)
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError(f"drop_probability must be in [0, 1], got {drop_probability}")
        if not 0.0 <= noise_probability <= 1.0:
            raise ValueError(f"noise_probability must be in [0, 1], got {noise_probability}")
        if extra_delay < 0:
            raise ValueError(f"extra_delay must be >= 0, got {extra_delay}")
        if noise_probability > 0.0 and not noise_values:
            raise ValueError("noise_probability > 0 needs noise_values")
        self.onset = onset
        self.duration = duration
        self.drop_probability = drop_probability
        self.drop_filter = drop_filter
        self.extra_delay = extra_delay
        self.noise_probability = noise_probability
        self.noise_values = list(noise_values)
        self.dropped = 0
        self.delayed = 0
        self.corrupted = 0
        self._seq = 0
        # Extra delay can put a later send in front of an earlier one,
        # so this subclass swaps the base FIFO deque for a real heap of
        # (due, seq, item): the monotone seq keeps same-due items in
        # send order, exactly the pre-deque DelayLine behavior.
        self._queue = []
        self._rng = random.Random(seed)
        # The next noise event: a spurious item due at _noise_next, or
        # _RESUME (draw on from there); None once the window is over.
        # The first draw starts at the first cycle the channel is read.
        self._noise_next: Optional[int] = 0 if noise_probability > 0.0 else None
        self._noise_item = _RESUME

    def active(self, cycle: int) -> bool:
        if cycle < self.onset:
            return False
        return self.duration is None or cycle < self.onset + self.duration

    def adopt(self, old: Channel[T]) -> "FaultyChannel[T]":
        """Take over an existing channel's in-flight items (swap helper)."""
        # The donor's FIFO deque is already due-sorted, which is a valid
        # heap; re-tag its items with this channel's sequence numbers.
        # The items move: the donor is left empty, so nothing inspecting
        # the replaced channel sees them twice.
        self._queue = [
            (due, seq, item) for seq, (due, item) in enumerate(old._queue)
        ]
        self._seq = len(self._queue)
        old._queue.clear()
        return self

    def send(self, item: T, cycle: int) -> None:
        due = cycle + self.latency
        if self.active(cycle):
            if (
                self.drop_probability > 0.0
                and (self.drop_filter is None or self.drop_filter(item))
                and self._rng.random() < self.drop_probability
            ):
                self.dropped += 1
                return
            if self.extra_delay:
                self.delayed += 1
                due += self.extra_delay
        heapq.heappush(self._queue, (due, self._seq, item))
        self._seq += 1
        if self.on_send is not None:
            self.on_send(due)

    def pop_ready(self, cycle: int) -> List[T]:
        queue = self._queue
        out: List[T] = []
        while queue and queue[0][0] <= cycle:
            out.append(heapq.heappop(queue)[2])
        noise = self._noise_next
        if noise is not None and noise <= cycle:
            if self._noise_item is _RESUME:
                self._draw_noise(cycle)
            if self._noise_next is not None and self._noise_next <= cycle:
                self.corrupted += 1
                out.append(self._noise_item)
                self._draw_noise(cycle + 1)
        return out

    def next_due(self, cycle: int) -> Optional[int]:
        due = self._queue[0][0] if self._queue else None
        noise = self._noise_next
        if noise is not None:
            # A pending resume point in the past resumes at ``cycle``.
            if noise < cycle and self._noise_item is _RESUME:
                noise = cycle
            if due is None or noise < due:
                due = noise
        return due

    def _draw_noise(self, cycle: int) -> None:
        """Draw the per-cycle noise decisions from ``cycle`` on, up to
        the first one that fires (its item is drawn right away, as a
        per-cycle draw would) or the horizon."""
        start = max(cycle, self.onset)
        stop = start + _NOISE_HORIZON
        end = None if self.duration is None else self.onset + self.duration
        if end is not None and end < stop:
            stop = end
        rand = self._rng.random
        probability = self.noise_probability
        for c in range(start, stop):
            if rand() < probability:
                self._noise_next = c
                self._noise_item = self._rng.choice(self.noise_values)
                return
        self._noise_next = None if stop == end else stop
        self._noise_item = _RESUME
