"""Round-robin arbitration, the grant logic used by VA and SA stages."""

from __future__ import annotations

from typing import Iterable, Optional


class RoundRobinArbiter:
    """A classic rotating-priority arbiter over ``size`` requesters.

    The requester granted last gets the *lowest* priority at the next
    arbitration, guaranteeing starvation freedom.  The arbiter is
    deterministic, which keeps whole-network simulations reproducible.

    Example
    -------
    >>> arb = RoundRobinArbiter(3)
    >>> arb.grant([0, 1, 2])
    0
    >>> arb.grant([0, 1, 2])
    1
    >>> arb.grant([2])
    2
    >>> arb.grant([]) is None
    True
    """

    __slots__ = ("size", "_pointer")

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"arbiter size must be >= 1, got {size}")
        self.size = size
        self._pointer = 0

    @property
    def pointer(self) -> int:
        """Index with the highest priority at the next grant."""
        return self._pointer

    def grant(self, requesters: Iterable[int]) -> Optional[int]:
        """Grant the first requester at or after the pointer; advance it.

        ``requesters`` are the indexes of the requesting lines in
        ascending order.  Returns the granted index, or ``None`` when
        nobody requests.  This is the only pointer walk: every VA and SA
        stage, the NI send stage and VC allocation arbitrate through it.
        """
        pointer = self._pointer
        first = None
        for idx in requesters:
            if idx >= pointer:
                break
            if first is None:
                first = idx
        else:
            # Nobody at or after the pointer: wrap to the lowest index.
            if first is None:
                return None
            idx = first
        size = self.size
        if not 0 <= idx < size:
            raise ValueError(f"requester {idx} out of range [0, {size})")
        nxt = idx + 1
        self._pointer = nxt if nxt < size else 0
        return idx

    def reset(self) -> None:
        """Return the pointer to index 0."""
        self._pointer = 0
