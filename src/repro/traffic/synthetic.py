"""Synthetic traffic patterns (uniform random and friends).

The paper's synthetic evaluation (Tables II/III) uses **uniform** traffic
at 0.1 / 0.2 / 0.3 *flits per cycle per port*.  Rates here are therefore
specified in flits/cycle/node and converted to packet injections using
the packet length; additional classic patterns (transpose, bit
complement, tornado, neighbor, shuffle, hotspot) are provided for the
topology/pattern extension studies.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.traffic.base import (
    Injection,
    TrafficGenerator,
    grid_shape,
    validate_rate,
)

#: A destination function: (src, rng) -> dst (may equal src; the caller
#: skips self-addressed picks).
DestinationFn = Callable[[int, np.random.Generator], int]


class SyntheticTraffic(TrafficGenerator):
    """Bernoulli packet injection with a configurable spatial pattern.

    Parameters
    ----------
    pattern:
        One of :data:`PATTERNS` (``"uniform"`` is the paper's).
    num_nodes:
        Tile count.
    flit_rate:
        Offered load in flits/cycle/node, as in the paper's tables.
    packet_length:
        Flits per packet; the per-cycle packet-injection probability is
        ``flit_rate / packet_length``.
    seed:
        RNG seed (freeze per scenario for policy-to-policy comparisons).

    Example
    -------
    >>> gen = SyntheticTraffic("uniform", num_nodes=4, flit_rate=0.4,
    ...                        packet_length=4, seed=7)
    >>> all(0 <= s < 4 and 0 <= d < 4 and s != d
    ...     for c in range(200) for (s, d, _l) in gen.inject(c))
    True
    """

    def __init__(
        self,
        pattern: str,
        num_nodes: int,
        flit_rate: float,
        packet_length: int = 4,
        seed: int = 1,
    ) -> None:
        super().__init__(num_nodes)
        if pattern not in PATTERNS:
            known = ", ".join(sorted(PATTERNS))
            raise ValueError(f"unknown pattern {pattern!r}; known: {known}")
        if packet_length < 1:
            raise ValueError(f"packet_length must be >= 1, got {packet_length}")
        validate_rate(flit_rate, "flit_rate")
        self.pattern = pattern
        self.name = pattern
        self.flit_rate = flit_rate
        self.packet_length = packet_length
        self.packet_rate = flit_rate / packet_length
        if self.packet_rate > 1.0:
            raise ValueError(
                f"flit_rate {flit_rate} with packet_length {packet_length} "
                f"implies more than one packet per cycle per node"
            )
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._dest_fn = _build_destination_fn(pattern, num_nodes)
        #: What the last scout drew ahead of the stream position, as
        #: ``(start, hit, row, held)``: the scout ran at cycle ``start``
        #: (the stream position), cycles ``[start, hit)`` inject
        #: nothing, ``row`` holds the Bernoulli draws of cycle ``hit``
        #: (``None`` when the scan stopped at its horizon there), and
        #: ``held`` is the stream's ``(has_uint32, uinteger)`` pair,
        #: which Bernoulli draws never change.  The generator itself
        #: already stands past those rows.  ``None`` when it stands at
        #: the stream position.
        self._ahead: Optional[
            Tuple[int, int, Optional[np.ndarray], Tuple[int, int]]
        ] = None
        # First scout chunk: the expected injection gap, so a busy
        # network draws one row, not a block, to find a hit in its
        # first row (chunking never changes the answer).
        busy = 1.0 - (1.0 - self.packet_rate) ** num_nodes
        self._first_chunk = 128 if busy <= 0.0 else max(1, min(128, int(1.0 / busy)))

    def inject(self, cycle: int) -> List[Injection]:
        ahead = self._ahead
        if ahead is None:
            draws = self._rng.random(self.num_nodes)
        else:
            self._ahead = None
            _, hit, row, held = ahead
            if cycle == hit and row is not None:
                draws = row  # the scouted injection: already drawn
            else:
                self._move(cycle - hit - (row is not None), held)
                draws = self._rng.random(self.num_nodes)
        rng = self._rng
        out: List[Injection] = []
        for src in np.nonzero(draws < self.packet_rate)[0]:
            src = int(src)
            dst = self._dest_fn(src, rng)
            if dst == src:
                continue  # pattern maps the node onto itself: no packet
            out.append((src, dst, None))
        return out

    def next_injection_cycle(self, cycle: int, horizon: int = 1 << 14):
        """First upcoming cycle with a packet draw (scout).

        The Bernoulli draws (``num_nodes`` per cycle) are scanned in
        vectorized chunks on the generator itself, which then stands
        just past the first row with a hit; that row is kept, so
        :meth:`inject` at the returned cycle reads it without drawing it
        again (and consumes the injection-free cycles before it), while
        :meth:`advance` or an :meth:`inject` at an earlier cycle moves
        the generator back to where per-cycle stepping would stand.  The
        stream therefore stays byte-identical to per-cycle
        :meth:`inject` calls.  Destination draws only happen on hits,
        which by construction do not occur before the returned cycle.
        Beyond ``horizon`` scanned cycles the bound is returned as-is
        (the contract only promises no injection in between).
        """
        if self.packet_rate <= 0.0:
            return math.inf
        ahead = self._ahead
        if ahead is None:
            ahead = self._ahead = self._scout(cycle, horizon)
        return cycle + ahead[1] - ahead[0]

    def _scout(self, cycle: int, horizon: int):
        rng = self._rng
        state = rng.bit_generator.state
        held = (state["has_uint32"], state["uinteger"])
        rate = self.packet_rate
        nodes = self.num_nodes
        scanned = 0
        chunk = self._first_chunk
        while scanned < horizon:
            n = min(chunk, horizon - scanned)
            draws = rng.random(n * nodes)
            hits = draws < rate
            first = int(hits.argmax())
            if hits[first]:
                row = first // nodes
                self._move(row + 1 - n, held)  # back over the rows past the hit
                kept = draws[row * nodes:(row + 1) * nodes].copy()
                return (cycle, cycle + scanned + row, kept, held)
            scanned += n
            chunk = min(chunk * 4, 4096)
        return (cycle, cycle + scanned, None, held)

    def advance(self, cycles: int) -> None:
        """Consume the Bernoulli draws of ``cycles`` injection-free
        cycles, leaving the stream where per-cycle :meth:`inject` calls
        would (scouted rows are not drawn again)."""
        ahead = self._ahead
        if ahead is None:
            if cycles > 0:
                self._move(cycles)
            return
        self._ahead = None
        start, hit, row, held = ahead
        self._move(start + cycles - hit - (row is not None), held)

    def _move(self, rows: int, held=None) -> None:
        """Move the generator ``rows`` Bernoulli rows on (or back, when
        negative) without drawing them.  ``PCG64.advance`` steps one
        64-bit output per double, and its LCG has period ``2**128``, so
        ``2**128 - n`` steps go back ``n``; it clears the buffered 32-bit
        half (``has_uint32``/``uinteger``) a destination draw may have
        left, so ``held`` (read now when not given) is put back."""
        if rows == 0:
            return
        bitgen = self._rng.bit_generator
        if held is None:
            state = bitgen.state
            held = (state["has_uint32"], state["uinteger"])
        bitgen.advance((rows * self.num_nodes) % (1 << 128))
        if held[0] or held[1]:
            state = bitgen.state
            state["has_uint32"], state["uinteger"] = held
            bitgen.state = state

    def describe(self) -> str:
        return f"{self.pattern}(rate={self.flit_rate} flits/cyc/node)"


class HotspotTraffic(SyntheticTraffic):
    """Uniform traffic with a probability mass concentrated on hotspots.

    Models memory-controller-style concentration: with probability
    ``hotspot_fraction`` the destination is drawn from ``hotspots``,
    otherwise uniformly from all other nodes.
    """

    def __init__(
        self,
        num_nodes: int,
        flit_rate: float,
        hotspots: Sequence[int],
        hotspot_fraction: float = 0.5,
        packet_length: int = 4,
        seed: int = 1,
    ) -> None:
        super().__init__("uniform", num_nodes, flit_rate, packet_length, seed)
        hotspots = list(hotspots)
        if not hotspots:
            raise ValueError("hotspot traffic needs at least one hotspot node")
        for h in hotspots:
            if not 0 <= h < num_nodes:
                raise ValueError(f"hotspot {h} out of range [0, {num_nodes})")
        if not 0.0 <= hotspot_fraction <= 1.0:
            raise ValueError(f"hotspot_fraction must be in [0, 1], got {hotspot_fraction}")
        self.pattern = "hotspot"
        self.name = "hotspot"
        self.hotspots = hotspots
        self.hotspot_fraction = hotspot_fraction
        uniform = self._dest_fn

        def dest(src: int, rng: np.random.Generator) -> int:
            if rng.random() < self.hotspot_fraction:
                return int(self.hotspots[int(rng.integers(len(self.hotspots)))])
            return uniform(src, rng)

        self._dest_fn = dest

    def describe(self) -> str:
        return (
            f"hotspot(rate={self.flit_rate}, nodes={self.hotspots}, "
            f"fraction={self.hotspot_fraction})"
        )


# ----------------------------------------------------------------------
# Destination functions
# ----------------------------------------------------------------------
def _uniform(num_nodes: int) -> DestinationFn:
    def dest(src: int, rng: np.random.Generator) -> int:
        dst = int(rng.integers(num_nodes - 1))
        return dst if dst < src else dst + 1  # uniform over nodes != src

    return dest


def _transpose(num_nodes: int) -> DestinationFn:
    width, height = grid_shape(num_nodes)

    def dest(src: int, rng: np.random.Generator) -> int:
        x, y = src % width, src // width
        # Matrix transpose needs a square grid; clamp into range otherwise.
        tx, ty = y % width, x % height
        return ty * width + tx

    return dest


def _bit_complement(num_nodes: int) -> DestinationFn:
    mask = num_nodes - 1
    if num_nodes & mask:
        raise ValueError("bit_complement requires a power-of-two node count")

    def dest(src: int, rng: np.random.Generator) -> int:
        return (~src) & mask

    return dest


def _bit_reverse(num_nodes: int) -> DestinationFn:
    if num_nodes & (num_nodes - 1):
        raise ValueError("bit_reverse requires a power-of-two node count")
    bits = num_nodes.bit_length() - 1

    def dest(src: int, rng: np.random.Generator) -> int:
        out = 0
        for b in range(bits):
            if src & (1 << b):
                out |= 1 << (bits - 1 - b)
        return out

    return dest


def _shuffle(num_nodes: int) -> DestinationFn:
    if num_nodes & (num_nodes - 1):
        raise ValueError("shuffle requires a power-of-two node count")
    bits = num_nodes.bit_length() - 1
    mask = num_nodes - 1

    def dest(src: int, rng: np.random.Generator) -> int:
        return ((src << 1) | (src >> (bits - 1))) & mask

    return dest


def _tornado(num_nodes: int) -> DestinationFn:
    width, height = grid_shape(num_nodes)

    def dest(src: int, rng: np.random.Generator) -> int:
        x, y = src % width, src // width
        return y * width + (x + width // 2) % width

    return dest


def _neighbor(num_nodes: int) -> DestinationFn:
    width, height = grid_shape(num_nodes)

    def dest(src: int, rng: np.random.Generator) -> int:
        x, y = src % width, src // width
        return y * width + (x + 1) % width

    return dest


#: Registered pattern builders.
PATTERNS: Dict[str, Callable[[int], DestinationFn]] = {
    "uniform": _uniform,
    "transpose": _transpose,
    "bit_complement": _bit_complement,
    "bit_reverse": _bit_reverse,
    "shuffle": _shuffle,
    "tornado": _tornado,
    "neighbor": _neighbor,
}


def _build_destination_fn(pattern: str, num_nodes: int) -> DestinationFn:
    return PATTERNS[pattern](num_nodes)
