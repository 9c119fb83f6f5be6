"""Traffic-generator interface consumed by the network stepper.

A traffic generator is asked once per cycle for the packets created that
cycle, as ``(src, dst, length)`` triples (``length=None`` means "use the
configured default packet length").  Generators must be deterministic
given their seed so that scenarios are exactly reproducible across
policies — the paper compares policies on identical traffic.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Tuple

#: One packet to create this cycle: ``(src, dst, length)`` with
#: ``length=None`` meaning "use the configured default", optionally
#: extended to ``(src, dst, length, vnet)`` on multi-vnet platforms
#: (plain 3-tuples target vnet 0).
Injection = Tuple[int, ...]


class TrafficGenerator:
    """Base class: subclasses implement :meth:`inject`."""

    #: Short name used in tables and configs.
    name: str = "abstract"

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 2:
            raise ValueError(f"traffic needs >= 2 nodes, got {num_nodes}")
        self.num_nodes = num_nodes

    def inject(self, cycle: int) -> List[Injection]:
        """Packets created at ``cycle`` (possibly empty)."""
        raise NotImplementedError

    def next_injection_cycle(self, cycle: int) -> Optional[float]:
        """A cycle ``t >= cycle`` with no injection anywhere in
        ``[cycle, t)``, where ``cycle`` is the generator's stream
        position, *without* changing what the generator produces.

        The caller then consumes the cycles it skips in one call:
        :meth:`inject` at a cycle ``c`` with ``cycle <= c <= t`` first
        consumes the injection-free cycles ``[cycle, c)``, and
        :meth:`advance` consumes ``k <= t - cycle`` of them.  The
        contract is a lower bound: ``t`` need not itself inject (a
        scan-horizon cap is fine) — the caller simply simulates ``t``
        and asks again.  ``math.inf`` means the generator will never
        inject again.  The base class returns ``None``: *unsupported* —
        the SoA engine then calls :meth:`inject` every cycle.
        Generators that implement this must also implement
        :meth:`advance`.
        """
        return None

    def advance(self, cycles: int) -> None:
        """Consume the RNG draws of ``cycles`` injection-free cycles.

        Called by the SoA engine instead of ``cycles`` individual
        :meth:`inject` calls when a run ends short of the scouted
        cycle, so the stream position stays byte-identical to
        per-cycle stepping.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support injection scouting"
        )

    def describe(self) -> str:
        """One-line description for experiment reports."""
        return self.name


def grid_shape(num_nodes: int) -> Tuple[int, int]:
    """(width, height) of the squarest grid factorization of a node count.

    Matches :func:`repro.noc.topology.build_topology`'s mesh shape so
    that coordinate-based patterns (transpose, tornado...) line up with
    the simulated topology.

    >>> grid_shape(16)
    (4, 4)
    >>> grid_shape(8)
    (4, 2)
    """
    best = 1
    d = 1
    while d * d <= num_nodes:
        if num_nodes % d == 0:
            best = d
        d += 1
    height = best
    width = num_nodes // best
    return (width, height)


def validate_rate(rate: float, name: str = "injection_rate") -> float:
    """Validate a per-node-per-cycle packet/flit rate in [0, 1]."""
    if not 0.0 <= rate <= 1.0 or math.isnan(rate):
        raise ValueError(f"{name} must be in [0, 1], got {rate}")
    return rate


class CompositeTraffic(TrafficGenerator):
    """Superposition of several generators over the same node set."""

    name = "composite"

    def __init__(self, generators: Iterable[TrafficGenerator]) -> None:
        generators = list(generators)
        if not generators:
            raise ValueError("composite traffic needs at least one generator")
        nodes = {g.num_nodes for g in generators}
        if len(nodes) != 1:
            raise ValueError(f"generators disagree on num_nodes: {sorted(nodes)}")
        super().__init__(generators[0].num_nodes)
        self.generators = generators

    def inject(self, cycle: int) -> List[Injection]:
        out: List[Injection] = []
        for gen in self.generators:
            out.extend(gen.inject(cycle))
        return out

    def next_injection_cycle(self, cycle: int) -> Optional[float]:
        """Earliest bound over the children (None if any is unsupported)."""
        bounds = [g.next_injection_cycle(cycle) for g in self.generators]
        if any(b is None for b in bounds):
            return None
        return min(bounds)

    def advance(self, cycles: int) -> None:
        for gen in self.generators:
            gen.advance(cycles)

    def describe(self) -> str:
        return " + ".join(g.describe() for g in self.generators)


class NullTraffic(TrafficGenerator):
    """A silent network (useful for gating/recovery unit tests)."""

    name = "null"

    def inject(self, cycle: int) -> List[Injection]:
        return []

    def next_injection_cycle(self, cycle: int) -> float:
        return math.inf

    def advance(self, cycles: int) -> None:
        pass  # no RNG stream to keep in sync
