"""Declarative design spaces: parameters, genomes and scenario decoding.

A :class:`DesignSpace` is the contract between the search algorithms
(the NSGA-II loop) and the simulation harness: it
maps *genomes* — tuples of per-parameter level indices — to fully
validated :class:`~repro.experiments.config.ScenarioConfig` objects.

Design decisions that the rest of ``repro.dse`` leans on:

* **Every parameter is a finite, ordered tuple of levels.**  Integer
  ranges (optionally log-spaced) are discretized at construction, so a
  genome is always a small tuple of indices: trivially hashable,
  JSON-serializable (checkpointable), with a well-defined low (first)
  and high (last) level.
* **Genome identity == scenario identity.**  ``decode`` goes through
  :meth:`ScenarioConfig.replace`, and :meth:`scenario_hash` is the same
  content hash (:func:`repro.experiments.parallel.cache_key`) the
  result cache and the write-ahead journal key on — so a genome
  re-proposed in a later generation (or a resumed run) dedups against
  every previously computed evaluation for free.
* **Validity is checked before simulation.**  ``valid`` rejects genomes
  whose decoded scenario fails dataclass validation (e.g. a zero-flit
  buffer depth), whose topology cannot be built for the node count, or
  that violate a user constraint (e.g. vnet/VC compatibility) — the GA
  never wastes a simulator slot on a broken design point.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.experiments.config import ScenarioConfig
from repro.noc.topology import build_topology

#: One design point: a per-parameter level-index tuple.
Genome = Tuple[int, ...]

#: A validity constraint on the decoded scenario.
Constraint = Callable[[ScenarioConfig], bool]


class DesignSpaceError(ValueError):
    """A malformed parameter, genome or design-space description."""


@dataclasses.dataclass(frozen=True)
class Parameter:
    """One axis of the design space: a named, ordered set of levels.

    ``name`` must be a :class:`ScenarioConfig` field; ``levels`` holds
    the admissible values in search order.  ``numeric`` marks axes whose
    levels carry magnitude (int ranges, rates) rather than naming
    categories; it is part of the space's description and digest.
    """

    name: str
    levels: Tuple[object, ...]
    numeric: bool = True

    def __post_init__(self) -> None:
        if not self.levels:
            raise DesignSpaceError(f"parameter {self.name!r} has no levels")
        if len(set(map(repr, self.levels))) != len(self.levels):
            raise DesignSpaceError(f"parameter {self.name!r} has duplicate levels")
        if self.name not in _SCENARIO_FIELDS:
            known = ", ".join(sorted(_SCENARIO_FIELDS))
            raise DesignSpaceError(
                f"parameter {self.name!r} is not a ScenarioConfig field "
                f"(known: {known})"
            )

    # -- constructors ---------------------------------------------------
    @classmethod
    def int_range(
        cls, name: str, low: int, high: int,
        count: Optional[int] = None, log: bool = False,
    ) -> "Parameter":
        """Discretized integer range ``[low, high]``.

        ``count`` bounds the number of levels (default: every integer up
        to 16 levels, else 16 evenly spaced); ``log`` spaces the levels
        geometrically — the right scale for periods spanning decades
        (rotation period 16..4096).
        """
        if low > high:
            raise DesignSpaceError(f"{name}: empty range [{low}, {high}]")
        if count is None:
            count = min(high - low + 1, 16)
        if count < 1:
            raise DesignSpaceError(f"{name}: count must be >= 1, got {count}")
        if count == 1 or low == high:
            return cls(name, (low,))
        if log:
            if low <= 0:
                raise DesignSpaceError(f"{name}: log scale needs low > 0, got {low}")
            ratio = (high / low) ** (1.0 / (count - 1))
            raw = [low * ratio ** i for i in range(count)]
        else:
            step = (high - low) / (count - 1)
            raw = [low + step * i for i in range(count)]
        levels: List[int] = []
        for value in raw:
            level = min(max(int(round(value)), low), high)
            if not levels or level != levels[-1]:
                levels.append(level)
        return cls(name, tuple(levels))

    @classmethod
    def categorical(cls, name: str, choices: Sequence[object]) -> "Parameter":
        """Unordered choice axis (policies, topologies, traffic names)."""
        return cls(name, tuple(choices), numeric=False)

    # -- genome helpers -------------------------------------------------
    def __len__(self) -> int:
        return len(self.levels)

    def value(self, index: int) -> object:
        if not 0 <= index < len(self.levels):
            raise DesignSpaceError(
                f"{self.name}: level index {index} out of range "
                f"(have {len(self.levels)} levels)"
            )
        return self.levels[index]

    def describe(self) -> Dict[str, object]:
        """JSON-ready description (digests, checkpoints, reports)."""
        return {
            "name": self.name,
            "levels": [repr(level) for level in self.levels],
            "numeric": self.numeric,
        }


_SCENARIO_FIELDS = {field.name for field in dataclasses.fields(ScenarioConfig)}


class DesignSpace:
    """The searchable configuration space around a base scenario.

    Parameters
    ----------
    parameters:
        The axes being searched; every other :class:`ScenarioConfig`
        field is frozen at its ``base`` value.
    base:
        Scenario providing the frozen fields (cycles, warmup, traffic,
        measurement point, seed...).
    constraints:
        Extra validity predicates on the decoded scenario.  Each is a
        callable ``ScenarioConfig -> bool``; built-in structural checks
        (dataclass validation, topology buildability) always apply.
    """

    def __init__(
        self,
        parameters: Sequence[Parameter],
        base: Optional[ScenarioConfig] = None,
        constraints: Sequence[Constraint] = (),
    ) -> None:
        if not parameters:
            raise DesignSpaceError("a design space needs at least one parameter")
        names = [p.name for p in parameters]
        if len(set(names)) != len(names):
            raise DesignSpaceError(f"duplicate parameter names: {names}")
        self.parameters: Tuple[Parameter, ...] = tuple(parameters)
        self.base = base if base is not None else ScenarioConfig()
        self.constraints: Tuple[Constraint, ...] = tuple(constraints)

    # -- size / enumeration --------------------------------------------
    @property
    def size(self) -> int:
        """Total design points (valid or not)."""
        return math.prod(len(p) for p in self.parameters)

    def enumerate_genomes(self) -> Iterator[Genome]:
        """Every genome in deterministic lexicographic order."""
        def recurse(prefix: Tuple[int, ...], rest: Tuple[Parameter, ...]):
            if not rest:
                yield prefix
                return
            for index in range(len(rest[0])):
                yield from recurse(prefix + (index,), rest[1:])

        yield from recurse((), self.parameters)

    # -- decoding -------------------------------------------------------
    def decode(self, genome: Genome) -> ScenarioConfig:
        """The scenario a genome denotes (validated copy of ``base``)."""
        if len(genome) != len(self.parameters):
            raise DesignSpaceError(
                f"genome has {len(genome)} genes, space has "
                f"{len(self.parameters)} parameters"
            )
        overrides = {
            parameter.name: parameter.value(index)
            for parameter, index in zip(self.parameters, genome)
        }
        return self.base.replace(**overrides)

    def values(self, genome: Genome) -> Dict[str, object]:
        """``{parameter name: level value}`` for reports and logs."""
        return {
            parameter.name: parameter.value(index)
            for parameter, index in zip(self.parameters, genome)
        }

    def valid(self, genome: Genome) -> bool:
        """Whether a genome decodes to a buildable, constraint-passing
        scenario (checked *before* any simulator time is spent)."""
        try:
            scenario = self.decode(genome)
            scenario.noc_config()  # NoCConfig-level validation
            build_topology(scenario.topology, scenario.num_nodes)
        except (ValueError, TypeError):
            return False
        return all(constraint(scenario) for constraint in self.constraints)

    def scenario_hash(self, genome: Genome, iteration: int = 0) -> str:
        """The content hash the cache/journal key evaluations by.

        Identical genomes — across generations, restarts and hosts —
        produce identical hashes, which is what makes cross-generation
        and cross-``--resume`` dedup exact rather than heuristic.
        """
        from repro.experiments.parallel import cache_key

        return cache_key(self.decode(genome), iteration)

    # -- sampling -------------------------------------------------------
    def random_genome(self, rng, max_attempts: int = 256) -> Genome:
        """One valid genome drawn uniformly (rejection-sampled)."""
        for _ in range(max_attempts):
            genome = tuple(rng.randrange(len(p)) for p in self.parameters)
            if self.valid(genome):
                return genome
        raise DesignSpaceError(
            f"no valid genome found in {max_attempts} draws; the "
            "constraints may exclude the whole space"
        )

    def corner_genome(self, high: bool) -> Genome:
        """The all-low / all-high corner (the GA's seeded start)."""
        return tuple((len(p) - 1 if high else 0) for p in self.parameters)

    # -- descriptions ---------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """JSON-ready structural description.

        Feeds the GA checkpoint digest and the journal meta, so a
        checkpoint directory can never silently serve a *different*
        space (same gating the campaign journals already enforce).
        """
        return {
            "parameters": [p.describe() for p in self.parameters],
            "base": _jsonable(dataclasses.asdict(self.base)),
            "constraints": len(self.constraints),
        }


def _jsonable(value):
    """Recursively coerce a scenario dict into JSON-stable primitives."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def default_space(base: Optional[ScenarioConfig] = None) -> DesignSpace:
    """The stock search space: every knob the paper fixes by hand.

    Seven axes around the paper's Table I design point — policy (3
    values), rotation period (3), sensor sample period (2), wake
    latency (3), buffer depth (3), VC count (2) and stress regime (3),
    972 genomes in all.  The regime axis explores how robust a design
    point is to pre-aged parts and joint NBTI+PBTI stress; the
    rejuvenation policy trades throughput inside scheduled
    deep-recovery windows for extra recovery time.
    """
    return DesignSpace(
        parameters=(
            Parameter.categorical(
                "policy", ("rr-no-sensor", "sensor-wise", "rejuvenation")
            ),
            Parameter("rotation_period", (16, 64, 256)),
            Parameter("sensor_sample_period", (256, 1024)),
            Parameter("wake_latency", (1, 2, 4)),
            Parameter("buffer_depth", (2, 4, 8)),
            Parameter("num_vcs", (2, 4)),
            Parameter.categorical("regime", ("fresh", "burn-in", "nbti-pbti")),
        ),
        base=base,
    )


def parse_param_spec(spec: str) -> Parameter:
    """Build a parameter from a CLI ``NAME=V1,V2,...`` specification.

    Values are coerced with the :class:`ScenarioConfig` field type
    (int fields get ints, floats floats, everything else strings);
    string-typed axes are categorical.
    """
    name, _, tail = spec.partition("=")
    name = name.strip()
    if not tail:
        raise DesignSpaceError(
            f"bad --param {spec!r}: expected NAME=V1,V2,..."
        )
    field_types = {
        field.name: field.type for field in dataclasses.fields(ScenarioConfig)
    }
    if name not in field_types:
        known = ", ".join(sorted(field_types))
        raise DesignSpaceError(
            f"--param {name!r} is not a ScenarioConfig field (known: {known})"
        )
    raw_values = [v.strip() for v in tail.split(",") if v.strip()]
    if not raw_values:
        raise DesignSpaceError(f"bad --param {spec!r}: no values")
    kind = str(field_types[name])
    if "int" in kind:
        return Parameter(name, tuple(int(v) for v in raw_values))
    if "float" in kind:
        return Parameter(name, tuple(float(v) for v in raw_values))
    return Parameter.categorical(name, tuple(raw_values))
