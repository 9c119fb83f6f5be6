"""Seeded NSGA-II loop: the evolutionary heart of ``repro-noc dse``.

The engine composes three existing pieces of machinery instead of
re-inventing them:

* **Evaluation** goes through
  :meth:`repro.experiments.parallel.Executor.map_robust` — so ``--jobs``
  parallelism, the on-disk result cache, the write-ahead scenario
  journal, crash retries and the distributed backend all apply to DSE
  evaluations exactly as they do to sweep campaigns.
* **Dedup** is the archive plus content-hash identity: a genome decodes
  to the same :class:`~repro.experiments.config.ScenarioConfig` every
  time, so the cache/journal key (:func:`~repro.dse.space.DesignSpace.
  scenario_hash`) of a re-proposed genome matches its first evaluation
  across generations, restarts and hosts.
* **Durability** is ``ga.state.json`` — written atomically after every
  generation, beside the executor's checkpoint journal, with the same
  digest gating the campaign journals use.  A SIGTERM mid-generation
  leaves the partially evaluated generation in the WAL; on ``--resume``
  the same generation is re-entered and every journaled unit is served
  without re-simulation.

Determinism: all randomness flows from
:func:`repro.nbti.process_variation.scenario_seed` with labeled streams
``("dse", seed, generation, purpose)``.  Nothing depends on wall-clock,
dict iteration order, or worker completion order, which is what makes
"same seed, byte-identical Pareto JSON" an invariant rather than a hope.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import codec
from repro.dse.objectives import Objective, evaluate_objectives
from repro.dse.pareto import (
    crowding_distance,
    non_dominated_front,
    non_dominated_sort,
)
from repro.dse.space import DesignSpace, DesignSpaceError, Genome
from repro.experiments.checkpoint import (
    CampaignInterrupted,
    CheckpointError,
    atomic_write_json,
    config_digest,
)
from repro.experiments.parallel import (
    CACHE_SCHEMA_VERSION,
    Executor,
    ScenarioFailure,
    executor_or_serial,
)
from repro.nbti.process_variation import scenario_seed
from repro.telemetry.log import get_logger
from repro.telemetry.metrics import MetricsRegistry

log = get_logger("dse")

#: ``ga.state.json`` layout version (bump on incompatible change).
GA_STATE_SCHEMA = 2

GA_STATE_FILENAME = "ga.state.json"

#: Contestants per parent pick: the binary tournament of NSGA-II.
TOURNAMENT_SIZE = 2


@dataclasses.dataclass
class ArchiveEntry:
    """One evaluated genome and its oriented objective vector."""

    genome: Genome
    objectives: Tuple[float, ...]


@dataclasses.dataclass
class GAState:
    """``ga.state.json``: where a campaign stood after its last generation."""

    schema: int
    digest: str
    status: str
    next_generation: int
    population: List[Genome]
    archive: List[ArchiveEntry]
    counters: Dict[str, int]


@dataclasses.dataclass(frozen=True)
class GAConfig:
    """Knobs of the evolutionary search (all deterministic given ``seed``).

    Each generation proposes ``population`` offspring.  ``mutation_rate``
    of ``None`` selects the NSGA-II default of ``1/num_parameters``.
    """

    population: int = 12
    generations: int = 8
    seed: int = 7
    crossover_rate: float = 0.9
    mutation_rate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.population < 2:
            raise ValueError(f"population must be >= 2, got {self.population}")
        if self.generations < 1:
            raise ValueError(f"generations must be >= 1, got {self.generations}")


class DSEEngine:
    """One design-space exploration campaign.

    Parameters
    ----------
    space, objectives:
        What is searched and what is optimized (oriented internally).
    config:
        The :class:`GAConfig`; its seed roots every RNG stream.
    executor:
        The :class:`~repro.experiments.parallel.Executor` every genome is
        evaluated through (its ``map_robust``: one child per attempt);
        ``None`` uses a serial one.  When it has a checkpoint,
        ``ga.state.json`` lives in the checkpoint's directory beside the
        scenario journal, and :meth:`run` resumes from it.
    metrics:
        Optional registry receiving per-generation counters/gauges.
    """

    def __init__(
        self,
        space: DesignSpace,
        objectives: Sequence[Objective],
        config: GAConfig,
        executor: Optional[Executor] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not objectives:
            raise ValueError("DSE needs at least one objective")
        self.space = space
        self.objectives = tuple(objectives)
        self.config = config
        self.executor = executor_or_serial(executor)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: genome -> oriented objective vector, for every evaluated point.
        self.archive: Dict[Genome, Tuple[float, ...]] = {}
        #: Proposal/evaluation accounting: proposed == simulated + archive_hits.
        self.counters: Dict[str, int] = {
            "proposed": 0,          # candidate genomes the GA generated
            "archive_hits": 0,      # proposals already evaluated (dedup)
            "simulated": 0,         # units actually sent to the harness
            "failed": 0,            # evaluations lost to ScenarioFailure
            "invalid": 0,           # offspring rejected before evaluation
            "generations_done": 0,
        }
        self._population: List[Genome] = []
        self._next_generation = 0
        self._rate = (
            config.mutation_rate
            if config.mutation_rate is not None
            else 1.0 / len(space.parameters)
        )

    # -- identity -------------------------------------------------------
    def digest(self) -> str:
        """Content digest gating state-file compatibility on resume."""
        return config_digest(
            {
                "space": self.space.describe(),
                "objectives": [
                    {"name": o.name, "maximize": o.maximize} for o in self.objectives
                ],
                "ga": dataclasses.asdict(self.config),
                "cache_schema": CACHE_SCHEMA_VERSION,
            }
        )

    @property
    def state_path(self) -> Optional[Path]:
        checkpoint = self.executor.checkpoint
        if checkpoint is None:
            return None
        return checkpoint.directory / GA_STATE_FILENAME

    # -- RNG streams ----------------------------------------------------
    def _rng(self, generation: int, purpose: str) -> random.Random:
        """A labeled, re-derivable RNG stream (resume-stable)."""
        return random.Random(
            scenario_seed("dse", self.config.seed, generation, purpose)
        )

    # -- durable state --------------------------------------------------
    def _write_state(self, status: str) -> None:
        path = self.state_path
        if path is None:
            return
        state = GAState(
            schema=GA_STATE_SCHEMA,
            digest=self.digest(),
            status=status,
            next_generation=self._next_generation,
            population=self._population,
            archive=[ArchiveEntry(*item) for item in sorted(self.archive.items())],
            counters=self.counters,
        )
        atomic_write_json(path, codec.to_json(state))

    def _load_state(self) -> bool:
        """Adopt a prior run's state; False when none exists."""
        path = self.state_path
        if path is None or not path.exists():
            return False
        state = read_ga_state(path)
        if state.digest != self.digest():
            raise CheckpointError(
                f"GA state in {path} was written for a different space/"
                "config (digest mismatch); use a fresh --checkpoint-dir"
            )
        self._next_generation = state.next_generation
        self._population = state.population
        self.archive = {entry.genome: entry.objectives for entry in state.archive}
        self.counters.update(state.counters)
        return True

    # -- evaluation -----------------------------------------------------
    def _evaluate(self, genomes: Sequence[Genome]) -> None:
        """Fill the archive for every genome not already in it.

        Runs through the executor (cache, journal, worker processes,
        retries); failures are logged, counted, and leave the genome
        unevaluated (it simply never enters the archive).
        """
        fresh: List[Genome] = []
        seen = set()
        for genome in genomes:
            if genome in self.archive:
                self.counters["archive_hits"] += 1
            elif genome in seen:
                self.counters["archive_hits"] += 1
            else:
                seen.add(genome)
                fresh.append(genome)
        if not fresh:
            return
        units = [(self.space.decode(genome), 0) for genome in fresh]
        self.counters["simulated"] += len(units)
        outcomes = self.executor.map_robust(units)
        for genome, (scenario, _), outcome in zip(fresh, units, outcomes):
            if isinstance(outcome, ScenarioFailure):
                self.counters["failed"] += 1
                log.warning("evaluation failed for %s: %s",
                            self.space.values(genome), outcome)
                continue
            self.archive[genome] = evaluate_objectives(
                self.objectives, scenario, outcome
            )

    # -- GA operators ---------------------------------------------------
    def _initial_population(self) -> List[Genome]:
        """Seeded start: the all-low and all-high corners (when valid) +
        uniform random valid genomes, distinct while the space allows it."""
        rng = self._rng(0, "init")
        population: List[Genome] = []
        for corner in (self.space.corner_genome(False), self.space.corner_genome(True)):
            if self.space.valid(corner) and corner not in population:
                population.append(corner)
        attempts = 0
        while len(population) < self.config.population:
            genome = self.space.random_genome(rng)
            attempts += 1
            if genome not in population or attempts > 64:
                population.append(genome)
        return population[: self.config.population]

    def _ranked_pool(
        self, genomes: Sequence[Genome]
    ) -> List[Tuple[Genome, int, float]]:
        """(genome, front rank, crowding distance) for evaluated genomes."""
        evaluated = [g for g in genomes if g in self.archive]
        points = [self.archive[g] for g in evaluated]
        ranked: List[Tuple[Genome, int, float]] = []
        for rank, front in enumerate(non_dominated_sort(points)):
            crowd = crowding_distance([points[i] for i in front])
            for position, index in enumerate(front):
                ranked.append((evaluated[index], rank, crowd[position]))
        return ranked

    def _tournament(
        self, rng: random.Random, pool: Sequence[Tuple[Genome, int, float]]
    ) -> Genome:
        """Binary tournament on (rank, crowding)."""
        best = None
        for _ in range(TOURNAMENT_SIZE):
            index = rng.randrange(len(pool))
            candidate = pool[index]
            if best is None or _fitter(candidate, best):
                best = candidate
        return best[0]

    def _crossover(self, rng: random.Random, a: Genome, b: Genome) -> Genome:
        if rng.random() >= self.config.crossover_rate:
            return a
        return tuple(
            (x if rng.random() < 0.5 else y) for x, y in zip(a, b)
        )

    def _mutate(self, rng: random.Random, genome: Genome) -> Genome:
        genes = list(genome)
        for position, parameter in enumerate(self.space.parameters):
            if len(parameter) > 1 and rng.random() < self._rate:
                alternatives = [
                    i for i in range(len(parameter)) if i != genes[position]
                ]
                genes[position] = alternatives[rng.randrange(len(alternatives))]
        return tuple(genes)

    def _offspring(
        self,
        generation: int,
        pool: Sequence[Tuple[Genome, int, float]],
        count: int,
    ) -> List[Genome]:
        """``count`` valid offspring via tournament + crossover + mutation."""
        rng = self._rng(generation, "vary")
        offspring: List[Genome] = []
        attempts = 0
        limit = max(64, count * 32)
        while len(offspring) < count and attempts < limit:
            attempts += 1
            mother = self._tournament(rng, pool)
            father = self._tournament(rng, pool)
            child = self._mutate(rng, self._crossover(rng, mother, father))
            if self.space.valid(child):
                offspring.append(child)
            else:
                self.counters["invalid"] += 1
        while len(offspring) < count:
            # Constraint-heavy spaces: fall back to rejection sampling.
            offspring.append(self.space.random_genome(rng))
        return offspring

    def _select_next(self, parents: Sequence[Genome], offspring: Sequence[Genome]) -> List[Genome]:
        """NSGA-II environmental selection over parents + offspring."""
        combined: List[Genome] = []
        for genome in list(parents) + list(offspring):
            if genome in self.archive and genome not in combined:
                combined.append(genome)
        points = [self.archive[g] for g in combined]
        survivors: List[Genome] = []
        for front in non_dominated_sort(points):
            if len(survivors) + len(front) <= self.config.population:
                survivors.extend(combined[i] for i in front)
            else:
                crowd = crowding_distance([points[i] for i in front])
                by_crowding = sorted(
                    zip(front, crowd), key=lambda item: (-item[1], item[0])
                )
                room = self.config.population - len(survivors)
                survivors.extend(
                    combined[i] for i, _ in by_crowding[:room]
                )
            if len(survivors) >= self.config.population:
                break
        return survivors

    # -- the loop -------------------------------------------------------
    def run(self) -> "DSEEngine":
        """Execute (or continue) the campaign.

        When the executor's checkpoint directory holds a compatible
        ``ga.state.json``, the loop restarts at the first unfinished
        generation; evaluation of that generation replays journaled
        units for free.  Raises
        :class:`~repro.experiments.checkpoint.CampaignInterrupted` when
        a drain request (SIGINT/SIGTERM) stops the campaign early —
        after durably writing the interrupted state.
        """
        if self._load_state():
            log.info(
                "resuming DSE at generation %d (%d archived evaluations)",
                self._next_generation, len(self.archive),
            )
        else:
            self._population = self._initial_population()
            self._next_generation = 0

        snapshot = None
        try:
            while self._next_generation < self.config.generations:
                generation = self._next_generation
                # Generation-boundary snapshot: an interrupt rolls the
                # accounting back to the last completed generation, so a
                # resumed run replays the identical counter sequence and
                # the final report stays byte-identical.
                snapshot = dict(self.counters)
                self._run_generation(generation)
                self.counters["generations_done"] = generation + 1
                self._next_generation = generation + 1
                self._write_state("running")
        except CampaignInterrupted:
            if snapshot is not None:
                self.counters = snapshot
            self._write_state("interrupted")
            raise
        self._write_state("complete")
        return self

    def _run_generation(self, generation: int) -> None:
        if generation == 0:
            self.counters["proposed"] += len(self._population)
            self._evaluate(self._population)
            survivors = [g for g in self._population if g in self.archive]
        else:
            pool = self._ranked_pool(self._population)
            if not pool:
                raise DesignSpaceError(
                    "no evaluated genomes survive generation "
                    f"{generation - 1}; cannot select parents"
                )
            offspring = self._offspring(generation, pool, self.config.population)
            self.counters["proposed"] += len(offspring)
            self._evaluate(offspring)
            survivors = self._select_next(self._population, offspring)
        if not survivors:
            raise DesignSpaceError(
                f"generation {generation}: every evaluation failed"
            )
        self._population = survivors
        self._emit_generation(generation)

    def _emit_generation(self, generation: int) -> None:
        """Per-generation telemetry: one log line + registry instruments."""
        points = [self.archive[g] for g in self._population if g in self.archive]
        front_size = len(non_dominated_front(points)) if points else 0
        self.metrics.inc("dse.generations")
        self.metrics.set("dse.archive_size", float(len(self.archive)))
        self.metrics.set("dse.front_size", float(front_size))
        self.metrics.set(
            "dse.simulated_total", float(self.counters["simulated"])
        )
        log.info(
            "generation %d: %d in population, front=%d, archive=%d, "
            "simulated=%d, dedup=%d",
            generation,
            len(self._population),
            front_size,
            len(self.archive),
            self.counters["simulated"],
            self.counters["archive_hits"],
        )

    # -- results --------------------------------------------------------
    @property
    def population(self) -> List[Genome]:
        return list(self._population)


def _fitter(a: Tuple[Genome, int, float], b: Tuple[Genome, int, float]) -> bool:
    """NSGA-II crowded-comparison: lower rank, then larger crowding."""
    if a[1] != b[1]:
        return a[1] < b[1]
    return a[2] > b[2]


def read_ga_state(path) -> GAState:
    """The ``ga.state.json`` at ``path``, else :class:`CheckpointError`."""
    try:
        blob = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"GA state {path} unreadable: {exc}") from exc
    schema = blob.get("schema") if isinstance(blob, dict) else None
    if schema != GA_STATE_SCHEMA:
        raise CheckpointError(
            f"GA state {path} has schema {schema!r} (expected {GA_STATE_SCHEMA})"
        )
    try:
        return codec.decode(blob, GAState)
    except codec.DecodeError as exc:
        raise CheckpointError(f"GA state {path} is {exc}") from None


def verify_ga_state(path) -> Tuple[bool, str]:
    """Structural health check of a ``ga.state.json`` file.

    Used by ``repro-noc cache verify --checkpoint-dir`` so a DSE
    checkpoint directory gets the same rot-scanning story as the
    scenario journal it sits next to.  Returns ``(ok, summary line)``.
    """
    try:
        state = read_ga_state(path)
    except CheckpointError as exc:
        return False, str(exc)
    return True, (
        f"{Path(path).name} OK: status={state.status}, "
        f"next_generation={state.next_generation}, "
        f"archive={len(state.archive)} evaluation(s)"
    )
