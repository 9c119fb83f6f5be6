"""DSE front-recall benchmark: does ``dse search`` return the true front?

Simulates every valid genome of the stock ``default_space()`` at 2
nodes once (972 genomes), through ``Executor.map_robust`` into a
temporary result store, and takes the exact Pareto front of those
evaluations as ground truth.  Then runs the real ``DSEEngine``
(population 8 x 8 generations) at the fixed seeds 1-10 on executors
that share that store, so every GA evaluation is a store hit and
nothing in the engine is stubbed.

Per seed it records:

* **recall** — the share of the exhaustive front's *distinct objective
  vectors* the search's front contains (several genomes can tie on one
  vector, so genome counts would be meaningless);
* **hypervolume ratio** — the search front's hypervolume over the
  exhaustive front's, both against the reference point of every
  evaluated genome;
* **simulated** — evaluations the engine sent to the executor (what a
  search without the shared store would simulate);
* **dominated** — distinct objective vectors of the reported front that
  some genome of the space dominates in truth.

From the same table it records each axis's exact **main effect** per
objective (the range of the axis's level means over every evaluated
genome) and its **strength**: the largest effect normalised by that
objective's strongest axis.  Costs no extra simulation.

The gate is mean recall >= 0.9 and mean hypervolume ratio >= 0.99 over
the ten seeds.  The search and the simulator are deterministic, so the
figures are machine-independent; wall-clock time is recorded for
context only and never gated.

Usage::

    PYTHONPATH=src python benchmarks/dse_recall.py [--jobs 2]
        [--output BENCH_dse.json]
    PYTHONPATH=src python benchmarks/dse_recall.py --quick --jobs 2

``--quick`` runs the same space at 400/100 cycles (the CI gate) and
writes a JSON file only when ``--output`` is given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import tempfile
import time

from repro.dse import (
    DSEEngine,
    GAConfig,
    default_space,
    dominates,
    evaluate_objectives,
    hypervolume,
    non_dominated_front,
    reference_point,
    resolve_objectives,
)
from repro.experiments.config import ScenarioConfig
from repro.experiments.parallel import Executor, ScenarioFailure

OBJECTIVES = ("md_duty", "p95_latency")
SEEDS = tuple(range(1, 11))
POPULATION = 8
GENERATIONS = 8
MIN_RECALL = 0.9
MIN_HV_RATIO = 0.99
#: (cycles, warmup) of the full run and of the CI gate.
FULL_CYCLES = (2_000, 300)
QUICK_CYCLES = (400, 100)


def exhaustive_archive(space, objectives, store, jobs):
    """Oriented objective vector of every valid genome, simulated once."""
    genomes = [g for g in space.enumerate_genomes() if space.valid(g)]
    units = [(space.decode(genome), 0) for genome in genomes]
    executor = Executor(max_workers=jobs, cache=store)
    try:
        outcomes = executor.map_robust(units)
    finally:
        executor.close()
    archive = {}
    failed = 0
    for genome, (scenario, _), outcome in zip(genomes, units, outcomes):
        if isinstance(outcome, ScenarioFailure):
            failed += 1
            continue
        archive[genome] = evaluate_objectives(objectives, scenario, outcome)
    return archive, failed


def main_effects(space, objectives, archive):
    """Exact main effect of every axis on every (raw) objective: the
    range of the axis's level means over the evaluated genomes."""
    effects = {}
    for column, objective in enumerate(objectives):
        effects[objective.name] = {}
        for axis, parameter in enumerate(space.parameters):
            levels = {}
            for genome, vector in archive.items():
                levels.setdefault(genome[axis], []).append(
                    objective.raw(vector[column])
                )
            means = [statistics.fmean(values) for values in levels.values()]
            effects[objective.name][parameter.name] = max(means) - min(means)
    return effects


def axis_strengths(effects):
    """Per axis, the largest effect over objectives, each normalised by
    that objective's strongest axis."""
    strength = {}
    for per_axis in effects.values():
        peak = max(per_axis.values())
        for name, effect in per_axis.items():
            share = effect / peak if peak > 0 else 0.0
            strength[name] = max(strength.get(name, 0.0), share)
    return strength


def search(space, objectives, store, seed):
    """One GA run whose every evaluation is served by the shared store."""
    config = GAConfig(population=POPULATION, generations=GENERATIONS, seed=seed)
    executor = Executor(max_workers=1, cache=store)
    try:
        engine = DSEEngine(space, objectives, config, executor=executor)
        engine.run()
        store_misses = executor.stats.units_total - executor.stats.cache_hits
    finally:
        executor.close()
    return engine, store_misses


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--output", default=None,
                        help="JSON results (default BENCH_dse.json; "
                             "none with --quick)")
    parser.add_argument("--quick", action="store_true",
                        help="CI gate: 400/100 cycles, same space and seeds")
    args = parser.parse_args()
    cycles, warmup = QUICK_CYCLES if args.quick else FULL_CYCLES
    output = args.output or (None if args.quick else "BENCH_dse.json")

    space = default_space(ScenarioConfig(num_nodes=2, cycles=cycles, warmup=warmup))
    objectives = resolve_objectives(OBJECTIVES)

    with tempfile.TemporaryDirectory(prefix="dse-recall-") as store:
        started = time.perf_counter()
        truth, failed = exhaustive_archive(space, objectives, store, args.jobs)
        enumerate_seconds = time.perf_counter() - started
        points = list(truth.values())
        reference = reference_point(points)
        true_front = sorted({points[i] for i in non_dominated_front(points)})
        true_volume = hypervolume(true_front, reference)
        print(f"space: {space.size} genomes, {len(truth)} evaluated "
              f"({failed} failed) in {enumerate_seconds:.1f}s; exhaustive "
              f"front: {len(true_front)} objective vector(s)")

        runs = []
        for seed in SEEDS:
            engine, store_misses = search(space, objectives, store, seed)
            found = list(engine.archive.values())
            found_vectors = {found[i] for i in non_dominated_front(found)}
            run = {
                "seed": seed,
                "recall": len(found_vectors & set(true_front)) / len(true_front),
                "hypervolume_ratio": hypervolume(sorted(found_vectors), reference)
                / true_volume,
                "simulated": engine.counters["simulated"],
                "dominated": sum(
                    any(dominates(t, v) for t in true_front) for v in found_vectors
                ),
                "store_misses": store_misses,
            }
            runs.append(run)
            print(f"  seed {seed:2d}: recall {run['recall']:.2f}, "
                  f"hypervolume ratio {run['hypervolume_ratio']:.4f}, "
                  f"{run['simulated']} simulated, {run['dominated']} dominated")

    mean_recall = statistics.fmean(run["recall"] for run in runs)
    mean_ratio = statistics.fmean(run["hypervolume_ratio"] for run in runs)
    passed = mean_recall >= MIN_RECALL and mean_ratio >= MIN_HV_RATIO
    print(f"mean recall {mean_recall:.3f} (gate {MIN_RECALL}), mean "
          f"hypervolume ratio {mean_ratio:.4f} (gate {MIN_HV_RATIO})")

    if output:
        effects = main_effects(space, objectives, truth)
        genomes_by_vector = {}
        for genome, vector in sorted(truth.items()):
            if vector in true_front:
                genomes_by_vector.setdefault(vector, []).append(space.values(genome))
        payload = {
            "space_size": space.size,
            "evaluated": len(truth),
            "failed": failed,
            "cycles": cycles,
            "warmup": warmup,
            "objectives": list(OBJECTIVES),
            "population": POPULATION,
            "generations": GENERATIONS,
            "exhaustive_front": [
                {
                    "objectives": {
                        o.name: o.raw(v) for o, v in zip(objectives, vector)
                    },
                    "genomes": genomes_by_vector[vector],
                }
                for vector in true_front
            ],
            "exhaustive_hypervolume": true_volume,
            "main_effects": effects,
            "axis_strength": axis_strengths(effects),
            "runs": runs,
            "mean_recall": mean_recall,
            "mean_hypervolume_ratio": mean_ratio,
            "gate": {"min_recall": MIN_RECALL, "min_hypervolume_ratio": MIN_HV_RATIO},
            "passed": passed,
            "enumerate_seconds": enumerate_seconds,
            "quick": args.quick,
        }
        with open(output, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {output}")

    print("OK" if passed else "FAIL: recall gate not met")
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
