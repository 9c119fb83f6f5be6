"""Design-space exploration: seeded GA → Pareto.

The ``repro-noc dse`` pipeline answers the question the paper leaves
open — *which* sensor-wise configuration to build — by searching the
configuration space around the paper's design point:

1. :mod:`repro.dse.space` — declarative parameter spaces whose genomes
   decode to validated scenarios with cache-stable identity;
2. :mod:`repro.dse.ga` — the seeded NSGA-II loop, checkpointed per
   generation and evaluated through the campaign executor;
3. :mod:`repro.dse.pareto` / :mod:`repro.dse.report` — exact fronts,
   hypervolume, knee-point pick, canonical JSON/CSV reports.
"""

from repro.dse.ga import GA_STATE_FILENAME, DSEEngine, GAConfig
from repro.dse.objectives import (
    OBJECTIVES,
    Objective,
    evaluate_objectives,
    resolve_objectives,
)
from repro.dse.pareto import (
    crowding_distance,
    dominates,
    hypervolume,
    knee_point,
    non_dominated_front,
    non_dominated_sort,
    reference_point,
)
from repro.dse.report import DSEResult, FrontMember
from repro.dse.space import (
    DesignSpace,
    DesignSpaceError,
    Genome,
    Parameter,
    default_space,
    parse_param_spec,
)

__all__ = [
    "DSEEngine",
    "DSEResult",
    "DesignSpace",
    "DesignSpaceError",
    "FrontMember",
    "GAConfig",
    "GA_STATE_FILENAME",
    "Genome",
    "OBJECTIVES",
    "Objective",
    "Parameter",
    "crowding_distance",
    "default_space",
    "dominates",
    "evaluate_objectives",
    "hypervolume",
    "knee_point",
    "non_dominated_front",
    "non_dominated_sort",
    "parse_param_spec",
    "reference_point",
    "resolve_objectives",
]
