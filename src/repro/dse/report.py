"""Pareto reports: the durable, human- and machine-readable DSE output.

:class:`DSEResult` snapshots a finished (or interrupted) campaign —
archive, exact non-dominated front, hypervolume, knee pick, proposal
counters — and serializes it three ways:

* ``to_json()`` — canonical JSON (sorted keys, fixed separators, LF
  newline).  Byte-identical across runs with the same seed; this string
  is what the determinism regression test compares.
* ``write_csv()`` — one row per front member for spreadsheet users.
* ``format()`` — the fixed-width table ``repro-noc dse report`` prints.

Raw (un-negated) objective values appear in every output; orientation
is an internal convention that must not leak into reports.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import codec
from repro.dse.objectives import Objective
from repro.dse.pareto import (
    hypervolume,
    knee_point,
    non_dominated_front,
    reference_point,
)
from repro.dse.space import DesignSpace, Genome
from repro.experiments.checkpoint import atomic_write_text

#: Report layout version (bump on incompatible change).
DSE_REPORT_SCHEMA = 1


@dataclasses.dataclass
class FrontMember:
    """One Pareto-optimal design point, fully described."""

    genome: Tuple[int, ...]
    values: Dict[str, object]          # parameter name -> level value
    objectives: Dict[str, float]       # objective name -> raw value
    knee: bool = False


@dataclasses.dataclass
class DSEResult:
    """Everything a consumer needs from one exploration campaign."""

    objectives: Tuple[str, ...]        # objective names, in order
    front: List[FrontMember]
    hypervolume: float
    evaluated: int
    space_size: int
    counters: Dict[str, int]
    status: str = "complete"

    @classmethod
    def from_archive(
        cls,
        space: DesignSpace,
        objectives: Sequence[Objective],
        archive: Dict[Genome, Tuple[float, ...]],
        counters: Optional[Dict[str, int]] = None,
        status: str = "complete",
    ) -> "DSEResult":
        """Distill an engine archive into the report.

        The front is computed over *every* evaluated genome (not just
        the final population) in sorted-genome order, so the report is a
        pure function of the archive contents.
        """
        if not archive:
            raise ValueError("cannot report on an empty archive")
        genomes = sorted(archive)
        points = [archive[g] for g in genomes]
        front_indices = non_dominated_front(points)
        front_points = [points[i] for i in front_indices]
        knee = knee_point(front_points)
        members: List[FrontMember] = []
        for position, index in enumerate(front_indices):
            genome = genomes[index]
            oriented = points[index]
            members.append(
                FrontMember(
                    genome=genome,
                    values=space.values(genome),
                    objectives={
                        objective.name: objective.raw(value)
                        for objective, value in zip(objectives, oriented)
                    },
                    knee=(position == knee),
                )
            )
        volume = hypervolume(front_points, reference_point(points))
        return cls(
            objectives=tuple(o.name for o in objectives),
            front=members,
            hypervolume=volume,
            evaluated=len(archive),
            space_size=space.size,
            counters=dict(counters or {}),
            status=status,
        )

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {"schema": DSE_REPORT_SCHEMA, **codec.to_json(self)}

    def to_json(self) -> str:
        """Canonical JSON — the byte-identity surface for determinism."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        ) + "\n"

    def write_json(self, path) -> None:
        atomic_write_text(Path(path), self.to_json())

    def write_csv(self, path) -> None:
        """One CSV row per front member (parameters, then objectives)."""
        parameter_names = sorted(
            {name for member in self.front for name in member.values}
        )
        header = parameter_names + list(self.objectives) + ["knee"]
        lines = [",".join(header)]
        for member in self.front:
            row = [str(member.values.get(name, "")) for name in parameter_names]
            row.extend(
                f"{member.objectives[name]:.6g}" for name in self.objectives
            )
            row.append("1" if member.knee else "0")
            lines.append(",".join(row))
        atomic_write_text(Path(path), "\n".join(lines) + "\n")

    @classmethod
    def from_dict(cls, blob: Dict[str, object]) -> "DSEResult":
        """Rehydrate a report written by :meth:`write_json`.

        Keys an older report carries that this version no longer writes
        (its pre-screen ``savings`` and ``surrogate_scores``) are ignored.
        """
        schema = blob.get("schema") if isinstance(blob, dict) else None
        if schema != DSE_REPORT_SCHEMA:
            raise ValueError(
                f"unsupported DSE report schema {schema!r} "
                f"(expected {DSE_REPORT_SCHEMA})"
            )
        names = {field.name for field in dataclasses.fields(cls)}
        return codec.decode({k: v for k, v in blob.items() if k in names}, cls)

    @classmethod
    def load(cls, path) -> "DSEResult":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    # -- presentation ---------------------------------------------------
    def format(self) -> str:
        """The fixed-width table ``repro-noc dse report`` prints."""
        from repro.experiments.report import render_table

        parameter_names = sorted(
            {name for member in self.front for name in member.values}
        )
        headers = parameter_names + list(self.objectives) + ["pick"]
        rows = []
        for member in self.front:
            row = [str(member.values.get(name, "")) for name in parameter_names]
            row.extend(
                f"{member.objectives[name]:.4g}" for name in self.objectives
            )
            row.append("knee" if member.knee else "")
            rows.append(row)
        coverage = (
            f"{self.evaluated}/{self.space_size} design points evaluated"
            if self.space_size
            else f"{self.evaluated} design points evaluated"
        )
        title = (
            f"Pareto front ({len(self.front)} point(s), "
            f"hypervolume {self.hypervolume:.4g}) — {coverage}"
        )
        table = render_table(headers, rows, title=title)
        extras: List[str] = []
        if self.counters.get("proposed"):
            extras.append(
                f"proposals served by dedup: {self.counters['archive_hits']}"
                f"/{self.counters['proposed']}"
            )
        if self.status != "complete":
            extras.append(f"status: {self.status}")
        if extras:
            table += "\n" + "\n".join(extras)
        return table
