"""JSON persistence for experiment artifacts.

Long table runs are worth keeping: this module saves the harness's
result objects (synthetic/real tables, Vth reports) as plain JSON —
versioned, diff-friendly, and loadable without re-simulation — so
EXPERIMENTS.md updates and cross-machine comparisons don't require
re-running anything.

A file wraps the artifact's :func:`repro.codec.to_json` data as
``{"kind": ..., "payload": ..., "schema": 1}``; loading checks the kind
and the schema, then decodes the payload as the declared type.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Type, TypeVar, Union

from repro import codec
from repro.experiments.checkpoint import atomic_write_json
from repro.experiments.tables import RealTable, SyntheticTable, VthSavingReport

#: Format version written into every file (bump on schema changes).
SCHEMA_VERSION = 1

#: The ``kind`` each persisted type is filed under.
KINDS = {
    SyntheticTable: "synthetic_table",
    RealTable: "real_table",
    VthSavingReport: "vth_report",
}

PathLike = Union[str, Path]
Artifact = TypeVar("Artifact")


class PersistenceError(ValueError):
    """Raised when a file does not contain the expected artifact."""


def save_artifact(artifact: Any, path: PathLike) -> None:
    """Atomically write a table or report (a crash mid-save leaves the
    old file intact instead of a truncated, unloadable one)."""
    blob = {
        "schema": SCHEMA_VERSION,
        "kind": KINDS[type(artifact)],
        "payload": codec.to_json(artifact),
    }
    atomic_write_json(path, blob)


def load_artifact(path: PathLike, tp: Type[Artifact]) -> Artifact:
    """Load a ``tp`` written by :func:`save_artifact`."""
    kind = KINDS[tp]
    data = _load(path)
    if not isinstance(data, dict) or "kind" not in data:
        raise PersistenceError("not a repro experiment artifact")
    if data.get("schema") != SCHEMA_VERSION:
        raise PersistenceError(
            f"unsupported schema version {data.get('schema')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    if data["kind"] != kind:
        raise PersistenceError(
            f"expected a {kind!r} artifact, found {data['kind']!r}"
        )
    try:
        return codec.decode(data.get("payload"), tp)
    except codec.DecodeError as exc:
        raise PersistenceError(f"{path}: payload is {exc}") from None


def _load(path: PathLike) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except ValueError as exc:
        detail = (
            "file is empty or truncated (crash before atomic writes?)"
            if not text.strip() or _looks_truncated(text)
            else "file is not valid JSON"
        )
        raise PersistenceError(f"{path}: {detail}: {exc}") from exc


def _looks_truncated(text: str) -> bool:
    """Heuristic: valid JSON prefix that stops mid-document."""
    stripped = text.rstrip()
    return stripped.startswith(("{", "[")) and not stripped.endswith(("}", "]"))
