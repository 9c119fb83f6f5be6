"""Tests for JSON persistence of experiment artifacts."""

from __future__ import annotations

import json

import pytest

from repro.experiments.persistence import (
    PersistenceError,
    load_artifact,
    save_artifact,
)
from repro.experiments.tables import (
    RealRow,
    RealTable,
    SyntheticRow,
    SyntheticTable,
    VthSavingReport,
    VthSavingRow,
)


def make_synthetic_table() -> SyntheticTable:
    row = SyntheticRow(
        label="4core-inj0.10",
        md_vc=1,
        duty={
            "rr-no-sensor": [10.0, 11.0],
            "sensor-wise": [3.0, 1.0],
        },
    )
    return SyntheticTable(
        num_vcs=2, policies=("rr-no-sensor", "sensor-wise"), rows=[row]
    )


def make_real_table() -> RealTable:
    row = RealRow(
        label="4c-r0-E", num_nodes=4, router=0, port="east", md_vc=0,
        avg={"rr-no-sensor": [8.0, 8.1], "sensor-wise": [3.0, 12.0]},
        std={"rr-no-sensor": [1.0, 1.1], "sensor-wise": [0.5, 2.0]},
    )
    return RealTable(
        num_vcs=2, iterations=10,
        policies=("rr-no-sensor", "sensor-wise"), rows=[row],
    )


def make_vth_report() -> VthSavingReport:
    return VthSavingReport(
        scenario_label="4core-inj0.30",
        years=3.0,
        rows=[
            VthSavingRow("baseline", 100.0, 50.0, 0.0),
            VthSavingRow("sensor-wise", 1.1, 23.6, 0.528),
        ],
    )


class TestSyntheticRoundTrip:
    def test_roundtrip_preserves_everything(self, tmp_path):
        table = make_synthetic_table()
        path = tmp_path / "t3.json"
        save_artifact(table, path)
        loaded = load_artifact(path, SyntheticTable)
        assert loaded.num_vcs == table.num_vcs
        assert loaded.policies == table.policies
        assert loaded.rows[0].label == table.rows[0].label
        assert loaded.rows[0].duty == table.rows[0].duty
        assert loaded.rows[0].gap == pytest.approx(table.rows[0].gap)

    def test_format_works_after_load(self, tmp_path):
        path = tmp_path / "t3.json"
        save_artifact(make_synthetic_table(), path)
        assert "4core-inj0.10" in load_artifact(path, SyntheticTable).format()

    def test_file_is_stable_json(self, tmp_path):
        path = tmp_path / "t3.json"
        save_artifact(make_synthetic_table(), path)
        data = json.loads(path.read_text())
        assert data["kind"] == "synthetic_table"
        assert data["schema"] == 1


class TestRealRoundTrip:
    def test_roundtrip(self, tmp_path):
        table = make_real_table()
        path = tmp_path / "t4.json"
        save_artifact(table, path)
        loaded = load_artifact(path, RealTable)
        assert loaded.iterations == 10
        assert loaded.rows[0].gap == pytest.approx(table.rows[0].gap)
        assert loaded.rows[0].md_std_improved == table.rows[0].md_std_improved


class TestVthRoundTrip:
    def test_roundtrip(self, tmp_path):
        report = make_vth_report()
        path = tmp_path / "vth.json"
        save_artifact(report, path)
        loaded = load_artifact(path, VthSavingReport)
        assert loaded.scenario_label == report.scenario_label
        assert loaded.saving_of("sensor-wise") == pytest.approx(0.528)


class TestErrorHandling:
    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        save_artifact(make_vth_report(), path)
        with pytest.raises(PersistenceError):
            load_artifact(path, SyntheticTable)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"schema": 99, "kind": "vth_report", "payload": {}}))
        with pytest.raises(PersistenceError):
            load_artifact(path, VthSavingReport)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(PersistenceError):
            load_artifact(path, RealTable)

    def test_truncated_file_distinguished_from_wrong_kind(self, tmp_path):
        """A crash-torn file reports truncation, not a kind mismatch."""
        path = tmp_path / "x.json"
        save_artifact(make_vth_report(), path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(PersistenceError, match="truncated"):
            load_artifact(path, VthSavingReport)

    def test_empty_file_reported_as_truncated(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("")
        with pytest.raises(PersistenceError, match="truncated"):
            load_artifact(path, VthSavingReport)

    def test_not_json_reported_distinctly(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("this was never JSON\n")
        with pytest.raises(PersistenceError, match="not valid JSON"):
            load_artifact(path, VthSavingReport)

    def test_save_leaves_no_temp_files(self, tmp_path):
        save_artifact(make_vth_report(), tmp_path / "vth.json")
        assert [p.name for p in tmp_path.iterdir()] == ["vth.json"]
