"""Tests for CSV export of experiment series."""

import csv

import pytest

from repro.analysis.export import save_series_csv, series_to_csv
from repro.errors import SimulationError


SERIES = {
    "ACCORD": {"soplex": 1.078, "milc": 0.968},
    "Perfect": {"soplex": 1.078, "milc": 0.976},
}


class TestSeriesCsv:
    def test_tidy_layout(self):
        text = series_to_csv(SERIES, value_name="speedup")
        lines = text.strip().splitlines()
        assert lines[0] == "workload,series,speedup"
        # milc precedes soplex (paper figure order).
        assert lines[1].startswith("milc,ACCORD")
        assert any(line.startswith("soplex,Perfect") for line in lines)

    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "series.csv")
        save_series_csv(SERIES, path)
        loaded = {}
        with open(path, newline="") as handle:
            for row in csv.DictReader(handle):
                loaded.setdefault(row["series"], {})[row["workload"]] = float(row["value"])
        assert loaded == SERIES

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            series_to_csv({})
