"""Tests for phase-resolved metrics (repro.sim.phases) and their plumbing."""

import pytest

from repro.analysis.export import PHASE_CSV_COLUMNS, phases_to_csv, save_phases_csv
from repro.cache.events import LookupEvent, WritebackEvent
from repro.core.accord import AccordDesign
from repro.errors import ConfigError, SimulationError
from repro.exec.jobs import JobKey, execute_job
from repro.sim.phases import PhaseMetrics, PhaseSample, PhaseSeries
from repro.sim.runner import run_design
from repro.sim.system import RunResult


def lookup_event(hit=True, predicted=True, correct=True):
    return LookupEvent(
        addr=0, set_index=0, tag=0, hit=hit, way=0 if hit else None,
        serialized_accesses=1, transfers=1,
        predicted_way=0 if (hit and predicted) else None,
        prediction_correct=hit and predicted and correct,
    )


def writeback_event(absorbed=True):
    return WritebackEvent(
        addr=0, set_index=0, tag=0, absorbed=absorbed,
        way=0 if absorbed else None, probes=0,
        dcp_hit=absorbed, bypassed_by_dcp=not absorbed,
    )


class TestPhaseMetrics:
    def test_rejects_nonpositive_epoch(self):
        with pytest.raises(ConfigError):
            PhaseMetrics(0)

    def test_epoch_windowing(self):
        metrics = PhaseMetrics(epoch=10)
        for i in range(25):
            metrics.on_lookup(lookup_event(hit=(i % 2 == 0)))
        series = metrics.result()
        assert [s.accesses for s in series] == [10, 10, 5]
        assert [s.start_access for s in series] == [0, 10, 20]
        assert [s.index for s in series] == [0, 1, 2]
        assert sum(s.hits for s in series) == 13

    def test_exact_multiple_leaves_no_partial_epoch(self):
        metrics = PhaseMetrics(epoch=5)
        for _ in range(10):
            metrics.on_lookup(lookup_event())
        assert [s.accesses for s in metrics.result()] == [5, 5]

    def test_events_between_reads_stay_in_open_window(self):
        # The boundary check runs at the *start* of a read, so the
        # writeback following the epoch's last read still belongs to it.
        metrics = PhaseMetrics(epoch=2)
        metrics.on_lookup(lookup_event())
        metrics.on_lookup(lookup_event())
        metrics.on_writeback(writeback_event(absorbed=False))
        metrics.on_lookup(lookup_event())
        series = metrics.result()
        assert [s.accesses for s in series] == [2, 1]
        assert [s.writebacks for s in series] == [1, 0]
        assert [s.nvm_writes for s in series] == [1, 0]

    def test_finalize_is_idempotent(self):
        metrics = PhaseMetrics(epoch=4)
        metrics.on_lookup(lookup_event())
        metrics.finalize()
        metrics.finalize()
        assert len(metrics.result()) == 1

    def test_empty_run_yields_empty_series(self):
        assert len(PhaseMetrics(epoch=4).result()) == 0

    def test_sink_streams_each_epoch_incrementally(self):
        # The sink (the sweep service's live phase stream) must see each
        # sample the moment its epoch closes, not at finalize.
        seen = []
        metrics = PhaseMetrics(epoch=10, sink=seen.append)
        for _ in range(15):
            metrics.on_lookup(lookup_event())
        assert [s.index for s in seen] == [0]  # first epoch already out
        for _ in range(10):
            metrics.on_lookup(lookup_event())
        metrics.finalize()
        assert [s.index for s in seen] == [0, 1, 2]  # trailing partial too
        assert list(metrics.result()) == seen  # identical objects/order

    def test_sink_sees_nothing_on_empty_run(self):
        seen = []
        metrics = PhaseMetrics(epoch=4, sink=seen.append)
        metrics.finalize()
        assert seen == []

    def test_prediction_counters(self):
        metrics = PhaseMetrics(epoch=10)
        metrics.on_lookup(lookup_event(hit=True, predicted=True, correct=True))
        metrics.on_lookup(lookup_event(hit=True, predicted=True, correct=False))
        metrics.on_lookup(lookup_event(hit=True, predicted=False))
        metrics.on_lookup(lookup_event(hit=False))
        (sample,) = metrics.result()
        assert sample.hits == 3
        assert sample.predicted_hits == 2
        assert sample.correct_predictions == 1
        assert sample.prediction_accuracy == 0.5
        assert sample.hit_rate == 0.75


class TestPhaseSeries:
    def sample(self, **overrides):
        base = dict(
            index=0, start_access=0, accesses=10, hits=7, predicted_hits=6,
            correct_predictions=5, nvm_reads=3, nvm_writes=2, writebacks=4,
        )
        base.update(overrides)
        return PhaseSample(**base)

    def test_derived_properties(self):
        sample = self.sample()
        assert sample.misses == 3

    def test_samples_in_epoch_order(self):
        series = PhaseSeries(epoch=10, samples=(
            self.sample(), self.sample(index=1, start_access=10, hits=5),
        ))
        assert [s.hits for s in series.samples] == [7, 5]
        assert [s.hit_rate for s in series.samples] == [0.7, 0.5]
        assert [s["hits"] for s in series.to_dict()["samples"]] == [7, 5]

    def test_round_trip(self):
        series = PhaseSeries(epoch=10, samples=(
            self.sample(), self.sample(index=1, start_access=10),
        ))
        assert PhaseSeries.from_dict(series.to_dict()) == series

    def test_from_dict_rejects_unknown_fields(self):
        record = PhaseSeries(epoch=10, samples=(self.sample(),)).to_dict()
        record["samples"][0]["bogus"] = 1
        with pytest.raises(SimulationError):
            PhaseSeries.from_dict(record)

    def test_from_dict_rejects_missing_keys(self):
        with pytest.raises(SimulationError):
            PhaseSeries.from_dict({"epoch": 10})


@pytest.fixture(scope="module")
def phased_result():
    return run_design(
        AccordDesign("accord", ways=2), "soplex",
        num_accesses=4000, seed=9, epoch=500,
    )


class TestSimulatorIntegration:
    def test_phases_cover_the_measurement_window(self, phased_result):
        phases = phased_result.phases
        stats = phased_result.stats
        assert phases is not None and len(phases) > 1
        assert phases.epoch == 500
        assert sum(s.accesses for s in phases) == stats.demand_reads
        assert sum(s.hits for s in phases) == stats.hits
        assert sum(s.nvm_reads for s in phases) == stats.nvm_reads
        assert sum(s.nvm_writes for s in phases) == stats.nvm_writes
        assert sum(s.writebacks for s in phases) == stats.writebacks_in
        # Every epoch but the trailing partial one is full-length.
        assert all(s.accesses == 500 for s in list(phases)[:-1])

    def test_epoch_observer_detaches_after_run(self, phased_result):
        # phased_result is produced by a Simulator internally; a second
        # run through run_design without epoch must be observer-free.
        result = run_design(
            AccordDesign("accord", ways=2), "soplex",
            num_accesses=3000, seed=9,
        )
        assert result.phases is None

    def test_phases_do_not_change_counters(self):
        kwargs = dict(num_accesses=3000, seed=9)
        design = AccordDesign("accord", ways=2)
        plain = run_design(design, "soplex", **kwargs)
        phased = run_design(design, "soplex", epoch=500, **kwargs)
        assert plain.stats.to_dict() == phased.stats.to_dict()

    def test_ca_cache_ignores_epoch(self):
        result = run_design(
            AccordDesign("ca", ways=1), "soplex",
            num_accesses=2000, seed=9, epoch=500,
        )
        assert result.phases is None

    def test_run_result_round_trip(self, phased_result):
        rebuilt = RunResult.from_dict(phased_result.to_dict())
        assert rebuilt.phases == phased_result.phases
        assert rebuilt.stats.to_dict() == phased_result.stats.to_dict()

    def test_round_trip_without_phases(self):
        result = run_design(
            AccordDesign("direct", ways=1), "soplex",
            num_accesses=2000, seed=9,
        )
        assert RunResult.from_dict(result.to_dict()).phases is None


class TestJobKeyEpoch:
    def key(self, epoch=None):
        return JobKey(
            design=AccordDesign("accord", ways=2), workload="soplex",
            num_accesses=3000, epoch=epoch,
        )

    def test_epoch_in_canonical_form(self):
        assert self.key(epoch=500).canonical()["epoch"] == 500
        assert self.key().canonical()["epoch"] is None

    def test_epoch_changes_the_digest(self):
        assert self.key().digest() != self.key(epoch=500).digest()
        assert self.key(epoch=500).digest() == self.key(epoch=500).digest()

    def test_rejects_nonpositive_epoch(self):
        with pytest.raises(ConfigError):
            self.key(epoch=0)

    def test_execute_job_records_phases(self):
        result = execute_job(self.key(epoch=1000))
        assert result.phases is not None
        assert result.phases.epoch == 1000


class TestPhaseCsv:
    def test_export_shape(self, phased_result):
        text = phases_to_csv({"accord": {"soplex": phased_result}})
        lines = text.splitlines()
        assert lines[0] == ",".join(PHASE_CSV_COLUMNS)
        assert len(lines) == 1 + len(phased_result.phases)
        assert lines[1].startswith("accord,soplex,0,0,500,")

    def test_skips_phaseless_results_but_keeps_rows(self, phased_result):
        plain = run_design(
            AccordDesign("direct", ways=1), "soplex",
            num_accesses=2000, seed=9,
        )
        text = phases_to_csv({
            "accord": {"soplex": phased_result},
            "direct": {"soplex": plain},
        })
        assert "direct" not in text

    def test_all_phaseless_is_an_error(self):
        plain = run_design(
            AccordDesign("direct", ways=1), "soplex",
            num_accesses=2000, seed=9,
        )
        with pytest.raises(SimulationError):
            phases_to_csv({"direct": {"soplex": plain}})

    def test_failed_save_does_not_truncate(self, tmp_path):
        target = tmp_path / "phases.csv"
        target.write_text("precious\n")
        with pytest.raises(SimulationError):
            save_phases_csv({}, str(target))
        assert target.read_text() == "precious\n"
