"""Phase-resolved metrics: per-epoch time series from the event stream.

The paper's argument is about *per-access dynamics* — install-way
choices made early in a run determine way-prediction accuracy later —
yet aggregate :class:`~repro.sim.stats.CacheStats` counters collapse the
whole run to one point. :class:`PhaseMetrics` is an access-path observer
(:mod:`repro.cache.events`) that slices the measurement window into
epochs of a configurable number of demand reads and records hit-rate,
prediction-accuracy and NVM-traffic samples per epoch, in the style of
the per-interval traces related DRAM-cache work (Banshee, "To Update or
Not To Update?") evaluates policies on.

The recorded series (:class:`PhaseSeries`) is a plain value object that
round-trips through ``to_dict``/``from_dict`` so the result store can
persist it alongside the run's counters, and renders to tidy CSV via
:mod:`repro.analysis.export`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, FrozenSet, List, Tuple

from repro.errors import ConfigError, SimulationError

#: Default epoch length (demand reads per sample) for ``--epoch-metrics``.
DEFAULT_EPOCH = 10_000


@dataclass(frozen=True)
class PhaseSample:
    """Counters accumulated over one epoch of demand reads."""

    index: int  # epoch number, 0-based
    start_access: int  # demand reads completed before this epoch
    accesses: int  # demand reads in this epoch
    hits: int
    predicted_hits: int
    correct_predictions: int
    nvm_reads: int
    nvm_writes: int
    writebacks: int

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def prediction_accuracy(self) -> float:
        """Fraction of the epoch's hits whose first probe found the line."""
        return (
            self.correct_predictions / self.predicted_hits
            if self.predicted_hits
            else 0.0
        )


#: PhaseSample's (all-integer) fields in declaration order, read once
#: rather than introspected per sample on every (de)serialization.
_SAMPLE_FIELDS: Tuple[str, ...] = tuple(f.name for f in fields(PhaseSample))
_SAMPLE_FIELD_SET: FrozenSet[str] = frozenset(_SAMPLE_FIELDS)


@dataclass(frozen=True)
class PhaseSeries:
    """An immutable per-epoch time series recorded from one run."""

    epoch: int
    samples: Tuple[PhaseSample, ...]

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation; inverse of :meth:`from_dict`."""
        return {
            "epoch": self.epoch,
            "samples": [
                {name: getattr(sample, name) for name in _SAMPLE_FIELDS}
                for sample in self.samples
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PhaseSeries":
        """Rebuild a series from :meth:`to_dict` output."""
        try:
            samples = []
            for raw in data["samples"]:
                unknown = set(raw) - _SAMPLE_FIELD_SET
                if unknown:
                    raise ValueError(
                        f"unknown PhaseSample fields: {sorted(unknown)}"
                    )
                samples.append(PhaseSample(**{k: int(v) for k, v in raw.items()}))
            return cls(epoch=int(data["epoch"]), samples=tuple(samples))
        except (KeyError, TypeError, ValueError) as exc:
            raise SimulationError(f"malformed PhaseSeries record: {exc}") from exc


class PhaseMetrics:
    """Access-path observer accumulating :class:`PhaseSample` epochs.

    Epoch boundaries are counted in *demand reads*: a new epoch opens
    when the previous one has seen ``epoch`` reads. Writebacks, fills
    and evictions between two reads are attributed to the epoch of the
    enclosing access window. Call :meth:`finalize` (or let the simulator
    do it) to flush the trailing partial epoch; :meth:`result` returns
    the immutable :class:`PhaseSeries`.

    ``sink`` enables *incremental* streaming: it is called with each
    :class:`PhaseSample` the moment its epoch closes (including the
    trailing partial epoch at :meth:`finalize`), so a live consumer —
    the sweep service's NDJSON stream, a progress UI — sees per-epoch
    metrics while the run is still in flight instead of only at the
    end. The samples passed to the sink are exactly those of the final
    :class:`PhaseSeries`, in order.
    """

    def __init__(self, epoch: int = DEFAULT_EPOCH, sink=None):
        if epoch <= 0:
            raise ConfigError(f"epoch must be positive, got {epoch}")
        self.epoch = epoch
        self.sink = sink
        self.samples: List[PhaseSample] = []
        self._start_access = 0
        self._reads = 0
        self._hits = 0
        self._predicted_hits = 0
        self._correct = 0
        self._nvm_reads = 0
        self._nvm_writes = 0
        self._writebacks = 0
        self._finalized = False

    # -- observer interface -------------------------------------------------

    def on_lookup(self, event) -> None:
        if self._reads >= self.epoch:
            self._flush()
        self._reads += 1
        if event.hit:
            self._hits += 1
            if event.predicted_way is not None:
                self._predicted_hits += 1
                if event.prediction_correct:
                    self._correct += 1

    def on_fill(self, event) -> None:
        self._nvm_reads += 1

    def on_evict(self, event) -> None:
        if event.dirty:
            self._nvm_writes += 1

    def on_writeback(self, event) -> None:
        self._writebacks += 1
        if not event.absorbed:
            self._nvm_writes += 1

    # -- lifecycle ----------------------------------------------------------

    def _active(self) -> bool:
        return bool(
            self._reads or self._hits or self._nvm_reads
            or self._nvm_writes or self._writebacks
        )

    def _flush(self) -> None:
        sample = PhaseSample(
            index=len(self.samples),
            start_access=self._start_access,
            accesses=self._reads,
            hits=self._hits,
            predicted_hits=self._predicted_hits,
            correct_predictions=self._correct,
            nvm_reads=self._nvm_reads,
            nvm_writes=self._nvm_writes,
            writebacks=self._writebacks,
        )
        self.samples.append(sample)
        if self.sink is not None:
            self.sink(sample)
        self._start_access += self._reads
        self._reads = 0
        self._hits = 0
        self._predicted_hits = 0
        self._correct = 0
        self._nvm_reads = 0
        self._nvm_writes = 0
        self._writebacks = 0

    def finalize(self) -> None:
        """Flush the trailing partial epoch (idempotent)."""
        if self._finalized:
            return
        if self._active():
            self._flush()
        self._finalized = True

    def result(self) -> PhaseSeries:
        """The recorded series; finalizes first."""
        self.finalize()
        return PhaseSeries(epoch=self.epoch, samples=tuple(self.samples))


__all__ = ["DEFAULT_EPOCH", "PhaseMetrics", "PhaseSample", "PhaseSeries"]
