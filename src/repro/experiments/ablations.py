"""Ablation studies for ACCORD's design choices.

Covers the paper's side observations and sensitivity claims:

* **replacement** — LRU vs random on a 2-way DRAM cache (Section
  II-B.4: LRU's per-hit state writes cost more than its hit-rate gains;
  the paper reports ~9% worse than random).
* **rit-rlt-size** — RIT/RLT entry-count sweep (Section IV-C.2: 64
  entries capture most of GWS's benefit).
* **region-size** — GWS region granularity sweep around 4KB.
* **sws-hashes** — SWS(8,k) for k = 1, 2, 3, 4 (Section V-A: more
  alternates add hit-rate but raise miss-confirmation cost).
* **higher-ways-no-sws** — ACCORD at 4/8 ways *without* SWS, showing
  the miss-confirmation problem SWS solves (paper: 4-way +3%, 8-way
  -6% without SWS).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.core.accord import AccordDesign
from repro.exec.jobs import RESULT_SCHEMA_VERSION
from repro.experiments.common import Settings, SuiteRunner, baseline_design, parse_args
from repro.sim.frontend import (
    FRONTEND_VERSION,
    FrontendKey,
    FrontendSpec,
    filtered_frontend,
    frontend_key,
    mru_accuracy_at_level,
)
from repro.sim.trace import Trace
from repro.utils.tables import format_percent, format_table
from repro.workloads.trace_cache import (
    TRACE_SCHEMA_VERSION,
    digested_floats,
    parse_digested_floats,
    shared_trace_cache,
)


def run_replacement(settings: Settings) -> str:
    runner = SuiteRunner(settings)
    runner.run("direct", baseline_design())
    runner.run("random", AccordDesign(kind="unbiased", ways=2, replacement="random"))
    runner.run("lru", AccordDesign(kind="unbiased", ways=2, replacement="lru"))
    runner.run("nru", AccordDesign(kind="unbiased", ways=2, replacement="nru"))
    runner.run("rrip", AccordDesign(kind="unbiased", ways=2, replacement="rrip"))
    rows = [
        [name,
         format_percent(runner.mean_hit(name)),
         f"{runner.gmean_speedup(name, 'direct'):.3f}"]
        for name in ("random", "lru", "nru", "rrip")
    ]
    return format_table(
        ["replacement", "hit-rate", "speedup vs direct-mapped"],
        rows,
        title="Ablation: replacement policy on a 2-way DRAM cache",
    )


def run_table_sizes(settings: Settings) -> str:
    runner = SuiteRunner(settings)
    rows = []
    for entries in (8, 16, 32, 64, 128, 256):
        label = f"rit{entries}"
        runner.run(
            label,
            AccordDesign(kind="accord", ways=2,
                         rit_entries=entries, rlt_entries=entries),
        )
        rows.append([str(entries), format_percent(runner.mean_wp(label)),
                     format_percent(runner.mean_hit(label))])
    return format_table(
        ["RIT/RLT entries", "WP accuracy", "hit-rate"],
        rows,
        title="Ablation: GWS table size",
    )


def run_region_size(settings: Settings) -> str:
    runner = SuiteRunner(settings)
    rows = []
    for region in (1024, 2048, 4096, 8192, 16384):
        label = f"region{region}"
        runner.run(label, AccordDesign(kind="accord", ways=2, region_size=region))
        rows.append([f"{region}B", format_percent(runner.mean_wp(label)),
                     format_percent(runner.mean_hit(label))])
    return format_table(
        ["region size", "WP accuracy", "hit-rate"],
        rows,
        title="Ablation: GWS region granularity",
    )


def run_sws_hashes(settings: Settings) -> str:
    runner = SuiteRunner(settings)
    runner.run("direct", baseline_design())
    rows = []
    for hashes in (1, 2, 3, 4):
        label = f"sws8_{hashes}"
        runner.run(label, AccordDesign(kind="sws", ways=8, hashes=hashes))
        rows.append([
            f"SWS(8,{hashes})",
            format_percent(runner.mean_hit(label)),
            format_percent(runner.mean_wp(label)),
            f"{runner.gmean_speedup(label, 'direct'):.3f}",
        ])
    return format_table(
        ["design", "hit-rate", "WP accuracy", "speedup"],
        rows,
        title="Ablation: number of SWS hash locations (8 physical ways)",
    )


def run_higher_ways_no_sws(settings: Settings) -> str:
    runner = SuiteRunner(settings)
    runner.run("direct", baseline_design())
    rows = []
    for ways in (2, 4, 8):
        label = f"accord{ways}"
        runner.run(label, AccordDesign(kind="accord", ways=ways))
        rows.append([
            f"ACCORD {ways}-way (no SWS)",
            format_percent(runner.mean_hit(label)),
            f"{runner.gmean_speedup(label, 'direct'):.3f}",
        ])
    return format_table(
        ["design", "hit-rate", "speedup"],
        rows,
        title="Ablation: ACCORD without SWS (miss-confirmation cost grows with N)",
    )


def run_dueling(settings: Settings) -> str:
    """Extension: set-dueling adaptive PIP vs fixed PIP values."""
    runner = SuiteRunner(settings)
    runner.run("direct", baseline_design())
    rows = []
    for label, design in (
        ("ACCORD PIP=70%", AccordDesign(kind="accord", ways=2, pip=0.70)),
        ("ACCORD PIP=85%", AccordDesign(kind="accord", ways=2, pip=0.85)),
        ("ACCORD PIP=95%", AccordDesign(kind="accord", ways=2, pip=0.95)),
        ("ACCORD dueling (70/95)", AccordDesign(kind="dueling", ways=2)),
    ):
        runner.run(label, design)
        rows.append([
            label,
            format_percent(runner.mean_hit(label)),
            format_percent(runner.mean_wp(label)),
            f"{runner.gmean_speedup(label, 'direct'):.3f}",
        ])
    return format_table(
        ["design", "hit-rate", "WP accuracy", "speedup"],
        rows,
        title="Ablation (extension): set-dueling adaptive PIP",
    )


def run_dcp_modes(settings: Settings) -> str:
    """DCP way-information variants (Section II-B.3 extension cost)."""
    runner = SuiteRunner(settings)
    runner.run("direct", baseline_design())
    rows = []
    for label, mode in (
        ("exact DCP (presence+way)", "exact"),
        ("finite DCP (L3-resident only)", "finite"),
        ("no DCP (always probe)", "none"),
    ):
        design = AccordDesign(kind="accord", ways=2, dcp=mode)
        results = runner.run(label, design)
        probes = sum(r.stats.writeback_probe_accesses for r in results.values())
        writebacks = sum(r.stats.writebacks_in for r in results.values())
        rows.append([
            label,
            f"{probes / max(writebacks, 1):.2f}",
            f"{runner.gmean_speedup(label, 'direct'):.3f}",
        ])
    return format_table(
        ["writeback way-info", "probe accesses per writeback", "speedup"],
        rows,
        title="Ablation: DCP way-bit extension for writebacks",
    )


@dataclass(frozen=True)
class MruKey:
    """Everything that determines the MRU-filtering study's accuracies.

    The trace-cache entry's payload is an empty trace; its sidecar
    ``meta`` carries MRU's accuracy on the raw reads and on the
    L3-filtered stream, plus a sha256 over the two.
    """

    frontend: FrontendKey
    geometry: CacheGeometry
    seed: int

    def canonical(self) -> str:
        """Deterministic JSON form of the key (hashed for the address)."""
        payload = {
            # `repro audit` quarantines trace-cache keys of any other schema.
            "schema": TRACE_SCHEMA_VERSION,
            # Simulation semantics: a change invalidates the accuracies.
            "results": RESULT_SCHEMA_VERSION,
            "frontend": FRONTEND_VERSION,
            "experiment": "mru-filtering",
            "frontend_key": self.frontend.digest(),
            "geometry": [self.geometry.capacity_bytes, self.geometry.ways,
                         self.geometry.line_size],
            "seed": self.seed,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode("ascii")).hexdigest()


def run_mru_filtering(settings: Settings) -> str:
    """Section II-D: why MRU prediction fails for DRAM caches.

    Runs one raw access stream through the SRAM hierarchy and measures
    MRU way-prediction accuracy on (a) the raw stream, where L1-style
    temporal locality is intact, and (b) the L3-filtered stream the
    DRAM cache actually sees. The two accuracies are memoized in the
    shared trace cache under an :class:`MruKey`, so a warm run loads
    the filtered front-end entry and one key sidecar and drives no
    engine. ``REPRO_TRACE_CACHE=0`` turns the memo off.
    """
    spec = FrontendSpec()
    raw_accesses = min(settings.num_accesses * 2, 400_000)
    # SRAM hierarchy scaled like the DRAM cache (Table III / 8), so the
    # hot working set spills past the L3 into the DRAM cache.
    frontend = dict(
        seed=settings.seed,
        l1=CacheGeometry(16 * 1024, 8),
        l2=CacheGeometry(128 * 1024, 8),
        l3=CacheGeometry(1024 * 1024, 16),
    )
    # Measure MRU on a cache under set pressure (footprint ~8x cache):
    # raw-stream hits come from just-touched lines (MRU trivially right),
    # filtered-stream hits come from capacity churn where several live
    # lines share a set and alternate (MRU confused).
    geometry = CacheGeometry(8 * 1024 * 1024, 2)
    key = MruKey(frontend_key(spec, raw_accesses, **frontend), geometry,
                 settings.seed)
    disk = shared_trace_cache()
    accuracies = None
    if disk is not None:
        accuracies = disk.get_meta(
            key, partial(parse_digested_floats, "mru_accuracies", 2)
        )
    if accuracies is not None:
        result, _ = filtered_frontend(
            spec, raw_accesses, with_raw_reads=False, **frontend
        )
    else:
        result, raw_reads = filtered_frontend(spec, raw_accesses, **frontend)
        accuracies = [
            mru_accuracy_at_level(raw_reads, geometry, seed=settings.seed),
            mru_accuracy_at_level(
                result.dram_cache_trace, geometry, seed=settings.seed
            ),
        ]
        if disk is not None:
            empty = Trace("mru-filtering", np.zeros(0, np.int64),
                          np.zeros(0, np.uint8), 1.0)
            disk.put(key, empty,
                     meta=digested_floats("mru_accuracies", accuracies))
    raw_acc, filtered_acc = accuracies

    rows = [
        ["L1 hit rate", format_percent(result.l1_hit_rate)],
        ["L2 hit rate (of L1 misses)", format_percent(result.l2_hit_rate)],
        ["L3 hit rate (of L2 misses)", format_percent(result.l3_hit_rate)],
        ["accesses filtered before L4", format_percent(result.filter_rate)],
        ["MRU accuracy on the RAW stream", format_percent(raw_acc)],
        ["MRU accuracy on the L3-FILTERED stream", format_percent(filtered_acc)],
    ]
    return format_table(
        ["quantity", "value"],
        rows,
        title="Ablation: SRAM-hierarchy filtering destroys MRU locality "
              "(Section II-D)",
    )


ABLATIONS = {
    "replacement": run_replacement,
    "rit-rlt-size": run_table_sizes,
    "region-size": run_region_size,
    "sws-hashes": run_sws_hashes,
    "higher-ways-no-sws": run_higher_ways_no_sws,
    "dueling-pip": run_dueling,
    "dcp-modes": run_dcp_modes,
    "mru-filtering": run_mru_filtering,
}


def run(settings: Optional[Settings] = None, which: Optional[Sequence[str]] = None) -> str:
    settings = settings or Settings()
    names = list(which) if which else list(ABLATIONS)
    sections = [ABLATIONS[name](settings) for name in names]
    return "\n\n".join(sections)


def main(argv: Optional[Sequence[str]] = None) -> None:
    print(run(parse_args(__doc__, argv)))


if __name__ == "__main__":
    main()
