"""Generate calibrated workload traces as portable text files.

Usage::

    python -m repro.tools.make_traces --out traces/ --accesses 100000 \
        soplex libq mix1

With no workload arguments, the paper's 21-workload main suite is
generated. Files use the self-describing format of
:mod:`repro.sim.trace` and can be re-read with ``load_trace``.
"""

from __future__ import annotations

import argparse
import os
from typing import List, Optional, Sequence

from repro.exec.jobs import GRID_SCALE, GRID_SEED
from repro.params.system import scaled_system
from repro.sim.runner import TraceFactory
from repro.sim.trace import save_trace
from repro.workloads.spec import main_suite


def make_traces(
    workloads: Sequence[str],
    out_dir: str,
    num_accesses: int = 100_000,
    seed: int = GRID_SEED,
    scale: float = GRID_SCALE,
) -> List[str]:
    """Generate and save traces; returns the written file paths."""
    os.makedirs(out_dir, exist_ok=True)
    config = scaled_system(ways=1, scale=scale)
    factory = TraceFactory(config, num_accesses=num_accesses, seed=seed)
    written = []
    for workload in workloads:
        trace = factory.trace_for(workload)
        path = os.path.join(out_dir, f"{workload}.trace")
        save_trace(trace, path)
        written.append(path)
    return written


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workloads", nargs="*",
                        help="workload names (default: the 21-workload suite)")
    parser.add_argument("--out", default="traces",
                        help="output directory (default: ./traces)")
    parser.add_argument("--accesses", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=GRID_SEED)
    args = parser.parse_args(argv)

    workloads = args.workloads or main_suite()
    paths = make_traces(workloads, args.out, args.accesses, args.seed)
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
