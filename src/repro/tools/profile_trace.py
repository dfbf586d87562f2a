"""Profile a saved trace file.

Usage::

    python -m repro.tools.profile_trace traces/soplex.trace

Prints footprint, spatial-run statistics, region reuse and a
reuse-distance histogram — the characteristics the synthetic
generators are calibrated against (see DESIGN.md §2).
"""

from __future__ import annotations

import argparse
from typing import Iterable, Optional, Sequence

from repro.sim.profile import profile_trace
from repro.sim.trace import load_trace


def histogram(
    samples: Iterable[float], bins: int = 10, title: Optional[str] = None
) -> str:
    """Bucket samples into equal-width bins and render 40-wide bar counts."""
    data = list(samples)
    if not data:
        raise ValueError("no samples")
    if bins < 1:
        raise ValueError("need at least one bin")
    lo = min(data)
    hi = max(data)
    span = (hi - lo) or 1.0
    counts = [0] * bins
    for sample in data:
        index = min(int((sample - lo) / span * bins), bins - 1)
        counts[index] += 1
    peak = max(counts)
    lines = [title] if title else []
    for i, count in enumerate(counts):
        low_edge = lo + span * i / bins
        high_edge = lo + span * (i + 1) / bins
        bar = "#" * int(round(40 * count / peak)) if peak else ""
        lines.append(f"[{low_edge:10.2f}, {high_edge:10.2f}) |{bar} {count}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace_files", nargs="+", help="trace files to profile")
    parser.add_argument("--no-reuse", action="store_true",
                        help="skip the (slower) reuse-distance estimate")
    parser.add_argument("--runs-histogram", action="store_true",
                        help="also plot the distribution of run starts")
    args = parser.parse_args(argv)

    for path in args.trace_files:
        trace = load_trace(path)
        profile = profile_trace(trace, reuse_distances=not args.no_reuse)
        print(f"== {path} ({trace.name}) ==")
        print(profile.summary())
        if args.runs_histogram:
            run_samples = []
            previous = None
            run = 0
            for addr, is_write in zip(trace.addrs, trace.writes):
                if is_write:
                    continue
                line = addr // 64
                if previous is not None and line == previous + 1:
                    run += 1
                else:
                    if run:
                        run_samples.append(float(run))
                    run = 1
                previous = line
            if run:
                run_samples.append(float(run))
            print(histogram(run_samples, bins=8, title="run-length distribution"))
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
