"""Table VIII: ACCORD speedup vs DRAM-cache size.

Sweeps the (scaled) cache size over the equivalents of 1/2/4/8 GB while
keeping workload footprints pinned at the default (4GB-equivalent)
scale, so smaller caches see more pressure. Expected shape: ACCORD's
speedup shrinks as the cache grows (more of the footprint fits, less
room for improvement).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from repro.core.accord import AccordDesign
from repro.experiments.common import Settings, SuiteRunner, baseline_design, parse_args
from repro.utils.tables import format_table

SIZES_GB = (1.0, 2.0, 4.0, 8.0)
BASE_SCALE = 1.0 / 128.0


class _SizedRunner(SuiteRunner):
    """SuiteRunner whose trace footprints stay at the 4GB-equivalent
    scale while the cache geometry uses the swept scale."""

    def __init__(self, settings: Settings, footprint_scale: float):
        super().__init__(settings)
        self.footprint_scale = footprint_scale


def run(settings: Optional[Settings] = None) -> str:
    settings = settings or Settings()
    rows = []
    for size_gb in SIZES_GB:
        sized = replace(settings, scale=BASE_SCALE * (size_gb / 4.0))
        runner = _SizedRunner(sized, footprint_scale=BASE_SCALE)
        runner.run("direct", baseline_design())
        runner.run("accord", AccordDesign(kind="sws", ways=8, hashes=2))
        rows.append(
            [f"{size_gb:.1f}GB", f"{runner.gmean_speedup('accord', 'direct'):.3f}"]
        )
    return format_table(
        ["cache size", "speedup from ACCORD SWS(8,2)"],
        rows,
        title="Table VIII: sensitivity to cache size",
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    print(run(parse_args(__doc__, argv)))


if __name__ == "__main__":
    main()
