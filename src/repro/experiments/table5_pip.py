"""Table V: PWS hit-rate, way-prediction accuracy and speedup vs PIP.

Expected shape: accuracy tracks PIP almost exactly; hit-rate stays near
the unbiased 2-way value through PIP=85-90% then collapses to the
direct-mapped rate at PIP=100%; speedup peaks around PIP=85%.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.accord import AccordDesign
from repro.experiments.common import Settings, baseline_design, parse_args, run_matrix
from repro.sim.runner import gmean_speedup, mean_hit_rate, mean_prediction_accuracy
from repro.utils.tables import format_percent, format_table

PIPS = (0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 1.0)


def run(settings: Optional[Settings] = None) -> str:
    settings = settings or Settings()
    # PIP=100% degenerates into a direct-mapped cache: its row reports
    # the baseline itself (accuracy is trivially 100%).
    swept = [pip for pip in PIPS if pip < 1.0]
    results = run_matrix(settings, {
        "direct": baseline_design(),
        **{f"pws{int(pip * 100)}": AccordDesign(kind="pws", ways=2, pip=pip)
           for pip in swept},
    })
    direct = results["direct"]

    rows = []
    for pip in swept:
        label = f"pws{int(pip * 100)}"
        name = (
            "2-way (Unbiased, PIP=50%)" if pip == 0.5
            else f"2-way PWS (PIP={int(pip * 100)}%)"
        )
        rows.append(
            [
                name,
                format_percent(mean_hit_rate(results[label])),
                format_percent(mean_prediction_accuracy(results[label])),
                f"{gmean_speedup(results[label], direct):.3f}",
            ]
        )
    rows.append(
        ["Direct-Mapped (PIP=100%)",
         format_percent(mean_hit_rate(direct)), "100.0%", "1.000"]
    )
    return format_table(
        ["organization", "hit-rate", "WP accuracy", "speedup"],
        rows,
        title="Table V: PWS sensitivity to the preferred-way install probability",
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    print(run(parse_args(__doc__, argv)))


if __name__ == "__main__":
    main()
