"""Analytic models, storage accounting, energy model, report helpers."""

from repro.analysis.analytic import (
    LookupCost,
    cyclic_pws_hit_rate,
    cyclic_pws_hit_rates,
    lookup_cost_table,
)
from repro.analysis.storage import (
    accord_storage_bytes,
    predictor_storage_bytes,
    storage_table,
)
from repro.analysis.energy import EnergyModel, EnergyReport
from repro.analysis.report import FIGURE_WORKLOAD_ORDER, per_workload_table

__all__ = [
    "LookupCost",
    "lookup_cost_table",
    "cyclic_pws_hit_rate",
    "cyclic_pws_hit_rates",
    "predictor_storage_bytes",
    "accord_storage_bytes",
    "storage_table",
    "EnergyModel",
    "EnergyReport",
    "FIGURE_WORKLOAD_ORDER",
    "per_workload_table",
]
