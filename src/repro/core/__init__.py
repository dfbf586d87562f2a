"""ACCORD: coordinated way-install (steering) and way-prediction.

This package is the paper's contribution:

* :mod:`repro.core.steering` — install-policy framework + unbiased baseline
* :mod:`repro.core.prediction` — way-predictor framework + conventional
  predictors (random, MRU, partial-tag, perfect)
* :mod:`repro.core.pws` — Probabilistic Way-Steering
* :mod:`repro.core.gws` — Ganged Way-Steering (RIT + RLT)
* :mod:`repro.core.sws` — Skewed Way-Steering for N-way caches
* :mod:`repro.core.accord` — factory wiring steering + prediction pairs
* :mod:`repro.core.protocols` — runtime-checkable policy interfaces
"""

from repro.core.steering import (
    InstallSteering,
    UnbiasedSteering,
    preferred_way,
)
from repro.core.prediction import (
    MruPredictor,
    PartialTagPredictor,
    PerfectPredictor,
    RandomPredictor,
    StaticPreferredPredictor,
    WayPredictor,
)
from repro.core.protocols import (
    DcpDirectoryPolicy,
    InstallSteeringPolicy,
    ReplacementPolicy,
    WayPredictorPolicy,
    ensure_policy_conformance,
)
from repro.core.pws import ProbabilisticWaySteering
from repro.core.gws import GangedWaySteering, GangedWayPredictor, RecentRegionTable
from repro.core.sws import SkewedWaySteering, alternate_way, skewed_candidates
from repro.core.accord import AccordDesign, make_accord, make_design

__all__ = [
    "InstallSteering",
    "InstallSteeringPolicy",
    "WayPredictorPolicy",
    "ReplacementPolicy",
    "DcpDirectoryPolicy",
    "ensure_policy_conformance",
    "UnbiasedSteering",
    "preferred_way",
    "WayPredictor",
    "RandomPredictor",
    "StaticPreferredPredictor",
    "MruPredictor",
    "PartialTagPredictor",
    "PerfectPredictor",
    "ProbabilisticWaySteering",
    "GangedWaySteering",
    "GangedWayPredictor",
    "RecentRegionTable",
    "SkewedWaySteering",
    "alternate_way",
    "skewed_candidates",
    "AccordDesign",
    "make_accord",
    "make_design",
]
