"""The benchmark design set.

perfbench's ``design-sweep`` workload times these 16 variants, and the
engine-equivalence tests prove every engine bit-identical on the same
set, so "benchmarked" and "proven bit-identical" stay one list.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.accord import AccordDesign

#: The benchmark's 16 design variants: every kind at its canonical
#: associativity, plus the 4-way ACCORD and 4-hash SWS configurations
#: the paper evaluates.
BENCH_DESIGNS: Tuple[AccordDesign, ...] = (
    AccordDesign(kind="direct", ways=1),
    AccordDesign(kind="parallel", ways=2),
    AccordDesign(kind="serial", ways=2),
    AccordDesign(kind="unbiased", ways=2),
    AccordDesign(kind="pws", ways=2),
    AccordDesign(kind="gws", ways=2),
    AccordDesign(kind="accord", ways=2),
    AccordDesign(kind="accord", ways=4),
    AccordDesign(kind="sws", ways=8, hashes=2),
    AccordDesign(kind="sws", ways=8, hashes=4),
    AccordDesign(kind="dueling", ways=2),
    AccordDesign(kind="mru", ways=2),
    AccordDesign(kind="partial_tag", ways=2),
    AccordDesign(kind="perfect", ways=2),
    AccordDesign(kind="ideal", ways=2),
    AccordDesign(kind="ca", ways=1),
)
