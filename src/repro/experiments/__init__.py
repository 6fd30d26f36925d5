"""Experiment drivers: one module per paper figure, plus reporting.

* :mod:`repro.experiments.figure4` — the scratchpad-versus-cache sweep
  over the MPEG routines (Figures 4a-4d).
* :mod:`repro.experiments.figure5` — the multitasking CPI-versus-
  quantum sweep over gzip jobs (Figure 5).
* :mod:`repro.experiments.report` — series containers, text rendering
  and the qualitative shape checks that define "reproduced".

Run everything from the command line::

    repro experiments all
    repro experiments figure4 --quick
"""

from repro.experiments.figure4 import (
    Figure4Config,
    run_figure4_routine,
    run_figure4d,
)
from repro.experiments.figure5 import Figure5Config, run_figure5
from repro.experiments.report import ExperimentSeries, ShapeCheck

__all__ = [
    "ExperimentSeries",
    "Figure4Config",
    "Figure5Config",
    "ShapeCheck",
    "run_figure4_routine",
    "run_figure4d",
    "run_figure5",
]
