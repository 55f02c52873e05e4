"""Baseline engines the paper compares against (substrate S4).

* :class:`BruteForceEngine` — exact ground truth, no data management.
* :class:`TsubasaEngine` — the paper's primary baseline: exact basic-window
  sketch recombination for every pair in every window (SIGMOD 2022).

The approximate baselines (ParCorr, StatStream) are experiment
engines in :mod:`repro.experiments.approximate`.
"""

from repro.baselines.brute_force import BruteForceEngine
from repro.baselines.tsubasa import TsubasaEngine

__all__ = [
    "BruteForceEngine",
    "TsubasaEngine",
]
