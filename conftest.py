"""Repo-wide pytest configuration.

Pins the planner's cost calibration to the committed fixture
(``REPRO_COST_CALIBRATION=off`` — see :mod:`repro.api.cost`) before any
test constructs a planner, so every tier-1 plan decision — including the
doctest pages collected from ``docs/`` — is machine-independent.  Tests that
exercise ``measured`` mode call ``CostModel.measured()`` /
``CostModel.from_environment`` explicitly.
"""

import os

os.environ.setdefault("REPRO_COST_CALIBRATION", "off")
