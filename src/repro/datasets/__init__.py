"""Dataset simulators and loaders (substrate S6).

The paper evaluates on a NOAA USCRN hourly product and motivates the problem
with fMRI and finance workloads.  None of those raw datasets can be downloaded
here, so this subpackage simulates each of them with the statistical structure
the correlation engines actually exercise and provides loaders for the real
USCRN format so local files can be used instead.
"""

from repro.datasets.climate import Station, SyntheticUSCRN
from repro.datasets.finance import SyntheticMarket, crisis_edge_density
from repro.datasets.fmri import (
    SyntheticBOLD,
    hemodynamic_response,
    region_average_matrix,
)
from repro.datasets.loaders import (
    USCRN_COLUMNS,
    USCRN_MISSING,
    load_uscrn_hourly,
    load_wide_csv,
    write_wide_csv,
)
from repro.datasets.raingauge import Gauge, SyntheticRainGauges

__all__ = [
    "Gauge",
    "Station",
    "SyntheticBOLD",
    "SyntheticMarket",
    "SyntheticRainGauges",
    "SyntheticUSCRN",
    "USCRN_COLUMNS",
    "USCRN_MISSING",
    "crisis_edge_density",
    "hemodynamic_response",
    "load_uscrn_hourly",
    "load_wide_csv",
    "region_average_matrix",
    "write_wide_csv",
]
