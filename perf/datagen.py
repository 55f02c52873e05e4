"""The benchmark's own input generator (numpy only; never imports ``repro``).

``D128`` is 128 series x 2880 columns of regionally correlated anomalies:
eight regions of sixteen stations share an AR(1) regional factor, every
station also loads on one global factor, and the regional loadings drift
slowly (a sinusoid with a period of the order of the record), so pair
correlations wander across the query thresholds from window to window —
the situation Dangoron's temporal jumping is built for.  The structure
(region sizes, loading ranges, drift amplitude) is fixed; only the noise
and the per-station draws depend on the seed, which keeps the work per
query within a few percent from seed to seed.
"""

from __future__ import annotations

import hashlib

import numpy as np

NUM_SERIES = 128
LENGTH = 2880
BASIC_WINDOW = 24
WINDOW = 720
STEP = 24
REGIONS = 8


def _ar1(rng: np.random.Generator, shape, phi: float) -> np.ndarray:
    """Unit-variance AR(1) noise along the last axis."""
    shocks = rng.standard_normal(shape)
    out = np.empty(shape)
    out[..., 0] = shocks[..., 0]
    scale = np.sqrt(1.0 - phi * phi)
    for t in range(1, shape[-1]):
        out[..., t] = phi * out[..., t - 1] + scale * shocks[..., t]
    return out


def generate(seed: int, num_series: int = NUM_SERIES, length: int = LENGTH) -> np.ndarray:
    """The ``(num_series, length)`` float64 dataset for ``seed``."""
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    region = np.arange(num_series) % REGIONS
    regional = _ar1(rng, (REGIONS, length), 0.8)
    shared = _ar1(rng, (length,), 0.8)
    base = rng.uniform(0.5, 0.72, num_series)
    period = rng.uniform(0.3, 1.0, num_series) * length
    phase = rng.uniform(0.0, 2.0 * np.pi, num_series)
    loading = np.clip(
        base[:, None]
        + 0.18 * np.sin(2.0 * np.pi * t[None, :] / period[:, None] + phase[:, None]),
        0.05,
        0.98,
    )
    global_loading = rng.uniform(0.4, 0.6, num_series)
    residual = np.sqrt(
        np.clip(1.0 - loading ** 2 - (global_loading ** 2)[:, None], 0.05, None)
    )
    values = (
        loading * regional[region]
        + global_loading[:, None] * shared[None, :]
        + residual * rng.standard_normal((num_series, length))
    )
    return np.ascontiguousarray(values, dtype=np.float64)


def data_sha256(values: np.ndarray) -> str:
    """Content hash recorded in every result (comparisons refuse a mismatch)."""
    digest = hashlib.sha256()
    digest.update(str(values.shape).encode())
    digest.update(np.ascontiguousarray(values).tobytes())
    return digest.hexdigest()
