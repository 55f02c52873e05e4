"""Real-valued DFT pair and spectrum shaping (Tomborg steps 2 and 3).

Tomborg generates series "in frequency space" and maps them to the time domain
with "a real-value variant of the inverse-DFT, transitioning from a complex
space to a real space".  The variant implemented here is the orthonormal real
trigonometric basis

.. math::

    x_t = \\frac{a_0}{\\sqrt{L}}
        + \\sqrt{\\tfrac{2}{L}} \\sum_{k=1}^{K} \\big(a_k \\cos(2\\pi k t / L)
                                              - b_k \\sin(2\\pi k t / L)\\big)
        + \\frac{a_{L/2}}{\\sqrt{L}} (-1)^t \\; [L\\ \\text{even}]

whose synthesis matrix is orthogonal, so Euclidean distances and inner
products between real coefficient vectors are preserved exactly in the time
domain (the property the paper invokes: "DFT preserves the distance between
coefficients and the original time series").  In particular, cross-series
correlations imposed on the coefficients carry over to the generated series.

The orthonormality of :func:`real_synthesis_matrix` is covered by property
tests.

Spectrum *shapers* produce per-frequency magnitude envelopes that control how
energy concentrates across frequencies.  They matter because the robustness of
DFT-truncation methods (StatStream/BRAID family) depends exactly on that
concentration (experiment E10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from repro.config import FLOAT_DTYPE
from repro.exceptions import GenerationError


# ---------------------------------------------------------------------------
# Real-valued DFT pair
# ---------------------------------------------------------------------------

def real_synthesis_matrix(length: int) -> np.ndarray:
    """The ``L x L`` orthonormal synthesis matrix of the real DFT basis.

    Column order: DC, then (cos_1, sin_1), (cos_2, sin_2), …, and a final
    Nyquist column for even ``L``.  ``real_inverse_dft(c) == c @ matrix.T``.
    """
    if length < 2:
        raise GenerationError(f"series length must be at least 2, got {length}")
    t = np.arange(length, dtype=FLOAT_DTYPE)
    columns = [np.full(length, 1.0 / np.sqrt(length), dtype=FLOAT_DTYPE)]
    num_pairs = (length - 1) // 2
    scale = np.sqrt(2.0 / length)
    for k in range(1, num_pairs + 1):
        angle = 2.0 * np.pi * k * t / length
        columns.append(scale * np.cos(angle))
        columns.append(-scale * np.sin(angle))
    if length % 2 == 0:
        columns.append(((-1.0) ** t) / np.sqrt(length))
    return np.stack(columns, axis=1)


def real_inverse_dft(coefficients: np.ndarray) -> np.ndarray:
    """Map real spectral coefficients to real time series (rows are series).

    ``coefficients`` has shape ``(..., L)`` in the column order documented on
    :func:`real_synthesis_matrix`; the output has the same shape.
    """
    coefficients = np.asarray(coefficients, dtype=FLOAT_DTYPE)
    length = coefficients.shape[-1]
    basis = real_synthesis_matrix(length)
    return coefficients @ basis.T


# ---------------------------------------------------------------------------
# Spectrum shaping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumShape:
    """A named per-frequency magnitude envelope.

    ``envelope(length)`` returns a length-``L`` array of non-negative weights
    in the real-coefficient ordering (DC, cos/sin pairs, Nyquist).  The
    generator multiplies coefficient draws by the envelope, so the square of
    the envelope is the expected power at each basis function.
    """

    name: str
    envelope_fn: Callable[[int], np.ndarray]

    def envelope(self, length: int) -> np.ndarray:
        env = np.asarray(self.envelope_fn(length), dtype=FLOAT_DTYPE)
        if env.shape != (length,):
            raise GenerationError(
                f"spectrum shape {self.name!r} produced an envelope of shape "
                f"{env.shape}, expected ({length},)"
            )
        if np.any(env < 0):
            raise GenerationError(
                f"spectrum shape {self.name!r} produced negative weights"
            )
        if not np.any(env > 0):
            raise GenerationError(
                f"spectrum shape {self.name!r} produced an all-zero envelope"
            )
        return env

    def describe(self) -> str:
        return self.name


def _pair_frequencies(length: int) -> np.ndarray:
    """Frequency index of every real coefficient (0 for DC, k for the k-th pair)."""
    freqs = [0]
    num_pairs = (length - 1) // 2
    for k in range(1, num_pairs + 1):
        freqs.extend([k, k])
    if length % 2 == 0:
        freqs.append(length // 2)
    return np.asarray(freqs, dtype=FLOAT_DTYPE)


def flat_spectrum() -> SpectrumShape:
    """White spectrum: equal expected power at every frequency.

    This is the adversarial case for DFT-truncation sketches — no coefficient
    subset captures most of the energy.
    """
    def envelope(length: int) -> np.ndarray:
        env = np.ones(length, dtype=FLOAT_DTYPE)
        env[0] = 0.0  # keep generated series zero-mean
        return env

    return SpectrumShape("flat", envelope)


def power_law_spectrum(alpha: float = 1.0) -> SpectrumShape:
    """``1/f^alpha`` magnitude envelope (pink/brown noise for alpha = 1, 2).

    Climate and BOLD signals are well approximated by small positive alphas;
    larger alphas concentrate energy at low frequencies, the friendly case for
    frequency-domain sketches.
    """
    if alpha < 0:
        raise GenerationError(f"alpha must be non-negative, got {alpha}")

    def envelope(length: int) -> np.ndarray:
        freqs = _pair_frequencies(length)
        env = np.zeros(length, dtype=FLOAT_DTYPE)
        nonzero = freqs > 0
        env[nonzero] = 1.0 / np.power(freqs[nonzero], alpha)
        return env

    return SpectrumShape(f"power_law(alpha={alpha})", envelope)


def band_limited_spectrum(low: float = 0.0, high: float = 0.1) -> SpectrumShape:
    """Energy confined to normalized frequencies ``[low, high]`` (of Nyquist = 0.5).

    Mirrors the 0.01–0.1 Hz band of BOLD fMRI fluctuations when combined with
    the fMRI dataset's sampling interval.
    """
    if not 0.0 <= low < high <= 0.5:
        raise GenerationError(
            f"band must satisfy 0 <= low < high <= 0.5, got ({low}, {high})"
        )

    def envelope(length: int) -> np.ndarray:
        freqs = _pair_frequencies(length) / length
        env = ((freqs >= low) & (freqs <= high)).astype(FLOAT_DTYPE)
        env[0] = 0.0
        if not np.any(env > 0):
            # Guarantee at least one active pair so the envelope is usable for
            # very short series.
            env[1] = 1.0
            if length > 2:
                env[2] = 1.0
        return env

    return SpectrumShape(f"band[{low},{high}]", envelope)


def peaked_spectrum(center: float = 0.05, width: float = 0.01) -> SpectrumShape:
    """Narrow Gaussian bump of energy around a normalized center frequency.

    Produces strongly oscillatory series (seasonal/diurnal-like) whose energy
    concentrates in very few coefficients — the best case for DFT truncation.
    """
    if not 0.0 < center <= 0.5:
        raise GenerationError(f"center must lie in (0, 0.5], got {center}")
    if width <= 0:
        raise GenerationError(f"width must be positive, got {width}")

    def envelope(length: int) -> np.ndarray:
        freqs = _pair_frequencies(length) / length
        env = np.exp(-0.5 * ((freqs - center) / width) ** 2).astype(FLOAT_DTYPE)
        env[0] = 0.0
        return env

    return SpectrumShape(f"peaked(center={center},width={width})", envelope)


def named_spectrum(name: str, **kwargs) -> SpectrumShape:
    """Factory used by benchmark configurations.

    Known names: ``flat``, ``power_law``, ``band``, ``peaked``.
    """
    registry: Dict[str, Callable[..., SpectrumShape]] = {
        "flat": flat_spectrum,
        "power_law": power_law_spectrum,
        "band": band_limited_spectrum,
        "peaked": peaked_spectrum,
    }
    try:
        factory = registry[name]
    except KeyError:
        raise GenerationError(
            f"unknown spectrum shape {name!r}; known: {sorted(registry)}"
        ) from None
    return factory(**kwargs)
