"""Construction and repair of target correlation matrices (Tomborg step 1).

A draw of pairwise correlation values from a
:class:`~repro.tomborg.distributions.CorrelationDistribution` is generally not
a valid correlation matrix (it need not be positive semi-definite).  The
functions here assemble the draw into a symmetric unit-diagonal matrix and
repair it to the nearest valid correlation matrix using Higham-style
alternating projections (eigenvalue clipping followed by diagonal
renormalization).  Structured constructors (block models, factor models) that
are PSD by construction are provided as well, because they give interpretable
ground-truth networks for the robustness experiments.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.config import FLOAT_DTYPE
from repro.exceptions import GenerationError
from repro.tomborg.distributions import CorrelationDistribution


def is_valid_correlation_matrix(matrix: np.ndarray, tolerance: float = 1e-8) -> bool:
    """Check symmetry, unit diagonal, entries in [-1, 1], and PSD-ness."""
    matrix = np.asarray(matrix, dtype=FLOAT_DTYPE)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    if not np.allclose(matrix, matrix.T, atol=tolerance):
        return False
    if not np.allclose(np.diag(matrix), 1.0, atol=tolerance):
        return False
    if np.any(np.abs(matrix) > 1.0 + tolerance):
        return False
    eigenvalues = np.linalg.eigvalsh((matrix + matrix.T) / 2.0)
    return bool(eigenvalues.min() >= -tolerance)


def nearest_correlation_matrix(
    matrix: np.ndarray,
    max_iterations: int = 100,
    tolerance: float = 1e-10,
) -> np.ndarray:
    """Project a symmetric matrix onto the set of valid correlation matrices.

    Alternating projections between the PSD cone (clip negative eigenvalues)
    and the unit-diagonal affine set, following Higham (2002).  Converges to a
    matrix that is PSD to within ``tolerance`` and has an exactly unit
    diagonal.
    """
    matrix = np.asarray(matrix, dtype=FLOAT_DTYPE)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise GenerationError(
            f"nearest_correlation_matrix expects a square matrix, got {matrix.shape}"
        )
    symmetric = (matrix + matrix.T) / 2.0
    correction = np.zeros_like(symmetric)
    current = symmetric.copy()
    for _ in range(max_iterations):
        shifted = current - correction
        eigenvalues, eigenvectors = np.linalg.eigh(shifted)
        clipped = np.maximum(eigenvalues, 0.0)
        projected = (eigenvectors * clipped) @ eigenvectors.T
        correction = projected - shifted
        current = projected.copy()
        np.fill_diagonal(current, 1.0)
        current = np.clip(current, -1.0, 1.0)
        min_eig = np.linalg.eigvalsh((current + current.T) / 2.0).min()
        if min_eig >= -tolerance:
            break
    # Final cleanup: symmetrize, clip, unit diagonal, small PSD shift if needed.
    current = (current + current.T) / 2.0
    min_eig = float(np.linalg.eigvalsh(current).min())
    if min_eig < 0:
        n = current.shape[0]
        current = (current + (-min_eig + tolerance) * np.eye(n)) / (
            1.0 - min_eig + tolerance
        )
    np.fill_diagonal(current, 1.0)
    return np.clip(current, -1.0, 1.0)


def random_correlation_matrix(
    num_series: int,
    distribution: CorrelationDistribution,
    rng: Optional[np.random.Generator] = None,
    repair: bool = True,
) -> np.ndarray:
    """Draw off-diagonal correlations from ``distribution`` and repair to PSD.

    With ``repair=False`` the raw symmetric draw is returned (useful for tests
    that exercise the repair step itself).
    """
    if num_series < 2:
        raise GenerationError(f"need at least 2 series, got {num_series}")
    rng = rng if rng is not None else np.random.default_rng()
    iu, ju = np.triu_indices(num_series, k=1)
    values = distribution.sample(len(iu), rng)
    matrix = np.eye(num_series, dtype=FLOAT_DTYPE)
    matrix[iu, ju] = values
    matrix[ju, iu] = values
    if repair:
        matrix = nearest_correlation_matrix(matrix)
    return matrix


def block_correlation_matrix(
    block_sizes: Sequence[int],
    within: float = 0.8,
    between: float = 0.1,
) -> np.ndarray:
    """Community-structured correlation matrix (equicorrelated blocks).

    Every pair inside a block has correlation ``within`` and every pair across
    blocks has ``between``.  The matrix is repaired if the chosen values make
    it indefinite (possible for large ``between`` with many blocks).
    """
    block_sizes = [int(b) for b in block_sizes]
    if not block_sizes or any(b < 1 for b in block_sizes):
        raise GenerationError("block sizes must be positive integers")
    if not (-1.0 <= between <= 1.0 and -1.0 <= within <= 1.0):
        raise GenerationError("within/between correlations must lie in [-1, 1]")
    total = sum(block_sizes)
    matrix = np.full((total, total), between, dtype=FLOAT_DTYPE)
    offset = 0
    for size in block_sizes:
        matrix[offset : offset + size, offset : offset + size] = within
        offset += size
    np.fill_diagonal(matrix, 1.0)
    if not is_valid_correlation_matrix(matrix):
        matrix = nearest_correlation_matrix(matrix)
    return matrix
