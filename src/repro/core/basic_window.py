"""Basic-window layout and the Eq. 1 statistics it induces.

Dangoron (like TSUBASA before it) divides every series into consecutive
*basic windows* of ``b`` time points.  For each basic window the sketch stores
per-series means and standard deviations and, for every pair, the basic-window
correlation.  Equation 1 of the paper recombines those statistics into the
exact Pearson correlation of any query window that is a union of basic
windows:

.. math::

    Corr(x, y) = \\frac{\\sum_j B_j (\\sigma_{x_j}\\sigma_{y_j} c_j
                 + \\delta_{x_j}\\delta_{y_j})}
                {\\sqrt{\\sum_i B_i(\\sigma_{x_i}^2 + \\delta_{x_i}^2)}
                 \\sqrt{\\sum_i B_i(\\sigma_{y_i}^2 + \\delta_{y_i}^2)}}

with :math:`\\delta_{x_i} = \\bar{x}_i - \\mathrm{mean}_k(\\bar{x}_k)`.  The
formula is the classical within/between decomposition of covariance; it is
exact when the grand mean is the *size-weighted* mean of the basic-window
means (which reduces to the paper's unweighted mean when all basic windows
have equal size, the layout this module produces).

This module contains the layout arithmetic (:class:`BasicWindowLayout`); the
vectorised Eq. 1 sketch lives in :mod:`repro.core.sketch`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.config import DEFAULT_BASIC_WINDOW_SIZE
from repro.core.query import SlidingQuery
from repro.exceptions import SketchError


@dataclass(frozen=True)
class BasicWindowLayout:
    """A partition of the column range ``[offset, offset + size*count)``.

    Every basic window has exactly ``size`` columns; basic window ``w`` covers
    columns ``[offset + w*size, offset + (w+1)*size)``.  Query windows handled
    by the pruned engine must be unions of whole basic windows, which the
    layout checks with :meth:`covering`.
    """

    offset: int
    size: int
    count: int

    def __post_init__(self) -> None:
        if self.size < 2:
            raise SketchError(f"basic window size must be at least 2, got {self.size}")
        if self.count < 1:
            raise SketchError(f"layout must contain at least one basic window")
        if self.offset < 0:
            raise SketchError(f"layout offset must be non-negative, got {self.offset}")

    # ------------------------------------------------------------------ extent
    @property
    def covered_start(self) -> int:
        """First column covered by the layout."""
        return self.offset

    @property
    def covered_end(self) -> int:
        """One past the last column covered by the layout."""
        return self.offset + self.size * self.count

    def window_bounds(self, w: int) -> Tuple[int, int]:
        """Column range ``[start, end)`` of basic window ``w``."""
        if not 0 <= w < self.count:
            raise SketchError(f"basic window index {w} out of range [0, {self.count})")
        begin = self.offset + w * self.size
        return begin, begin + self.size

    # ------------------------------------------------------------------ mapping
    def is_aligned(self, start: int, end: int) -> bool:
        """``True`` when ``[start, end)`` is a union of whole basic windows."""
        if start < self.covered_start or end > self.covered_end or start >= end:
            return False
        return (start - self.offset) % self.size == 0 and (end - self.offset) % self.size == 0

    def covering(self, start: int, end: int) -> Tuple[int, int]:
        """Return ``(first_basic_window, num_basic_windows)`` covering ``[start, end)``.

        Raises :class:`SketchError` when the range is not aligned to the
        layout; the unaligned case is handled by the TSUBASA edge-correction
        path, not by the layout.
        """
        if not self.is_aligned(start, end):
            raise SketchError(
                f"column range [{start}, {end}) is not aligned to basic windows of "
                f"size {self.size} starting at {self.offset}"
            )
        first = (start - self.offset) // self.size
        count = (end - start) // self.size
        return first, count

    def enclosing(self, start: int, end: int) -> Tuple[int, int, int, int]:
        """Return the aligned core of an arbitrary range plus the raw edges.

        Returns ``(first_bw, num_bw, head_cols, tail_cols)`` where the aligned
        core covers ``num_bw`` basic windows starting at ``first_bw``,
        ``head_cols`` columns precede it and ``tail_cols`` columns follow it
        inside ``[start, end)``.  Used by the exact unaligned path.
        """
        if start < self.covered_start or end > self.covered_end or start >= end:
            raise SketchError(
                f"column range [{start}, {end}) is outside the sketch coverage "
                f"[{self.covered_start}, {self.covered_end})"
            )
        first = math.ceil((start - self.offset) / self.size)
        last = (end - self.offset) // self.size
        if last <= first:
            # Range fits inside fewer than one whole basic window.
            return first, 0, end - start, 0
        head = (self.offset + first * self.size) - start
        tail = end - (self.offset + last * self.size)
        return first, last - first, head, tail

    # ------------------------------------------------------------ construction
    @classmethod
    def for_range(cls, start: int, end: int, size: int) -> "BasicWindowLayout":
        """Layout covering as much of ``[start, end)`` as whole windows allow."""
        if end - start < size:
            raise SketchError(
                f"range [{start}, {end}) is shorter than one basic window ({size})"
            )
        count = (end - start) // size
        return cls(offset=start, size=size, count=count)

    @classmethod
    def for_query(
        cls,
        query: SlidingQuery,
        requested_size: int = DEFAULT_BASIC_WINDOW_SIZE,
    ) -> "BasicWindowLayout":
        """Layout aligned with a sliding query.

        The basic window size must divide both the query window ``l`` and the
        sliding step ``eta`` so that every sliding window is a union of whole
        basic windows.  The chosen size is the largest divisor of
        ``gcd(l, eta)`` that does not exceed ``requested_size`` (and is at
        least 2).
        """
        size = choose_basic_window_size(query.window, query.step, requested_size)
        return cls.for_range(query.start, query.end, size)


def choose_basic_window_size(window: int, step: int, requested: int) -> int:
    """Largest divisor of ``gcd(window, step)`` that is ``<= requested`` and ``>= 2``.

    Raises :class:`SketchError` when no such divisor exists (e.g. the gcd is 1),
    because the pruned engine then cannot align basic windows with the query.
    """
    if requested < 2:
        raise SketchError(f"requested basic window size must be >= 2, got {requested}")
    gcd = math.gcd(int(window), int(step))
    best = 0
    for candidate in range(2, min(gcd, requested) + 1):
        if gcd % candidate == 0:
            best = candidate
    if best == 0:
        raise SketchError(
            f"cannot align basic windows with window={window}, step={step}: "
            f"gcd={gcd} has no divisor in [2, {requested}]"
        )
    return best
