"""The basic-window sketch: precomputed statistics shared by Dangoron and TSUBASA.

The sketch stores, for every basic window of the layout,

* per-series sums and sums of squares (equivalently means and population
  standard deviations), and
* for every pair of series, the sum of products and the basic-window
  correlation ``c_j`` used both by Eq. 1 and by the Eq. 2 temporal bound.

With these statistics the exact Pearson correlation of any query window that
is a union of basic windows can be recombined without touching the raw data.
The recombination exposed here comes in two flavours:

``exact_pairs_scan``
    Sums the per-basic-window statistics of the window (cost ``O(n_s)`` per
    pair).  This is the combination step whose repeated cost Dangoron's
    jumping structure avoids, and every exact evaluation of Dangoron, top-k
    and the TSUBASA baseline goes through it.  ``exact_pairs_range`` is the
    same gather for arbitrary column ranges: the covered core is gathered,
    and unaligned edges are added from the raw values.

``exact_pairs_fast``
    Uses prefix sums along the basic-window axis for an ``O(1)`` per-pair
    combination.  This is *not* part of the paper; it is provided as an
    ablation point (the ``prefix_combination`` row of ``repro experiment E7``).
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np

from repro.config import FLOAT_DTYPE, VARIANCE_EPSILON
from repro.core.basic_window import BasicWindowLayout
from repro.core.correlation import correlation_from_sums
from repro.exceptions import SketchError


def _contiguous_array(array: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Normalize a statistics array to one canonical (C-contiguous) layout.

    The *same bits* reduced from differently-laid-out memory can differ in
    the last ulp, because NumPy picks its traversal and pairwise-summation
    blocking from the strides.  Sketches are built by the statistics kernel
    (already C-contiguous: a no-op), loaded from ``.npz`` archives, attached
    from mmap segments and handed in by tests — so the bit-identity contract
    (stored statistics answer exactly like freshly built ones) requires one
    canonical layout at construction time.
    """
    if array is None:
        return None
    return np.ascontiguousarray(array, dtype=FLOAT_DTYPE)


def _pairwise_window_sum(block: np.ndarray) -> np.ndarray:
    """Sum a ``(count, ...)`` statistics block over its window axis.

    Moves the window axis last (copying into the canonical contiguous
    layout) so every output element is reduced independently along
    contiguous memory.  NumPy's deterministic pairwise summation then makes
    the result a function of *(that pair's values, count)* alone — the same
    bits whether the block came from a dense ``(count, N, N)`` slice or a
    ``(count, P)`` pair gather, whatever the subset size, provenance or
    heap layout.  This is the primitive that keeps serial, sharded and
    seeded-from-disk executions bit-identical.
    """
    return np.ascontiguousarray(np.moveaxis(block, 0, -1)).sum(axis=-1)


def _window_prefix(per_window: np.ndarray) -> np.ndarray:
    """``(count + 1, N, N)`` running sums of a ``(count, N, N)`` tensor.

    Accumulates window by window — ``prefix[w + 1] = prefix[w] + x[w]``, the
    order a ``cumsum`` along the window axis uses, so the bits are the same —
    but as whole contiguous planes instead of ``N * N`` strided columns.
    """
    count, n, _ = per_window.shape
    prefix = np.empty((count + 1, n, n), dtype=FLOAT_DTYPE)
    prefix[0] = 0.0
    for w in range(count):
        np.add(prefix[w], per_window[w], out=prefix[w + 1])
    return prefix


def pair_corrs_from_stats(
    series_sums: np.ndarray,
    series_sumsqs: np.ndarray,
    pair_sumprods: np.ndarray,
    size: int,
) -> np.ndarray:
    """Per-basic-window pair correlations from the raw per-window statistics.

    ``series_sums``/``series_sumsqs`` have shape ``(N, count)`` and
    ``pair_sumprods`` has shape ``(count, N, N)``; the result matches
    ``pair_sumprods``.  Every operation is element-wise per basic window, so
    a window's correlations are the same bits whether it arrived in a dense
    build, an extension or a tile.  The ``(count, N, N)`` passes run in place
    in the output and one scratch tensor; each element still sees
    ``(sumprod / size - mean_i * mean_j) / (std_i * std_j)``, clamped.
    """
    means = series_sums / size
    variances = series_sumsqs / size - means**2
    # Flag near-constant basic windows both absolutely and relative to
    # the uncentred energy (cancellation noise grows with magnitude).
    degenerate_window = (variances < VARIANCE_EPSILON) | (
        variances < 1e-10 * np.abs(series_sumsqs / size)
    )
    stds = np.sqrt(np.maximum(variances, 0.0))
    means_by_window = np.ascontiguousarray(means.T)
    stds_by_window = np.ascontiguousarray(stds.T)

    # Covariance per basic window: E[xy] - E[x]E[y].
    pair_corrs = np.divide(pair_sumprods, size)
    scratch = means_by_window[:, :, None] * means_by_window[:, None, :]
    np.subtract(pair_corrs, scratch, out=pair_corrs)
    denom = np.multiply(
        stds_by_window[:, :, None], stds_by_window[:, None, :], out=scratch
    )
    degenerate = denom < VARIANCE_EPSILON
    if degenerate_window.any():
        flagged = degenerate_window.T
        degenerate |= flagged[:, :, None]
        degenerate |= flagged[:, None, :]
    patch = degenerate.any()
    if patch:
        denom[degenerate] = 1.0
    np.divide(pair_corrs, denom, out=pair_corrs)
    if patch:
        pair_corrs[degenerate] = 0.0
    return np.clip(pair_corrs, -1.0, 1.0, out=pair_corrs)


def _window_statistics(blocks: np.ndarray, size: int, pairwise: bool):
    """Statistics of whole basic windows: the one place they are computed.

    ``blocks`` is ``(N, count, size)``; returns ``(series_sums, series_sumsqs,
    pair_sumprods, pair_corrs)``, the pair tensors ``None`` without
    ``pairwise``.  ``pair_sumprods`` is one batched product: every basic
    window is copied to its own contiguous ``(N, size)`` matrix and multiplied
    by its transpose, so a window is the same ``(N, size)`` BLAS call in
    :meth:`BasicWindowSketch.build`, as a delta in
    :meth:`BasicWindowSketch.extend` and in a tile or a thread's span of
    :func:`repro.core.tiled.build_sketch_tiled`.  All three call this, nothing
    else; the only cut that keeps the contract is along the window axis.

    The same call gives the same bits under one BLAS build and one BLAS
    thread count, which is what the executions of one deployment share; BLAS
    promises no more (OpenBLAS at ``N = 300`` rounds the last ulp differently
    on 1 and on 2 threads).  docs/invariants.md (RPR003) states the assumption.
    """
    series_sums = blocks.sum(axis=2)
    series_sumsqs = np.einsum("nws,nws->nw", blocks, blocks)
    if not pairwise:
        return series_sums, series_sumsqs, None, None
    by_window = np.ascontiguousarray(blocks.transpose(1, 0, 2))
    # (count, N, N), C-contiguous; x @ x.T is exactly symmetric per window.
    pair_sumprods = np.matmul(by_window, by_window.transpose(0, 2, 1))
    pair_corrs = pair_corrs_from_stats(series_sums, series_sumsqs, pair_sumprods, size)
    return series_sums, series_sumsqs, pair_sumprods, pair_corrs


def ensure_sketch_layout(sketch: "BasicWindowSketch", layout) -> "BasicWindowSketch":
    """Validate that a prebuilt sketch matches the layout an execution plans.

    Shared by every path accepting a planner-supplied sketch (Dangoron,
    TSUBASA, ``sliding_top_k``), so a stale or mismatched sketch always fails
    the same way: a :class:`SketchError`.
    """
    if sketch.layout != layout:
        raise SketchError(
            f"prebuilt sketch layout {sketch.layout} does not match the "
            f"layout {layout} planned for the query"
        )
    return sketch


class BasicWindowSketch:
    """Precomputed per-basic-window statistics for an ``(N, L)`` matrix."""

    def __init__(
        self,
        layout: BasicWindowLayout,
        series_sums: np.ndarray,
        series_sumsqs: np.ndarray,
        pair_sumprods: Optional[np.ndarray],
        pair_corrs: Optional[np.ndarray],
        build_seconds: float = 0.0,
    ) -> None:
        self.layout = layout
        self.series_sums = _contiguous_array(series_sums)
        self.series_sumsqs = _contiguous_array(series_sumsqs)
        self.pair_sumprods = _contiguous_array(pair_sumprods)
        self.pair_corrs = _contiguous_array(pair_corrs)
        self.build_seconds = build_seconds

        self._sum_prefix = np.concatenate(
            [np.zeros((series_sums.shape[0], 1), dtype=FLOAT_DTYPE),
             np.cumsum(series_sums, axis=1)],
            axis=1,
        )
        self._sumsq_prefix = np.concatenate(
            [np.zeros((series_sumsqs.shape[0], 1), dtype=FLOAT_DTYPE),
             np.cumsum(series_sumsqs, axis=1)],
            axis=1,
        )
        self._corr_prefix: Optional[np.ndarray] = None
        self._sumprod_prefix: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ build
    @classmethod
    def build(
        cls,
        values: np.ndarray,
        layout: BasicWindowLayout,
        pairwise: bool = True,
    ) -> "BasicWindowSketch":
        """Compute the sketch of ``values`` (shape ``(N, L)``) for ``layout``.

        ``pairwise=False`` skips the ``O(N^2 L)`` pair statistics; the sketch
        then supports only per-series queries (used by memory-constrained
        scenarios and by the ParCorr/StatStream baselines, which bring their
        own sketches).
        """
        started = time.perf_counter()
        values = np.asarray(values, dtype=FLOAT_DTYPE)
        if values.ndim != 2:
            raise SketchError(f"sketch input must be 2-D, got shape {values.shape}")
        if layout.covered_end > values.shape[1]:
            raise SketchError(
                f"layout covers columns up to {layout.covered_end} but the matrix "
                f"has only {values.shape[1]} columns"
            )
        blocks = values[:, layout.covered_start : layout.covered_end].reshape(
            values.shape[0], layout.count, layout.size
        )
        return cls(
            layout,
            *_window_statistics(blocks, layout.size, pairwise),
            build_seconds=time.perf_counter() - started,
        )

    # ----------------------------------------------------------------- extend
    def extend(self, columns: np.ndarray) -> "BasicWindowSketch":
        """Absorb appended columns as new basic windows (O(Δ), bit-identical).

        ``columns`` are the raw values immediately following this sketch's
        coverage and must form whole basic windows (a positive multiple of
        ``layout.size``); callers buffer sub-window residuals until a window
        completes (see ``SketchCache.extend_chain``).  This is the one place
        statistics grow: appends never change *existing* basic windows, so the
        delta windows' statistics come from the build's own kernel
        (:func:`_window_statistics`) and are concatenated — the reduction-safe
        cut along the window axis the tiled builder makes at every tile
        boundary — making the result **bit-identical** to
        ``BasicWindowSketch.build`` over the grown matrix (property-tested in
        ``tests/property/test_incremental_maintenance_property.py``).

        Returns a *new* sketch; the receiver stays valid for its own range
        (cached sketches are treated as immutable after publication).
        """
        started = time.perf_counter()
        columns = np.ascontiguousarray(columns, dtype=FLOAT_DTYPE)
        if columns.ndim != 2:
            raise SketchError(
                f"extension columns must be 2-D, got shape {columns.shape}"
            )
        if columns.shape[0] != self.num_series:
            raise SketchError(
                f"extension columns cover {columns.shape[0]} series but the "
                f"sketch has {self.num_series}"
            )
        size = self.layout.size
        if columns.shape[1] == 0 or columns.shape[1] % size:
            raise SketchError(
                f"extension must supply whole basic windows: got "
                f"{columns.shape[1]} columns for basic windows of size {size} "
                f"(buffer sub-window residuals until a window completes)"
            )
        delta_count = columns.shape[1] // size
        delta_sums, delta_sumsqs, delta_sumprods, delta_corrs = _window_statistics(
            columns.reshape(self.num_series, delta_count, size), size, self.has_pairwise
        )
        series_sums = np.concatenate([self.series_sums, delta_sums], axis=1)
        series_sumsqs = np.concatenate([self.series_sumsqs, delta_sumsqs], axis=1)
        pair_sumprods = None
        pair_corrs = None
        if self.has_pairwise:
            pair_sumprods = np.concatenate([self.pair_sumprods, delta_sumprods])
            pair_corrs = np.concatenate([self.pair_corrs, delta_corrs])

        return BasicWindowSketch(
            layout=BasicWindowLayout(
                offset=self.layout.offset,
                size=size,
                count=self.layout.count + delta_count,
            ),
            series_sums=series_sums,
            series_sumsqs=series_sumsqs,
            pair_sumprods=pair_sumprods,
            pair_corrs=pair_corrs,
            build_seconds=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------ shape
    @property
    def num_series(self) -> int:
        return self.series_sums.shape[0]

    @property
    def num_basic_windows(self) -> int:
        return self.layout.count

    @property
    def has_pairwise(self) -> bool:
        return self.pair_sumprods is not None

    def memory_bytes(self) -> int:
        """Approximate memory footprint of the stored statistics."""
        total = self.series_sums.nbytes + self.series_sumsqs.nbytes
        total += self._sum_prefix.nbytes + self._sumsq_prefix.nbytes
        for tensor in (self.pair_sumprods, self.pair_corrs, self._corr_prefix,
                       self._sumprod_prefix):
            if tensor is not None:
                total += tensor.nbytes
        return int(total)

    def _require_pairwise(self) -> None:
        if not self.has_pairwise:
            raise SketchError(
                "this sketch was built with pairwise=False and cannot answer "
                "pairwise correlation queries"
            )

    # ---------------------------------------------------------------- prefixes
    @property
    def corr_prefix(self) -> np.ndarray:
        """Prefix sums of the per-basic-window pair correlations.

        ``corr_prefix[w]`` is the sum of ``pair_corrs[0:w]``; shape
        ``(count + 1, N, N)``.  Used by the Eq. 2 bound in O(1) per check.
        """
        self._require_pairwise()
        if self._corr_prefix is None:
            self._corr_prefix = _window_prefix(self.pair_corrs)
        return self._corr_prefix

    @property
    def has_corr_prefix(self) -> bool:
        """Whether :attr:`corr_prefix` is already materialized (or attached)."""
        return self._corr_prefix is not None

    def attach_corr_prefix(self, prefix: np.ndarray) -> None:
        """Adopt a precomputed :attr:`corr_prefix` tensor.

        Used when the prefix was materialized elsewhere — e.g. exported once
        by the service parent into an mmap-backed shared segment — so that
        attaching processes answer Eq. 2 bound checks from the shared pages
        instead of each allocating a private ``(count+1, N, N)`` tensor.
        """
        self._require_pairwise()
        count, n, _ = self.pair_corrs.shape
        if tuple(prefix.shape) != (count + 1, n, n):
            raise SketchError(
                f"corr prefix shape {tuple(prefix.shape)} does not match the "
                f"sketch's ({count + 1}, {n}, {n})"
            )
        self._corr_prefix = _contiguous_array(prefix)

    @property
    def sumprod_prefix(self) -> np.ndarray:
        """Prefix sums of the per-basic-window pair sums of products."""
        self._require_pairwise()
        if self._sumprod_prefix is None:
            self._sumprod_prefix = _window_prefix(self.pair_sumprods)
        return self._sumprod_prefix

    # ------------------------------------------------------------ range sums
    def _check_range(self, first: int, count: int) -> None:
        if count < 1 or first < 0 or first + count > self.num_basic_windows:
            raise SketchError(
                f"basic-window range [{first}, {first + count}) outside "
                f"[0, {self.num_basic_windows})"
            )

    def series_range_sums(self, first: int, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-series ``(sum, sum of squares)`` over a basic-window range (O(1))."""
        self._check_range(first, count)
        sums = self._sum_prefix[:, first + count] - self._sum_prefix[:, first]
        sumsqs = self._sumsq_prefix[:, first + count] - self._sumsq_prefix[:, first]
        return sums, sumsqs

    def pair_corr_range_sum(
        self, rows: np.ndarray, cols: np.ndarray, first: int, count: int
    ) -> np.ndarray:
        """Sum of basic-window correlations over a range, per requested pair (O(1))."""
        self._check_range(first, count)
        prefix = self.corr_prefix
        return prefix[first + count, rows, cols] - prefix[first, rows, cols]

    # -------------------------------------------------------------- exact scan
    def _gather_sums(
        self, rows: np.ndarray, cols: np.ndarray, first: int, count: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Series sums, sums of squares and the pairs' sums of products over
        a basic-window range: the one pair gather every Eq. 1 answer reads.

        One flat pair index on the ``(count, N * N)`` view, gathered
        transposed: the ``(P, count)`` result is already the layout
        :func:`_pairwise_window_sum` reduces (no copy), so a pair's sum is
        the same bits whichever other pairs are gathered with it.
        """
        sums = self.series_sums[:, first : first + count].sum(axis=1)
        sumsqs = self.series_sumsqs[:, first : first + count].sum(axis=1)
        by_window = self.pair_sumprods.reshape(self.num_basic_windows, -1)
        gathered = by_window[first : first + count].T[rows * self.num_series + cols]
        return sums, sumsqs, _pairwise_window_sum(gathered.T)

    def exact_pairs_scan(
        self, rows: np.ndarray, cols: np.ndarray, first: int, count: int
    ) -> np.ndarray:
        """Exact correlations of selected pairs over a basic-window range.

        ``rows``/``cols`` are parallel index arrays selecting the pairs.  The
        per-pair cost is ``O(count)`` (the ``n_s`` of Eq. 1) — this is the
        work Dangoron performs for the pairs that were *not* pruned in a
        given window and TSUBASA for every pair in every window: the one
        recombination kernel, whether the pairs are a few due ones or the
        whole upper triangle.
        """
        self._require_pairwise()
        self._check_range(first, count)
        rows = np.asarray(rows)
        cols = np.asarray(cols)
        sums, sumsqs, sumprods = self._gather_sums(rows, cols, first, count)
        return correlation_from_sums(
            float(count * self.layout.size),
            sums[rows],
            sums[cols],
            sumsqs[rows],
            sumsqs[cols],
            sumprods,
        )

    # -------------------------------------------------------------- exact fast
    def exact_pairs_fast(
        self, rows: np.ndarray, cols: np.ndarray, first: int, count: int
    ) -> np.ndarray:
        """Exact correlations of selected pairs via prefix sums (O(1) per pair).

        The ``prefix_combination`` ablation's kernel: the range's sums of
        products are one difference of :attr:`sumprod_prefix` planes per
        pair, so a window costs the same whatever ``count`` is.  Every
        operation is element-wise per pair, so a pair's value does not
        depend on which other pairs were asked for.
        """
        self._require_pairwise()
        self._check_range(first, count)
        rows = np.asarray(rows)
        cols = np.asarray(cols)
        n_points = count * self.layout.size
        sums, sumsqs = self.series_range_sums(first, count)
        prefix = self.sumprod_prefix
        sumprods = prefix[first + count, rows, cols] - prefix[first, rows, cols]
        return correlation_from_sums(
            np.full(len(rows), float(n_points)),
            sums[rows],
            sums[cols],
            sumsqs[rows],
            sumsqs[cols],
            sumprods,
        )

    # --------------------------------------------------------------- unaligned
    def exact_pairs_range(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        start: int,
        end: int,
        values: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Exact correlations of selected pairs over a column range ``[start, end)``.

        Aligned ranges inside the sketch coverage are :meth:`exact_pairs_scan`.
        Any other range (unaligned edges, or columns beyond the last complete
        basic window) gathers the covered aligned core like the scan does and
        adds the remaining edge columns' statistics, computed directly from
        the raw ``values`` matrix (TSUBASA's arbitrary-window capability).
        Each edge is one ``N x N`` product, so a pair's value does not depend
        on which other pairs were asked for.
        """
        self._require_pairwise()
        if start < 0 or end <= start:
            raise SketchError(f"invalid column range [{start}, {end})")
        if self.layout.is_aligned(start, end):
            first, count = self.layout.covering(start, end)
            return self.exact_pairs_scan(rows, cols, first, count)
        if values is None:
            raise SketchError(
                "ranges not aligned to the sketch require the raw values matrix "
                "for edge correction"
            )
        values = np.asarray(values, dtype=FLOAT_DTYPE)
        if end > values.shape[1]:
            raise SketchError(
                f"column range [{start}, {end}) exceeds the matrix length "
                f"{values.shape[1]}"
            )
        rows = np.asarray(rows)
        cols = np.asarray(cols)

        # Aligned core: the complete basic windows fully inside the requested
        # range *and* inside the sketch coverage.
        size = self.layout.size
        offset = self.layout.offset
        inner_start = max(start, self.layout.covered_start)
        inner_end = min(end, self.layout.covered_end)
        first = -(-(inner_start - offset) // size) if inner_end > inner_start else 0
        last = (inner_end - offset) // size if inner_end > inner_start else 0

        if last > first:
            sums, sumsqs, sumprods = self._gather_sums(rows, cols, first, last - first)
            core_start = offset + first * size
            core_end = offset + last * size
        else:
            sums = np.zeros(self.num_series, dtype=FLOAT_DTYPE)
            sumsqs = np.zeros(self.num_series, dtype=FLOAT_DTYPE)
            sumprods = np.zeros(len(rows), dtype=FLOAT_DTYPE)
            core_start = core_end = start

        for edge_start, edge_end in ((start, core_start), (core_end, end)):
            if edge_end <= edge_start:
                continue
            edge = values[:, edge_start:edge_end]
            sums = sums + edge.sum(axis=1)
            sumsqs = sumsqs + np.einsum("ij,ij->i", edge, edge)
            sumprods = sumprods + (edge @ edge.T)[rows, cols]

        return correlation_from_sums(
            float(end - start),
            sums[rows],
            sums[cols],
            sumsqs[rows],
            sumsqs[cols],
            sumprods,
        )
