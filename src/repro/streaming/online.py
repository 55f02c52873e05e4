"""Online correlation-network monitoring over a live stream.

A standing threshold query is a :class:`WindowCursor`: the next sliding window
to emit.  It advances over any sketch covering the stream from column 0: the
newly complete windows are one
:meth:`~repro.core.sketch.BasicWindowSketch.exact_pairs_grid` pass, the
offline engine's exact kernel, so every emitted window equals the offline
answer bit for bit, however the arriving columns were batched.

:class:`OnlineCorrelationMonitor` is a cursor that owns its stream: it buffers
the columns that do not yet fill a basic window and grows its sketch with
:meth:`BasicWindowSketch.extend`.  The query service keeps bare cursors and
advances them over the dataset's shared, cached sketch — the paper's "network
construction and updates … interactivity" scenario as a push-based API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.config import DEFAULT_BASIC_WINDOW_SIZE
from repro.core.basic_window import BasicWindowLayout, choose_basic_window_size
from repro.core.query import THRESHOLD_SIGNED, SlidingQuery
from repro.core.result import ThresholdedMatrix
from repro.core.sketch import BasicWindowSketch, pair_slots
from repro.exceptions import StreamingError
from repro.timeseries.matrix import finite_columns


@dataclass
class OnlineWindowResult:
    """One emitted window: its index, column range, and thresholded matrix."""

    window_index: int
    start: int
    end: int
    matrix: ThresholdedMatrix
    exact_evaluations: int = 0


class WindowCursor:
    """State of one standing threshold query over a growing stream.

    Parameters
    ----------
    num_series:
        Number of series in the stream.
    window, step:
        Sliding-window size and step, in columns.  Both must be multiples of
        ``basic_window_size`` (the aligned regime Dangoron's grid uses).
    threshold:
        The correlation threshold ``beta`` (signed: keep ``c >= beta``).
    basic_window_size:
        Basic-window size of the statistics the cursor advances over.

    The sketch is an argument of :meth:`advance`, never state — several
    cursors (and ordinary queries) share one.
    """

    def __init__(
        self,
        num_series: int,
        window: int,
        step: int,
        threshold: float,
        basic_window_size: int = DEFAULT_BASIC_WINDOW_SIZE,
    ) -> None:
        if num_series < 1:
            raise StreamingError(f"num_series must be positive, got {num_series}")
        if basic_window_size < 2:
            raise StreamingError(
                f"basic_window_size must be at least 2, got {basic_window_size}"
            )
        for name, value in (("window", window), ("step", step)):
            if value < basic_window_size or value % basic_window_size:
                raise StreamingError(
                    f"{name} ({value}) must be a positive multiple of the basic "
                    f"window size ({basic_window_size})"
                )
        if not -1.0 <= threshold <= 1.0:
            raise StreamingError(f"threshold must lie in [-1, 1], got {threshold}")
        self.num_series = num_series
        self.window = window
        self.step = step
        self.threshold = threshold
        self.basic_window_size = basic_window_size
        #: Windows emitted so far, i.e. the index of the next one.
        self.emitted_windows = 0
        self._rows, self._cols = np.triu_indices(num_series, k=1)
        self._slots = pair_slots(num_series, self._rows, self._cols)

    @classmethod
    def for_query(
        cls,
        query: SlidingQuery,
        num_series: int,
        basic_window_size: int = DEFAULT_BASIC_WINDOW_SIZE,
    ) -> "WindowCursor":
        """Answer a threshold query spec over a live stream.

        The push-based twin of ``CorrelationSession.run``: the query supplies
        window, step and threshold, and the basic-window size is aligned to
        them with the rule the offline planner uses.  Only
        signed-threshold specs stream; top-k, lagged and absolute-mode queries
        raise :class:`StreamingError`, and so does ``start > 0`` (a standing
        query watches the stream from its first column; it is not silently
        shifted).
        """
        if getattr(query, "mode", "threshold") != "threshold":
            raise StreamingError(
                f"standing queries support threshold specs only, got "
                f"{type(query).__name__}"
            )
        if query.threshold_mode != THRESHOLD_SIGNED:
            raise StreamingError(
                "standing queries support signed thresholds only (the online "
                "monitor's semantics)"
            )
        if query.start != 0:
            raise StreamingError(
                f"standing queries watch the stream from column 0, got "
                f"start={query.start}"
            )
        return cls(
            num_series=num_series,
            window=query.window,
            step=query.step,
            threshold=query.threshold,
            basic_window_size=choose_basic_window_size(
                query.window, query.step, basic_window_size
            ),
        )

    def equivalent_query(self, total_columns: int) -> SlidingQuery:
        """The offline query answering the same windows over ``total_columns``."""
        return SlidingQuery(
            0, total_columns, self.window, self.step, self.threshold, THRESHOLD_SIGNED
        )

    def advance(self, sketch: BasicWindowSketch) -> List[OnlineWindowResult]:
        """Emit every window ``sketch`` completes beyond the last one emitted.

        ``sketch`` must cover the stream from column 0 in basic windows of
        this cursor's size.  One result per window, in order, however the
        arriving columns were batched.
        """
        layout = sketch.layout
        if layout.offset != 0 or layout.size != self.basic_window_size:
            raise StreamingError(
                f"a standing query over basic windows of {self.basic_window_size} "
                f"columns from column 0 cannot advance over {layout}"
            )
        if layout.covered_end < self.window:
            return []
        query = self.equivalent_query(layout.covered_end)
        windows = range(self.emitted_windows, query.num_windows)
        found, _ = sketch.exact_pairs_grid(
            self._rows, self._cols, query, windows, slots=self._slots
        )
        self.emitted_windows = max(self.emitted_windows, query.num_windows)
        return [
            OnlineWindowResult(
                k, *query.window_bounds(k),
                ThresholdedMatrix(self.num_series, *edges),
                exact_evaluations=len(self._rows),
            )
            for k, edges in zip(windows, found)
        ]


class OnlineCorrelationMonitor(WindowCursor):
    """Push-based sliding correlation-network monitor (parameters as the cursor's).

    A cursor plus the stream it advances over: the sub-window residual of the
    appended columns and a sketch grown by :meth:`BasicWindowSketch.extend`.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._sketch: Optional[BasicWindowSketch] = None
        self._residual: Optional[np.ndarray] = None

    def append(self, columns: np.ndarray) -> List[OnlineWindowResult]:
        """Feed new columns; returns results for every window that completed."""
        columns = finite_columns(columns, self.num_series, StreamingError)

        size = self.basic_window_size
        if self._residual is not None:
            columns = np.concatenate([self._residual, columns], axis=1)
        whole = columns.shape[1] // size * size
        self._residual = columns[:, whole:].copy()
        if whole == 0:
            return []
        if self._sketch is None:
            self._sketch = BasicWindowSketch.build(
                columns, BasicWindowLayout.for_range(0, whole, size)
            )
        else:
            self._sketch = self._sketch.extend(columns[:, :whole])
        return self.advance(self._sketch)

    def indexed_columns(self) -> int:
        """Number of columns currently covered by complete basic windows."""
        return 0 if self._sketch is None else self._sketch.layout.covered_end
