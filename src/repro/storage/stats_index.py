"""Persistent index of precomputed basic-window statistics.

Dangoron and TSUBASA both rest on the idea that basic-window statistics are
computed once, stored, and reused by every subsequent query ("we can
pre-compute and store basic window statistics and calculate correlations for
arbitrary query windows and sizes").  :class:`StatsIndex` is that stored
artefact: it wraps a :class:`~repro.core.sketch.BasicWindowSketch`, knows how
to persist itself to disk, and can be *extended incrementally* when new
columns arrive — through :meth:`BasicWindowSketch.extend`, the one place
statistics grow.
"""

from __future__ import annotations

import zipfile
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.config import DEFAULT_BASIC_WINDOW_SIZE, FLOAT_DTYPE
from repro.core.basic_window import BasicWindowLayout
from repro.core.sketch import BasicWindowSketch
from repro.exceptions import SketchError, StorageError
from repro.timeseries.matrix import finite_columns

#: Format tag every archive carries.  v3 packs the strict upper triangle,
#: ``N (N - 1) / 2`` pair rows; v2 packed the diagonal too, ``N (N + 1) / 2``
#: rows, and an untagged archive holds dense ``(count, N, N)`` statistics.
#: Both are refused rather than misread.
ARCHIVE_FORMAT = "repro.stats-index/v3"


class StatsIndex:
    """A persisted, extensible basic-window statistics index."""

    def __init__(self, sketch: BasicWindowSketch) -> None:
        if not sketch.has_pairwise:
            raise StorageError(
                "StatsIndex requires a pairwise sketch (built with pairwise=True)"
            )
        self._sketch = sketch

    # ------------------------------------------------------------------ build
    @classmethod
    def build(
        cls,
        values: np.ndarray,
        basic_window_size: int = DEFAULT_BASIC_WINDOW_SIZE,
        offset: int = 0,
    ) -> "StatsIndex":
        """Build an index over all complete basic windows of ``values``."""
        values = np.asarray(values, dtype=FLOAT_DTYPE)
        if values.ndim != 2:
            raise StorageError(f"expected an (N, L) matrix, got shape {values.shape}")
        layout = BasicWindowLayout.for_range(
            offset, values.shape[1], basic_window_size
        )
        return cls(BasicWindowSketch.build(values, layout))

    # ------------------------------------------------------------------ access
    @property
    def sketch(self) -> BasicWindowSketch:
        """The wrapped sketch (shared, not copied)."""
        return self._sketch

    @property
    def layout(self) -> BasicWindowLayout:
        return self._sketch.layout

    @property
    def num_series(self) -> int:
        return self._sketch.num_series

    @property
    def covered_columns(self) -> int:
        """Number of raw columns covered by complete basic windows."""
        return self.layout.covered_end

    def memory_bytes(self) -> int:
        return self._sketch.memory_bytes()

    # -------------------------------------------------------------- extension
    def extend(self, new_columns: np.ndarray, previous_tail: Optional[np.ndarray] = None) -> int:
        """Extend the index with newly arrived columns.

        ``new_columns`` has shape ``(N, k)`` and is assumed to start exactly at
        :attr:`covered_columns` + the length of ``previous_tail`` (columns that
        arrived earlier but did not yet fill a complete basic window).  Only
        complete new basic windows are appended; leftover columns are the
        caller's responsibility to resubmit as ``previous_tail``.

        Returns the number of basic windows appended.
        """
        new_columns = finite_columns(
            new_columns, self.num_series, StorageError, "extension columns",
            allow_vector=False,
        )
        if previous_tail is not None and np.size(previous_tail):
            previous_tail = finite_columns(
                previous_tail, self.num_series, StorageError, "previous_tail",
                allow_vector=False,
            )
            new_columns = np.concatenate([previous_tail, new_columns], axis=1)
        size = self.layout.size
        complete = new_columns.shape[1] // size
        if complete:
            self._sketch = self._sketch.extend(new_columns[:, : complete * size])
        return complete

    # ------------------------------------------------------------ persistence
    def save(self, path: Union[str, Path]) -> Path:
        """Persist the index to a ``.npz`` file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            offset=np.array([self.layout.offset]),
            size=np.array([self.layout.size]),
            count=np.array([self.layout.count]),
            format=np.array(ARCHIVE_FORMAT),
            series_sums=self._sketch.series_sums,
            series_sumsqs=self._sketch.series_sumsqs,
            pair_sumprods=self._sketch.pair_sumprods,
        )
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "StatsIndex":
        """Load an index previously written by :meth:`save`."""
        path = Path(path)
        if not path.exists():
            raise StorageError(f"stats index file not found: {path}")
        try:
            archive_ctx = np.load(path, allow_pickle=False)
        except (OSError, ValueError, zipfile.BadZipFile) as error:
            # np.load surfaces truncated/garbage archives as raw zipfile or
            # interpretation errors; name the file instead.
            raise StorageError(f"{path} is not a readable .npz archive") from error
        with archive_ctx as archive:
            tag = str(archive["format"]) if "format" in archive.files else None
            if tag != ARCHIVE_FORMAT:
                raise StorageError(
                    f"{path} is a stats-index archive of format {tag!r}, expected "
                    f"{ARCHIVE_FORMAT!r} (v2 packs the diagonal, untagged archives "
                    f"hold the dense layout); "
                    f"rebuild the index"
                )
            try:
                layout = BasicWindowLayout(
                    offset=int(archive["offset"][0]),
                    size=int(archive["size"][0]),
                    count=int(archive["count"][0]),
                )
                sketch = BasicWindowSketch(
                    layout=layout,
                    series_sums=archive["series_sums"],
                    series_sumsqs=archive["series_sumsqs"],
                    pair_sumprods=archive["pair_sumprods"],
                )
            except KeyError as error:
                raise StorageError(f"{path} is not a stats-index archive") from error
            except SketchError as error:
                raise StorageError(
                    f"{path} holds inconsistent statistics ({error}); rebuild the index"
                ) from error
        return cls(sketch)

    def __repr__(self) -> str:
        return (
            f"StatsIndex(num_series={self.num_series}, "
            f"basic_windows={self.layout.count}, size={self.layout.size})"
        )
