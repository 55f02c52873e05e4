"""Storage substrate: raw chunk store, statistics index, and catalog (S7).

The paper's pipeline separates a one-off precomputation phase ("pre-compute
and store basic window statistics") from the pure query phase its evaluation
times.  This subpackage is the stored side: :class:`ChunkStore` holds the raw
columns, :class:`StatsIndex` holds the reusable basic-window statistics (and
can be extended as new data arrives), and :class:`Catalog` ties the artefacts
of many datasets together on disk.
"""

from repro.storage.cache import (
    CacheStats,
    SketchCache,
    matrix_fingerprint,
)
from repro.storage.catalog import Catalog, DatasetEntry
from repro.storage.chunk_store import ChunkStore, ChunkStoreReader
from repro.storage.shared import (
    SegmentManager,
    SharedSegment,
    attach_segment,
    export_segment,
)
from repro.storage.stats_index import StatsIndex

__all__ = [
    "CacheStats",
    "Catalog",
    "ChunkStore",
    "ChunkStoreReader",
    "DatasetEntry",
    "SegmentManager",
    "SharedSegment",
    "SketchCache",
    "StatsIndex",
    "attach_segment",
    "export_segment",
    "matrix_fingerprint",
]
