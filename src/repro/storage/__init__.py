"""Storage substrate: raw chunk store, sketch segments, and catalog (S7).

The paper's pipeline separates a one-off precomputation phase ("pre-compute
and store basic window statistics") from the pure query phase its evaluation
times.  This subpackage is the stored side: :class:`ChunkStore` holds the raw
columns, once; a segment (:func:`export_segment` /
:func:`attach_segment`) holds only the reusable basic-window statistics,
memmapped and bound to its data by content fingerprint; and
:class:`Catalog` ties the artefacts of many datasets together on disk.
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

__all__ = [
    "CacheStats",
    "Catalog",
    "ChunkStore",
    "ChunkStoreReader",
    "DatasetEntry",
    "SegmentManager",
    "SharedSegment",
    "SketchCache",
    "attach_segment",
    "export_segment",
    "matrix_fingerprint",
]
