"""Correlation query service: a long-lived server over the dataset catalog.

The paper frames Dangoron as a data-management system — statistics are
precomputed, stored and reused by every subsequent query.  This package is
that deployment shape: a stdlib-only HTTP server that loads datasets from a
:class:`~repro.storage.catalog.Catalog`, keeps one warm
:class:`~repro.api.CorrelationSession` + sketch cache per dataset, coalesces
identical concurrent queries, lazily materializes persisted
:class:`~repro.storage.stats_index.StatsIndex` artefacts into the cache, and
advances standing threshold queries over the dataset's shared sketch as
columns are appended.

Layers (each importable and testable on its own):

:mod:`repro.service.wire`
    The versioned JSON schema for query specs and the unified result
    protocol; ``result_from_wire(result_to_wire(r))`` is bit-identical.
:mod:`repro.service.batching`
    Compatible-query batching: under an exact engine, one scan at
    ``min(threshold)``, each caller's answer filtered from it
    bit-identically; identical requests coalesce under any engine.
:mod:`repro.service.workers`
    :class:`WorkerPool` — forked session workers executing scans over
    shared mmap segments (:mod:`repro.storage.shared`).
:mod:`repro.service.service`
    :class:`CorrelationService` — catalog lookup, warm sessions, admission
    control, batching/coalescing, appends and standing queries.  No sockets.
:mod:`repro.service.http`
    :class:`CorrelationServer` — the ``ThreadingHTTPServer`` front and the
    route table.
:mod:`repro.service.client`
    :class:`ServiceClient` — the typed client returning the same result
    objects a local session does.

See ``docs/service.md`` for the endpoint reference and a runnable
walkthrough; ``repro serve --catalog DIR`` starts a server from the CLI
(``--service-workers N`` turns on the multi-process pool).
"""

from repro.service.batching import (
    QueryBatch,
    batch_key_for,
    canonical_request_key,
    filter_threshold_result,
    is_batchable,
)
from repro.service.client import ServiceClient
from repro.service.http import CorrelationServer
from repro.service.service import CorrelationService, DatasetRuntime
from repro.service.wire import (
    RESULT_SCHEMA,
    query_from_wire,
    query_to_wire,
    result_from_wire,
    result_to_wire,
)
from repro.service.workers import WorkerConfig, WorkerPool, rss_anon_bytes

__all__ = [
    "CorrelationServer",
    "CorrelationService",
    "DatasetRuntime",
    "QueryBatch",
    "RESULT_SCHEMA",
    "ServiceClient",
    "WorkerConfig",
    "WorkerPool",
    "batch_key_for",
    "canonical_request_key",
    "filter_threshold_result",
    "is_batchable",
    "query_from_wire",
    "query_to_wire",
    "result_from_wire",
    "result_to_wire",
    "rss_anon_bytes",
]
