"""Request merging: one scan at ``min(threshold)``, filtered per caller.

Concurrent requests merge through one mechanism, :class:`QueryBatch`.
*Identical* requests of any family coalesce onto one member slot and share
its execution for the scan's whole duration.  Concurrent **threshold**
queries that differ *only* in their threshold — same dataset, same window
grid, same ``threshold_mode``, same transport fields — additionally share a
batch, because the engine's scan at the *lowest* requested threshold
computes a superset of every member's answer with bit-identical values:

every exact execution strategy in this repo emits bit-identical correlation
values for a surviving pair regardless of the threshold (the canonical
layout + pairwise-sum invariants, property-tested per strategy), and keeps
exactly the pairs at or above its threshold, so deriving a member's result
is a pure order-preserving subset filter of the floor scan's entries
through the member query's own ``keep_mask``.
:func:`filter_threshold_result` is that filter; the Hypothesis property
suite asserts it is bit-identical to an independent per-threshold run
across random thresholds, layouts and batch compositions.

The served engine is exact because the service refuses any other at start
(:class:`~repro.service.service.CorrelationService`).  An approximate
engine picks its candidates with a filter whose admissions depend on the
threshold, so a floor scan could keep pairs an independent run at the
member's threshold would never report.

The bookkeeping classes (:class:`BatchMember`, :class:`QueryBatch`) carry
one open batch per ``(dataset, batch key)``: the first arrival becomes the
leader, compatible arrivals join until the leader *closes* the batch at
execution time, and everyone wakes on one event with their own payload.
Instances are shared across request threads; every mutation happens under
the owning runtime's ``batches_lock`` (see
:meth:`repro.service.service.CorrelationService.query`) or before the
batch is published to it.
"""

from __future__ import annotations

import json
import threading
from typing import Dict, List, Optional

from repro.core.query import SlidingQuery
from repro.core.result import CorrelationSeriesResult, ThresholdedMatrix
from repro.exceptions import ServiceError

#: A request is batchable when it is a threshold query with a numeric
#: threshold; everything else (top-k, lagged) only ever coalesces with its
#: exact duplicates (see :func:`batch_key_for`).
BATCHABLE_MODE = "threshold"


def canonical_request_key(request: Dict[str, object]) -> str:
    """The exact-identity key of a request: its canonical JSON."""
    return json.dumps(request, sort_keys=True, separators=(",", ":"))


def is_batchable(request: Dict[str, object]) -> bool:
    threshold = request.get("threshold")
    return (
        request.get("mode") == BATCHABLE_MODE
        and isinstance(threshold, (int, float))
        and not isinstance(threshold, bool)
    )


def batch_key_for(request: Dict[str, object]) -> str:
    """The compatibility key of a batchable request: the request minus its
    threshold, canonically.

    Everything else — window grid, ``threshold_mode``, ``include_edges`` —
    must match for two requests to share a scan; a
    differing ``threshold_mode`` changes the keep predicate and therefore
    the key, never silently the semantics.  Any other request is
    compatible only with itself: the service keys it by
    :func:`canonical_request_key`, so its batch holds one member slot that
    duplicates coalesce onto.
    """
    spec = {key: value for key, value in request.items() if key != "threshold"}
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def filter_threshold_result(
    result: CorrelationSeriesResult, query: SlidingQuery
) -> CorrelationSeriesResult:
    """Derive ``query``'s result from a floor scan at a threshold ``<=`` its own.

    ``result`` must be the answer to the same query at a lower-or-equal
    threshold (same grid, same ``threshold_mode``), produced by an exact
    engine (see the module docstring); each window's surviving entries are
    filtered through ``query.keep_mask`` — an order-preserving subset,
    bit-identical to an independent run of ``query``.  The engine statistics are the floor scan's (one scan
    happened; per-member work counters would be fiction).
    """
    floor = result.query
    if query.with_threshold(floor.threshold) != floor:
        raise ServiceError(
            "batched filter requires queries differing only in threshold: "
            f"cannot derive {query!r} from a scan of {floor!r}"
        )
    if floor.threshold > query.threshold:
        raise ServiceError(
            f"floor scan threshold {floor.threshold} exceeds the member "
            f"threshold {query.threshold}; the scan is not a superset"
        )
    matrices: List[ThresholdedMatrix] = []
    for window in result.matrices:
        mask = query.keep_mask(window.values)
        matrices.append(
            ThresholdedMatrix(
                window.num_series,
                rows=window.rows[mask],
                cols=window.cols[mask],
                values=window.values[mask],
            )
        )
    return CorrelationSeriesResult(
        query, matrices, stats=result.stats, series_ids=result.series_ids
    )


class BatchMember:
    """One distinct request inside a batch (duplicates share the slot).

    ``query`` is the parsed :class:`~repro.core.query.SlidingQuery` — callers
    validate their own request *before* joining, so a malformed body fails
    its sender alone instead of poisoning the batch.
    """

    __slots__ = ("query", "payload")

    def __init__(self, query: SlidingQuery) -> None:
        self.query = query
        self.payload: Optional[bytes] = None  # the encoded response body


class QueryBatch:
    """One open (then closed) batch of compatible requests.

    Members join under the runtime's ``batches_lock`` while ``closed`` is
    false; the leader flips ``closed`` (same lock) when execution starts,
    removes the batch from the open map, runs the floor scan, fills every
    member's ``payload`` (or ``error``), and sets ``event``.
    """

    __slots__ = ("members", "closed", "event", "error")

    def __init__(self) -> None:
        self.members: Dict[str, BatchMember] = {}
        self.closed = False
        self.event = threading.Event()
        self.error: Optional[BaseException] = None

    def join(self, exact_key: str, query: SlidingQuery) -> tuple:
        """Add a parsed request; returns ``(member, created)``.

        ``created`` is true when this request opened a new member slot (a
        distinct threshold — it will be *batched*); false when it joined an
        existing slot (an exact duplicate — it is *coalesced*).  Caller
        holds the runtime's ``batches_lock``.
        """
        member = self.members.get(exact_key)
        if member is not None:
            return member, False
        member = BatchMember(query)
        self.members[exact_key] = member
        return member, True
