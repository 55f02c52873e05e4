"""Common interface implemented by Dangoron and every baseline engine.

All engines answer the same question (a :class:`SlidingQuery` over a
:class:`TimeSeriesMatrix`) and return the same result type, which is what
makes the paper's comparisons ("Dangoron is an order of magnitude faster than
TSUBASA … accuracy comparable to Parcorr") expressible as simple loops over a
list of engines in the benchmark harness.
"""

from __future__ import annotations

import abc
import inspect
from typing import Dict, Optional, Tuple, Type

import numpy as np

from repro.config import INDEX_DTYPE
from repro.core.basic_window import BasicWindowLayout
from repro.core.query import SlidingQuery
from repro.core.result import EXACTNESS_EXACT, CorrelationSeriesResult
from repro.exceptions import ExperimentError, ParallelError
from repro.timeseries.matrix import TimeSeriesMatrix


def accepts_sketch_kwarg(engine: "SlidingCorrelationEngine") -> bool:
    """Whether ``engine.run`` accepts the prebuilt ``sketch`` keyword.

    Engines whose :meth:`SlidingCorrelationEngine.plan_layout` returns a
    layout promise this; the planner and the sharded executor verify the
    promise up front so a broken subclass fails with a named error instead
    of a raw ``TypeError`` from inside the call (or a pool worker).
    """
    parameters = inspect.signature(engine.run).parameters
    return "sketch" in parameters or any(
        parameter.kind == inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    )


def validate_pair_subset(
    pairs: Tuple[np.ndarray, np.ndarray], num_series: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate a ``pairs=(rows, cols)`` subset against the matrix size.

    Shared by every engine accepting pair subsets so a malformed subset
    always fails the same way: a :class:`ParallelError`.  Returns the pair
    index arrays as ``INDEX_DTYPE`` (validated to satisfy ``0 <= i < j < N``).
    """
    try:
        rows, cols = pairs
    except (TypeError, ValueError):
        raise ParallelError(
            f"pairs must be a (rows, cols) tuple of index arrays, got {pairs!r}"
        ) from None
    rows = np.asarray(rows, dtype=INDEX_DTYPE).ravel()
    cols = np.asarray(cols, dtype=INDEX_DTYPE).ravel()
    if rows.shape != cols.shape:
        raise ParallelError(
            f"pair rows and cols must have equal length, "
            f"got {len(rows)} and {len(cols)}"
        )
    if len(rows) and (
        rows.min() < 0 or cols.max() >= num_series or np.any(rows >= cols)
    ):
        raise ParallelError(
            f"pair subset entries must satisfy 0 <= i < j < {num_series}"
        )
    return rows, cols


class SlidingCorrelationEngine(abc.ABC):
    """Abstract base class for sliding correlation-matrix engines."""

    #: Short machine-readable engine name (used in reports and registries).
    name: str = "abstract"

    @abc.abstractmethod
    def run(
        self, matrix: TimeSeriesMatrix, query: SlidingQuery
    ) -> CorrelationSeriesResult:
        """Answer the sliding query over the matrix."""

    def plan_layout(self, query: SlidingQuery) -> Optional[BasicWindowLayout]:
        """The basic-window layout this engine would build for the query.

        Engines whose ``run`` accepts a prebuilt ``sketch`` keyword (Dangoron,
        TSUBASA) return the layout here so a planner can build — or fetch from
        a cache — the matching :class:`~repro.core.sketch.BasicWindowSketch`
        once and share it across queries.  Engines that do not precompute a
        sketch return ``None``.
        """
        return None

    def supports_pair_subset(self) -> bool:
        """Whether ``run`` accepts a ``pairs=(rows, cols)`` keyword.

        An engine that answers a query restricted to an arbitrary subset of
        the series-pair space — producing for those pairs exactly the edges
        its full run would produce — can be sharded by
        :class:`repro.parallel.ShardedExecutor`: the pair space is split into
        blocks, each block runs independently, and the merged result is
        bit-identical to a serial run.  Engines whose per-pair work is coupled
        across pairs (or that never inspect pairs individually) return
        ``False`` and always execute serially.
        """
        return False

    def describe(self) -> str:
        """Human-readable engine description (engine name plus key options)."""
        return self.name

    def exactness(self) -> str:
        """``EngineStats.exactness`` of this configuration's answers
        (:data:`~repro.core.result.EXACTNESS_EXACT` unless overridden)."""
        return EXACTNESS_EXACT

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}(name={self.name!r})"


_ENGINE_REGISTRY: Dict[str, Type[SlidingCorrelationEngine]] = {}


def register_engine(
    cls: Optional[Type[SlidingCorrelationEngine]] = None, *, replace: bool = False
):
    """Class decorator adding an engine to the global registry by its ``name``.

    Registering a second engine under an already-taken name raises
    :class:`ExperimentError` — silent overwrites made registry bugs (two
    plugins picking the same name) invisible.  Pass ``replace=True``
    (``@register_engine(replace=True)``) to overwrite deliberately.
    Re-registering the *same* class object is a no-op, so module reloads stay
    harmless.
    """

    def _register(engine_cls: Type[SlidingCorrelationEngine]):
        if not engine_cls.name or engine_cls.name == "abstract":
            raise ExperimentError(
                f"engine class {engine_cls.__name__} must define a name"
            )
        existing = _ENGINE_REGISTRY.get(engine_cls.name)
        # importlib.reload re-runs the decorator with a fresh class object, so
        # "the same class" means same definition site, not same identity.
        same_definition = existing is not None and (
            existing is engine_cls
            or (
                existing.__module__ == engine_cls.__module__
                and existing.__qualname__ == engine_cls.__qualname__
            )
        )
        if existing is not None and not same_definition and not replace:
            raise ExperimentError(
                f"engine name {engine_cls.name!r} is already registered to "
                f"{existing.__name__}; pass replace=True to overwrite it"
            )
        _ENGINE_REGISTRY[engine_cls.name] = engine_cls
        return engine_cls

    if cls is None:
        return _register
    return _register(cls)


def available_engines() -> Dict[str, Type[SlidingCorrelationEngine]]:
    """Mapping of registered engine names to their classes (copy)."""
    return dict(_ENGINE_REGISTRY)


def engine_options(name: str) -> Dict[str, inspect.Parameter]:
    """Constructor options accepted by a registered engine (name -> Parameter)."""
    try:
        cls = _ENGINE_REGISTRY[name]
    except KeyError:
        raise ExperimentError(
            f"unknown engine {name!r}; available: {sorted(_ENGINE_REGISTRY)}"
        ) from None
    parameters = dict(inspect.signature(cls.__init__).parameters)
    parameters.pop("self", None)
    # Engines without their own __init__ inherit object's (*args, **kwargs)
    # signature; those pseudo-parameters are not real options.
    return {
        name: parameter
        for name, parameter in parameters.items()
        if parameter.kind
        not in (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
    }


def create_engine(name: str, **kwargs) -> SlidingCorrelationEngine:
    """Instantiate a registered engine by name with keyword options.

    Unknown names and unknown constructor options both raise
    :class:`ExperimentError` naming the engine and the options it accepts, so
    a typo like ``slak=0.1`` fails with a message instead of a bare
    ``TypeError``.
    """
    try:
        cls = _ENGINE_REGISTRY[name]
    except KeyError:
        raise ExperimentError(
            f"unknown engine {name!r}; available: {sorted(_ENGINE_REGISTRY)}"
        ) from None
    try:
        return cls(**kwargs)
    except TypeError as error:
        accepted = sorted(engine_options(name))
        raise ExperimentError(
            f"invalid options for engine {name!r}: {error}; "
            f"accepted options: {accepted}"
        ) from error
