"""Configuration for the repro-lint rules: allowlists and blessed modules.

The defaults below encode the repository's actual discipline boundaries.
Tests construct ``LintConfig`` instances with shrunken allowlists to prove
that removing any single entry makes the lint fail (see
``tests/devtools/``), which is exactly the property that makes the lists
load-bearing rather than decorative.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field
from typing import FrozenSet, Tuple


def _match(module: str, patterns: Tuple[str, ...]) -> bool:
    return any(fnmatch.fnmatch(module, pattern) for pattern in patterns)


@dataclass(frozen=True)
class LintConfig:
    """Tunable knobs for the rule set.  All fields have repo-true defaults."""

    # ------------------------------------------------------------------ RPR001
    #: Exception classes library code may not raise directly: every one has a
    #: typed replacement in :mod:`repro.exceptions`.
    banned_raises: FrozenSet[str] = frozenset(
        {"ValueError", "TypeError", "RuntimeError"}
    )

    #: Modules the exception-discipline rule applies to.  Scripts are
    #: included deliberately: they feed results into CI, so their failures
    #: should speak the same taxonomy.
    rpr001_modules: Tuple[str, ...] = (
        "repro/*",
        "scripts/*",
    )

    #: Modules exempt from RPR001 even though they match above.  ``conftest``
    #: and test helpers intentionally raise builtins to simulate failures.
    rpr001_exempt: Tuple[str, ...] = (
        "tests/*",
        "*/conftest.py",
    )

    # ------------------------------------------------------------------ RPR002
    #: Modules allowed to touch ``.values`` / ``._values`` on matrix objects.
    #: These are the *raw paths*: dense baselines and experiment engines,
    #: generators, dataset and streaming substrates — code that by
    #: construction needs the dense array.  Everything else (api, service,
    #: storage, parallel, the sketch core) must stay sketch-only so
    #: ``ChunkBackedMatrix`` runs never materialize; a legitimate dense
    #: fallback there carries a justified pragma instead.
    raw_value_modules: Tuple[str, ...] = (
        "repro/baselines/*",
        "repro/core/dangoron.py",
        "repro/core/topk.py",
        "repro/core/lag.py",
        "repro/core/incremental.py",
        "repro/core/basic_window.py",
        "repro/core/correlation.py",
        "repro/datasets/*",
        "repro/tomborg/*",
        "repro/analysis/*",
        "repro/network/*",
        "repro/timeseries/*",
        "repro/streaming/*",
        "repro/experiments/*",
        "scripts/*",
        "examples/*",
        "tests/*",
    )

    #: Variable / attribute name shapes treated as "a matrix object" by the
    #: RPR002 heuristic.  A name matches when it is exactly ``matrix`` or
    #: ends in ``_matrix`` (covers ``self.matrix``, ``workload.matrix``,
    #: ``chunk_matrix`` …).
    matrix_name_suffixes: Tuple[str, ...] = ("matrix",)

    #: Type annotations that mark a parameter as a matrix regardless of name.
    matrix_type_names: FrozenSet[str] = frozenset(
        {"TimeSeriesMatrix", "ChunkBackedMatrix"}
    )

    # ------------------------------------------------------------------ RPR003
    #: The only module allowed to run reductions over pair-window statistic
    #: arrays.  Its helpers (``pair_corrs_from_stats``,
    #: ``BasicWindowSketch._gather_sums``) reduce each pair's contiguous
    #: packed row, which is what makes shard/tile results bit-identical to
    #: serial runs (docs/invariants.md tells the ulp-divergence story).  The tiled
    #: builder is *not* blessed: it only calls the sketch's kernel per tile.
    blessed_accumulation_modules: Tuple[str, ...] = ("repro/core/sketch.py",)

    #: Identifier substrings that mark an expression as a pair-window
    #: statistic.  Matched against every Name/Attribute inside the reduction
    #: call, so ``np.dot(pair_sumprods, w)`` and
    #: ``stats.series_sums.sum(axis=0)`` both register.  ``pair_corrs`` is no
    #: longer a stored array but still names the per-window correlations
    #: ``pair_corrs_from_stats`` computes, so it stays watched.
    stat_name_markers: FrozenSet[str] = frozenset(
        {
            "series_sums",
            "series_sumsqs",
            "pair_sumprods",
            "pair_corrs",
        }
    )

    #: numpy reduction entry points RPR003 watches (attribute name on the
    #: ``np`` module, or method name when called on an array expression).
    reduction_functions: FrozenSet[str] = frozenset(
        {"einsum", "dot", "matmul", "tensordot", "inner", "vdot"}
    )
    reduction_methods: FrozenSet[str] = frozenset({"sum", "dot", "mean", "cumsum"})

    # ------------------------------------------------------------------ RPR004
    #: Required parameter shapes for the engine protocol, keyed by method
    #: name.  Checked on any class that looks like an engine (defines
    #: ``run`` and at least one other protocol method, or subclasses
    #: ``CorrelationEngine``).
    engine_protocol: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
        ("plan_layout", ("self", "query")),
    )

    # ------------------------------------------------------------------ RPR005
    #: Modules where ``# guarded-by: <lock>`` annotations are enforced.
    lock_discipline_modules: Tuple[str, ...] = (
        "repro/api/cost.py",
        "repro/service/service.py",
        "repro/service/workers.py",
        "repro/storage/cache.py",
    )

    #: Method names that mutate their receiver; calling one on a guarded
    #: attribute counts as a write and needs the lock held.
    mutator_methods: FrozenSet[str] = frozenset(
        {
            "append",
            "add",
            "clear",
            "discard",
            "extend",
            "insert",
            "move_to_end",
            "pop",
            "popitem",
            "remove",
            "setdefault",
            "sort",
            "update",
            "record",
        }
    )

    # ------------------------------------------------------------------ helpers
    def rpr001_applies(self, module: str) -> bool:
        return _match(module, self.rpr001_modules) and not _match(
            module, self.rpr001_exempt
        )

    def raw_values_allowed(self, module: str) -> bool:
        return _match(module, self.raw_value_modules)

    def accumulation_blessed(self, module: str) -> bool:
        return _match(module, self.blessed_accumulation_modules)

    def lock_discipline_applies(self, module: str) -> bool:
        return _match(module, self.lock_discipline_modules)

    def is_matrix_name(self, name: str) -> bool:
        lowered = name.lower()
        return any(
            lowered == suffix or lowered.endswith("_" + suffix)
            for suffix in self.matrix_name_suffixes
        )


#: Shared default instance used by the CLI when no overrides are given.
DEFAULT_CONFIG = LintConfig()

__all__ = ["LintConfig", "DEFAULT_CONFIG"]
