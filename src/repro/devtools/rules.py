"""The five repro-lint rules (RPR001–RPR005).

Each rule is a small AST visitor registered with the framework in
:mod:`repro.devtools.linter`.  The rules encode this repository's actual
disciplines — see ``docs/invariants.md`` for the catalogue with the
incident history behind each one.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.devtools.config import LintConfig
from repro.devtools.linter import (
    Finding,
    LintRule,
    ModuleContext,
    register_rule,
)

# ---------------------------------------------------------------------------
# RPR001 — exception discipline
# ---------------------------------------------------------------------------


@register_rule
class ExceptionDisciplineRule(LintRule):
    """Library code must raise the typed taxonomy, not bare builtins.

    ``raise ValueError(...)`` at an API boundary forces every caller to
    catch a type that numpy, json and the stdlib also raise, so callers
    cannot tell "you built the query wrong" from "a dependency blew up".
    The taxonomy in :mod:`repro.exceptions` keeps those distinguishable.
    """

    code = "RPR001"
    name = "exception-discipline"
    summary = (
        "no bare ValueError/TypeError/RuntimeError raises in library code; "
        "use the repro.exceptions taxonomy"
    )

    def check(self, context: ModuleContext, config: LintConfig) -> Iterator[Finding]:
        if not config.rpr001_applies(context.module):
            return
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            name = _raised_name(node.exc)
            if name in config.banned_raises:
                yield self.finding(
                    context,
                    node,
                    f"raises bare {name}; use the typed taxonomy from "
                    f"repro.exceptions (DataValidationError, StorageError, "
                    f"ServiceError, ExperimentError, ...)",
                )


def _raised_name(exc: ast.expr) -> Optional[str]:
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return None


# ---------------------------------------------------------------------------
# RPR002 — lazy-materialization guard
# ---------------------------------------------------------------------------


@register_rule
class LazyMaterializationRule(LintRule):
    """No ``.values``/``._values`` on matrix objects outside raw-path modules.

    ``ChunkBackedMatrix.values`` materializes the full dense array on first
    touch.  A single stray access on a planner or service path silently
    converts an out-of-core run into an in-core one — the run still
    *succeeds*, just with the memory profile the budget was meant to
    forbid.  Only the explicit raw-path allowlist may dereference values;
    everywhere else a deliberate dense fallback carries a justified pragma.
    """

    code = "RPR002"
    name = "lazy-materialization-guard"
    summary = (
        "no .values/._values access on matrix objects outside the raw-path "
        "module allowlist"
    )

    def check(self, context: ModuleContext, config: LintConfig) -> Iterator[Finding]:
        if config.raw_values_allowed(context.module):
            return
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr not in ("values", "_values"):
                continue
            if not _is_matrix_expression(node.value, context, config):
                continue
            yield self.finding(
                context,
                node,
                f"accesses .{node.attr} on matrix expression "
                f"'{ast.unparse(node.value)}' outside the raw-path "
                f"allowlist; this materializes ChunkBackedMatrix runs — "
                f"route through the sketch, or justify with a pragma",
            )


def _is_matrix_expression(
    base: ast.expr, context: ModuleContext, config: LintConfig
) -> bool:
    """Heuristic: does this expression denote a time-series matrix?"""
    if isinstance(base, ast.Name):
        if config.is_matrix_name(base.id):
            return True
        return _param_annotated_as_matrix(base, context, config)
    if isinstance(base, ast.Attribute):
        return config.is_matrix_name(base.attr)
    return False


def _param_annotated_as_matrix(
    name: ast.Name, context: ModuleContext, config: LintConfig
) -> bool:
    for ancestor in context.ancestors(name):
        if not isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        arguments = ancestor.args
        for arg in (
            list(arguments.posonlyargs)
            + list(arguments.args)
            + list(arguments.kwonlyargs)
        ):
            if arg.arg != name.id or arg.annotation is None:
                continue
            rendered = ast.unparse(arg.annotation)
            if any(type_name in rendered for type_name in config.matrix_type_names):
                return True
        return False
    return False


# ---------------------------------------------------------------------------
# RPR003 — canonical-accumulation guard
# ---------------------------------------------------------------------------


@register_rule
class CanonicalAccumulationRule(LintRule):
    """Reductions over pair-window statistics only in the blessed helpers.

    Floating-point addition is not associative: ``np.dot`` over a strided
    view and the same dot over a contiguous copy can differ in the last
    ulp, which is exactly how PR 3's shard-vs-serial divergence appeared.
    The blessed helpers in ``core/sketch.py`` force the canonical contiguous
    layout before reducing; every other module — the tiled builder included,
    which calls the sketch's statistics kernel per tile — must call them
    instead of reducing stat arrays ad hoc.
    """

    code = "RPR003"
    name = "canonical-accumulation-guard"
    summary = (
        "no einsum/dot/matmul/axis reductions over pair-window statistics "
        "outside core/sketch.py"
    )

    def check(self, context: ModuleContext, config: LintConfig) -> Iterator[Finding]:
        if config.accumulation_blessed(context.module):
            return
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            reduction = _reduction_kind(node, config)
            if reduction is None:
                continue
            marker = _stat_marker_in(node, config)
            if marker is None:
                continue
            yield self.finding(
                context,
                node,
                f"{reduction} over pair-window statistic '{marker}' outside "
                f"the blessed helpers; use pair_corrs_from_stats / _row_prefix "
                f"/ BasicWindowSketch._gather_sums from core/sketch.py to keep "
                f"results bit-identical across layouts",
            )


def _reduction_kind(node: ast.Call, config: LintConfig) -> Optional[str]:
    """Classify a call as a watched numpy reduction, or None."""
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None
    base = func.value
    # np.einsum / np.dot / np.matmul / np.tensordot / np.inner / np.vdot
    if isinstance(base, ast.Name) and base.id in ("np", "numpy"):
        if func.attr in config.reduction_functions:
            return f"np.{func.attr}"
        # np.sum(x, axis=...) — the first positional is the array itself,
        # so only an explicit axis (keyword or second positional) counts.
        if func.attr in ("sum", "mean", "cumsum") and (
            any(keyword.arg == "axis" for keyword in node.keywords)
            or len(node.args) >= 2
        ):
            return f"np.{func.attr} with axis"
        return None
    # np.add.reduce and friends
    if (
        func.attr == "reduce"
        and isinstance(base, ast.Attribute)
        and isinstance(base.value, ast.Name)
        and base.value.id in ("np", "numpy")
    ):
        return f"np.{base.attr}.reduce"
    # array.sum(axis=...) / array.mean(axis=...) / array.cumsum(axis=...)
    if func.attr in config.reduction_methods:
        if func.attr == "dot":
            return ".dot method"
        if _has_axis(node):
            return f".{func.attr}(axis=...) method"
    return None


def _has_axis(node: ast.Call) -> bool:
    """For method-style ``array.sum(...)`` calls: is an axis supplied?

    A bare positional to a reduction *method* is the axis (``stats.sum(0)``).
    """
    if any(keyword.arg == "axis" for keyword in node.keywords):
        return True
    return bool(node.args)


def _stat_marker_in(node: ast.Call, config: LintConfig) -> Optional[str]:
    """The first pair-statistic identifier mentioned anywhere in the call."""
    for child in ast.walk(node):
        identifier: Optional[str] = None
        if isinstance(child, ast.Name):
            identifier = child.id
        elif isinstance(child, ast.Attribute):
            identifier = child.attr
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            identifier = child.value
        if identifier is None:
            continue
        for marker in sorted(config.stat_name_markers):
            if marker in identifier:
                return marker
    return None


# ---------------------------------------------------------------------------
# RPR004 — engine-protocol conformance
# ---------------------------------------------------------------------------


@register_rule
class EngineProtocolRule(LintRule):
    """Engine subclasses must match the ``core/engine.py`` protocol shapes.

    The parallel executor feeds ``pairs=`` to any engine whose
    ``supports_pair_subset`` returns True; an engine that advertises
    support but whose ``run`` lacks the kwarg fails only at shard time,
    deep inside a worker process.  Same story for ``plan_layout``: the
    planner calls it positionally with exactly one query argument.
    """

    code = "RPR004"
    name = "engine-protocol-conformance"
    summary = (
        "engines advertising pair-subset support must accept pairs= in run; "
        "plan_layout must match the protocol signature"
    )

    def check(self, context: ModuleContext, config: LintConfig) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not _looks_like_engine(node):
                continue
            methods = {
                item.name: item
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            }
            yield from self._check_pair_subset(context, node, methods)
            yield from self._check_signatures(context, node, methods, config)

    def _check_pair_subset(
        self,
        context: ModuleContext,
        node: ast.ClassDef,
        methods: Dict[str, ast.FunctionDef],
    ) -> Iterator[Finding]:
        supports = methods.get("supports_pair_subset")
        if supports is None or not _may_return_true(supports):
            return
        run = methods.get("run")
        if run is None:
            # ``run`` is inherited; the base implementation defines the
            # protocol including ``pairs``, so there is nothing to check.
            return
        if not _accepts_keyword(run, "pairs"):
            yield self.finding(
                context,
                run,
                f"engine {node.name} can return True from "
                f"supports_pair_subset but run() does not accept a 'pairs' "
                f"keyword; the sharded executor will fail at dispatch time",
            )

    def _check_signatures(
        self,
        context: ModuleContext,
        node: ast.ClassDef,
        methods: Dict[str, ast.FunctionDef],
        config: LintConfig,
    ) -> Iterator[Finding]:
        for method_name, expected in config.engine_protocol:
            method = methods.get(method_name)
            if method is None:
                continue
            actual = _positional_names(method)
            if tuple(actual) != expected:
                yield self.finding(
                    context,
                    method,
                    f"engine {node.name}.{method_name} has positional "
                    f"parameters {tuple(actual)}; the core/engine.py "
                    f"protocol requires exactly {expected}",
                )
        run = methods.get("run")
        if run is not None:
            positional = _positional_names(run)
            if positional[:3] != ["self", "matrix", "query"]:
                yield self.finding(
                    context,
                    run,
                    f"engine {node.name}.run must start with positional "
                    f"parameters (self, matrix, query); found "
                    f"{tuple(positional[:3])}",
                )


def _looks_like_engine(node: ast.ClassDef) -> bool:
    if node.name.endswith("Engine"):
        return True
    for base in node.bases:
        rendered = ast.unparse(base)
        if rendered.split(".")[-1].endswith("Engine"):
            return True
    return False


def _may_return_true(function: ast.FunctionDef) -> bool:
    """Whether any return can yield something other than literal False."""
    for node in ast.walk(function):
        if not isinstance(node, ast.Return):
            continue
        value = node.value
        if value is None:
            continue
        if isinstance(value, ast.Constant) and value.value is False:
            continue
        return True
    return False


def _accepts_keyword(function: ast.FunctionDef, keyword: str) -> bool:
    arguments = function.args
    names = {
        arg.arg
        for arg in (
            list(arguments.posonlyargs)
            + list(arguments.args)
            + list(arguments.kwonlyargs)
        )
    }
    return keyword in names or arguments.kwarg is not None


def _positional_names(function: ast.FunctionDef) -> List[str]:
    arguments = function.args
    return [arg.arg for arg in list(arguments.posonlyargs) + list(arguments.args)]


# ---------------------------------------------------------------------------
# RPR005 — service lock discipline
# ---------------------------------------------------------------------------

_GUARDED_BY = re.compile(r"#\s*guarded-by:\s*(?P<lock>[A-Za-z_][A-Za-z0-9_]*)")
_REQUIRES_LOCK = re.compile(r"#\s*requires-lock:\s*(?P<lock>[A-Za-z_][A-Za-z0-9_]*)")


@register_rule
class LockDisciplineRule(LintRule):
    """Attributes annotated ``# guarded-by: <lock>`` mutate only under it.

    The service and cache layers share mutable maps across request
    threads.  Annotating each shared attribute with its lock turns the
    locking convention into something this rule can check: every
    assignment, subscript write, del, or mutator-method call on a guarded
    attribute must sit inside ``with <base>.<lock>:`` (or inside a method
    annotated ``# requires-lock: <lock>``, the caller-holds convention).
    ``__init__`` is exempt — the object is not yet shared while it is
    being constructed.
    """

    code = "RPR005"
    name = "service-lock-discipline"
    summary = (
        "writes to # guarded-by annotated attributes must happen inside "
        "with <lock>: (or under # requires-lock)"
    )

    def check(self, context: ModuleContext, config: LintConfig) -> Iterator[Finding]:
        if not config.lock_discipline_applies(context.module):
            return
        guarded = _collect_guarded_attrs(context)
        if not guarded:
            return
        requires = _collect_requires_lock(context)
        for node in ast.walk(context.tree):
            for access, kind in _guarded_writes(node, guarded, config):
                attr_name = access.attr
                lock_name = guarded[attr_name]
                if _inside_init(context, node):
                    continue
                if _lock_held(context, node, access, lock_name, requires):
                    continue
                base = ast.unparse(access.value)
                yield self.finding(
                    context,
                    node,
                    f"{kind} on guarded attribute {base}.{attr_name} "
                    f"outside 'with {base}.{lock_name}:' "
                    f"(declared # guarded-by: {lock_name})",
                )


def _collect_guarded_attrs(context: ModuleContext) -> Dict[str, str]:
    """attr name → lock name, from ``# guarded-by:`` trailing comments.

    The annotation sits on the attribute's initializing assignment, e.g.::

        self.batches = {}  # guarded-by: batches_lock
    """
    guarded: Dict[str, str] = {}
    for node in ast.walk(context.tree):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        match = None
        for line_number in range(node.lineno, (node.end_lineno or node.lineno) + 1):
            match = _GUARDED_BY.search(context.line_comment(line_number))
            if match is not None:
                break
        if match is None:
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Attribute):
                guarded[target.attr] = match.group("lock")
    return guarded


def _collect_requires_lock(context: ModuleContext) -> Dict[ast.FunctionDef, str]:
    """Functions annotated ``# requires-lock: <lock>`` on their def line."""
    requires: Dict[ast.FunctionDef, str] = {}
    for node in ast.walk(context.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for line_number in range(node.lineno, node.body[0].lineno + 1):
            match = _REQUIRES_LOCK.search(context.line_comment(line_number))
            if match is not None:
                requires[node] = match.group("lock")
                break
    return requires


def _guarded_writes(
    node: ast.AST, guarded: Dict[str, str], config: LintConfig
) -> Iterator[Tuple[ast.Attribute, str]]:
    """Yield (guarded attribute access, kind-of-write) pairs under ``node``.

    Only looks at the node itself (ast.walk in the caller covers the tree);
    recognizes attribute assignment, subscript/del writes, augmented
    assignment, and mutator-method calls.
    """
    if isinstance(node, ast.Assign):
        for target in node.targets:
            yield from _writes_in_target(target, guarded)
    elif isinstance(node, ast.AugAssign):
        yield from _writes_in_target(node.target, guarded)
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        yield from _writes_in_target(node.target, guarded)
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            yield from _writes_in_target(target, guarded)
    elif isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in config.mutator_methods
            and isinstance(func.value, ast.Attribute)
            and func.value.attr in guarded
        ):
            yield func.value, f"mutator call .{func.attr}()"


def _writes_in_target(
    target: ast.expr, guarded: Dict[str, str]
) -> Iterator[Tuple[ast.Attribute, str]]:
    if isinstance(target, ast.Attribute):
        if target.attr in guarded:
            yield target, "assignment"
        elif isinstance(target.value, ast.Attribute) and target.value.attr in guarded:
            # ``self.stats.hits += 1`` mutates the guarded ``stats`` object.
            yield target.value, f"field write .{target.attr}"
    elif isinstance(target, ast.Subscript):
        value = target.value
        if isinstance(value, ast.Attribute) and value.attr in guarded:
            yield value, "subscript write"
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _writes_in_target(element, guarded)


def _inside_init(context: ModuleContext, node: ast.AST) -> bool:
    for ancestor in context.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor.name == "__init__"
    return False


def _lock_held(
    context: ModuleContext,
    node: ast.AST,
    access: ast.Attribute,
    lock_name: str,
    requires: Dict[ast.FunctionDef, str],
) -> bool:
    base = ast.unparse(access.value)
    acceptable: Set[str] = {f"{base}.{lock_name}", lock_name}
    for ancestor in context.ancestors(node):
        if isinstance(ancestor, ast.With):
            for item in ancestor.items:
                if ast.unparse(item.context_expr) in acceptable:
                    return True
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # requires-lock is the caller-holds convention for methods of
            # the owning class, so it vouches only for self-based access.
            if base == "self" and requires.get(ancestor) == lock_name:
                return True
            return False
    return False


RULES = (
    ExceptionDisciplineRule,
    LazyMaterializationRule,
    CanonicalAccumulationRule,
    EngineProtocolRule,
    LockDisciplineRule,
)

__all__ = ["RULES"] + [cls.__name__ for cls in RULES]
