"""Whole-program reachability: every top-level symbol in ``src/repro`` has a caller.

Nodes are the top-level ``def`` / ``class`` statements of every
``src/repro/**/*.py`` module except ``__init__.py``.  Roots are what the
product and the paper reach by itself:

* each src module's own code outside those nodes (imports, ``__all__`` and
  docstrings excluded: naming a symbol there is not calling it);
* ``examples/*.py``, ``perf/*.py`` and ``scripts/*.py``;
* ``tests/integration/test_paper_claims.py``;
* ``README.md`` and ``docs/*.md``;
* every class decorated ``@register_engine`` / ``@register_rule`` (the
  registries reach them by name).

A node becomes live when its name appears as a word in a root or in a live
node's source; that repeats until nothing changes.  Whatever is left is code
only its own unit tests call, and fails the test unless ``ALLOWLIST`` names
it with a reason.  The scan is a conservative over-approximation (a name
match is not a call), so it never flags a symbol something does use.
"""

import ast
import re
from pathlib import Path
from typing import Dict, List, NamedTuple, Set

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"

#: ``"<path under src/repro>::<symbol>"`` -> why it stays without a product caller.
ALLOWLIST: Dict[str, str] = {
    "core/correlation.py::pearson": (
        "scalar Pearson oracle that tests/unit/tomborg/test_noise.py and "
        "tests/unit/core/test_lag.py compare against"
    ),
    "core/bounds.py::max_skippable_steps_scalar": (
        "scalar Eq. 2 oracle that tests/unit/core/test_bounds.py compares "
        "the vectorised bound against"
    ),
}

REGISTERING_DECORATORS = {"register_engine", "register_rule"}


class Node(NamedTuple):
    key: str
    name: str
    line: int
    source: str


def _decorator_name(decorator: ast.expr) -> str:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    if isinstance(target, ast.Attribute):
        return target.attr
    return getattr(target, "id", "")


def _is_docstring(statement: ast.stmt) -> bool:
    return isinstance(statement, ast.Expr) and isinstance(
        getattr(statement, "value", None), ast.Constant
    ) and isinstance(statement.value.value, str)


def _is_dunder_all(statement: ast.stmt) -> bool:
    targets = getattr(statement, "targets", None) or [getattr(statement, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _scan_sources():
    """Split ``src/repro`` into nodes and module-level root text."""
    nodes: List[Node] = []
    roots: List[str] = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines = text.splitlines()
        relative = path.relative_to(SRC_ROOT).as_posix()
        for statement in ast.parse(text).body:
            first = min(
                [statement.lineno]
                + [d.lineno for d in getattr(statement, "decorator_list", [])]
            )
            segment = "\n".join(lines[first - 1 : statement.end_lineno])
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                decorators = {_decorator_name(d) for d in statement.decorator_list}
                if decorators & REGISTERING_DECORATORS:
                    roots.append(segment)
                else:
                    nodes.append(
                        Node(f"{relative}::{statement.name}", statement.name, statement.lineno, segment)
                    )
            elif not (
                isinstance(statement, (ast.Import, ast.ImportFrom))
                or _is_docstring(statement)
                or _is_dunder_all(statement)
            ):
                roots.append(segment)
    return nodes, roots


def _external_roots() -> List[str]:
    paths: List[Path] = []
    for folder in ("examples", "perf", "scripts"):
        paths.extend(sorted((REPO_ROOT / folder).glob("*.py")))
    paths.append(REPO_ROOT / "tests" / "integration" / "test_paper_claims.py")
    paths.append(REPO_ROOT / "README.md")
    paths.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [path.read_text() for path in paths]


def _words(text: str) -> Set[str]:
    return set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text))


def unreached_nodes() -> List[Node]:
    """Every node no root reaches, in file order."""
    nodes, roots = _scan_sources()
    seen = set().union(*(_words(text) for text in roots + _external_roots()))
    live: Set[str] = set()
    frontier = seen
    while frontier:
        fresh = [n for n in nodes if n.key not in live and n.name in frontier]
        live.update(n.key for n in fresh)
        frontier = set().union(*(_words(n.source) for n in fresh)) - seen
        seen |= frontier
    return [n for n in nodes if n.key not in live]


def test_every_library_symbol_is_reached_by_the_product_or_the_paper():
    flagged = [n for n in unreached_nodes() if n.key not in ALLOWLIST]
    rendered = "\n".join(
        f"src/repro/{n.key.split('::')[0]}:{n.line} {n.name}" for n in flagged
    )
    assert not flagged, (
        "top-level symbols that only their own tests reach — delete them "
        f"(or allowlist one with a reason):\n{rendered}"
    )


def test_allowlist_entries_exist_and_are_otherwise_unreached():
    """A stale entry (symbol gone, or now called) must leave the allowlist."""
    nodes, _ = _scan_sources()
    unreached = {n.key for n in unreached_nodes()}
    keys = {n.key for n in nodes}
    assert set(ALLOWLIST) <= keys, sorted(set(ALLOWLIST) - keys)
    assert set(ALLOWLIST) <= unreached, sorted(set(ALLOWLIST) - unreached)
