"""The ``repro-lint`` engine: module loading, pragmas, baselines, rule dispatch.

Every invariant this reproduction sells — shard/tile results bit-identical to
serial, sketch-only runs that never materialize the dense matrix, a typed
error taxonomy at the API boundary, lock-guarded service state — is a
*discipline over source code*, not just a property of one execution.  The
property suites only catch a violation when a test happens to execute the
offending path; this module catches it at parse time, on every path.

The framework is deliberately stdlib-only (:mod:`ast`, no third-party
parsers) so the lint can run before any scientific dependency is importable:

* :class:`ModuleContext` — one parsed source file plus its pragma table,
* :class:`LintRule` / :func:`register_rule` — the pluggable rule registry
  (rules live in :mod:`repro.devtools.rules`),
* :func:`lint_paths` / :func:`lint_source` — run every selected rule and
  filter findings through ``# repro-lint: disable=RPRxxx`` pragmas,
* :class:`Baseline` — the committed ledger of grandfathered findings, so the
  CLI fails only on *new* violations.

See ``docs/invariants.md`` for the catalogue of rule codes and the
invariants they protect.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

from repro.exceptions import LintError

#: Code used for findings produced by the framework itself (malformed or
#: unjustified pragmas), as opposed to the registered RPR001+ rules.
META_CODE = "RPR000"

#: ``# repro-lint: disable=RPR001,RPR002 -- justification`` — the justification
#: (anything after ``--``) is mandatory; a bare disable is itself a finding.
_PRAGMA = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<codes>[A-Za-z0-9_,\s]+?)"
    r"(?:\s*--\s*(?P<reason>.*))?$"
)

#: Directory names that anchor a stable module path: the part of an absolute
#: file path from the *last* occurrence of one of these segments onward is
#: what allowlists, baselines and reports use, so they are identical across
#: checkouts (and across tmp-dir test fixtures that mimic the tree).
_ANCHOR_SEGMENTS = ("repro", "scripts", "examples", "tests")


def module_path_for(path: Path) -> str:
    """The stable, checkout-independent identity of a source file.

    ``/home/x/repo/src/repro/core/sketch.py`` → ``repro/core/sketch.py``;
    ``/home/x/repo/scripts/lint.py`` → ``scripts/lint.py``.  Paths outside
    every anchor segment fall back to their file name.
    """
    parts = path.resolve().parts
    for anchor in _ANCHOR_SEGMENTS:
        if anchor in parts:
            index = len(parts) - 1 - parts[::-1].index(anchor)
            return "/".join(parts[index:])
    return path.name


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    module: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.module}:{self.line}:{self.col}: {self.code} {self.message}"

    @property
    def fingerprint(self) -> str:
        """Line-independent identity used by the baseline.

        Leaving the line number out keeps a grandfathered finding recognized
        when unrelated edits move it; the message (which names the offending
        construct) disambiguates within a file.
        """
        digest = hashlib.sha256(
            f"{self.module}::{self.code}::{self.message}".encode()
        ).hexdigest()[:16]
        return f"{self.module}::{self.code}::{digest}"


@dataclass(frozen=True)
class Pragma:
    """One parsed ``# repro-lint: disable=...`` comment."""

    line: int
    codes: Tuple[str, ...]
    reason: Optional[str]


class ModuleContext:
    """One parsed module: tree, raw lines, pragmas, and AST parent links."""

    def __init__(self, source: str, module: str, path: Optional[Path] = None) -> None:
        self.module = module
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        try:
            self.tree = ast.parse(source)
        except SyntaxError as error:
            raise LintError(
                f"{module}:{error.lineno}: cannot lint a file that does not "
                f"parse: {error.msg}"
            ) from error
        self.pragmas: Dict[int, Pragma] = {}
        for number, text in enumerate(self.lines, start=1):
            match = _PRAGMA.search(text)
            if match is None:
                continue
            codes = tuple(
                code.strip().upper()
                for code in match.group("codes").split(",")
                if code.strip()
            )
            reason = match.group("reason")
            reason = reason.strip() if reason else None
            self.pragmas[number] = Pragma(line=number, codes=codes, reason=reason)
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """The chain of enclosing nodes, innermost first."""
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def line_comment(self, line: int) -> str:
        """The raw text of a source line (1-based; empty when out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def disabled(self, code: str, line: int) -> bool:
        """Whether a pragma on this line suppresses findings of ``code``."""
        pragma = self.pragmas.get(line)
        return pragma is not None and code.upper() in pragma.codes


class LintRule:
    """Base class for registered rules.

    Subclasses set ``code`` (``RPRxxx``), ``name`` (short slug) and
    ``summary`` (one line for ``--list-rules``), and implement
    :meth:`check`, yielding :class:`Finding` objects.  Pragma filtering and
    baseline bookkeeping happen in the framework — rules report everything
    they see.
    """

    code: str = "RPR999"
    name: str = "abstract"
    summary: str = ""

    def check(self, context: ModuleContext, config) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, context: ModuleContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            module=context.module,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
        )


_RULE_REGISTRY: Dict[str, Type[LintRule]] = {}


def register_rule(cls: Type[LintRule]) -> Type[LintRule]:
    """Class decorator adding a rule to the registry under its ``code``."""
    if not re.fullmatch(r"RPR\d{3}", cls.code):
        raise LintError(f"rule code must look like RPR123, got {cls.code!r}")
    existing = _RULE_REGISTRY.get(cls.code)
    if existing is not None and existing is not cls:
        same_definition = (
            existing.__module__ == cls.__module__
            and existing.__qualname__ == cls.__qualname__
        )
        if not same_definition:
            raise LintError(
                f"rule code {cls.code} is already registered to "
                f"{existing.__name__}"
            )
    _RULE_REGISTRY[cls.code] = cls
    return cls


def available_rules() -> Dict[str, Type[LintRule]]:
    """Mapping of registered rule codes to their classes (copy, sorted keys)."""
    return {code: _RULE_REGISTRY[code] for code in sorted(_RULE_REGISTRY)}


def _meta_findings(context: ModuleContext) -> Iterator[Finding]:
    """Framework findings about the pragmas themselves.

    A ``disable`` pragma with no ``-- reason`` is flagged (suppressions must
    be justified in place), as is one naming a code no registered rule owns
    (it suppresses nothing and usually means a typo).
    """
    for pragma in context.pragmas.values():
        if not pragma.reason:
            yield Finding(
                module=context.module,
                line=pragma.line,
                col=0,
                code=META_CODE,
                message=(
                    "repro-lint disable pragma without a justification; "
                    "append ' -- <reason>'"
                ),
            )
        for code in pragma.codes:
            if code != META_CODE and code not in _RULE_REGISTRY:
                yield Finding(
                    module=context.module,
                    line=pragma.line,
                    col=0,
                    code=META_CODE,
                    message=f"pragma disables unknown rule code {code}",
                )


def lint_context(
    context: ModuleContext, config=None, codes: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Run the selected rules over one parsed module, honouring pragmas."""
    from repro.devtools.config import LintConfig

    if config is None:
        config = LintConfig()
    selected = available_rules()
    if codes is not None:
        unknown = sorted(set(code.upper() for code in codes) - set(selected))
        if unknown:
            raise LintError(
                f"unknown rule codes {unknown}; available: {sorted(selected)}"
            )
        selected = {
            code: cls for code, cls in selected.items() if code in
            {c.upper() for c in codes}
        }
    findings: List[Finding] = []
    for cls in selected.values():
        for finding in cls().check(context, config):
            if not context.disabled(finding.code, finding.line):
                findings.append(finding)
    for finding in _meta_findings(context):
        if not context.disabled(finding.code, finding.line):
            findings.append(finding)
    findings.sort(key=lambda f: (f.module, f.line, f.col, f.code))
    return findings


def lint_source(
    source: str,
    module_path: str = "repro/example.py",
    config=None,
    codes: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint a source string as if it lived at ``module_path``.

    The module path decides which allowlists apply (e.g. a snippet under
    ``repro/baselines/`` may read raw values; one under ``repro/service/``
    may not), exactly as for on-disk files.

    Examples
    --------
    >>> from repro.devtools import lint_source
    >>> [f.code for f in lint_source("raise ValueError('bad')",
    ...                              module_path="repro/core/example.py")]
    ['RPR001']
    """
    context = ModuleContext(source, module=module_path)
    return lint_context(context, config=config, codes=codes)


def collect_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into the sorted list of ``.py`` files to lint."""
    files: List[Path] = []
    for path in paths:
        if not path.exists():
            raise LintError(f"lint path does not exist: {path}")
        if path.is_dir():
            files.extend(sorted(p for p in path.rglob("*.py") if p.is_file()))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise LintError(f"not a python file or directory: {path}")
    unique: List[Path] = []
    seen = set()
    for file in files:
        resolved = file.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(file)
    return unique


def lint_paths(
    paths: Sequence[Path], config=None, codes: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Lint every python file under the given files/directories."""
    findings: List[Finding] = []
    for file in collect_files(paths):
        source = file.read_text(encoding="utf-8")
        context = ModuleContext(source, module=module_path_for(file), path=file)
        findings.extend(lint_context(context, config=config, codes=codes))
    return findings


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------

BASELINE_VERSION = 1

#: Default name of the committed baseline file (repo root).
BASELINE_FILENAME = ".repro-lint-baseline.json"


@dataclass
class BaselineDiff:
    """The comparison of a lint run against the committed baseline."""

    new: List[Finding] = field(default_factory=list)
    grandfathered: List[Finding] = field(default_factory=list)
    stale: List[str] = field(default_factory=list)


class Baseline:
    """The committed ledger of grandfathered findings.

    Maps finding fingerprints (see :attr:`Finding.fingerprint`) to the count
    of occurrences tolerated.  A lint run fails only on findings beyond the
    baselined counts; baseline entries that no longer occur are reported as
    *stale* so the ledger shrinks toward empty instead of rotting.
    """

    def __init__(self, entries: Optional[Dict[str, int]] = None) -> None:
        self.entries: Dict[str, int] = dict(entries or {})

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        if not path.exists():
            return cls()
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise LintError(f"cannot read baseline {path}: {error}") from error
        if not isinstance(document, dict) or "findings" not in document:
            raise LintError(
                f"baseline {path} must be a JSON object with a 'findings' key"
            )
        entries = document["findings"]
        if not isinstance(entries, dict) or not all(
            isinstance(v, int) and v > 0 for v in entries.values()
        ):
            raise LintError(
                f"baseline {path} 'findings' must map fingerprints to "
                f"positive counts"
            )
        return cls(entries)

    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> "Baseline":
        entries: Dict[str, int] = {}
        for finding in findings:
            entries[finding.fingerprint] = entries.get(finding.fingerprint, 0) + 1
        return cls(entries)

    def write(self, path: Path) -> None:
        document = {
            "version": BASELINE_VERSION,
            "comment": (
                "Grandfathered repro-lint findings. Entries map finding "
                "fingerprints to tolerated counts; the goal state is empty. "
                "Regenerate with: python scripts/lint.py --write-baseline"
            ),
            "findings": {key: self.entries[key] for key in sorted(self.entries)},
        }
        path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")

    def diff(self, findings: Sequence[Finding]) -> BaselineDiff:
        """Split findings into new vs grandfathered, and spot stale entries."""
        remaining = dict(self.entries)
        result = BaselineDiff()
        for finding in findings:
            tolerated = remaining.get(finding.fingerprint, 0)
            if tolerated > 0:
                remaining[finding.fingerprint] = tolerated - 1
                result.grandfathered.append(finding)
            else:
                result.new.append(finding)
        result.stale = sorted(
            key for key, count in remaining.items() if count > 0
        )
        return result
