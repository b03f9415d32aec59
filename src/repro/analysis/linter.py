"""The AST lint engine: findings, rules, suppression, and the driver.

The engine parses every Python module under a root into a
:class:`ModuleUnit` (source, AST, per-line suppression tags) and runs
each registered :class:`Rule` over each unit.  Rules are pure: they
yield :class:`Finding` objects and never mutate the unit.  Findings
carry the rule id, a repo-relative path, a 1-based line and a message —
exactly what the CLI renders as text or JSON.

Suppression is comment-driven, per line::

    holders = [h for h in chain if h in doomed]  # lint: allow-quadratic
    print(table)                                 # lint: allow-R002

``# lint: allow-<RULE-ID>`` silences that rule on that physical line;
each rule also registers a human tag (``quadratic`` for R003, ...) as
an alias.  A module whose first two lines contain ``# lint: skip-file``
is not linted at all.  The engine applies suppression after the rules
run, so rules stay oblivious to it (R003 additionally honours the tag
on the header line of the enclosing loop, which it resolves itself
through :meth:`ModuleUnit.line_allows`).
"""

from __future__ import annotations

import ast
import os
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Finding",
    "ModuleUnit",
    "LintContext",
    "Rule",
    "LintEngine",
    "lint_paths",
    "python_files",
]

#: ``# lint: allow-R003`` or ``# lint: allow-quadratic`` (comma-separable).
_ALLOW_RE = re.compile(r"#\s*lint:\s*allow-([A-Za-z0-9_,\-]+)")
_SKIP_FILE_RE = re.compile(r"#\s*lint:\s*skip-file")


@dataclass(frozen=True)
class Finding:
    """One lint finding: rule id, location, and a human-readable message."""

    rule: str
    path: str
    line: int
    message: str

    def to_dict(self) -> Dict[str, object]:
        """The JSON shape emitted by ``repro lint --json``."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


class ModuleUnit:
    """One parsed module: path, source text, AST, and suppression tags."""

    def __init__(self, path: Path, source: str, display_path: str) -> None:
        self.path = path
        self.display_path = display_path
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree: ast.Module = ast.parse(source, filename=str(path))
        #: line number (1-based) -> lowercased allow tags on that line
        self.allows: Dict[int, Set[str]] = {}
        for number, text in enumerate(self.lines, start=1):
            match = _ALLOW_RE.search(text)
            if match:
                tags = {tag.strip().lower() for tag in match.group(1).split(",")}
                self.allows[number] = {tag for tag in tags if tag}

    @property
    def skip_file(self) -> bool:
        """True when the module opts out of linting entirely."""
        head = self.lines[:2]
        return any(_SKIP_FILE_RE.search(text) for text in head)

    def line_allows(self, line: int, tags: Iterable[str]) -> bool:
        """True when ``line`` carries any of the (lowercased) allow tags."""
        present = self.allows.get(line)
        if not present:
            return False
        return any(tag.lower() in present for tag in tags)


@dataclass
class LintContext:
    """Cross-module facts the rules need.

    ``root`` is the linted source root (``src/repro``); ``tests_root``
    lets R001 verify A/B flags are exercised both ways by the test
    suite; ``units`` is the full parsed corpus, so rules can reason
    across modules (registered by the engine before rules run).
    """

    root: Path
    tests_root: Optional[Path] = None
    units: List[ModuleUnit] = field(default_factory=list)
    _test_flag_values: Optional[Dict[str, Set[bool]]] = None

    def test_flag_values(self, flags: Sequence[str]) -> Dict[str, Set[bool]]:
        """Boolean values each keyword ``flag`` is called with in tests.

        Scans every Python file under ``tests_root`` once and caches the
        result: ``{"compaction": {True, False}, ...}``.  Two call shapes
        count: a literal ``flag=True``/``flag=False`` keyword, and
        ``flag=<name>`` where ``<name>`` is bound by a pytest fixture
        (``@pytest.fixture(params=[True, False])``) or by
        ``parametrize("<name>", [...])`` to boolean constants.  Missing
        tests root yields empty sets (R001 then reports the flags as
        uncovered).
        """
        if self._test_flag_values is None:
            values: Dict[str, Set[bool]] = {flag: set() for flag in flags}
            bound: Dict[str, Set[bool]] = {}
            indirect: List[Tuple[str, str]] = []  # (flag, referenced name)
            if self.tests_root is not None and self.tests_root.is_dir():
                for path in python_files(self.tests_root):
                    try:
                        tree = ast.parse(path.read_text(), filename=str(path))
                    except SyntaxError:
                        continue
                    _collect_param_bindings(tree, bound)
                    for node in ast.walk(tree):
                        if not isinstance(node, ast.Call):
                            continue
                        for keyword in node.keywords:
                            if keyword.arg not in values:
                                continue
                            value = keyword.value
                            if isinstance(value, ast.Constant) and isinstance(
                                value.value, bool
                            ):
                                values[keyword.arg].add(value.value)
                            elif isinstance(value, ast.Name):
                                indirect.append((keyword.arg, value.id))
            for flag, name in indirect:
                values[flag] |= bound.get(name, set())
            self._test_flag_values = values
        missing = [flag for flag in flags if flag not in self._test_flag_values]
        for flag in missing:
            self._test_flag_values[flag] = set()
        return self._test_flag_values


def _bool_constants(node: ast.expr) -> Set[bool]:
    """The boolean constants in a list/tuple literal (ignores the rest)."""
    found: Set[bool] = set()
    if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        for element in node.elts:
            if isinstance(element, ast.Constant) and isinstance(element.value, bool):
                found.add(element.value)
    return found


def _collect_param_bindings(tree: ast.Module, bound: Dict[str, Set[bool]]) -> None:
    """Names bound to boolean values by pytest fixtures/parametrize.

    Records ``name -> {True, False, ...}`` for (a) fixture functions
    decorated ``@pytest.fixture(params=[...])`` and (b)
    ``parametrize("name", [...])`` calls (single-name form only).
    """
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                if not isinstance(decorator, ast.Call):
                    continue
                func = decorator.func
                name = func.attr if isinstance(func, ast.Attribute) else (
                    func.id if isinstance(func, ast.Name) else None
                )
                if name != "fixture":
                    continue
                for keyword in decorator.keywords:
                    if keyword.arg == "params":
                        booleans = _bool_constants(keyword.value)
                        if booleans:
                            bound.setdefault(node.name, set()).update(booleans)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name != "parametrize" or len(node.args) < 2:
                continue
            first = node.args[0]
            if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
                continue
            if "," in first.value:
                continue  # multi-name form: positions are ambiguous here
            booleans = _bool_constants(node.args[1])
            if booleans:
                bound.setdefault(first.value.strip(), set()).update(booleans)


class Rule:
    """Base class for lint rules.

    Subclasses set ``rule_id`` (``"R001"``), ``tags`` (suppression
    aliases), a one-line ``title``, and implement :meth:`check_module`.
    """

    rule_id: str = "R000"
    title: str = "abstract rule"
    #: Suppression aliases (``# lint: allow-<tag>``); the rule id always works.
    tags: Tuple[str, ...] = ()

    def check_module(
        self, unit: ModuleUnit, context: LintContext
    ) -> Iterator[Finding]:
        """Yield findings for one module; default checks nothing."""
        return iter(())

    def suppression_tags(self) -> Tuple[str, ...]:
        """Every tag that silences this rule (id + aliases, lowercased)."""
        return tuple({self.rule_id.lower(), *(tag.lower() for tag in self.tags)})


def python_files(root: Path) -> List[Path]:
    """All ``*.py`` files under ``root`` (or just ``root``), sorted."""
    if root.is_file():
        return [root]
    return sorted(
        path
        for path in root.rglob("*.py")
        if "__pycache__" not in path.parts
    )


class LintEngine:
    """Run a set of rules over a source tree and collect findings."""

    def __init__(self, rules: Sequence[Rule], context: LintContext) -> None:
        self.rules = list(rules)
        self.context = context
        self.parse_errors: List[Finding] = []

    def load(self, paths: Iterable[Path]) -> List[ModuleUnit]:
        """Parse ``paths`` into units, recording syntax errors as findings."""
        units: List[ModuleUnit] = []
        for path in paths:
            display = _display_path(path, self.context.root)
            try:
                source = path.read_text()
                unit = ModuleUnit(path, source, display)
            except (OSError, SyntaxError, UnicodeDecodeError, tokenize.TokenError) as exc:
                line = getattr(exc, "lineno", 1) or 1
                self.parse_errors.append(
                    Finding("E000", display, line, f"cannot parse module: {exc}")
                )
                continue
            if not unit.skip_file:
                units.append(unit)
        self.context.units = units
        return units

    def run(self, units: Sequence[ModuleUnit]) -> List[Finding]:
        """Apply every rule to every unit, honouring per-line suppression."""
        findings: List[Finding] = list(self.parse_errors)
        for rule in self.rules:
            tags = rule.suppression_tags()
            for unit in units:
                for finding in rule.check_module(unit, self.context):
                    if unit.line_allows(finding.line, tags):
                        continue
                    findings.append(finding)
        findings.sort(key=lambda f: (f.path, f.line, f.rule))
        return findings


def _display_path(path: Path, root: Path) -> str:
    """``path`` relative to the repository root when possible."""
    if root.is_file():
        repo_root = Path.cwd()
    elif root.name == "repro":
        repo_root = root.parent.parent
    else:
        repo_root = root
    try:
        return os.path.relpath(path, repo_root)
    except ValueError:  # different drive (Windows); keep it absolute
        return str(path)


def lint_paths(
    root: Path,
    rules: Sequence[Rule],
    tests_root: Optional[Path] = None,
) -> List[Finding]:
    """Convenience one-shot: parse everything under ``root`` and lint it."""
    context = LintContext(root=root, tests_root=tests_root)
    engine = LintEngine(rules, context)
    units = engine.load(python_files(root))
    return engine.run(units)
