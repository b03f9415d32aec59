"""Drift detectors: keep the docs honest about code, both directions.

Two inventories rot silently as the code moves:

* **Metric names** — every counter/gauge/histogram the library emits
  through :class:`repro.obs.metrics.MetricsRegistry` is catalogued in
  ``docs/OBSERVABILITY.md`` under the heading ``## Metric names emitted
  by the instrumented library`` (the *canonical inventory* this module
  parses).  An emitted-but-undocumented metric is invisible to
  operators; a documented-but-gone metric sends them hunting for data
  that will never arrive.  Rule **D001**, both directions.
* **Experiment scripts** — ``EXPERIMENTS.md`` names the
  ``benchmarks/bench_*.py`` script that reproduces each experiment.  A
  referenced-but-missing script breaks reproduction; a present-but-
  unreferenced script is an experiment nobody can find.  Rule **D002**,
  both directions.

Extraction is syntactic (:mod:`ast` for source, a backtick scan for
docs) so the detectors run without importing — or executing — any of
the checked code.  Dynamic metric names built from f-strings (e.g.
``span.{name}``) become *wildcard prefixes*; the docs declare them with
an angle-bracket placeholder (``span.<name>``).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Set, Tuple

from .linter import python_files

__all__ = [
    "DriftProblem",
    "METRICS_DOC_HEADING",
    "source_metric_names",
    "documented_metric_names",
    "check_metrics_drift",
    "check_benchmark_drift",
    "check_all_drift",
]

#: The OBSERVABILITY.md heading opening the canonical metric inventory.
METRICS_DOC_HEADING = "## Metric names emitted by the instrumented library"

#: MetricsRegistry methods whose first argument is a metric name.
_REGISTRY_METHODS = frozenset(
    {"inc", "set_gauge", "observe", "counter", "gauge", "histogram"}
)

#: Module-level wiring helpers called as plain names whose argument at
#: the given index is a metric name (``latency_histogram(registry,
#: "stream.latency.x")`` routes a registry write just like a method
#: call, so its names are checked against the same inventory).
_HELPER_FUNCTIONS: Dict[str, int] = {"latency_histogram": 1}

#: A documented metric token: dotted lowercase, optional <placeholder>.
_DOC_TOKEN_RE = re.compile(r"`([a-z][a-z0-9_.]*\.(?:[a-z0-9_.]|<[A-Za-z0-9_]*>)*)`")

#: A benchmark script reference in EXPERIMENTS.md.
_BENCH_RE = re.compile(r"\bbench_[a-z0-9_]+\.py\b")


@dataclass(frozen=True)
class DriftProblem:
    """One source/docs disagreement."""

    rule: str  # "D001" (metrics) | "D002" (benchmarks)
    kind: str  # "undocumented" | "stale_doc" | "missing_script" | "orphan_script"
    detail: str

    def to_dict(self) -> Dict[str, str]:
        """The JSON shape emitted by ``repro lint --json``."""
        return {"rule": self.rule, "kind": self.kind, "detail": self.detail}

    def __str__(self) -> str:
        return f"drift: {self.rule} [{self.kind}] {self.detail}"


def _constant_names(expression: ast.expr) -> Tuple[Set[str], Set[str]]:
    """``(exact, prefixes)`` metric names one argument expression yields."""
    exact: Set[str] = set()
    prefixes: Set[str] = set()
    if isinstance(expression, ast.Constant) and isinstance(expression.value, str):
        exact.add(expression.value)
    elif isinstance(expression, ast.IfExp):
        for branch in (expression.body, expression.orelse):
            branch_exact, branch_prefixes = _constant_names(branch)
            exact |= branch_exact
            prefixes |= branch_prefixes
    elif isinstance(expression, ast.JoinedStr):
        parts: List[str] = []
        for value in expression.values:
            if isinstance(value, ast.Constant):
                parts.append(str(value.value))
            else:
                break
        prefix = "".join(parts)
        if prefix:
            prefixes.add(prefix)
    return exact, prefixes


def source_metric_names(source_root: Path) -> Tuple[Set[str], Set[str]]:
    """``(exact, prefixes)`` metric names emitted under ``source_root``.

    Scans every registry-method call whose first argument is a string
    constant, a conditional expression over string constants, or an
    f-string (the constant head becomes a wildcard prefix) — plus the
    plain-name wiring helpers in :data:`_HELPER_FUNCTIONS`, whose
    metric-name argument sits at a helper-specific index.
    """
    exact: Set[str] = set()
    prefixes: Set[str] = set()
    for path in python_files(source_root):
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError:  # the linter reports this as E000
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name_argument = None
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _REGISTRY_METHODS
                and node.args
            ):
                name_argument = node.args[0]
            elif isinstance(node.func, ast.Name):
                index = _HELPER_FUNCTIONS.get(node.func.id)
                if index is not None and len(node.args) > index:
                    name_argument = node.args[index]
            if name_argument is not None:
                node_exact, node_prefixes = _constant_names(name_argument)
                exact |= node_exact
                prefixes |= node_prefixes
    return exact, prefixes


def documented_metric_names(doc_path: Path) -> Tuple[Set[str], Set[str]]:
    """``(exact, prefixes)`` metric names the canonical inventory declares.

    Only the section opened by :data:`METRICS_DOC_HEADING` (up to the
    next ``## `` heading) is parsed; a backticked ``name.<placeholder>``
    token declares the wildcard prefix ``name.``.  Backticked module
    paths (``repro.*``) are ignored.
    """
    exact: Set[str] = set()
    prefixes: Set[str] = set()
    text = doc_path.read_text(encoding="utf-8")
    start = text.find(METRICS_DOC_HEADING)
    if start < 0:
        return exact, prefixes
    body = text[start + len(METRICS_DOC_HEADING):]
    end = body.find("\n## ")
    if end >= 0:
        body = body[:end]
    for token in _DOC_TOKEN_RE.findall(body):
        if token.startswith("repro."):
            continue
        marker = token.find("<")
        if marker >= 0:
            prefix = token[:marker]
            if prefix:
                prefixes.add(prefix)
        else:
            exact.add(token)
    return exact, prefixes


def _covered(name: str, exact: Set[str], prefixes: Set[str]) -> bool:
    return name in exact or any(name.startswith(prefix) for prefix in prefixes)


def check_metrics_drift(source_root: Path, doc_path: Path) -> List[DriftProblem]:
    """D001: source metric emissions vs the OBSERVABILITY.md inventory."""
    problems: List[DriftProblem] = []
    if not doc_path.is_file():
        return [
            DriftProblem(
                "D001", "stale_doc", f"metric inventory {doc_path} does not exist"
            )
        ]
    src_exact, src_prefixes = source_metric_names(source_root)
    doc_exact, doc_prefixes = documented_metric_names(doc_path)
    if not doc_exact and not doc_prefixes:
        return [
            DriftProblem(
                "D001",
                "stale_doc",
                f"{doc_path.name} has no '{METRICS_DOC_HEADING}' inventory",
            )
        ]
    for name in sorted(src_exact):
        if not _covered(name, doc_exact, doc_prefixes):
            problems.append(
                DriftProblem(
                    "D001",
                    "undocumented",
                    f"metric '{name}' is emitted but missing from the "
                    f"{doc_path.name} inventory",
                )
            )
    for prefix in sorted(src_prefixes):
        if prefix not in doc_prefixes:
            problems.append(
                DriftProblem(
                    "D001",
                    "undocumented",
                    f"dynamic metric family '{prefix}<...>' is emitted but "
                    f"missing from the {doc_path.name} inventory",
                )
            )
    for name in sorted(doc_exact):
        if not _covered(name, src_exact, src_prefixes):
            problems.append(
                DriftProblem(
                    "D001",
                    "stale_doc",
                    f"metric '{name}' is documented in {doc_path.name} but "
                    "never emitted by the source",
                )
            )
    for prefix in sorted(doc_prefixes):
        if prefix not in src_prefixes and not any(
            name.startswith(prefix) for name in src_exact
        ):
            problems.append(
                DriftProblem(
                    "D001",
                    "stale_doc",
                    f"dynamic metric family '{prefix}<...>' is documented in "
                    f"{doc_path.name} but never emitted by the source",
                )
            )
    return problems


def check_benchmark_drift(
    experiments_path: Path, benchmarks_dir: Path
) -> List[DriftProblem]:
    """D002: EXPERIMENTS.md script references vs ``benchmarks/bench_*.py``."""
    problems: List[DriftProblem] = []
    if not experiments_path.is_file():
        return [
            DriftProblem(
                "D002",
                "stale_doc",
                f"experiment inventory {experiments_path} does not exist",
            )
        ]
    referenced = set(_BENCH_RE.findall(experiments_path.read_text(encoding="utf-8")))
    present = {path.name for path in benchmarks_dir.glob("bench_*.py")}
    for name in sorted(referenced - present):
        problems.append(
            DriftProblem(
                "D002",
                "missing_script",
                f"{experiments_path.name} references benchmarks/{name}, "
                "which does not exist",
            )
        )
    for name in sorted(present - referenced):
        problems.append(
            DriftProblem(
                "D002",
                "orphan_script",
                f"benchmarks/{name} exists but no experiment in "
                f"{experiments_path.name} references it",
            )
        )
    return problems


def check_all_drift(repo_root: Path) -> List[DriftProblem]:
    """Run every drift detector rooted at the repository top level."""
    repo_root = Path(repo_root)
    problems = check_metrics_drift(
        repo_root / "src" / "repro", repo_root / "docs" / "OBSERVABILITY.md"
    )
    problems.extend(
        check_benchmark_drift(
            repo_root / "EXPERIMENTS.md", repo_root / "benchmarks"
        )
    )
    return problems
