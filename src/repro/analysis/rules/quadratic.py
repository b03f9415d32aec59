"""R003 — no quadratic membership patterns in hot paths.

The certifier's hot paths (``repro.core``, ``repro.stream``) were made
sub-quadratic on
purpose (PR 3's history index); this rule keeps accidental quadratic
patterns from creeping back.  Inside any ``for``/``while`` loop in a
hot-path module it flags:

* membership tests against a list-producing expression — ``x in [...]``,
  ``x in list(...)``, ``x in sorted(...)``, ``x in [.. for ..]`` — which
  re-scan O(n) per iteration (use a set/dict built once outside);
* ``.index()`` calls, which are a linear scan per iteration;
* ``project_transaction``/``project_object`` calls without an ``index``,
  each of which scans the whole behavior (pass a covering
  ``HistoryIndex`` for its cached slices, or group the behavior once
  outside the loop).

A ``for`` loop's iterable is evaluated once, so it counts as outside
that loop.

Deliberately quadratic code (bounded domains, diagnostics) is tagged
``# lint: allow-quadratic`` on the offending line *or* on the header
line of the enclosing loop.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from ..linter import Finding, LintContext, ModuleUnit, Rule

__all__ = ["QuadraticPatternRule"]

#: Builtins whose call result is a freshly-built list.
_LIST_BUILTINS = ("list", "sorted")

#: ``repro.core.events`` projections that scan the whole behavior unless
#: given an index, mapped to the position of their ``index`` argument.
_SCANNING_PROJECTIONS = {"project_transaction": 2, "project_object": 3}


def _is_list_expression(node: ast.expr) -> bool:
    """Is this expression guaranteed to evaluate to a (fresh) list?"""
    if isinstance(node, (ast.List, ast.ListComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _LIST_BUILTINS
    )


def _is_unindexed_projection(node: ast.Call) -> bool:
    """Is this a behavior projection call that passes no ``index``?

    ``HistoryIndex.project_transaction(T)`` and friends take one
    argument, so only calls with the behavior argument(s) count.
    """
    func = node.func
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    else:
        return False
    position = _SCANNING_PROJECTIONS.get(name)
    if position is None or any(isinstance(a, ast.Starred) for a in node.args):
        return False
    if len(node.args) > position:
        index: ast.expr = node.args[position]
    else:
        keywords = {k.arg: k.value for k in node.keywords}
        if None in keywords:  # ``**kwargs`` may carry the index
            return False
        if "index" not in keywords:
            return len(node.args) == position
        index = keywords["index"]
    return isinstance(index, ast.Constant) and index.value is None


class QuadraticPatternRule(Rule):
    """R003: no per-iteration linear scans inside hot-path loops."""

    rule_id = "R003"
    title = "no quadratic patterns in core/stream hot paths"
    tags = ("quadratic",)

    #: Path components marking a module as hot-path.  ``columnar.py``
    #: is listed by file name as well as via its ``core`` package, so
    #: the engine stays gated even if it ever moves out of core.
    hot_parts: Tuple[str, ...] = ("core", "stream", "distributed", "columnar.py")

    def check_module(
        self, unit: ModuleUnit, context: LintContext
    ) -> Iterator[Finding]:
        """Scan hot-path modules for quadratic loop bodies."""
        if not any(part in unit.path.parts for part in self.hot_parts):
            return
        yield from self._scan(unit, unit.tree, loop_headers=[])

    def _scan(
        self, unit: ModuleUnit, node: ast.AST, loop_headers: List[int]
    ) -> Iterator[Finding]:
        """Depth-first walk tracking the enclosing loop header lines."""
        for child in ast.iter_child_nodes(node):
            yield from self._visit(unit, child, loop_headers)

    def _visit(
        self, unit: ModuleUnit, node: ast.AST, loop_headers: List[int]
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            # the iterable and the else clause run once, outside the loop
            yield from self._visit(unit, node.iter, loop_headers)
            inner = loop_headers + [node.lineno]
            for part in [node.target, *node.body]:
                yield from self._visit(unit, part, inner)
            for part in node.orelse:
                yield from self._visit(unit, part, loop_headers)
            return
        if isinstance(node, ast.While):
            yield from self._scan(unit, node, loop_headers + [node.lineno])
            return
        if loop_headers and not self._headers_allow(unit, loop_headers):
            yield from self._check_node(unit, node)
        yield from self._scan(unit, node, loop_headers)

    def _headers_allow(self, unit: ModuleUnit, loop_headers: List[int]) -> bool:
        tags = self.suppression_tags()
        return any(unit.line_allows(line, tags) for line in loop_headers)

    def _check_node(self, unit: ModuleUnit, node: ast.AST) -> Iterator[Finding]:
        if isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
        ):
            for comparator in node.comparators:
                if _is_list_expression(comparator):
                    yield Finding(
                        self.rule_id,
                        unit.display_path,
                        node.lineno,
                        "membership test against a list inside a loop — "
                        "build a set once outside the loop "
                        "(or tag '# lint: allow-quadratic')",
                    )
        elif isinstance(node, ast.Call) and _is_unindexed_projection(node):
            yield Finding(
                self.rule_id,
                unit.display_path,
                node.lineno,
                "projection without an index inside a loop is a full scan "
                "per iteration — pass a covering HistoryIndex or group the "
                "behavior once outside the loop "
                "(or tag '# lint: allow-quadratic')",
            )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "index"
        ):
            yield Finding(
                self.rule_id,
                unit.display_path,
                node.lineno,
                ".index() inside a loop is a linear scan per iteration — "
                "precompute a position map "
                "(or tag '# lint: allow-quadratic')",
            )
