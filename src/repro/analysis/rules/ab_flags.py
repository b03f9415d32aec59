"""R001 — A/B engine flags must keep both code paths alive.

The ``indexed=`` (naive vs history-index graph construction) and
``compaction=`` (uncompacted vs compacted online engine) keyword flags
exist so every optimised engine retains its executable baseline.  The
rule enforces two properties for every function that *declares* such a
flag with a boolean default:

1. **Both branches reachable** — the flag is actually consulted: the
   defining module contains a conditional whose test reads the flag (a
   plain name or a stored ``self.<flag>`` attribute), or the declaring
   function forwards the flag as a same-named keyword argument to the
   layer below (pure delegation).  A declared-but-never-branching flag
   means one engine silently died.
2. **Both values exercised by tests** — somewhere under the tests root
   the flag is passed as both ``<flag>=True`` and ``<flag>=False``; an
   A/B flag only one side of which is tested is not an A/B flag.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from ..linter import Finding, LintContext, ModuleUnit, Rule

__all__ = ["ABFlagRule", "AB_FLAGS"]

#: The keyword flags that select between A/B engine implementations.
AB_FLAGS: Tuple[str, ...] = (
    "indexed",
    "compaction",
    "columnar",
    "validate",
)

_FunctionNode = (ast.FunctionDef, ast.AsyncFunctionDef)


def _declared_flags(node: ast.AST) -> List[Tuple[str, ast.arg]]:
    """A/B flags declared by ``node`` with a boolean-constant default."""
    if not isinstance(node, _FunctionNode):
        return []
    args = node.args
    declared: List[Tuple[str, ast.arg]] = []
    positional = args.posonlyargs + args.args
    pos_defaults = args.defaults
    offset = len(positional) - len(pos_defaults)
    for index, arg in enumerate(positional):
        if arg.arg not in AB_FLAGS or index < offset:
            continue
        default = pos_defaults[index - offset]
        if isinstance(default, ast.Constant) and isinstance(default.value, bool):
            declared.append((arg.arg, arg))
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if (
            arg.arg in AB_FLAGS
            and isinstance(default, ast.Constant)
            and isinstance(default.value, bool)
        ):
            declared.append((arg.arg, arg))
    return declared


def _reads_flag(expression: ast.AST, flag: str) -> bool:
    """True when the expression subtree reads ``flag`` (name or attribute)."""
    for node in ast.walk(expression):
        if isinstance(node, ast.Name) and node.id == flag:
            return True
        if isinstance(node, ast.Attribute) and node.attr == flag:
            return True
    return False


def _module_branches_on(tree: ast.Module, flag: str) -> bool:
    """Does any conditional test in the module consult the flag?"""
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.IfExp, ast.While)):
            if _reads_flag(node.test, flag):
                return True
    return False


def _function_forwards(function: ast.AST, flag: str) -> bool:
    """Does the function forward the flag as a same-named keyword?"""
    for node in ast.walk(function):
        if isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg == flag and _reads_flag(keyword.value, flag):
                    return True
    return False


class ABFlagRule(Rule):
    """R001: every A/B flag branches somewhere and is tested both ways."""

    rule_id = "R001"
    title = "A/B engine flags must keep both paths alive"
    tags = ("ab-flag",)

    def check_module(
        self, unit: ModuleUnit, context: LintContext
    ) -> Iterator[Finding]:
        """Check every function declaring an A/B flag in this module."""
        coverage = context.test_flag_values(AB_FLAGS)
        reported_coverage: Set[str] = set()
        for node in ast.walk(unit.tree):
            for flag, arg in _declared_flags(node):
                assert isinstance(node, _FunctionNode)
                if not (
                    _module_branches_on(unit.tree, flag)
                    or _function_forwards(node, flag)
                ):
                    yield Finding(
                        self.rule_id,
                        unit.display_path,
                        node.lineno,
                        f"A/B flag '{flag}=' of {node.name}() is never "
                        "consulted by a conditional or forwarded — one "
                        "engine path is dead",
                    )
                missing = {True, False} - coverage.get(flag, set())
                if missing and flag not in reported_coverage:
                    reported_coverage.add(flag)
                    values = " and ".join(
                        f"{flag}={value}" for value in sorted(missing, key=str)
                    )
                    yield Finding(
                        self.rule_id,
                        unit.display_path,
                        node.lineno,
                        f"A/B flag '{flag}=' of {node.name}() is not "
                        f"exercised with {values} anywhere in the test "
                        "suite",
                    )
