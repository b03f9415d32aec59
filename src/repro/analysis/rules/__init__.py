"""The project-specific lint rule registry.

Rules are instantiated fresh per :func:`all_rules` call so engines never
share mutable state.  The catalogue (ids, what each rule proves, and the
suppression tags) is documented in ``docs/STATIC_ANALYSIS.md``; adding a
rule means adding a module here, registering its class in
``_RULE_CLASSES``, and documenting it there.
"""

from __future__ import annotations

from typing import List, Sequence, Type

from ..linter import Rule
from .ab_flags import ABFlagRule
from .hygiene import HygieneRule
from .quadratic import QuadraticPatternRule
from .automaton import AutomatonPreconditionRule
from .programs import ProgramRegistryRule

__all__ = ["all_rules", "rule_by_id"]

_RULE_CLASSES: Sequence[Type[Rule]] = (
    ABFlagRule,
    HygieneRule,
    QuadraticPatternRule,
    AutomatonPreconditionRule,
    ProgramRegistryRule,
)


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in id order."""
    return [cls() for cls in _RULE_CLASSES]


def rule_by_id(rule_id: str) -> Rule:
    """Instantiate the rule with the given id (case-insensitive).

    Raises ``KeyError`` with the known ids when the id is unknown.
    """
    wanted = rule_id.upper()
    for cls in _RULE_CLASSES:
        if cls.rule_id.upper() == wanted:
            return cls()
    known = ", ".join(cls.rule_id for cls in _RULE_CLASSES)
    raise KeyError(f"unknown rule {rule_id!r} (known: {known})")
