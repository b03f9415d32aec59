"""Assembling generic systems (Section 5.1).

A generic system composes: one transaction automaton per non-access
transaction, one generic object automaton per object name, and the
generic controller.  :func:`make_generic_system` builds the composition
from transaction programs and an object factory — pass
:class:`repro.locking.moss.MossRWLockingObject` for Moss' algorithm or
:class:`repro.undo.logging.UndoLoggingObject` for undo logging (or any
:class:`repro.generic.objects.GenericObject` subclass, including
per-object mixes, which the modular proof technique explicitly allows).
"""

from __future__ import annotations

from typing import Callable, List, Mapping

from ..automata.base import IOAutomaton
from ..automata.composition import Composition
from ..core.names import ObjectName, SystemType, TransactionName
from ..generic.controller import GenericController
from ..generic.objects import GenericObject
from ..sim.programs import ProgramTransaction, TransactionProgram, collect_programs

__all__ = ["ObjectFactory", "make_generic_system"]

ObjectFactory = Callable[[ObjectName, SystemType], GenericObject]


def make_generic_system(
    system_type: SystemType,
    programs: Mapping[TransactionName, TransactionProgram],
    object_factory: ObjectFactory,
    name: str = "generic-system",
) -> Composition:
    """Compose transactions, generic objects and the generic controller.

    ``object_factory`` may also be a mapping from object name to factory
    when different objects use different algorithms.
    """
    components: List[IOAutomaton] = [GenericController(system_type)]
    for obj in system_type.object_names():
        if isinstance(object_factory, Mapping):
            factory = object_factory[obj]
        else:
            factory = object_factory
        generic_object = factory(obj, system_type)
        if not isinstance(generic_object, GenericObject):
            raise TypeError(f"factory for {obj} did not build a GenericObject")
        components.append(generic_object)
    for transaction, program in sorted(collect_programs(programs).items()):
        components.append(ProgramTransaction(transaction, program))
    return Composition(components, name=name)
