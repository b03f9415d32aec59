"""The serial system: scheduler + serial objects + transaction automata.

Composes the fully specified serial scheduler with one serial object
automaton per object name and one transaction automaton per non-access
transaction (Section 2.2.4).  Besides the composition itself, this
module provides:

* :func:`make_serial_system` — build the composition for a set of
  transaction programs;
* :func:`enumerate_serial_behaviors` — exhaustively enumerate (bounded)
  serial behaviors of tiny systems, used to cross-validate the
  sequence-level validator in :mod:`repro.core.correctness` and the
  brute-force oracle.
"""

from __future__ import annotations

from typing import Iterator, List, Mapping, Optional, Tuple

from ..automata.base import IOAutomaton
from ..automata.composition import Composition
from ..core.actions import Action, Behavior
from ..core.names import ObjectName, SystemType, TransactionName
from ..core.rw_semantics import RWSpec
from ..spec.datatype import DataType
from ..sim.programs import ProgramTransaction, TransactionProgram, collect_programs
from .rw_object import SerialRWObject
from .scheduler import SerialScheduler
from .typed_object import SerialTypedObject

__all__ = [
    "serial_object_for",
    "make_serial_system",
    "enumerate_serial_behaviors",
]


def serial_object_for(obj: ObjectName, system_type: SystemType) -> IOAutomaton:
    """Instantiate the right serial object automaton for ``obj``'s spec."""
    spec = system_type.spec(obj)
    if isinstance(spec, RWSpec):
        return SerialRWObject(obj, system_type)
    if isinstance(spec, DataType):
        return SerialTypedObject(obj, system_type)
    raise TypeError(f"object {obj} has an unsupported spec: {spec!r}")


def make_serial_system(
    system_type: SystemType,
    programs: Mapping[TransactionName, TransactionProgram],
) -> Composition:
    """The serial system for the given programs (one per top-level name).

    Program entries include the root ``T0`` program implicitly: pass the
    top-level transactions keyed by their names; their parent is assumed
    to be ``T0`` and a root program requesting all of them is synthesised
    by the caller if desired.  Here we simply build automata for every
    non-access transaction in the (flattened) program map.
    """
    components: List[IOAutomaton] = [SerialScheduler()]
    for obj in system_type.object_names():
        components.append(serial_object_for(obj, system_type))
    for name, program in sorted(collect_programs(programs).items()):
        components.append(ProgramTransaction(name, program))
    return Composition(components, name="serial-system")


def enumerate_serial_behaviors(
    system: Composition,
    max_steps: int,
    max_behaviors: Optional[int] = None,
) -> Iterator[Behavior]:
    """Depth-first enumeration of behaviors of ``system`` up to ``max_steps``.

    Every prefix reached is yielded (behaviors are prefix-closed), so the
    caller can filter for e.g. quiescent behaviors.  All actions of the
    composed serial system are locally controlled (the environment is the
    root program transaction, itself a component), so enumeration walks
    ``enabled_outputs`` of the composite.  Exponential — tiny systems only.
    """
    count = 0

    def walk(state, prefix: Tuple[Action, ...]) -> Iterator[Behavior]:
        nonlocal count
        if max_behaviors is not None and count >= max_behaviors:
            return
        count += 1
        yield prefix
        if len(prefix) >= max_steps:
            return
        seen = set()
        for action in system.enabled_outputs(state):
            if action in seen:
                continue
            seen.add(action)
            yield from walk(system.effect(state, action), prefix + (action,))

    yield from walk(system.initial_state(), ())
