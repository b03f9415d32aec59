#!/usr/bin/env python3
"""Type-specific concurrency: undo logging vs read/write locking.

Section 6 of the paper generalises the serialization graph to arbitrary
data types so that algorithms can exploit *commutativity*.  This example
makes the gap concrete: many transactions increment one hotspot counter.

* Under Moss read/write locking the counter is a register: every
  increment is a read-modify-write and the writers serialise, blocking
  each other until commit.
* Under undo logging with the counter type, increments commute backward,
  so they all proceed concurrently; only a read must wait.

Both runs are certified serially correct — the difference is purely how
much concurrency the object admits (measured as blocked-access steps).
"""

from repro.core.correctness import certify
from repro.core.names import ROOT, ObjectName
from repro.core.rw_semantics import RWSpec
from repro.generic.system import make_generic_system
from repro.locking.moss import MossRWLockingObject
from repro.sim.driver import run_system
from repro.sim.policies import EagerInformPolicy
from repro.sim.programs import (
    TransactionProgram,
    op,
    read,
    seq,
    sub,
    system_type_for,
    write,
)
from repro.spec.builtin import CounterInc, CounterRead, CounterType
from repro.undo.logging import UndoLoggingObject

HOT = ObjectName("hits")
CLIENTS = 8


def locking_setup():
    """Counter as a register: increment = read then write (value baked in)."""
    # Every client writes a distinct value: under locking they serialise
    # anyway, so the final value is whichever committed last.
    programs = {
        ROOT: TransactionProgram(
            tuple(
                sub(seq(read(HOT, "r"), write(HOT, i + 1, "w")), f"client{i}")
                for i in range(CLIENTS)
            ),
            sequential=False,
        )
    }
    system_type = system_type_for({HOT: RWSpec(initial=0)}, programs)
    return system_type, programs, MossRWLockingObject


def undo_setup():
    """Counter as a counter: increments commute."""
    programs = {
        ROOT: TransactionProgram(
            tuple(
                sub(seq(op(HOT, CounterInc(1), "inc")), f"client{i}")
                for i in range(CLIENTS)
            )
            + (sub(seq(op(HOT, CounterRead(), "audit")), "auditor"),),
            sequential=False,
        )
    }
    system_type = system_type_for({HOT: CounterType(initial=0)}, programs)
    return system_type, programs, UndoLoggingObject


def run(label, setup):
    system_type, programs, factory = setup()
    system = make_generic_system(system_type, programs, factory)
    result = run_system(
        system,
        EagerInformPolicy(seed=4),
        system_type,
        max_steps=6000,
        collect_blocking=True,
        resolve_deadlocks=True,
    )
    certificate = certify(result.behavior, system_type)
    assert certificate.certified, certificate.explain()
    print(f"{label:24s} blocked-access steps: "
          f"{result.stats.blocked_access_steps:5d}   "
          f"committed: {result.stats.top_level_committed}   "
          f"deadlock victims: {result.stats.deadlock_aborts}")
    return result


def main() -> None:
    print(f"{CLIENTS} concurrent clients hammering one hotspot counter\n")
    locking = run("Moss RW locking", locking_setup)
    undo = run("undo logging (counter)", undo_setup)
    ratio = (locking.stats.blocked_access_steps + 1) / (
        undo.stats.blocked_access_steps + 1
    )
    print(f"\nCommutativity admitted ~{ratio:.1f}x less blocking; both runs "
          f"certified serially correct for T0.")


if __name__ == "__main__":
    main()
