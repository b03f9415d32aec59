#!/usr/bin/env python3
"""Per-object algorithm mixing — the modularity the paper argues for.

The introduction motivates modular proofs: "when one object is
reimplemented (for performance reasons) in a previously correct system,
the new system may be proved correct without needing to reconsider
those parts that have not changed."  Because Theorems 17/25 verify each
object *independently*, a single system may freely mix algorithms:

* ``inventory`` — a hot counter under **undo logging** (increments
  commute, so restock/sale transactions never block each other);
* ``ledger``   — an append-style register under **Moss RW locking**
  (the classical default);
* ``audit_log``— a FIFO queue under **read/update locking** (queues
  barely commute, so pessimistic exclusive locks are the right call).

One workload touches all three; the run is certified by the same
serialization-graph test, which never needed to know which algorithm
served which object.
"""

from repro.core.correctness import certify
from repro.core.names import ROOT, ObjectName
from repro.core.rw_semantics import RWSpec
from repro.generic.system import make_generic_system
from repro.locking.moss import MossRWLockingObject
from repro.locking.read_update import ReadUpdateLockingObject
from repro.sim.driver import run_system
from repro.sim.policies import EagerInformPolicy
from repro.sim.programs import TransactionProgram, op, read, seq, sub, system_type_for, write
from repro.spec.builtin import CounterInc, CounterRead, CounterType, Enqueue, QueueType
from repro.undo.logging import UndoLoggingObject

INVENTORY = ObjectName("inventory")
LEDGER = ObjectName("ledger")
AUDIT = ObjectName("audit_log")


def sale(i: int) -> TransactionProgram:
    return seq(
        op(INVENTORY, CounterInc(-1), "take"),
        write(LEDGER, f"sale#{i}", "record"),
        op(AUDIT, Enqueue(f"sale#{i}"), "log"),
        result=f"sold#{i}",
    )


def restock(i: int, amount: int) -> TransactionProgram:
    return seq(
        op(INVENTORY, CounterInc(amount), "add"),
        op(AUDIT, Enqueue(f"restock#{i}"), "log"),
        result=f"restocked#{i}",
    )


def audit() -> TransactionProgram:
    return seq(
        op(INVENTORY, CounterRead(), "count"),
        read(LEDGER, "last_entry"),
        result="audited",
    )


def main() -> None:
    calls = (
        sub(sale(0), "sale0"),
        sub(restock(0, 10), "restock0"),
        sub(sale(1), "sale1"),
        sub(audit(), "audit"),
        sub(sale(2), "sale2"),
    )
    programs = {ROOT: TransactionProgram(calls, sequential=False)}
    system_type = system_type_for(
        {
            INVENTORY: CounterType(initial=100),
            LEDGER: RWSpec(initial="<empty>"),
            AUDIT: QueueType(),
        },
        programs,
    )
    factories = {
        INVENTORY: UndoLoggingObject,
        LEDGER: MossRWLockingObject,
        AUDIT: ReadUpdateLockingObject,
    }
    system = make_generic_system(system_type, programs, factories)
    result = run_system(
        system,
        EagerInformPolicy(seed=5),
        system_type,
        max_steps=8000,
        resolve_deadlocks=True,
    )
    print(f"Run: {result.stats.summary()}\n")

    certificate = certify(result.behavior, system_type)
    print(certificate.explain())
    assert certificate.certified

    print("\nObject algorithms in this one system:")
    for obj, factory in factories.items():
        print(f"  {str(obj):12s} -> {factory.__name__}")
    print("\nThe certifier never knew which algorithm served which object —")
    print("each generic object is verified independently, so they compose.")


if __name__ == "__main__":
    main()
