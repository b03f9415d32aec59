#!/usr/bin/env python3
"""Nested bank transfers with failures — money conservation under aborts.

Each top-level transaction transfers money between two accounts using a
*nested* structure: the debit and the credit run as subtransactions (two
"simultaneous remote procedure calls", as the paper's introduction
motivates).  Accounts are objects of the bank-account data type managed
by the undo logging algorithm of Section 6.2, so deposits and successful
withdrawals exploit commutativity instead of read/write locks.

A fault injector aborts whole transfers at random.  The undo log excises
an aborted transfer's debit *and* credit together, so afterwards the
books still balance: total money = initial money + nothing.  Finally the
run is certified serially correct (Theorem 25).
"""

from repro.core.correctness import certify
from repro.core.events import StatusIndex, serial_projection, visible_projection
from repro.core.names import ROOT, ObjectName
from repro.core.operations import operation_payloads, operations_of_object
from repro.generic.system import make_generic_system
from repro.sim.driver import run_system
from repro.sim.faults import AbortInjector
from repro.sim.policies import RandomPolicy
from repro.sim.programs import TransactionProgram, op, seq, sub, system_type_for
from repro.spec.builtin import BankAccountType, Deposit, Withdraw
from repro.undo.logging import UndoLoggingObject

ACCOUNTS = [ObjectName(name) for name in ("alice", "bob", "carol", "dave")]
INITIAL = 100
# All debits hit alice's account: successful withdrawals commute backward
# (Weihl's example), so undo logging runs every transfer concurrently where
# read/write locking would serialise them on the hot account.
TRANSFERS = [
    ("alice", "bob", 10),
    ("alice", "carol", 20),
    ("alice", "dave", 5),
    ("alice", "bob", 15),
]


def transfer_program(source: str, target: str, amount: int) -> TransactionProgram:
    debit = seq(op(ObjectName(source), Withdraw(amount), "withdraw"))
    credit = seq(op(ObjectName(target), Deposit(amount), "deposit"))
    return TransactionProgram(
        (sub(debit, "debit"), sub(credit, "credit")),
        sequential=False,
        result=f"{source}->{target}:{amount}",
    )


def main() -> None:
    root = TransactionProgram(
        tuple(
            sub(transfer_program(src, dst, amount), f"transfer{i}")
            for i, (src, dst, amount) in enumerate(TRANSFERS)
        ),
        sequential=False,
    )
    programs = {ROOT: root}
    system_type = system_type_for(
        {account: BankAccountType(initial=INITIAL) for account in ACCOUNTS},
        programs,
    )

    system = make_generic_system(system_type, programs, UndoLoggingObject)
    policy = AbortInjector(
        RandomPolicy(seed=11),
        abort_rate=0.04,
        seed=11,
        victim_filter=lambda t: t.depth == 1,  # abort whole transfers only
        max_aborts=2,
    )
    result = run_system(
        system, policy, system_type, max_steps=6000, resolve_deadlocks=True
    )
    print(f"Run: {result.stats.summary()}")
    print(f"Injected transfer aborts: {policy.aborts_injected}\n")

    certificate = certify(result.behavior, system_type)
    print(certificate.explain())
    assert certificate.certified

    serial = serial_projection(result.behavior)
    index = StatusIndex(serial)
    visible = visible_projection(serial, ROOT, index)
    print("\nCommitted transfers:")
    for i in range(len(TRANSFERS)):
        from repro.core.names import TransactionName

        name = TransactionName((f"transfer{i}",))
        status = (
            "committed" if name in index.committed
            else "ABORTED" if name in index.aborted
            else "incomplete"
        )
        src, dst, amount = TRANSFERS[i]
        print(f"  {src:>6} -> {dst:<6} {amount:3d}   {status}")

    print("\nFinal committed balances:")
    total = 0
    for account in ACCOUNTS:
        spec = system_type.spec(account)
        ops = operations_of_object(visible, account, system_type)
        balance = spec.replay(operation_payloads(ops, system_type))
        total += balance
        print(f"  {account}: {balance}")
    expected = INITIAL * len(ACCOUNTS)
    print(f"\nTotal money: {total} (initially {expected}) — "
          f"{'conserved' if total == expected else 'NOT CONSERVED'}")
    assert total == expected


if __name__ == "__main__":
    main()
