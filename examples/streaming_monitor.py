#!/usr/bin/env python3
"""Streaming audit: watch a live system with the online certifier.

A monitoring deployment cannot wait for the run to finish; it judges the
event stream as it happens.  This example feeds a recorded run into
:class:`repro.core.online.OnlineCertifier` one action at a time and logs every
verdict *transition* — including the subtle non-monotone moment where a
read of a not-yet-committed write looks like an ARV violation until the
writer's commit arrives and heals it.
"""

from repro.core.actions import Commit
from repro.core.correctness import certify
from repro.core.online import OnlineCertifier


def build_scenario():
    """A run whose verdict changes twice while streaming."""
    # local lightweight builder to keep the example self-contained
    from repro.core.actions import (
        Abort,
        Create,
        ReportAbort,
        ReportCommit,
        RequestCommit,
        RequestCreate,
    )
    from repro.core.names import Access, ObjectName, SystemType, TransactionName
    from repro.core.rw_semantics import OK, ReadOp, RWSpec, WriteOp

    system = SystemType({ObjectName("x"): RWSpec(initial=0)})
    events = []

    def begin(name):
        txn = TransactionName((name,))
        events.extend([RequestCreate(txn), Create(txn)])
        return txn

    def access(parent, comp, operation, value, commit=True):
        leaf = parent.child(comp)
        system.register_access(leaf, Access(ObjectName("x"), operation))
        events.extend(
            [RequestCreate(leaf), Create(leaf), RequestCommit(leaf, value)]
        )
        if commit:
            events.extend([Commit(leaf), ReportCommit(leaf, value)])
        return leaf

    def commit(txn):
        events.extend(
            [RequestCommit(txn, "done"), Commit(txn), ReportCommit(txn, "done")]
        )

    t1, t2 = begin("t1"), begin("t2")
    access(t1, "w", WriteOp(5), OK)       # t1 writes 5 (t1 still uncommitted)
    access(t2, "r", ReadOp(), 5)          # t2 reads 5 — looks dirty for now!
    commit(t2)                            # t2 commits: ARV violation appears
    commit(t1)                            # t1 commits: the violation heals
    return tuple(events), system


def main() -> None:
    behavior, system = build_scenario()
    certifier = OnlineCertifier(system)
    last = None
    print("streaming", len(behavior), "events:\n")
    for position, action in enumerate(behavior):
        certifier.feed(action)
        verdict = certifier.verdict()
        state = (
            "OK"
            if verdict.certified
            else ("ARV" if verdict.arv_violations else "CYCLE")
        )
        if state != last:
            print(f"  event {position:2d}  {str(action):45s} -> verdict: {state}")
            for violation in verdict.arv_violations:
                print(f"              {violation}")
            last = state
    print("\nfinal online verdict:", "CERTIFIED" if verdict.certified else "REJECTED")
    batch = certify(behavior, system)
    print("batch certifier agrees:", batch.certified == verdict.certified)


if __name__ == "__main__":
    main()
