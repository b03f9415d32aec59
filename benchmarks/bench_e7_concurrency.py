"""E7 — type-specific concurrency: undo logging vs Moss RW locking.

The Section 6 motivation quantified: N clients increment one hotspot
counter.  Under read/write locking each increment is a read-modify-write
and the clients serialise (and deadlock, requiring victim aborts); under
undo logging increments commute backward and all proceed.  Expected
shape: undo logging commits every client with no deadlock victims and
far less blocking; locking loses clients to deadlock as N grows.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _smoke import SMOKE, pick
from _tables import print_table

from repro.core.correctness import certify
from repro.core.names import ROOT, ObjectName
from repro.core.rw_semantics import RWSpec
from repro.generic.system import make_generic_system
from repro.locking.moss import MossRWLockingObject
from repro.locking.read_update import ReadUpdateLockingObject
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
from repro.spec.builtin import CounterInc, CounterType
from repro.undo.logging import UndoLoggingObject

HOT = ObjectName("hot")


def locking_workload(clients: int):
    programs = {
        ROOT: TransactionProgram(
            tuple(
                sub(seq(read(HOT, "r"), write(HOT, i + 1, "w")), f"c{i}")
                for i in range(clients)
            ),
            sequential=False,
        )
    }
    system_type = system_type_for({HOT: RWSpec(initial=0)}, programs)
    return system_type, programs, MossRWLockingObject


def typed_workload(factory):
    def setup(clients: int):
        programs = {
            ROOT: TransactionProgram(
                tuple(
                    sub(seq(op(HOT, CounterInc(1), "inc")), f"c{i}")
                    for i in range(clients)
                ),
                sequential=False,
            )
        }
        system_type = system_type_for({HOT: CounterType(initial=0)}, programs)
        return system_type, programs, factory

    return setup


undo_workload = typed_workload(UndoLoggingObject)
read_update_workload = typed_workload(ReadUpdateLockingObject)


def run_one(setup, clients, seed=3):
    system_type, programs, factory = setup(clients)
    system = make_generic_system(system_type, programs, factory)
    result = run_system(
        system,
        EagerInformPolicy(seed=seed),
        system_type,
        max_steps=40_000,
        collect_blocking=True,
        resolve_deadlocks=True,
    )
    certificate = certify(result.behavior, system_type, construct_witness=False)
    assert certificate.certified
    return result.stats


def run_sweep():
    rows = []
    for clients in pick((2, 4, 8, 16), (2, 4)):
        lock = run_one(locking_workload, clients)
        read_update = run_one(read_update_workload, clients)
        undo = run_one(undo_workload, clients)
        rows.append(
            (
                clients,
                lock.top_level_committed,
                lock.deadlock_aborts,
                lock.blocked_access_steps,
                read_update.top_level_committed,
                read_update.blocked_access_steps,
                undo.top_level_committed,
                undo.deadlock_aborts,
                undo.blocked_access_steps,
            )
        )
    return rows


@pytest.mark.benchmark(group="e7")
def test_e7_commutativity_concurrency(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print_table(
        "E7: hotspot counter — RW locking vs read/update locking vs undo logging",
        [
            "clients",
            "rw committed", "rw victims", "rw blocked",
            "r/u committed", "r/u blocked",
            "undo committed", "undo victims", "undo blocked",
        ],
        rows,
    )
    for clients, lc, lv, lb, rc, rb, uc, uv, ub in rows:
        assert uc == clients, "undo logging must commit every client"
        assert uv == 0, "commuting increments never deadlock"
        assert ub <= rb <= lb, (
            "admitted concurrency must order: undo >= read/update >= RW locking"
        )
        # read/update locking: single exclusive lock per increment, no
        # read-lock coupling, so no deadlock — all clients commit
        assert rc == clients
    if not SMOKE:
        # RW locking must lose clients to deadlock once contention is real
        assert any(row[2] > 0 for row in rows)
