#!/usr/bin/env python3
"""Quickstart: run a nested-transaction workload and certify it.

Builds a random nested workload over read/write objects, executes it
concurrently under Moss' locking algorithm (the Argus/Camelot default),
and then applies the paper's serialization-graph test: appropriate
return values + acyclic SG  =>  serially correct for T0 (Theorem 8/17).
The certifier also constructs an explicit witness serial behavior.
"""

from repro.core.actions import format_behavior
from repro.core.correctness import certify
from repro.core.events import serial_projection
from repro.generic.system import make_generic_system
from repro.locking.moss import MossRWLockingObject
from repro.sim.driver import run_system
from repro.sim.policies import EagerInformPolicy
from repro.sim.workload import WorkloadConfig, generate_workload


def main() -> None:
    config = WorkloadConfig(seed=7, top_level=4, objects=3, max_depth=2)
    system_type, programs = generate_workload(config)
    print(f"Workload: {len(system_type.all_accesses())} accesses over "
          f"{len(system_type.object_names())} objects\n")

    system = make_generic_system(system_type, programs, MossRWLockingObject)
    result = run_system(
        system, EagerInformPolicy(seed=7), system_type, resolve_deadlocks=True
    )
    print(f"Concurrent run: {result.stats.summary()}\n")

    certificate = certify(result.behavior, system_type)
    print(certificate.explain())
    print(f"\nSerialization graph: {certificate.graph!r}")
    for edge in certificate.graph.edges():
        print(f"  {edge}")

    witness = certificate.witness
    assert witness is not None
    print(f"\nFirst 12 events of the witness serial behavior "
          f"(of {len(witness)}):")
    print(format_behavior(witness[:12]))

    serial = serial_projection(result.behavior)
    print(f"\nThe concurrent run interleaved {len(serial)} serial events; "
          f"the witness replays them as one serial execution with the same "
          f"user view at T0.")


if __name__ == "__main__":
    main()
