"""repro — A Serialization Graph Construction for Nested Transactions.

An executable reproduction of Fekete, Lynch & Weihl (PODS 1990): the
nested-transaction system model of Lynch & Merritt, the serialization
graph construction whose acyclicity (with appropriate return values)
certifies serial correctness for ``T0``, and the two algorithms the
paper verifies with it — Moss' read/write locking and undo logging for
arbitrary data types.

Every name is imported from the module that defines it: the package
``__init__`` files hold a docstring and nothing else (the two that
import are named in docs/ARCHITECTURE.md).  Quick start::

    from repro.core.correctness import certify
    from repro.generic.system import make_generic_system
    from repro.locking.moss import MossRWLockingObject
    from repro.sim.driver import run_system
    from repro.sim.policies import EagerInformPolicy
    from repro.sim.workload import WorkloadConfig, generate_workload

    system_type, programs = generate_workload(WorkloadConfig(seed=7))
    system = make_generic_system(system_type, programs, MossRWLockingObject)
    result = run_system(system, EagerInformPolicy(seed=7), system_type)
    certificate = certify(result.behavior, system_type)
    assert certificate.certified          # Theorem 17 in action
    print(certificate.explain())

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
reproduction results.
"""

__version__ = "1.0.0"
