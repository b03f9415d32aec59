"""Canonical distributed scenarios: where local and global verdicts differ.

Hand-built per-site histories for the distributed analogues of the
single-site anomalies in :mod:`repro.scenarios`, spanning the verdict
matrix of :class:`repro.distributed.certifier.DistributedCertificate`:

* ``replicated-serial``      — a replicated write then a read, fully
  serial at every site and globally (both verdicts pass);
* ``partitioned-write-skew`` — the headline divergence: a partition
  splits two writers' fanouts, the heal lets each read the other's
  write at a different site; every per-site graph is acyclic but the
  merged global graph is cyclic — local-only certification would have
  wrongly passed;
* ``stale-replica-read``     — a partition-missed write leaves an
  up-but-unreachable copy stale; a later read is served from it.  Both
  verdicts pass (the histories are serializable), but the replica
  divergence report flags the stale copy;
* ``local-reject``           — a lost update inside one site: the local
  certifier already rejects, and the global verdict follows.

Each scenario returns per-site ``(behavior, system_type)`` histories, a
:class:`Placement`, and a :class:`DistributedExpectation` asserted by
the test suite and printed by ``repro distsim --scenario``.

:func:`divergence_config` is the *simulated* counterpart: a seeded
partition workload for :func:`repro.distributed.simulate.run_distributed`
whose per-site controllers order the same two transactions oppositely
for some seeds — the seed sweep in ``bench_e16_distributed.py`` measures
how often.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from ..core.actions import (
    Behavior,
    Commit,
    Create,
    ReportCommit,
    RequestCommit,
    RequestCreate,
)
from ..core.names import Access, SystemType, TransactionName
from ..core.rw_semantics import OK, ReadOp, RWSpec, WriteOp
from ..sim.faults import SiteCrash, SiteRecovery
from .cluster import (
    ClusterSchedule,
    DistributedConfig,
    DRead,
    DWrite,
    GlobalTransaction,
    PartitionWindow,
)
from .placement import Placement, replica_name

__all__ = [
    "DistributedExpectation",
    "DIST_SCENARIOS",
    "build_dist_scenario",
    "dist_scenario_names",
    "divergence_config",
]


@dataclass(frozen=True)
class DistributedExpectation:
    """Ground truth and predicted verdicts for a distributed scenario."""

    locally_certified: bool
    globally_certified: bool
    divergent: bool
    stale_variables: Tuple[str, ...]
    reason: str


#: site histories, placement, expectation
DistScenario = Tuple[
    Dict[int, Tuple[Behavior, SystemType]], Placement, DistributedExpectation
]


class _SiteBuilder:
    """Builds one site's well-formed serial-visible behavior.

    The distributed twin of the builder in :mod:`repro.scenarios`, typed
    for the strict-mypy gate and naming objects as replicas
    (``<var>@s<site>``) so merged sibling groups never collide across
    sites.
    """

    def __init__(self, site: int, objects: Dict[str, int]) -> None:
        self.site = site
        self.system_type = SystemType(
            {
                replica_name(variable, site): RWSpec(initial=value)
                for variable, value in objects.items()
            }
        )
        self.events: List[Any] = []

    def begin(self, name: str) -> TransactionName:
        txn = TransactionName((name,))
        self.events += [RequestCreate(txn), Create(txn)]
        return txn

    def access(
        self,
        parent: TransactionName,
        component: str,
        variable: str,
        operation: Any,
        value: Any,
    ) -> TransactionName:
        leaf = parent.child(f"{component}@s{self.site}")
        obj = replica_name(variable, self.site)
        self.system_type.register_access(leaf, Access(obj, operation))
        self.events += [
            RequestCreate(leaf),
            Create(leaf),
            RequestCommit(leaf, value),
            Commit(leaf),
            ReportCommit(leaf, value),
        ]
        return leaf

    def commit(self, txn: TransactionName, value: Any = "done") -> None:
        self.events += [
            RequestCommit(txn, value),
            Commit(txn),
            ReportCommit(txn, value),
        ]

    def done(self) -> Tuple[Behavior, SystemType]:
        return tuple(self.events), self.system_type


def _replicated_serial() -> DistScenario:
    placement = Placement(2, ("x2",))
    s1 = _SiteBuilder(1, {"x2": 0})
    t1 = s1.begin("t1")
    s1.access(t1, "w_x2", "x2", WriteOp(7), OK)
    s1.commit(t1)
    t2 = s1.begin("t2")
    s1.access(t2, "r_x2", "x2", ReadOp(), 7)
    s1.commit(t2)
    s2 = _SiteBuilder(2, {"x2": 0})
    u1 = s2.begin("t1")
    s2.access(u1, "w_x2", "x2", WriteOp(7), OK)
    s2.commit(u1)
    return (
        {1: s1.done(), 2: s2.done()},
        placement,
        DistributedExpectation(
            locally_certified=True,
            globally_certified=True,
            divergent=False,
            stale_variables=(),
            reason="replicated write fans out to both sites, read is "
            "serial after it; one global serial order t1 < t2 exists",
        ),
    )


def _partitioned_write_skew() -> DistScenario:
    # During a partition, t1's write of x2 lands only at s1 and t2's
    # write of x4 only at s2.  After the heal, t2 reads x2 at s1 (fresh)
    # and t1 reads x4 at s2 (fresh): s1 orders t1 < t2, s2 orders
    # t2 < t1.  Each site is perfectly serial; no global order exists.
    placement = Placement(2, ("x2", "x4"))
    s1 = _SiteBuilder(1, {"x2": 0, "x4": 0})
    t1 = s1.begin("t1")
    s1.access(t1, "w_x2", "x2", WriteOp(1), OK)
    s1.commit(t1)
    t2 = s1.begin("t2")
    s1.access(t2, "r_x2", "x2", ReadOp(), 1)
    s1.commit(t2)
    s2 = _SiteBuilder(2, {"x2": 0, "x4": 0})
    u2 = s2.begin("t2")
    s2.access(u2, "w_x4", "x4", WriteOp(1), OK)
    s2.commit(u2)
    u1 = s2.begin("t1")
    s2.access(u1, "r_x4", "x4", ReadOp(), 1)
    s2.commit(u1)
    return (
        {1: s1.done(), 2: s2.done()},
        placement,
        DistributedExpectation(
            locally_certified=True,
            globally_certified=False,
            divergent=True,
            stale_variables=("x2", "x4"),
            reason="s1 serializes t1 < t2 (conflict on x2@s1), s2 "
            "serializes t2 < t1 (conflict on x4@s2); the merged root "
            "group has the cycle t1 -> t2 -> t1 that no site can see",
        ),
    )


def _stale_replica_read() -> DistScenario:
    # t1's write of replicated x2 misses the partitioned s2, which keeps
    # serving reads: t2 reads the stale initial value there.  Both
    # histories are serializable (global order t2 < t1), so both
    # verdicts pass — only the replica divergence report exposes the
    # stale copy.
    placement = Placement(2, ("x2",))
    s1 = _SiteBuilder(1, {"x2": 0})
    t1 = s1.begin("t1")
    s1.access(t1, "w_x2", "x2", WriteOp(7), OK)
    s1.commit(t1)
    s2 = _SiteBuilder(2, {"x2": 0})
    t2 = s2.begin("t2")
    s2.access(t2, "r_x2", "x2", ReadOp(), 0)
    s2.commit(t2)
    return (
        {1: s1.done(), 2: s2.done()},
        placement,
        DistributedExpectation(
            locally_certified=True,
            globally_certified=True,
            divergent=False,
            stale_variables=("x2",),
            reason="the partition-missed write leaves x2@s2 at its "
            "initial value while x2@s1 holds 7; serializable (t2 < t1) "
            "but the divergence report flags the stale copy",
        ),
    )


def _local_reject() -> DistScenario:
    # A lost update entirely inside s1: the local certifier already
    # rejects, and the merged graph inherits the cycle.
    placement = Placement(2, ("x2",))
    s1 = _SiteBuilder(1, {"x2": 0})
    t1, t2 = s1.begin("t1"), s1.begin("t2")
    s1.access(t1, "r_x2", "x2", ReadOp(), 0)
    s1.access(t2, "r_x2", "x2", ReadOp(), 0)
    s1.access(t1, "w_x2", "x2", WriteOp(1), OK)
    s1.access(t2, "w_x2", "x2", WriteOp(1), OK)
    s1.commit(t1)
    s1.commit(t2)
    s2 = _SiteBuilder(2, {"x2": 0})
    return (
        {1: s1.done(), 2: s2.done()},
        placement,
        DistributedExpectation(
            locally_certified=False,
            globally_certified=False,
            divergent=False,
            stale_variables=("x2",),
            reason="racing read-modify-writes at s1 form a local SG "
            "cycle; single-site certification suffices to reject, and "
            "the merged graph inherits the cycle",
        ),
    )


_SCENARIO_BUILDERS: Dict[str, Callable[[], DistScenario]] = {
    "replicated-serial": _replicated_serial,
    "partitioned-write-skew": _partitioned_write_skew,
    "stale-replica-read": _stale_replica_read,
    "local-reject": _local_reject,
}

DIST_SCENARIOS: Tuple[str, ...] = tuple(_SCENARIO_BUILDERS)


def dist_scenario_names() -> Tuple[str, ...]:
    """The available distributed scenario names, in presentation order."""
    return DIST_SCENARIOS


def build_dist_scenario(name: str) -> DistScenario:
    """Build a distributed scenario by name.

    Returns ``(site_histories, placement, expectation)``; feed the
    histories to :func:`repro.distributed.certifier.certify_sites`.
    """
    try:
        builder = _SCENARIO_BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown distributed scenario {name!r}; "
            f"one of {', '.join(DIST_SCENARIOS)}"
        ) from None
    return builder()


def divergence_config(
    seed: int, sites: int = 2, pairs: int = 2, crash: bool = False
) -> DistributedConfig:
    """A seeded partition workload prone to local/global disagreement.

    ``pairs`` transaction pairs cross-read each other's replicated
    variables around a partition window: each pair's writes land only on
    their home side of the partition, and the post-heal reads are routed
    by seeded choice — when the two reads of a pair land on opposite
    sites, the sites serialize the pair in opposite orders and the
    merged graph is cyclic while every local graph stays acyclic.  With
    ``crash``, site 2 also crashes and recovers mid-window, exercising
    the doomed-set and write-barrier paths.
    """
    if sites < 2:
        raise ValueError("divergence needs at least two sites")
    variables = tuple(f"x{2 * i}" for i in range(1, 2 * pairs + 1))
    transactions: List[GlobalTransaction] = []
    for pair in range(pairs):
        a, b = variables[2 * pair], variables[2 * pair + 1]
        transactions.append(
            GlobalTransaction(
                f"t{2 * pair + 1}",
                (DWrite(a, 10 * pair + 1), DRead(b)),
                home=1,
            )
        )
        transactions.append(
            GlobalTransaction(
                f"t{2 * pair + 2}",
                (DWrite(b, 10 * pair + 2), DRead(a)),
                home=2,
            )
        )
    window = PartitionWindow(
        groups=(frozenset({1}), frozenset(range(2, sites + 1))),
        start=0,
        end=2 * pairs,
    )
    crashes: Tuple[SiteCrash, ...] = ()
    recoveries: Tuple[SiteRecovery, ...] = ()
    if crash:
        crashes = (SiteCrash(site=2, at_step=2 * pairs),)
        recoveries = (SiteRecovery(site=2, at_step=2 * pairs + 1),)
    return DistributedConfig(
        sites=sites,
        variables=variables,
        transactions=tuple(transactions),
        schedule=ClusterSchedule(
            crashes=crashes, recoveries=recoveries, partitions=(window,)
        ),
        seed=seed,
    )
