"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import asyncio
import gc
import sys
from typing import Any, Dict, Iterator, List, Sequence, Tuple

import pytest

from repro.core.actions import (
    Abort,
    Commit,
    Create,
    ReportAbort,
    ReportCommit,
    RequestCommit,
    RequestCreate,
)
from repro.core.correctness import (
    Certificate,
    WitnessError,
    build_witness,
    validate_serial_behavior,
)
from repro.core.events import StatusIndex, project_transaction, serial_projection
from repro.core.names import ROOT, Access, ObjectName, SystemType, TransactionName
from repro.core.return_values import check_appropriate_return_values
from repro.core.rw_semantics import OK, ReadOp, RWSpec, WriteOp
from repro.core.serialization_graph import SerializationGraph, build_serialization_graph
from repro.serial.simple_db import check_simple_behavior


def T(*path: str) -> TransactionName:
    """Shorthand transaction name constructor."""
    return TransactionName(tuple(path))


def rw_system(*objects: str, initial: Any = 0) -> SystemType:
    """A system type with the given read/write objects."""
    return SystemType({ObjectName(name): RWSpec(initial=initial) for name in objects})


class BehaviorBuilder:
    """Builds hand-crafted simple behaviors with the full action ceremony.

    Each helper appends the appropriate serial actions and registers
    access names in the system type as it goes, so that tests can write
    scenarios at the level the paper discusses them.
    """

    def __init__(self, system_type: SystemType) -> None:
        self.system_type = system_type
        self.actions: List[Any] = []

    # -- raw -------------------------------------------------------------

    def emit(self, *actions: Any) -> "BehaviorBuilder":
        self.actions.extend(actions)
        return self

    # -- transactions ------------------------------------------------------

    def begin(self, transaction: TransactionName) -> TransactionName:
        """REQUEST_CREATE + CREATE for a (non-access) transaction."""
        self.actions += [RequestCreate(transaction), Create(transaction)]
        return transaction

    def begin_top(self, name: str) -> TransactionName:
        return self.begin(T(name))

    def commit(self, transaction: TransactionName, value: Any = "done") -> None:
        """REQUEST_COMMIT + COMMIT + REPORT_COMMIT."""
        self.actions += [
            RequestCommit(transaction, value),
            Commit(transaction),
            ReportCommit(transaction, value),
        ]

    def abort(self, transaction: TransactionName, report: bool = True) -> None:
        self.actions.append(Abort(transaction))
        if report:
            self.actions.append(ReportAbort(transaction))

    # -- accesses ---------------------------------------------------------

    def access(
        self,
        parent: TransactionName,
        component: str,
        obj: str,
        operation: Any,
        value: Any,
        commit: bool = True,
    ) -> TransactionName:
        """The full access ceremony; with ``commit=False`` stops after the
        REQUEST_COMMIT (access invoked and answered but not yet committed)."""
        access = parent.child(component)
        self.system_type.register_access(access, Access(ObjectName(obj), operation))
        self.actions += [
            RequestCreate(access),
            Create(access),
            RequestCommit(access, value),
        ]
        if commit:
            self.actions += [Commit(access), ReportCommit(access, value)]
        return access

    def read(
        self, parent: TransactionName, component: str, obj: str, value: Any, **kw: Any
    ) -> TransactionName:
        return self.access(parent, component, obj, ReadOp(), value, **kw)

    def write(
        self, parent: TransactionName, component: str, obj: str, data: Any, **kw: Any
    ) -> TransactionName:
        return self.access(parent, component, obj, WriteOp(data), OK, **kw)

    def build(self) -> Tuple[Any, ...]:
        return tuple(self.actions)


@pytest.fixture
def xy_system() -> SystemType:
    return rw_system("x", "y")


@pytest.fixture
def builder(xy_system: SystemType) -> BehaviorBuilder:
    return BehaviorBuilder(xy_system)


@pytest.fixture(autouse=True)
def _loop_errors_fail_in_dev_mode(monkeypatch: pytest.MonkeyPatch) -> Iterator[None]:
    """Under ``python -X dev``, fail a test whose event loops called their
    exception handler: a task exception nobody retrieved, a task destroyed
    while pending.  asyncio only logs these, so without this the
    ``make dev-mode`` run would pass over them."""
    if not sys.flags.dev_mode:
        yield
        return
    reported: List[str] = []
    handler = asyncio.BaseEventLoop.call_exception_handler

    def call_exception_handler(loop: Any, context: Dict[str, Any]) -> None:
        reported.append(str(context.get("message")))
        handler(loop, context)

    monkeypatch.setattr(
        asyncio.BaseEventLoop, "call_exception_handler", call_exception_handler
    )
    yield
    gc.collect()  # a finished task in a reference cycle reports when freed
    assert not reported, f"event loop reported errors: {reported}"


# The canonical anomaly behaviors live in the public scenario library
# (repro.scenarios); these wrappers keep the historic two-value signature
# the tests use.


def _scenario(name: str) -> Tuple[Tuple[Any, ...], SystemType]:
    from repro.scenarios import build_scenario

    behavior, system_type, _ = build_scenario(name)
    return behavior, system_type


def lost_update_behavior() -> Tuple[Tuple[Any, ...], SystemType]:
    """Two committed top-level txns racing read-then-write on x: SG cycle."""
    return _scenario("lost-update")


def blind_write_cycle_behavior() -> Tuple[Tuple[Any, ...], SystemType]:
    """Blind writes in opposite orders on x and y: SG cyclic yet serially
    correct (the sufficiency-not-necessity example, experiment E4)."""
    return _scenario("blind-writes")


def dirty_read_behavior() -> Tuple[Tuple[Any, ...], SystemType]:
    """A committed reader observed an aborted writer's value: ARV violation."""
    return _scenario("dirty-read")


def serial_two_txn_behavior() -> Tuple[Tuple[Any, ...], SystemType]:
    """A genuinely serial two-transaction behavior (always certifiable)."""
    return _scenario("serial")


# ---------------------------------------------------------------------------
# The reference batch certifier
# ---------------------------------------------------------------------------


def reference_certify(
    behavior: Sequence[Any],
    system_type: SystemType,
    *,
    construct_witness: bool = True,
    validate_input: bool = False,
) -> Certificate:
    """Theorem 8/19 chained from the paper-definition phase functions.

    ``certify`` runs the columnar engine; this is what the suites diff it
    against.  One plain ``StatusIndex`` answers status and visibility
    for every phase.  The witness is checked by definition: one
    ``project_transaction`` scan per visible transaction, in name order.
    """
    serial = serial_projection(behavior)
    index = StatusIndex(serial)
    if validate_input:
        problems = check_simple_behavior(serial, system_type)
        if problems:
            return Certificate(
                False, [], None, SerializationGraph(), input_problems=problems
            )
    arv = check_appropriate_return_values(serial, system_type, index)
    graph = build_serialization_graph(serial, system_type, index)
    cycle = graph.find_cycle()
    certificate = Certificate(not arv and cycle is None, arv, cycle, graph)
    if not (certificate.certified and construct_witness):
        return certificate
    certificate.order = graph.to_sibling_order()
    try:
        witness = build_witness(serial, system_type, certificate.order, index)
    except WitnessError as exc:
        certificate.witness_problems = [str(exc)]
    else:
        certificate.witness = witness
        problems = validate_serial_behavior(witness, system_type)
        if not problems:
            mentioned = index.create_requested | index.created | {ROOT}
            problems = [
                f"witness projection differs at {transaction}"
                for transaction in sorted(mentioned)
                if index.is_visible(transaction, ROOT)
                and project_transaction(witness, transaction)
                != project_transaction(serial, transaction, index)
            ]
        certificate.witness_problems = problems
    certificate.certified = not certificate.witness_problems
    return certificate
