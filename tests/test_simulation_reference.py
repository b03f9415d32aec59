"""The simulator's fast paths against their definitional references.

The generic controller keeps its open work (creatable, committable and
abortable transactions, owed reports and informs) in its state; each
generic object keeps its waiting accesses in its state and answers them
through one response rule; the controller, the generic objects and the
program transactions state their signatures as tables, which the
composition merges into one route per action class and key; a program
transaction keeps its open calls in its state; and the driver re-queries
a component only when the composition gave it a new state object, joins
only the non-empty output caches, hands each policy the controller's
owed reports and informs and its enabled aborts, and reads blocked
accesses (its deadlock victims) off the objects' waiting lists.  The
definitional versions live here as the reference: the controller
enumeration that re-tests every transaction ever requested, committed or
aborted against ``enabled``; the object enumeration that tests every
created, unanswered access against ``enabled``; the hand-written
signature predicates of the three tabled classes; the composition step
that scans every component's signature through them; the program
enumeration that tests every call against ``enabled``; and the driver
loop that applies steps through that scan, re-queries every component
whose signature holds the applied action, drops duplicate offers,
hands policies the enabled list's reports and informs as the owed work
and the enabled aborts not already in the enabled set, and picks
deadlock victims from every object's blocked accesses.  Random
controller, object and program schedules, arbitrary actions, and seeded
Moss and undo runs under every scheduling policy must come out
identical, and the routed participants must equal the scanned ones on
every action.
"""

import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    OK,
    ROOT,
    Abort,
    Access,
    Action,
    Commit,
    Create,
    EagerInformPolicy,
    GenericController,
    InformAbort,
    InformCommit,
    IOAutomaton,
    MossRWLockingObject,
    MVTORWObject,
    ObjectName,
    OrphanFreePolicy,
    RandomPolicy,
    ReadOp,
    ReadUpdateLockingObject,
    ReportAbort,
    ReportCommit,
    RequestCommit,
    RequestCreate,
    RoundRobinPolicy,
    RunStats,
    SystemType,
    TransactionName,
    TransactionProgram,
    UndoLoggingObject,
    WorkloadConfig,
    WriteOp,
    generate_workload,
    make_generic_system,
    make_serial_system,
    run_system,
)
from repro.automata.composition import Composition
from repro.core.rw_semantics import RWSpec
from repro.generic.controller import GenericControllerState
from repro.generic.objects import GenericObject
from repro.generic.permissive import PermissiveObject
from repro.locking.moss import least_write_lockholder
from repro.spec.builtin import (
    BalanceRead,
    BankAccountType,
    CounterInc,
    CounterRead,
    CounterType,
    Deposit,
    Withdraw,
)
from repro.serial.simple_db import make_simple_system
from repro.sim.driver import RunResult
from repro.sim.faults import AbortInjector, ScriptedAbortInjector
from repro.sim.policies import SchedulingPolicy
from repro.sim.programs import AccessCall, ProgramState, ProgramTransaction, SubtransactionCall
from repro.sim.workload import CounterKind, RWKind

from conftest import T, rw_system

# -- the reference controller enumeration ------------------------------------


def relevant_objects(
    system_type: SystemType,
) -> Dict[TransactionName, List[ObjectName]]:
    """Objects with an access in each transaction's subtree, by name."""
    relevant: Dict[TransactionName, Set[ObjectName]] = {}
    for access, info in system_type.all_accesses().items():
        for ancestor in access.ancestors():
            if not ancestor.is_root:
                relevant.setdefault(ancestor, set()).add(info.obj)
    return {name: sorted(objects) for name, objects in relevant.items()}


def reference_enabled_outputs(
    controller: GenericController, state: GenericControllerState
) -> Iterator[Action]:
    """Every transaction in the history, re-tested against ``enabled``."""
    relevant = relevant_objects(controller.system_type)
    for transaction in sorted(state.create_requested):
        create = Create(transaction)
        if controller.enabled(state, create):
            yield create
    for transaction in state.commit_values:
        commit = Commit(transaction)
        if controller.enabled(state, commit):
            yield commit
    for transaction in sorted(state.committed):
        if state.commit_requested(transaction):
            report = ReportCommit(transaction, state.value_of(transaction))
            if controller.enabled(state, report):
                yield report
        for obj in relevant.get(transaction, ()):
            inform = InformCommit(obj, transaction)
            if controller.enabled(state, inform):
                yield inform
    for transaction in sorted(state.aborted):
        report_abort = ReportAbort(transaction)
        if controller.enabled(state, report_abort):
            yield report_abort
        for obj in relevant.get(transaction, ()):
            inform_abort = InformAbort(obj, transaction)
            if controller.enabled(state, inform_abort):
                yield inform_abort


def reference_enabled_aborts(
    controller: GenericController, state: GenericControllerState
) -> Iterator[Abort]:
    for transaction in sorted(state.create_requested):
        abort = Abort(transaction)
        if controller.enabled(state, abort):
            yield abort


# -- random controller schedules ---------------------------------------------

X, Y, Z = ObjectName("x"), ObjectName("y"), ObjectName("z")
NAMES = (T("a"), T("a", "r"), T("a", "s"), T("b"), T("b", "w"), T("c"))
VALUES = (1, 2)


def schedule_system() -> SystemType:
    """``a`` reaches x and y, ``b`` reaches y, ``c`` and object z nothing."""
    system = rw_system("x", "y", "z")
    system.register_access(T("a", "r"), Access(X, ReadOp()))
    system.register_access(T("a", "s"), Access(Y, WriteOp(1)))
    system.register_access(T("b", "w"), Access(Y, WriteOp(2)))
    return system


def controller_actions() -> List[Action]:
    """Every controller action over :data:`NAMES`, informs to all objects."""
    actions: List[Action] = []
    for name in NAMES:
        actions += [RequestCreate(name), Create(name), Commit(name), Abort(name)]
        actions += [RequestCommit(name, value) for value in VALUES]
        actions += [ReportCommit(name, value) for value in VALUES]
        actions.append(ReportAbort(name))
        for obj in (X, Y, Z):
            actions += [InformCommit(obj, name), InformAbort(obj, name)]
    return actions


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(controller_actions()), max_size=60))
def test_open_work_matches_full_history(schedule):
    """Duplicates, completion before request, COMMIT and ABORT of one
    transaction, informs to irrelevant objects: after every effect both
    enumerations equal the reference, action for action."""
    controller = GenericController(schedule_system())
    state = controller.initial_state()
    for action in schedule:
        state = controller.effect(state, action)
        outputs = list(controller.enabled_outputs(state))
        aborts = list(controller.enabled_aborts(state))
        assert outputs == list(reference_enabled_outputs(controller, state))
        assert aborts == list(reference_enabled_aborts(controller, state))
        assert all(controller.enabled(state, enabled) for enabled in outputs + aborts)


def test_late_commit_request_owes_the_report_before_informs():
    controller = GenericController(schedule_system())
    state = controller.initial_state()
    for action in (
        RequestCreate(T("a")),
        Create(T("a")),
        Commit(T("a")),
        RequestCommit(T("a"), 2),
    ):
        state = controller.effect(state, action)
    assert list(controller.enabled_outputs(state)) == [
        ReportCommit(T("a"), 2),
        InformCommit(X, T("a")),
        InformCommit(Y, T("a")),
    ]


# -- the reference program enumeration ----------------------------------------


def reference_program_outputs(
    transaction: ProgramTransaction, state: ProgramState
) -> List[Action]:
    """Each call's REQUEST_CREATE, then the commit request, tested
    against ``enabled`` (that is, ``_may_request``/``_ready_to_commit``)."""
    name, program = transaction.transaction, transaction.program
    candidates: List[Action] = [
        RequestCreate(name.child(call.component)) for call in program.calls
    ]
    candidates.append(RequestCommit(name, program.result_value(state.outcome_map())))
    return [action for action in candidates if transaction.enabled(state, action)]


def alternatives_program(sequential: bool) -> TransactionProgram:
    """Accesses and a subtransaction, with a chain of alternatives (``c``
    runs if ``b`` aborts, ``d`` if ``c`` aborts) and a value computed from
    the outcomes."""
    inner = TransactionProgram((AccessCall("r", X, ReadOp()),))
    return TransactionProgram(
        (
            AccessCall("a", X, ReadOp()),
            SubtransactionCall("b", inner),
            AccessCall("c", Y, WriteOp(1), after_abort_of="b"),
            SubtransactionCall("d", inner, after_abort_of="c"),
            AccessCall("e", Y, ReadOp()),
            AccessCall("f", X, WriteOp(2), after_abort_of="a"),
        ),
        sequential=sequential,
        result=lambda outcomes: tuple(sorted(outcomes.items())),
    )


PROGRAM_CASES = {
    f"{kind}-{where}": ProgramTransaction(name, alternatives_program(kind == "seq"))
    for kind in ("seq", "par")
    for where, name in (("top", T("p")), ("root", ROOT))
}


def program_actions(transaction: ProgramTransaction) -> List[Action]:
    """Every action in the program transaction's signature, with two
    reported values per child."""
    name = transaction.transaction
    actions: List[Action] = [Create(name), RequestCommit(name, "ok")]
    for call in transaction.program.calls:
        child = name.child(call.component)
        actions += [RequestCreate(child), ReportAbort(child)]
        actions += [ReportCommit(child, value) for value in VALUES]
    return actions


@pytest.mark.parametrize("case", sorted(PROGRAM_CASES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_program_enumeration_matches_enabled(case, data):
    """Sequential and parallel programs with alternatives, under random
    schedules of their signature (enabled or not): after every effect
    the one-walk enumeration equals the ``enabled``-filtered one."""
    transaction = PROGRAM_CASES[case]
    schedule = data.draw(
        st.lists(st.sampled_from(program_actions(transaction)), max_size=40)
    )
    state = transaction.initial_state()
    assert list(transaction.enabled_outputs(state)) == reference_program_outputs(
        transaction, state
    )
    for action in schedule:
        state = transaction.effect(state, action)
        assert list(transaction.enabled_outputs(state)) == reference_program_outputs(
            transaction, state
        )


def test_program_enumeration_waits_for_alternatives():
    """A sequential program blocks behind an unresolved alternative and
    skips an inactive one; a parallel program requests what is active."""
    transaction = PROGRAM_CASES["seq-top"]
    p = T("p")
    state = transaction.effect(transaction.initial_state(), Create(p))
    assert list(transaction.enabled_outputs(state)) == [RequestCreate(p.child("a"))]
    for action in (
        RequestCreate(p.child("a")),
        ReportCommit(p.child("a"), 1),
        RequestCreate(p.child("b")),
    ):
        state = transaction.effect(state, action)
    # c waits on b's outcome, so nothing after b may be requested
    assert list(transaction.enabled_outputs(state)) == []
    state = transaction.effect(state, ReportAbort(p.child("b")))
    # b aborted: its alternative c is next
    assert list(transaction.enabled_outputs(state)) == [RequestCreate(p.child("c"))]
    for action in (RequestCreate(p.child("c")), ReportCommit(p.child("c"), 2)):
        state = transaction.effect(state, action)
    # c committed, so d is inactive and e is next; a committed, so f is
    # inactive and the commit request waits only for e
    assert list(transaction.enabled_outputs(state)) == [RequestCreate(p.child("e"))]
    for action in (RequestCreate(p.child("e")), ReportCommit(p.child("e"), 1)):
        state = transaction.effect(state, action)
    assert list(transaction.enabled_outputs(state)) == [
        RequestCommit(p, transaction.program.result_value(state.outcome_map()))
    ]
    parallel = PROGRAM_CASES["par-top"]
    state = parallel.effect(parallel.initial_state(), Create(p))
    assert list(parallel.enabled_outputs(state)) == [
        RequestCreate(p.child(component)) for component in ("a", "b", "e")
    ]


@pytest.mark.parametrize("sequential", [True, False], ids=["seq", "par"])
def test_alternative_of_an_inactive_alternative_is_inactive(sequential):
    """``c`` runs if ``b`` aborts and ``d`` if ``c`` aborts.  Once ``b``
    commits, ``c`` never runs, so ``d`` never runs either: the program
    requests commit instead of waiting for an outcome of ``c``."""
    program = TransactionProgram(
        (
            AccessCall("b", X, ReadOp()),
            AccessCall("c", X, ReadOp(), after_abort_of="b"),
            AccessCall("d", X, ReadOp(), after_abort_of="c"),
        ),
        sequential=sequential,
    )
    p = T("p")
    transaction = ProgramTransaction(p, program)
    state = transaction.initial_state()
    for action in (
        Create(p),
        RequestCreate(p.child("b")),
        ReportCommit(p.child("b"), 0),
    ):
        state = transaction.effect(state, action)
    commit = RequestCommit(p, "ok")
    assert list(transaction.enabled_outputs(state)) == [commit]
    assert transaction.enabled(state, commit)
    assert not transaction.enabled(state, RequestCreate(p.child("d")))


# -- the reference object enumeration -----------------------------------------


def definitional_value(obj: GenericObject, state: Any, access: TransactionName) -> Any:
    """The value the algorithm's definition gives ``access`` now, read
    off the whole state: the log replayed (undo and permissive), the
    least lockholder's state (read/update) or value (Moss), the latest
    version at or below the access's timestamp (MVTO), ``OK`` for a
    write."""
    op = obj.system_type.access(access).op
    if isinstance(obj, UndoLoggingObject):
        return obj._forced_value(state, access)
    if isinstance(obj, ReadUpdateLockingObject):
        return obj._expected_value(state, access)
    if isinstance(op, WriteOp):
        return OK
    if isinstance(obj, MossRWLockingObject):
        return state.value(least_write_lockholder(state))
    version = obj._candidate(state, access)
    return None if version is None else version.data


def reference_object_outputs(obj: GenericObject, state: Any) -> List[Action]:
    """Each created, unanswered access, by name, with its definitional
    value, kept where ``enabled`` allows it."""
    outputs: List[Action] = []
    for access in sorted(state.created - state.commit_requested):
        answer = RequestCommit(access, definitional_value(obj, state, access))
        if obj.enabled(state, answer):
            outputs.append(answer)
    return outputs


def reference_blocked_accesses(obj: GenericObject, state: Any) -> List[TransactionName]:
    """The created, unanswered accesses the reference enumeration does
    not answer, by name."""
    answered = {answer.transaction for answer in reference_object_outputs(obj, state)}
    return [
        access
        for access in sorted(state.created - state.commit_requested)
        if access not in answered
    ]


#: one object ``x`` and its accesses at depths 2 and 3, under three
#: top-level transactions
OBJECT_ACCESS_NAMES = (
    T("a", "p"), T("a", "q"), T("a", "b", "p"), T("a", "b", "q"),
    T("c", "p"), T("c", "q"), T("c", "d", "p"), T("e", "p"),
)


def object_case(factory, spec, ops) -> GenericObject:
    """``factory``'s object ``x`` over ``spec``, each access of
    :data:`OBJECT_ACCESS_NAMES` performing the next of ``ops``, in turn."""
    system = SystemType({X: spec})
    for position, name in enumerate(OBJECT_ACCESS_NAMES):
        system.register_access(name, Access(X, ops[position % len(ops)]))
    return factory(X, system)


RW_OPS = (ReadOp(), WriteOp(1), WriteOp(2), ReadOp(), WriteOp(None))
BANK_OPS = (Deposit(3), Withdraw(2), BalanceRead(), Withdraw(4), Deposit(1))
COUNTER_OPS = (CounterInc(1), CounterRead(), CounterInc(2))
#: ``RWSpec()`` starts at ``None``, which a read may legally return
OBJECT_CASES = {
    "moss": lambda: object_case(MossRWLockingObject, RWSpec(), RW_OPS),
    "undo-bank": lambda: object_case(UndoLoggingObject, BankAccountType(), BANK_OPS),
    "undo-rw": lambda: object_case(UndoLoggingObject, RWSpec(), RW_OPS),
    "permissive": lambda: object_case(PermissiveObject, BankAccountType(), BANK_OPS),
    "read-update": lambda: object_case(
        ReadUpdateLockingObject, CounterType(), COUNTER_OPS
    ),
    "mvto": lambda: object_case(MVTORWObject, RWSpec(initial=0), RW_OPS),
}
#: the transactions an object may hear of: every non-root ancestor of an
#: access
INFORMED_NAMES = sorted(
    {
        ancestor
        for name in OBJECT_ACCESS_NAMES
        for ancestor in name.ancestors()
        if not ancestor.is_root
    }
)
OBJECT_STEPS = st.one_of(
    st.tuples(st.just("create"), st.sampled_from(OBJECT_ACCESS_NAMES)),
    st.tuples(st.just("answer"), st.integers(0, 7)),
    st.tuples(
        st.sampled_from(["commit", "abort"]), st.sampled_from(INFORMED_NAMES)
    ),
)


def assert_object_enumeration(obj: GenericObject, state: Any) -> None:
    """The waiting list, the enumeration and the blocked accesses equal
    the reference, and the state hashes."""
    assert state.waiting == tuple(sorted(state.created - state.commit_requested))
    assert list(obj.enabled_outputs(state)) == reference_object_outputs(obj, state)
    assert list(obj.blocked_accesses(state)) == reference_blocked_accesses(obj, state)
    hash(state)


@pytest.mark.parametrize("case", sorted(OBJECT_CASES))
@settings(max_examples=150, deadline=None)
@given(schedule=st.lists(OBJECT_STEPS, max_size=40))
def test_object_enumeration_matches_enabled(case, schedule):
    """CREATEs (repeated ones too), answers chosen among the enabled
    REQUEST_COMMITs, and INFORM_COMMITs and INFORM_ABORTs of any
    transaction in any order, each transaction keeping one fate; aborts
    remove undo log entries and locks.  After every step the waiting
    list, the response-rule enumeration and the blocked accesses equal
    the definitional ones."""
    obj = OBJECT_CASES[case]()
    state = obj.initial_state()
    fates: Dict[TransactionName, str] = {}
    assert_object_enumeration(obj, state)
    for kind, argument in schedule:
        if kind == "create":
            action: Action = Create(argument)
        elif kind == "answer":
            answers = reference_object_outputs(obj, state)
            if not answers:
                continue
            action = answers[argument % len(answers)]
        else:
            fate = fates.setdefault(argument, kind)
            action = (InformCommit if fate == "commit" else InformAbort)(X, argument)
        state = obj.effect(state, action)
        assert_object_enumeration(obj, state)


# -- the reference signatures ------------------------------------------------


def is_access_of(obj: GenericObject, transaction: TransactionName) -> bool:
    system_type = obj.system_type
    return (
        system_type.is_access(transaction)
        and system_type.object_of(transaction) == obj.obj
    )


def is_child_of(program: ProgramTransaction, transaction: TransactionName) -> bool:
    return (
        not transaction.is_root
        and transaction.parent == program.transaction
        and any(
            call.component == transaction.path[-1] for call in program.program.calls
        )
    )


def reference_is_input(component: IOAutomaton, action: Action) -> bool:
    """The hand-written input predicates of the controller, generic
    objects and program transactions; any other component's own."""
    if isinstance(component, GenericController):
        return isinstance(action, (RequestCreate, RequestCommit))
    if isinstance(component, GenericObject):
        if isinstance(action, Create):
            return is_access_of(component, action.transaction)
        if isinstance(action, (InformCommit, InformAbort)):
            return action.obj == component.obj
        return False
    if isinstance(component, ProgramTransaction):
        if isinstance(action, Create):
            return action.transaction == component.transaction
        if isinstance(action, (ReportCommit, ReportAbort)):
            return is_child_of(component, action.transaction)
        return False
    return component.is_input(action)


def reference_is_output(component: IOAutomaton, action: Action) -> bool:
    """The hand-written output predicates, as :func:`reference_is_input`."""
    if isinstance(component, GenericController):
        return isinstance(
            action,
            (Create, Commit, Abort, ReportCommit, ReportAbort, InformCommit, InformAbort),
        )
    if isinstance(component, GenericObject):
        return isinstance(action, RequestCommit) and is_access_of(
            component, action.transaction
        )
    if isinstance(component, ProgramTransaction):
        if isinstance(action, RequestCreate):
            return is_child_of(component, action.transaction)
        if isinstance(action, RequestCommit):
            return action.transaction == component.transaction
        return False
    return component.is_output(action)


def reference_is_action(component: IOAutomaton, action: Action) -> bool:
    return reference_is_input(component, action) or reference_is_output(
        component, action
    )


def signature_vocabulary(system_type: SystemType):
    """Names and objects in and out of ``system_type``: every name it
    has, a foreign child of each, ``T0`` and a foreign top-level name;
    its objects and a foreign one."""
    names = {ROOT, T("zz")}
    for access in system_type.all_accesses():
        for ancestor in access.ancestors():
            names.update((ancestor, ancestor.child("zz")))
    objects = list(system_type.object_names()) + [ObjectName("zz")]
    return sorted(names), objects


def any_action(names, objects):
    """Every action class over ``names`` and ``objects``."""
    name = st.sampled_from(names)
    proper = st.sampled_from([n for n in names if not n.is_root])
    value = st.sampled_from(VALUES)
    obj = st.sampled_from(objects)
    return st.one_of(
        st.builds(Create, name),
        st.builds(RequestCommit, name, value),
        st.builds(RequestCreate, proper),
        st.builds(Commit, proper),
        st.builds(Abort, proper),
        st.builds(ReportCommit, proper, value),
        st.builds(ReportAbort, proper),
        st.builds(InformCommit, obj, proper),
        st.builds(InformAbort, obj, proper),
    )


# -- the reference composition step and driver --------------------------------


def reference_effect(
    system: Composition, state: Dict[str, Any], action: Action
) -> Dict[str, Any]:
    """Every component whose signature holds ``action`` performs it."""
    new_state = dict(state)
    for component in system.components:
        if reference_is_action(component, action):
            new_state[component.name] = component.effect(state[component.name], action)
    return new_state


#: The owed work by its definition: the enabled reports and informs.
OWED_CLASSES = (InformCommit, InformAbort, ReportCommit, ReportAbort)


def reference_run_system(
    system: Composition,
    policy: SchedulingPolicy,
    system_type: SystemType,
    max_steps: int = 10_000,
    collect_blocking: bool = False,
    resolve_deadlocks: bool = False,
) -> RunResult:
    """Apply each step through :func:`reference_effect`, re-query every
    component whose signature holds the applied action through the
    reference controller and object enumerations, drop duplicate offers,
    hand the policy the enabled reports and informs and the aborts not
    already enabled, and pick a deadlock victim from every object's
    blocked accesses."""
    state = system.initial_state()
    trace: List[Action] = []
    stats = RunStats()
    controller = next(c for c in system.components if isinstance(c, GenericController))
    objects = [c for c in system.components if isinstance(c, GenericObject)]

    def outputs_of(component: Any) -> List[Action]:
        if component is controller:
            return list(reference_enabled_outputs(controller, state[controller.name]))
        if isinstance(component, GenericObject):
            return reference_object_outputs(component, state[component.name])
        return list(component.enabled_outputs(state[component.name]))

    def pick_deadlock_victim() -> Optional[Abort]:
        blocked = sorted(
            access
            for generic_object in objects
            for access in reference_blocked_accesses(
                generic_object, state[generic_object.name]
            )
        )
        for access in blocked:
            abort = Abort(TransactionName(access.path[:1]))
            if controller.enabled(state[controller.name], abort):
                return abort
        return None

    output_cache = {c.name: outputs_of(c) for c in system.components}
    while stats.steps < max_steps:
        enabled: List[Action] = []
        seen = set()
        for component in system.components:
            for action in output_cache[component.name]:
                if action not in seen:
                    seen.add(action)
                    enabled.append(action)
        owed = [action for action in enabled if isinstance(action, OWED_CLASSES)]
        aborts = [
            abort
            for abort in reference_enabled_aborts(controller, state[controller.name])
            if abort not in seen
        ]
        choice = policy.choose(enabled, owed, aborts)
        if choice is None:
            if resolve_deadlocks and not enabled:
                victim = pick_deadlock_victim()
                if victim is not None:
                    choice = victim
                    stats.deadlock_aborts += 1
            if choice is None:
                stats.quiescent = not enabled
                break
        state = reference_effect(system, state, choice)
        for component in system.components:
            if reference_is_action(component, choice):
                output_cache[component.name] = outputs_of(component)
        trace.append(choice)
        policy.observe(choice)
        stats.steps += 1
        stats.count(type(choice).__name__)
        if isinstance(choice, Commit):
            stats.committed += 1
            if choice.transaction.depth == 1:
                stats.top_level_committed += 1
        elif isinstance(choice, Abort):
            stats.aborted += 1
        elif isinstance(choice, RequestCommit) and system_type.is_access(
            choice.transaction
        ):
            stats.accesses_answered += 1
        if collect_blocking:
            for generic_object in objects:
                blocked = reference_blocked_accesses(
                    generic_object, state[generic_object.name]
                )
                stats.blocked_access_steps += len(blocked)
    return RunResult(tuple(trace), stats, state)


class RecordingPolicy(SchedulingPolicy):
    """``policy``, logging each choice set it is handed (the enabled
    list, the owed work and the aborts) and its choice."""

    def __init__(self, policy: SchedulingPolicy) -> None:
        self.policy = policy
        self.choices: List[tuple] = []

    def choose(self, enabled, owed, aborts):
        choice = self.policy.choose(enabled, owed, aborts)
        self.choices.append((tuple(enabled), tuple(owed), tuple(aborts), choice))
        return choice

    def observe(self, action):
        self.policy.observe(action)


POLICIES = {
    "eager": lambda seed, names: EagerInformPolicy(seed=seed),
    "abort-injector": lambda seed, names: AbortInjector(
        RandomPolicy(seed), abort_rate=0.05, seed=seed
    ),
    "round-robin": lambda seed, names: RoundRobinPolicy(),
    "orphan-free": lambda seed, names: OrphanFreePolicy(
        AbortInjector(RandomPolicy(seed), abort_rate=0.05, seed=seed)
    ),
    "orphan-free-eager": lambda seed, names: OrphanFreePolicy(
        EagerInformPolicy(seed=seed)
    ),
    "scripted": lambda seed, names: ScriptedAbortInjector(
        RandomPolicy(seed), victims=names[::3], seed=seed, inject_rate=0.3
    ),
}
ALGORITHMS = {
    "moss": (MossRWLockingObject, RWKind),
    "undo": (UndoLoggingObject, CounterKind),
}


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("seed", [3, 8])
def test_driver_matches_reference(algorithm, policy, seed):
    """Equal behaviors, stats and, on every step, equal choice sets: the
    controller's ``owed`` tuple is the enabled list's reports and
    informs in its order, and its aborts are the reference's."""
    factory, kind = ALGORITHMS[algorithm]
    system_type, programs = generate_workload(
        WorkloadConfig(seed=seed, top_level=8, objects=3, kind=kind())
    )
    names = sorted(
        {
            ancestor
            for access in system_type.all_accesses()
            for ancestor in access.ancestors()
            if not ancestor.is_root
        }
    )
    runs = []
    for run in (run_system, reference_run_system):
        recording = RecordingPolicy(POLICIES[policy](seed, names))
        system = make_generic_system(system_type, programs, factory)
        result = run(
            system,
            recording,
            system_type,
            collect_blocking=True,
            resolve_deadlocks=True,
        )
        runs.append((result.behavior, result.stats, recording.choices))
    assert runs[0] == runs[1]
    assert runs[0][1].steps > 0
    if (algorithm, policy) == ("moss", "round-robin"):
        # both drivers pick deadlock victims here, each with its own sort
        assert runs[0][1].deadlock_aborts > 0


#: (seed, top-level transactions) of each pinned cell's runs, over 8
#: objects at nesting depth 2
PINNED_RUNS = ((1, 16), (2, 24), (3, 32))
#: Seeded Moss and undo runs under three of :data:`POLICIES`, pinned:
#: sha256 over ``repr`` of each behavior and its sorted
#: ``RunStats.to_dict()`` JSON, in :data:`PINNED_RUNS` order.  A change
#: to the driver, a policy, the controller, the objects or the programs
#: that moves any seeded run fails here.  The runs resolve deadlocks, and
#: every Moss cell picks victims.
PINNED_DIGESTS = {
    ("moss", "abort-injector"): (
        "fefbc6a1fb0702e600029dc9d96e51c6ec658a6689a31646ee827cd31ba6e990"
    ),
    ("moss", "eager"): (
        "bab8de75570258477bab1f635cf7917f4d13cf509a36fa6763b5d5c2653c80f2"
    ),
    ("moss", "round-robin"): (
        "611713bee2d5f590353ae8f565c84612774fbcaa63ccacf7cd3041b3eede19bc"
    ),
    ("undo", "abort-injector"): (
        "845be52fcbf14c96dc6f19d9ff971274f625a05df89a2434e6900494bd17ec54"
    ),
    ("undo", "eager"): (
        "2c72064fcc9067082e39470b641198739a9803139dc81d6cab2e6086af54bda1"
    ),
    ("undo", "round-robin"): (
        "dbd76bc2db8598b715527ff9aede380db190507b937812d4e42ec4f564e3ae45"
    ),
}


@pytest.mark.parametrize("algorithm, policy", sorted(PINNED_DIGESTS))
def test_seeded_runs_are_pinned(algorithm, policy):
    factory, kind = ALGORITHMS[algorithm]
    digest = hashlib.sha256()
    deadlock_aborts = 0
    for seed, top_level in PINNED_RUNS:
        system_type, programs = generate_workload(
            WorkloadConfig(
                seed=seed, top_level=top_level, objects=8, max_depth=2, kind=kind()
            )
        )
        system = make_generic_system(system_type, programs, factory)
        result = run_system(
            system, POLICIES[policy](seed, ()), system_type, resolve_deadlocks=True
        )
        digest.update(repr(result.behavior).encode())
        digest.update(json.dumps(result.stats.to_dict(), sort_keys=True).encode())
        deadlock_aborts += result.stats.deadlock_aborts
    assert digest.hexdigest() == PINNED_DIGESTS[(algorithm, policy)]
    assert deadlock_aborts > 0 or algorithm == "undo"


# -- routing ------------------------------------------------------------------

ROUTED_SYSTEMS = {
    "moss": (MossRWLockingObject, RWKind),
    "undo": (UndoLoggingObject, CounterKind),
    "read-update": (ReadUpdateLockingObject, CounterKind),
    "mvto": (MVTORWObject, RWKind),
}


def scanned(system: Composition, action: Action) -> tuple:
    """The participants by definition: every component whose signature
    holds ``action`` by the reference predicates."""
    return tuple(c for c in system.components if reference_is_action(c, action))


def foreign_actions(system_type: SystemType, behavior) -> List[Action]:
    """Every action kind on names and objects the system has and does not
    have: ``T0``, a foreign top-level transaction, and for a sample of
    the run's transactions and accesses the name itself and a foreign
    child; informs go to every object and to a foreign one."""
    objects = list(system_type.object_names()) + [ObjectName("zz")]
    seen = sorted({action.transaction for action in behavior})
    names = [ROOT, T("zz")]
    for name in seen[:: max(1, len(seen) // 12)]:
        names += [name, name.child("zz")]
    actions: List[Action] = []
    for name in names:
        actions += [Create(name), RequestCommit(name, 0)]
        if name.is_root:
            continue
        actions += [
            RequestCreate(name),
            Commit(name),
            Abort(name),
            ReportCommit(name, 0),
            ReportAbort(name),
        ]
        for obj in objects:
            actions += [InformCommit(obj, name), InformAbort(obj, name)]
    return actions


@pytest.mark.parametrize("algorithm", sorted(ROUTED_SYSTEMS))
@pytest.mark.parametrize("seed", [2, 9])
def test_routing_matches_the_signature_scan(algorithm, seed):
    """On every action of a seeded run, and on foreign actions, the
    generic, serial and simple systems' routed participants equal the
    components whose ``is_action`` holds, in component order."""
    factory, kind = ROUTED_SYSTEMS[algorithm]
    system_type, programs = generate_workload(
        WorkloadConfig(seed=seed, top_level=8, objects=3, max_depth=3, kind=kind())
    )
    generic = make_generic_system(system_type, programs, factory)
    result = run_system(
        generic,
        AbortInjector(RandomPolicy(seed), abort_rate=0.05, seed=seed),
        system_type,
        resolve_deadlocks=True,
    )
    assert result.stats.steps > 50
    actions = list(result.behavior) + foreign_actions(system_type, result.behavior)
    systems = [
        generic,
        make_serial_system(system_type, programs),
        make_simple_system(system_type, programs),
    ]
    for system in systems:
        routed = 0
        for action in actions:
            participants = system.participants(action)
            assert participants == scanned(system, action), (system.name, action)
            routed += bool(participants)
        assert routed > len(result.behavior) // 2, system.name


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("top_level", [16, 128])
def test_a_step_consults_a_few_signatures(algorithm, top_level, monkeypatch):
    """Routing a generic system's steps consults no signature predicate,
    however many transactions (and so components) the system has: every
    component has a table."""
    factory, kind = ALGORITHMS[algorithm]
    system_type, programs = generate_workload(
        WorkloadConfig(seed=5, top_level=top_level, objects=8, max_depth=2, kind=kind())
    )
    system = make_generic_system(system_type, programs, factory)
    assert len(system.components) > top_level
    calls = 0
    is_action = IOAutomaton.is_action

    def counted(self, action):
        nonlocal calls
        calls += 1
        return is_action(self, action)

    monkeypatch.setattr(IOAutomaton, "is_action", counted)
    result = run_system(
        system, EagerInformPolicy(seed=5), system_type, resolve_deadlocks=True
    )
    steps = result.stats.steps
    assert steps > 10 * top_level
    assert calls == 0, f"{calls / steps:.1f} is_action calls per step"


def signature_case(algorithm: str):
    factory, kind = ALGORITHMS[algorithm]
    system_type, programs = generate_workload(
        WorkloadConfig(seed=6, top_level=5, objects=3, max_depth=3, kind=kind())
    )
    return system_type, programs, make_generic_system(system_type, programs, factory)


SIGNATURE_CASES = {algorithm: signature_case(algorithm) for algorithm in ALGORITHMS}


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_signature_tables_match_the_reference_predicates(algorithm, data):
    """On arbitrary actions of every class, over names in and out of the
    system type and foreign objects, each component's table-derived
    predicates and the composition's routing equal the hand-written
    predicates."""
    system_type, _, system = SIGNATURE_CASES[algorithm]
    names, objects = signature_vocabulary(system_type)
    for action in data.draw(st.lists(any_action(names, objects), max_size=30)):
        for component in system.components:
            assert component.is_input(action) == reference_is_input(
                component, action
            ), (component.name, action)
            assert component.is_output(action) == reference_is_output(
                component, action
            ), (component.name, action)
        members = tuple(
            c for c in system.components if reference_is_action(c, action)
        )
        owners = [c for c in members if reference_is_output(c, action)]
        assert system.participants(action) == members, action
        assert system.is_output(action) == bool(owners)
        assert system.is_input(action) == (bool(members) and not owners)


class Untabled:
    """A component stating its signature through the reference
    predicates, with no table."""

    def signature(self):
        return None

    def is_input(self, action):
        return reference_is_input(self, action)

    def is_output(self, action):
        return reference_is_output(self, action)


class UntabledController(Untabled, GenericController):
    pass


class UntabledProgram(Untabled, ProgramTransaction):
    pass


def untabled(component: IOAutomaton) -> IOAutomaton:
    """The same automaton without its table."""
    if isinstance(component, GenericController):
        return UntabledController(component.system_type)
    if isinstance(component, GenericObject):
        base = type(component)
        cls = type(f"Untabled{base.__name__}", (Untabled, base), {})
        return cls(component.obj, component.system_type)
    return UntabledProgram(component.transaction, component.program)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_mixed_composition_keeps_component_order(algorithm):
    """Every other component, the controller and objects among them,
    without a table: the merged routes and the consulted components
    interleave in component order, and a seeded run is unchanged."""
    system_type, _, tabled = SIGNATURE_CASES[algorithm]
    mixed = Composition(
        [
            untabled(component) if position % 2 else component
            for position, component in enumerate(tabled.components)
        ]
    )
    assert any(c.signature() is None for c in mixed.components)
    assert any(c.signature() is not None for c in mixed.components)
    runs = [
        run_system(
            system,
            AbortInjector(RandomPolicy(4), abort_rate=0.05, seed=4),
            system_type,
            resolve_deadlocks=True,
        ).behavior
        for system in (tabled, mixed)
    ]
    assert runs[0] == runs[1] and len(runs[0]) > 50
    for action in list(runs[0]) + foreign_actions(system_type, runs[0]):
        members = mixed.participants(action)
        assert members == tuple(
            c for c in mixed.components if reference_is_action(c, action)
        ), action
        assert [c.name for c in members] == [
            c.name for c in tabled.participants(action)
        ]


# -- names and states ---------------------------------------------------------

SRC = str(Path(__file__).resolve().parent.parent / "src")
PICKLE_NAMES = """
import pickle, sys
from repro import ObjectName, TransactionName
names = [TransactionName(("a", "b")), TransactionName(()), ObjectName("x")]
indexed = {name: i for i, name in enumerate(names)}
sys.stdout.write(pickle.dumps((names, set(names), indexed)).hex())
"""


def test_a_pickled_name_rehashes_where_it_is_loaded():
    """Names compute their hash once, and a hash depends on
    ``PYTHONHASHSEED``: a name pickled in one interpreter must hash as a
    fresh name in another, or set and dict lookups miss."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="1")
    pickled = subprocess.run(
        [sys.executable, "-c", PICKLE_NAMES],
        check=True, capture_output=True, text=True, env=env,
    ).stdout
    load = f"""
import pickle
from repro import ObjectName, TransactionName
names, as_set, as_dict = pickle.loads(bytes.fromhex({pickled!r}))
fresh = [TransactionName(("a", "b")), TransactionName(()), ObjectName("x")]
assert names == fresh and [hash(n) for n in names] == [hash(n) for n in fresh]
assert all(name in as_set and name in set(names) for name in fresh)
assert [as_dict[name] for name in fresh] == [0, 1, 2]
assert {{name: i for i, name in enumerate(names)}}[fresh[0]] == 0
print("ok")
"""
    env["PYTHONHASHSEED"] = "2"
    loaded = subprocess.run(
        [sys.executable, "-c", load], capture_output=True, text=True, env=env
    )
    assert loaded.stdout.strip() == "ok", loaded.stderr
    name = TransactionName(("a", "b"))
    assert pickle.loads(pickle.dumps(name)) == name
    assert hash(pickle.loads(pickle.dumps(name))) == hash(name)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("seed", [4, 7])
def test_object_states_of_seeded_runs_hash(algorithm, seed):
    """Every state each component of a Moss or undo system passes
    through in a seeded run hashes, survives a pickle round trip, and
    equal states hash alike: the controller, every program transaction
    and every object."""
    factory, kind = ALGORITHMS[algorithm]
    system_type, programs = generate_workload(
        WorkloadConfig(seed=seed, top_level=8, objects=3, kind=kind())
    )
    system = make_generic_system(system_type, programs, factory)
    result = run_system(
        system,
        AbortInjector(RandomPolicy(seed), abort_rate=0.05, seed=seed),
        system_type,
        resolve_deadlocks=True,
    )
    hashed: Dict[type, int] = {}
    for component in system.components:
        state = component.initial_state()
        hash(state)
        for action in result.behavior:
            if reference_is_action(component, action):
                state = component.effect(state, action)
                copy = pickle.loads(pickle.dumps(state))
                assert copy == state and hash(copy) == hash(state)
                kind_of = type(component)
                hashed[kind_of] = hashed.get(kind_of, 0) + 1
        assert state == result.final_state[component.name]
        assert hash(state) == hash(result.final_state[component.name])
    assert hashed[GenericController] == len(result.behavior)
    assert hashed[ProgramTransaction] > 20 and hashed[factory] > 20
