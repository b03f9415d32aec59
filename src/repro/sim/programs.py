"""Transaction programs: the code run by non-access transaction automata.

The paper treats transactions as black-box I/O automata constrained only
by well-formedness.  For simulation we need concrete transactions, so
this module provides a small declarative DSL: a
:class:`TransactionProgram` lists *calls* — accesses to objects or
nested subtransactions — executed either sequentially (each call is
requested only after the previous one reported, which gives rise to the
paper's ``precedes`` edges) or in parallel (all requested up front,
modelling the "several simultaneous remote procedure calls" of the
introduction).

:class:`ProgramTransaction` interprets a program as a transaction
automaton preserving transaction well-formedness; :func:`system_type_for`
derives the system-type fragment (the access registry) that a set of
top-level programs induces.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..automata.base import IOAutomaton, SignatureRow, evolve
from ..core.actions import (
    Action,
    Create,
    ReportAbort,
    ReportCommit,
    RequestCommit,
    RequestCreate,
)
from ..core.names import Access, ObjectName, SystemType, TransactionName
from ..core.rw_semantics import ReadOp, WriteOp

__all__ = [
    "AccessCall",
    "SubtransactionCall",
    "TransactionProgram",
    "ProgramTransaction",
    "ProgramState",
    "system_type_for",
    "collect_programs",
    "read",
    "write",
    "op",
    "sub",
    "access_sequence",
    "seq",
    "par",
]


@dataclass(frozen=True)
class AccessCall:
    """A call that invokes an access (leaf) on ``obj`` with operation ``op``.

    With ``after_abort_of`` set, the call is an *alternative*: it is
    issued only if the named earlier call aborts — the "retry a failed
    subtransaction" pattern the paper's introduction motivates.
    """

    component: str
    obj: ObjectName
    op: Any
    after_abort_of: Optional[str] = None


@dataclass(frozen=True)
class SubtransactionCall:
    """A call that invokes a nested subtransaction running ``program``.

    ``after_abort_of`` marks the call as an alternative (see
    :class:`AccessCall`).
    """

    component: str
    program: "TransactionProgram"
    after_abort_of: Optional[str] = None


Call = Union[AccessCall, SubtransactionCall]


@dataclass(frozen=True)
class TransactionProgram:
    """A transaction body: an ordered tuple of calls plus a return value.

    ``sequential`` controls whether each call waits for the previous
    call's report.  ``result`` is either a hashable constant, or a
    callable mapping the dict ``{component: outcome}`` (outcome is
    ``("commit", value)`` or ``("abort",)``) to a hashable value.
    """

    calls: Tuple[Call, ...] = ()
    sequential: bool = True
    result: Any = "ok"

    def __post_init__(self) -> None:
        components = [call.component for call in self.calls]
        if len(set(components)) != len(components):
            raise ValueError(f"duplicate call components: {components}")
        seen = set()
        for call in self.calls:
            if call.after_abort_of is not None:
                if call.after_abort_of not in seen:
                    raise ValueError(
                        f"alternative {call.component!r} must follow its "
                        f"trigger {call.after_abort_of!r}"
                    )
            seen.add(call.component)

    def call(self, component: str) -> Call:
        for candidate in self.calls:
            if candidate.component == component:
                return candidate
        raise KeyError(component)

    def result_value(self, outcomes: Mapping[str, Tuple[Any, ...]]) -> Any:
        if callable(self.result):
            return self.result(dict(outcomes))
        return self.result


# -- DSL helpers -------------------------------------------------------------


def read(obj: ObjectName, component: Optional[str] = None) -> AccessCall:
    """An access call reading ``obj``."""
    return AccessCall(component or f"read_{obj.name}", obj, ReadOp())


def write(obj: ObjectName, data: Any, component: Optional[str] = None) -> AccessCall:
    """An access call writing ``data`` to ``obj``."""
    return AccessCall(component or f"write_{obj.name}", obj, WriteOp(data))


def op(obj: ObjectName, operation: Any, component: Optional[str] = None) -> AccessCall:
    """An access call performing an arbitrary typed operation on ``obj``."""
    return AccessCall(component or f"op_{obj.name}", obj, operation)


def sub(program: TransactionProgram, component: str) -> SubtransactionCall:
    """A nested subtransaction call."""
    return SubtransactionCall(component, program)


def access_sequence(
    accesses: Sequence[Tuple[str, ObjectName, Any]], result: Any = "ok"
) -> TransactionProgram:
    """A sequential program of bare access calls ``(component, obj, op)``.

    The site-local projection of a distributed transaction is exactly
    this shape — the accesses it routed to one site, in issue order —
    so :mod:`repro.distributed` assembles per-site programs with it.
    """
    return TransactionProgram(
        tuple(AccessCall(component, obj, op) for component, obj, op in accesses),
        sequential=True,
        result=result,
    )


def _number_components(calls: Tuple[Call, ...]) -> Tuple[Call, ...]:
    seen: Dict[str, int] = {}
    renamed = []
    for call in calls:
        count = seen.get(call.component, 0)
        seen[call.component] = count + 1
        if count:
            renamed.append(replace(call, component=f"{call.component}_{count}"))
        else:
            renamed.append(call)
    return tuple(renamed)


def seq(*calls: Call, result: Any = "ok") -> TransactionProgram:
    """A sequential program; duplicate component names are suffixed."""
    return TransactionProgram(_number_components(tuple(calls)), True, result)


def par(*calls: Call, result: Any = "ok") -> TransactionProgram:
    """A parallel program; duplicate component names are suffixed."""
    return TransactionProgram(_number_components(tuple(calls)), False, result)


# -- system type derivation -------------------------------------------------


def _register_accesses(
    system_type: SystemType, name: TransactionName, program: TransactionProgram
) -> None:
    for call in program.calls:
        child = name.child(call.component)
        if isinstance(call, AccessCall):
            system_type.register_access(child, Access(call.obj, call.op))
        else:
            _register_accesses(system_type, child, call.program)


def system_type_for(
    objects: Mapping[ObjectName, Any],
    programs: Mapping[TransactionName, TransactionProgram],
) -> SystemType:
    """Build the system type induced by top-level programs over ``objects``."""
    system_type = SystemType(objects)
    for name, program in programs.items():
        _register_accesses(system_type, name, program)
    return system_type


def collect_programs(
    programs: Mapping[TransactionName, TransactionProgram]
) -> Dict[TransactionName, TransactionProgram]:
    """Flatten nested programs into ``{transaction name: program}``.

    The result has an entry for every *non-access* transaction below the
    given top-level names; the driver builds one
    :class:`ProgramTransaction` per entry.
    """
    flat: Dict[TransactionName, TransactionProgram] = {}

    def walk(name: TransactionName, program: TransactionProgram) -> None:
        flat[name] = program
        for call in program.calls:
            if isinstance(call, SubtransactionCall):
                walk(name.child(call.component), call.program)

    for name, program in programs.items():
        walk(name, program)
    return flat


# -- the transaction automaton ------------------------------------------------


@dataclass(frozen=True)
class ProgramState:
    """State of a program transaction: progress through its calls.

    Beside the history (the ``requested`` calls, and their ``outcomes``
    in the order they arrived, which a computed result sees), the state
    keeps each call's outcome by call index in ``results``, and the
    program's *open calls*, as call indices in call order:
    ``requestable``, the calls neither requested nor inactive, and
    ``awaiting``, the calls that hold back the commit request (an
    unresolved alternative, or an active call without an outcome).  A
    call leaves either for good.  :meth:`ProgramTransaction.effect`
    keeps both, so :meth:`ProgramTransaction.enabled_outputs` costs the
    calls it can request rather than every call.  Build states with
    ``initial_state`` and ``effect``, never by hand.
    """

    created: bool = False
    requested: FrozenSet[str] = frozenset()
    outcomes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    commit_requested: bool = False
    results: Tuple[Optional[Tuple[Any, ...]], ...] = ()
    requestable: Tuple[int, ...] = ()
    awaiting: Tuple[int, ...] = ()

    def outcome_map(self) -> Dict[str, Tuple[Any, ...]]:
        return dict(self.outcomes)


_ACTIVE, _INACTIVE, _UNRESOLVED = "active", "inactive", "unresolved"


def _without(indices: Tuple[int, ...], index: int) -> Tuple[int, ...]:
    """``indices`` (ascending) without ``index``."""
    at = bisect_left(indices, index)
    if at < len(indices) and indices[at] == index:
        return indices[:at] + indices[at + 1 :]
    return indices


class ProgramTransaction(IOAutomaton):
    """The transaction automaton ``A_T`` interpreting a program.

    Root transactions (``T0``) are modelled with ``created=True`` from
    the start and never request commit; every other transaction follows
    transaction well-formedness: it acts only after ``CREATE``, requests
    each child at most once (respecting sequencing), and requests commit
    only after all its calls have reported.
    """

    def __init__(self, name: TransactionName, program: TransactionProgram) -> None:
        self.transaction = name
        self.program = program
        self.name = f"A_{name}"
        calls = program.calls
        self._children: Tuple[TransactionName, ...] = tuple(
            [name.child(call.component) for call in calls]
        )
        self._requests = tuple([RequestCreate(child) for child in self._children])
        self._index = {call.component: index for index, call in enumerate(calls)}
        # each call's trigger, and each call's alternatives and theirs in
        # turn, in call order
        self._trigger: Tuple[Optional[int], ...] = (None,) * len(calls)
        self._alternatives: Tuple[Tuple[int, ...], ...] = ((),) * len(calls)
        if any(call.after_abort_of is not None for call in calls):
            self._trigger = tuple(
                None if trigger is None else self._index[trigger]
                for trigger in (call.after_abort_of for call in calls)
            )
            alternatives: List[List[int]] = [[] for _ in calls]
            for index, trigger in enumerate(self._trigger):
                while trigger is not None:
                    alternatives[trigger].append(index)
                    trigger = self._trigger[trigger]
            self._alternatives = tuple(map(tuple, alternatives))
        every = tuple(range(len(calls)))
        self._initial = ProgramState(
            created=name.is_root,
            results=(None,) * len(calls),
            requestable=every,
            awaiting=every,
        )

    # -- signature ---------------------------------------------------------

    def signature(self) -> Tuple[SignatureRow, ...]:
        """``T``'s CREATE as an input and its REQUEST_COMMIT as an output;
        its children's REQUEST_CREATEs as outputs and their reports as
        inputs."""
        me, children = (self.transaction,), self._children
        return (
            (Create, me, False),
            (RequestCommit, me, True),
            (RequestCreate, children, True),
            (ReportCommit, children, False),
            (ReportAbort, children, False),
        )

    # -- transitions ----------------------------------------------------------

    def initial_state(self) -> ProgramState:
        return self._initial

    def _activations(
        self, outcomes: Dict[str, Tuple[Any, ...]]
    ) -> Iterator[Tuple[Call, str]]:
        """Each call with its status: 'active', 'inactive' or 'unresolved'.

        Non-alternative calls are always active.  An alternative is
        inactive once its trigger committed or when its trigger is an
        inactive alternative (which never runs), active once its trigger
        aborted, and unresolved while the trigger may still run.  One
        forward pass suffices: a trigger precedes its alternatives.
        """
        inactive: Set[str] = set()
        for call in self.program.calls:
            trigger = call.after_abort_of
            if trigger is None:
                yield call, "active"
                continue
            outcome = outcomes.get(trigger)
            if trigger in inactive or (outcome is not None and outcome[0] != "abort"):
                inactive.add(call.component)
                yield call, "inactive"
            else:
                yield call, "unresolved" if outcome is None else "active"

    def _may_request(self, state: ProgramState, component: str) -> bool:
        if not state.created or state.commit_requested:
            return False
        if component in state.requested:
            return False
        outcomes = state.outcome_map()
        for call, status in self._activations(outcomes):
            if call.component == component:
                return status == "active"
            if not self.program.sequential:
                continue
            # sequential: every earlier call must be resolved — an
            # outcome for active calls, a committed trigger for
            # inactive alternatives; unresolved alternatives block
            if status == "unresolved":
                return False
            if status == "active" and call.component not in outcomes:
                return False
        return False

    def _ready_to_commit(self, state: ProgramState) -> bool:
        if not state.created or state.commit_requested or self.transaction.is_root:
            return False
        outcomes = state.outcome_map()
        for call, status in self._activations(outcomes):
            if status == "unresolved":
                return False
            if status == "active" and call.component not in outcomes:
                return False
        return True

    def enabled(self, state: ProgramState, action: Action) -> bool:
        if self.is_input(action):
            return True
        if isinstance(action, RequestCreate):
            return self._may_request(state, action.transaction.path[-1])
        if isinstance(action, RequestCommit):
            return (
                self._ready_to_commit(state)
                and action.value == self.program.result_value(state.outcome_map())
            )
        return False

    def _status(
        self, results: Tuple[Optional[Tuple[Any, ...]], ...], index: int
    ) -> str:
        """Call ``index``'s status in :meth:`_activations`' terms, read
        off its trigger chain and the ``results`` by call index."""
        trigger = self._trigger[index]
        if trigger is None:
            return _ACTIVE
        if self._status(results, trigger) == _INACTIVE:
            return _INACTIVE
        outcome = results[trigger]
        if outcome is None:
            return _UNRESOLVED
        return _ACTIVE if outcome[0] == "abort" else _INACTIVE

    def effect(self, state: ProgramState, action: Action) -> ProgramState:
        if isinstance(action, Create):
            return evolve(state, created=True)
        if isinstance(action, (ReportCommit, ReportAbort)):
            index = self._call_index(action)
            if state.results[index] is not None:
                return state
            if isinstance(action, ReportCommit):
                outcome: Tuple[Any, ...] = ("commit", action.value)
            else:
                outcome = ("abort",)
            return self._resolve(state, index, outcome)
        if isinstance(action, RequestCreate):
            return evolve(
                state,
                requested=state.requested | {action.transaction.path[-1]},
                requestable=_without(state.requestable, self._call_index(action)),
            )
        if isinstance(action, RequestCommit):
            return evolve(state, commit_requested=True)
        raise ValueError(f"{self.name}: {action} not in signature")

    def _call_index(self, action: Action) -> int:
        """The index of the call whose child ``action`` names."""
        try:
            return self._index[action.transaction.path[-1]]
        except KeyError:
            raise ValueError(f"{self.name}: {action} not in signature") from None

    def _resolve(
        self, state: ProgramState, index: int, outcome: Tuple[Any, ...]
    ) -> ProgramState:
        """``state`` after the first outcome of call ``index``.  The call
        and its alternatives are the only calls whose status can change:
        an inactive one leaves both open lists, an active one with an
        outcome leaves ``awaiting``."""
        results = state.results[:index] + (outcome,) + state.results[index + 1 :]
        requestable, awaiting = state.requestable, state.awaiting
        for call in (index,) + self._alternatives[index]:
            status = self._status(results, call)
            if status == _INACTIVE:
                requestable = _without(requestable, call)
                awaiting = _without(awaiting, call)
            elif status == _ACTIVE and results[call] is not None:
                awaiting = _without(awaiting, call)
        component = self.program.calls[index].component
        return evolve(
            state,
            outcomes=state.outcomes + ((component, outcome),),
            results=results,
            requestable=requestable,
            awaiting=awaiting,
        )

    def enabled_outputs(self, state: ProgramState) -> Iterator[Action]:
        """The calls :meth:`_may_request` allows, then the commit request
        :meth:`_ready_to_commit` allows, read off the open calls: the
        active requestable calls (in a sequential program, only those up
        to the first awaited one), and the commit request once nothing
        is awaited."""
        if not state.created or state.commit_requested:
            return
        awaiting = state.awaiting
        last = awaiting[0] if awaiting and self.program.sequential else len(
            self._requests
        )
        results = state.results
        for index in state.requestable:
            if index > last:
                break
            if self._status(results, index) == _ACTIVE:
                yield self._requests[index]
        if not awaiting and not self.transaction.is_root:
            yield RequestCommit(
                self.transaction, self.program.result_value(state.outcome_map())
            )
