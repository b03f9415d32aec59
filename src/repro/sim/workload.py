"""Random nested-transaction workload generation.

Produces reproducible random transaction forests over a configurable set
of objects.  Object behaviour is abstracted by :class:`ObjectKind`: the
kind supplies the serial specification and samples operations, so the
same generator drives the read/write experiments (E1/E2) and the
arbitrary-data-type experiments (E3/E7).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from ..core.names import ObjectName, SystemType, TransactionName
from ..core.rw_semantics import ReadOp, RWSpec, WriteOp
from ..spec.builtin import (
    BalanceRead,
    MapGet,
    MapPut,
    MapRemove,
    MapType,
    BankAccountType,
    CounterInc,
    CounterRead,
    CounterType,
    Dequeue,
    Enqueue,
    QueueType,
    RegisterType,
    RegRead,
    RegWrite,
    SetInsert,
    SetMember,
    SetRemove,
    SetType,
    Deposit,
    Withdraw,
)
from .programs import (
    AccessCall,
    SubtransactionCall,
    TransactionProgram,
    system_type_for,
)

__all__ = [
    "ObjectKind",
    "RWKind",
    "RegisterKind",
    "CounterKind",
    "SetKind",
    "BankAccountKind",
    "QueueKind",
    "MapKind",
    "WorkloadConfig",
    "generate_program_set",
    "generate_workload",
]


class ObjectKind(ABC):
    """A family of objects: how to build their spec and sample operations."""

    @abstractmethod
    def make_spec(self, rng: random.Random) -> Any: ...

    @abstractmethod
    def sample_op(self, rng: random.Random) -> Any: ...


@dataclass
class RWKind(ObjectKind):
    """Classical read/write objects (``RWSpec``, Moss-compatible)."""

    write_probability: float = 0.5
    value_range: int = 10
    initial: int = 0

    def make_spec(self, rng: random.Random) -> RWSpec:
        return RWSpec(initial=self.initial)

    def sample_op(self, rng: random.Random) -> Any:
        if rng.random() < self.write_probability:
            return WriteOp(rng.randrange(self.value_range))
        return ReadOp()


@dataclass
class RegisterKind(ObjectKind):
    """Registers with the exact commutativity relation (for undo logging)."""

    write_probability: float = 0.5
    value_range: int = 10
    initial: int = 0

    def make_spec(self, rng: random.Random) -> RegisterType:
        return RegisterType(initial=self.initial)

    def sample_op(self, rng: random.Random) -> Any:
        if rng.random() < self.write_probability:
            return RegWrite(rng.randrange(self.value_range))
        return RegRead()


@dataclass
class CounterKind(ObjectKind):
    """Counters: mostly commuting increments, occasional reads."""

    read_probability: float = 0.2
    max_amount: int = 5
    initial: int = 0

    def make_spec(self, rng: random.Random) -> CounterType:
        return CounterType(initial=self.initial)

    def sample_op(self, rng: random.Random) -> Any:
        if rng.random() < self.read_probability:
            return CounterRead()
        return CounterInc(rng.randint(1, self.max_amount))


@dataclass
class SetKind(ObjectKind):
    """Sets over a small element domain."""

    domain: int = 6
    member_probability: float = 0.25
    remove_probability: float = 0.25

    def make_spec(self, rng: random.Random) -> SetType:
        return SetType()

    def sample_op(self, rng: random.Random) -> Any:
        element = rng.randrange(self.domain)
        roll = rng.random()
        if roll < self.member_probability:
            return SetMember(element)
        if roll < self.member_probability + self.remove_probability:
            return SetRemove(element)
        return SetInsert(element)


@dataclass
class BankAccountKind(ObjectKind):
    """Bank accounts: deposits, withdrawals and balance reads."""

    initial: int = 100
    max_amount: int = 20
    read_probability: float = 0.2
    withdraw_probability: float = 0.4

    def make_spec(self, rng: random.Random) -> BankAccountType:
        return BankAccountType(initial=self.initial)

    def sample_op(self, rng: random.Random) -> Any:
        roll = rng.random()
        if roll < self.read_probability:
            return BalanceRead()
        if roll < self.read_probability + self.withdraw_probability:
            return Withdraw(rng.randint(1, self.max_amount))
        return Deposit(rng.randint(1, self.max_amount))


@dataclass
class QueueKind(ObjectKind):
    """FIFO queues: enqueues and dequeues."""

    domain: int = 8
    dequeue_probability: float = 0.4

    def make_spec(self, rng: random.Random) -> QueueType:
        return QueueType()

    def sample_op(self, rng: random.Random) -> Any:
        if rng.random() < self.dequeue_probability:
            return Dequeue()
        return Enqueue(rng.randrange(self.domain))


@dataclass
class MapKind(ObjectKind):
    """Key/value maps: distinct keys commute; per key like a register."""

    keys: int = 4
    value_range: int = 5
    get_probability: float = 0.3
    remove_probability: float = 0.15

    def make_spec(self, rng: random.Random) -> MapType:
        return MapType()

    def sample_op(self, rng: random.Random) -> Any:
        key = f"k{rng.randrange(self.keys)}"
        roll = rng.random()
        if roll < self.get_probability:
            return MapGet(key)
        if roll < self.get_probability + self.remove_probability:
            return MapRemove(key)
        return MapPut(key, rng.randrange(self.value_range))


@dataclass
class WorkloadConfig:
    """Parameters of a random nested workload."""

    objects: int = 4
    top_level: int = 6
    max_depth: int = 2
    max_calls: int = 3
    subtransaction_probability: float = 0.3
    sequential_probability: float = 0.5
    kind: ObjectKind = None  # type: ignore[assignment]
    seed: int = 0
    hot_object_bias: float = 0.0

    def __post_init__(self) -> None:
        if self.kind is None:
            self.kind = RWKind()
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if not 0.0 <= self.hot_object_bias <= 1.0:
            raise ValueError("hot_object_bias must be a probability")


def _sample_object(config: WorkloadConfig, rng: random.Random) -> ObjectName:
    if config.hot_object_bias and rng.random() < config.hot_object_bias:
        return ObjectName("X0")
    return ObjectName(f"X{rng.randrange(config.objects)}")


def _generate_program(
    config: WorkloadConfig, rng: random.Random, depth: int
) -> TransactionProgram:
    call_count = rng.randint(1, config.max_calls)
    calls = []
    for position in range(call_count):
        nest = (
            depth < config.max_depth
            and rng.random() < config.subtransaction_probability
        )
        if nest:
            calls.append(
                SubtransactionCall(
                    f"s{position}", _generate_program(config, rng, depth + 1)
                )
            )
        else:
            obj = _sample_object(config, rng)
            calls.append(AccessCall(f"a{position}", obj, config.kind.sample_op(rng)))
    sequential = rng.random() < config.sequential_probability
    return TransactionProgram(tuple(calls), sequential=sequential)


def generate_program_set(
    config: WorkloadConfig,
) -> Tuple[Dict[ObjectName, Any], Dict[TransactionName, TransactionProgram]]:
    """Generate ``(objects, programs)`` from ``config``.

    Deterministic in ``config.seed``.  The returned program map has a
    single entry for the root ``T0``: a parallel program spawning the
    top-level transactions ``t0 .. t{n-1}`` (the paper's classical
    transactions), each a randomly generated nested program.  This is
    the raw template form the static robustness analyzer consumes
    (:func:`repro.analysis.robustness.analyze_robustness`); use
    :func:`generate_workload` when a registered :class:`SystemType` is
    needed instead.
    """
    rng = random.Random(config.seed)
    objects: Dict[ObjectName, Any] = {
        ObjectName(f"X{i}"): config.kind.make_spec(rng) for i in range(config.objects)
    }
    top_level = tuple(
        SubtransactionCall(f"t{i}", _generate_program(config, rng, depth=1))
        for i in range(config.top_level)
    )
    root_program = TransactionProgram(top_level, sequential=False)
    programs = {TransactionName(()): root_program}
    return objects, programs


def generate_workload(
    config: WorkloadConfig,
) -> Tuple[SystemType, Dict[TransactionName, TransactionProgram]]:
    """Generate ``(system_type, programs)`` from ``config``.

    The registered form of :func:`generate_program_set`: pass both
    results straight to :func:`repro.generic.system.make_generic_system`.
    """
    objects, programs = generate_program_set(config)
    return system_type_for(objects, programs), programs
