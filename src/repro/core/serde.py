"""JSON serialization for behaviors and system types.

Recorded behaviors are the natural interchange format of this library —
a production system would log its serial actions and audit them offline
with the certifier.  This module round-trips behaviors and system types
(read/write objects and all built-in data types) through plain JSON.

Values and operation parameters are restricted to JSON-representable
scalars plus tuples/frozensets of them; this covers every type shipped
with the library.  Unknown specs or exotic values raise ``TypeError``
at encode time rather than producing lossy output, and decoding raises
``ValueError`` on any shape the encoder cannot have produced, so a
malformed log is diagnosed instead of audited.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Any, Dict, List, Sequence, Tuple

from .actions import (
    Abort,
    Action,
    Behavior,
    Commit,
    Create,
    InformAbort,
    InformCommit,
    ReportAbort,
    ReportCommit,
    RequestCommit,
    RequestCreate,
)
from .names import ROOT, Access, ObjectName, SystemType, TransactionName
from .rw_semantics import ReadOp, RWSpec, WriteOp

__all__ = [
    "behavior_to_json",
    "behavior_from_json",
    "system_type_to_json",
    "system_type_from_json",
    "dump_case",
    "load_case",
]

_ACTION_KINDS = {
    "create": Create,
    "request_create": RequestCreate,
    "request_commit": RequestCommit,
    "commit": Commit,
    "abort": Abort,
    "report_commit": ReportCommit,
    "report_abort": ReportAbort,
    "inform_commit": InformCommit,
    "inform_abort": InformAbort,
}
_KIND_OF = {cls: kind for kind, cls in _ACTION_KINDS.items()}
#: the Python types of JSON scalars (``None`` aside)
_SCALARS = (bool, int, float, str)

#: one decoded :class:`TransactionName` per distinct path, per load
_Names = Dict[Tuple[Any, ...], TransactionName]


@lru_cache(maxsize=None)
def _op_table() -> Dict[str, Tuple[type, Tuple[str, ...]]]:
    """Operation classes by name, with the fields their JSON carries.

    Built once, on first use: :mod:`repro.spec` sits above ``core``.
    """
    from ..spec import builtin

    return {
        cls.__name__: (cls, fields)
        for cls, fields in (
            (ReadOp, ()),
            (WriteOp, ("data",)),
            (builtin.RegRead, ()),
            (builtin.RegWrite, ("data",)),
            (builtin.CounterInc, ("amount",)),
            (builtin.CounterRead, ()),
            (builtin.SetInsert, ("element",)),
            (builtin.SetRemove, ("element",)),
            (builtin.SetMember, ("element",)),
            (builtin.Deposit, ("amount",)),
            (builtin.Withdraw, ("amount",)),
            (builtin.BalanceRead, ()),
            (builtin.Enqueue, ("element",)),
            (builtin.Dequeue, ()),
            (builtin.MapPut, ("key", "value")),
            (builtin.MapGet, ("key",)),
            (builtin.MapRemove, ("key",)),
        )
    }


@lru_cache(maxsize=None)
def _spec_table() -> Dict[str, type]:
    """Serial specification classes by name, built once on first use."""
    from ..spec import builtin

    return {
        cls.__name__: cls
        for cls in (
            RWSpec,
            builtin.RegisterType,
            builtin.CounterType,
            builtin.SetType,
            builtin.BankAccountType,
            builtin.QueueType,
            builtin.MapType,
        )
    }


def _encode_value(value: Any) -> Any:
    """Encode a return value / op parameter as tagged JSON."""
    if value is None or isinstance(value, _SCALARS):
        return {"t": "scalar", "v": value}
    if isinstance(value, tuple):
        return {"t": "tuple", "v": [_encode_value(item) for item in value]}
    if isinstance(value, frozenset):
        return {
            "t": "frozenset",
            "v": sorted((_encode_value(item) for item in value), key=json.dumps),
        }
    raise TypeError(f"cannot encode value of type {type(value).__name__}: {value!r}")


def _decode_value(blob: Any) -> Any:
    if type(blob) is not dict or "v" not in blob:
        raise ValueError(f"a value must be an object with 't' and 'v', got {blob!r}")
    tag = blob.get("t")
    value = blob["v"]
    if tag == "scalar":
        if value is not None and type(value) not in _SCALARS:
            raise ValueError(f"scalar value must be a JSON scalar, got {value!r}")
        return value
    if tag == "tuple" or tag == "frozenset":
        if type(value) is not list:
            raise ValueError(f"{tag} value must be a list, got {value!r}")
        items = [_decode_value(item) for item in value]
        return tuple(items) if tag == "tuple" else frozenset(items)
    raise ValueError(f"unknown value tag {tag!r}")


def _decode_name(path: Any, names: _Names) -> TransactionName:
    """The load's one :class:`TransactionName` for the JSON ``path``."""
    if type(path) is not list:
        raise ValueError(
            f"a transaction must be a list of path components, got {path!r}"
        )
    key = tuple(path)
    try:
        name = names.get(key)
    except TypeError:  # an unhashable component
        name = None
    if name is None:
        name = names[key] = TransactionName(key)  # validates the components
    return name


def _encode_op(op: Any) -> Dict[str, Any]:
    """Encode an operation descriptor (RW ops and all built-in type ops)."""
    for cls, fields in _op_table().values():
        if isinstance(op, cls):
            return {
                "op": cls.__name__,
                "args": {name: _encode_value(getattr(op, name)) for name in fields},
            }
    raise TypeError(f"cannot encode operation {op!r}")


def _decode_op(blob: Any) -> Any:
    name = blob.get("op") if type(blob) is dict else None
    entry = _op_table().get(name) if type(name) is str else None
    if entry is None:
        raise ValueError(f"unknown operation {blob!r}")
    cls, fields = entry
    args = blob.get("args")
    if type(args) is not dict or not args.keys() <= set(fields):
        raise ValueError(
            f"operation {cls.__name__} takes arguments {fields}, got {args!r}"
        )
    try:
        return cls(**{field: _decode_value(value) for field, value in args.items()})
    except TypeError as exc:  # a missing argument
        raise ValueError(f"operation {cls.__name__}: {exc}") from None


def _encode_spec(spec: Any) -> Dict[str, Any]:
    for cls in _spec_table().values():
        if isinstance(spec, cls):
            return {"spec": cls.__name__, "initial": _encode_value(spec.initial)}
    raise TypeError(f"cannot encode spec {spec!r}")


def _decode_spec(blob: Any) -> Any:
    name = blob.get("spec") if type(blob) is dict else None
    cls = _spec_table().get(name) if type(name) is str else None
    if cls is None or "initial" not in blob:
        raise ValueError(f"unknown spec {blob!r}")
    try:
        return cls(initial=_decode_value(blob["initial"]))
    except TypeError as exc:  # an initial value the spec cannot hold
        raise ValueError(f"spec {cls.__name__}: {exc}") from None


# -- behaviors ----------------------------------------------------------------


def behavior_to_json(behavior: Sequence[Action]) -> List[Dict[str, Any]]:
    """Encode a behavior as a list of JSON objects."""
    encoded = []
    for action in behavior:
        blob: Dict[str, Any] = {
            "kind": _KIND_OF[type(action)],
            "transaction": list(action.transaction.path),
        }
        if isinstance(action, (RequestCommit, ReportCommit)):
            blob["value"] = _encode_value(action.value)
        if isinstance(action, (InformCommit, InformAbort)):
            blob["object"] = action.obj.name
        encoded.append(blob)
    return encoded


def behavior_from_json(blobs: Any) -> Behavior:
    """Decode a behavior produced by :func:`behavior_to_json`.

    Raises ``ValueError``, naming the event's index, on any malformed
    shape: a behavior that is not a list, an event that is not an
    object, an unknown kind, a path that is not a list of non-empty
    strings, or a value that is not a tagged JSON scalar, tuple or
    frozenset.
    """
    return _behavior_from_json(blobs, {(): ROOT})


def _behavior_from_json(blobs: Any, names: _Names) -> Behavior:
    if type(blobs) is not list:
        raise ValueError(
            f"a behavior must be a list of events, got {type(blobs).__name__}"
        )
    actions: List[Action] = []
    for position, blob in enumerate(blobs):
        try:
            if type(blob) is not dict:
                raise ValueError(f"an event must be an object, got {blob!r}")
            kind = blob.get("kind")
            cls = _ACTION_KINDS.get(kind) if type(kind) is str else None
            if cls is None:
                raise ValueError(f"unknown action kind {kind!r}")
            transaction = _decode_name(blob.get("transaction"), names)
            if cls in (RequestCommit, ReportCommit):
                actions.append(cls(transaction, _decode_value(blob.get("value"))))
            elif cls in (InformCommit, InformAbort):
                actions.append(cls(ObjectName(blob.get("object")), transaction))
            else:
                actions.append(cls(transaction))
        except ValueError as exc:
            raise ValueError(f"event {position}: {exc}") from None
    return tuple(actions)


# -- system types --------------------------------------------------------------


def system_type_to_json(system_type: SystemType) -> Dict[str, Any]:
    """Encode a system type (objects + specs + access registry)."""
    return {
        "objects": {
            obj.name: _encode_spec(system_type.spec(obj))
            for obj in system_type.object_names()
        },
        "accesses": [
            {
                "transaction": list(name.path),
                "object": access.obj.name,
                "operation": _encode_op(access.op),
            }
            for name, access in sorted(system_type.all_accesses().items())
        ],
    }


def system_type_from_json(blob: Any) -> SystemType:
    """Decode a system type produced by :func:`system_type_to_json`.

    Raises ``ValueError`` on any malformed shape, naming the object or
    the access entry's index.
    """
    return _system_type_from_json(blob, {(): ROOT})


def _system_type_from_json(blob: Any, names: _Names) -> SystemType:
    objects = blob.get("objects") if type(blob) is dict else None
    accesses = blob.get("accesses") if type(blob) is dict else None
    if type(objects) is not dict or type(accesses) is not list:
        raise ValueError(
            "a system type must have an 'objects' object and an 'accesses' list"
        )
    decoded: Dict[ObjectName, Any] = {}
    by_name: Dict[str, ObjectName] = {}  # one ObjectName per object, too
    for name, spec in objects.items():
        try:
            by_name[name] = ObjectName(name)
            decoded[by_name[name]] = _decode_spec(spec)
        except ValueError as exc:
            raise ValueError(f"object {name!r}: {exc}") from None
    system_type = SystemType(decoded)
    for position, entry in enumerate(accesses):
        try:
            if type(entry) is not dict:
                raise ValueError(f"an access must be an object, got {entry!r}")
            name = entry.get("object")
            obj = by_name.get(name) if type(name) is str else None
            if obj is None:
                raise ValueError(f"unknown object {name!r}")
            system_type.register_access(
                _decode_name(entry.get("transaction"), names),
                Access(obj, _decode_op(entry.get("operation"))),
            )
        except ValueError as exc:
            raise ValueError(f"access {position}: {exc}") from None
    return system_type


# -- whole cases ---------------------------------------------------------------


def dump_case(behavior: Sequence[Action], system_type: SystemType) -> str:
    """Serialize a (behavior, system type) pair to a JSON string."""
    return json.dumps(
        {
            "format": "repro-case-v1",
            "system_type": system_type_to_json(system_type),
            "behavior": behavior_to_json(behavior),
        },
        indent=2,
    )


def load_case(text: str) -> Tuple[Behavior, SystemType]:
    """Load a (behavior, system type) pair from :func:`dump_case` output.

    The system type and the behavior share one :class:`TransactionName`
    per distinct path, so equal names are identical objects and the
    access-registry and store lookups downstream hit by identity.  The
    table lives for this load only: auditing many logs does not grow a
    process-wide cache.  Any malformed case raises ``ValueError`` (a
    malformed event's message names its index).
    """
    blob = json.loads(text)
    if type(blob) is not dict or blob.get("format") != "repro-case-v1":
        found = blob.get("format") if type(blob) is dict else blob
        raise ValueError(f"unsupported case format: {found!r}")
    names: _Names = {(): ROOT}
    system_type = _system_type_from_json(blob.get("system_type"), names)
    behavior = _behavior_from_json(blob.get("behavior"), names)
    return behavior, system_type
