"""Transaction names, object names, accesses and system types.

The paper models the pattern of transaction nesting as an (in general
infinite) tree of *transaction names* rooted at the mythical transaction
``T0``.  The leaves of the tree are *accesses*; the accesses are
partitioned among *objects*.  We represent a transaction name as a path
of string components from the root, so that the ancestor relation is a
prefix test and the tree never needs to be materialised.

A :class:`SystemType` records the finite part of the tree that a
particular workload actually uses: the set of object names, and for each
access leaf the :class:`Access` record describing which object it
touches and which abstract operation it performs.  In the paper "all
parameters of an access are regarded as encoded in its name"; the
``SystemType`` registry is the executable version of that encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = [
    "TransactionName",
    "ROOT",
    "ObjectName",
    "Access",
    "SystemType",
    "lca",
]


# Interning caches.  Names are immutable values, so hot loops (ancestor
# walks, LCA projections, sibling-edge construction) can share one
# canonical instance per path instead of allocating fresh tuples and
# names on every call.  The caches grow with the set of *distinct* names
# a process touches — bounded by the workloads it certifies, the same
# lifetime as a ``SystemType``'s access registry.
_INTERNED: Dict[Tuple[str, ...], "TransactionName"] = {}
_CHAINS: Dict[Tuple[str, ...], Tuple["TransactionName", ...]] = {}


@dataclass(frozen=True, order=True, slots=True)
class TransactionName:
    """A transaction name: a path of components from the root ``T0``.

    The root is the empty path.  ``TransactionName(("a", "b"))`` is the
    child ``b`` of the child ``a`` of the root.  Names are immutable,
    hashable and totally ordered (lexicographically), which makes them
    usable as graph nodes and dict keys.

    The hash is the dataclass's, ``hash((path,))``, computed once at
    construction and kept in a slot beside the path: the simulator
    hashes names in every set and dict it touches.  It depends on
    ``PYTHONHASHSEED``, so a pickled name carries only its path and
    re-hashes where it is loaded.
    """

    path: Tuple[str, ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.path, tuple):
            raise TypeError(f"path must be a tuple, got {type(self.path).__name__}")
        for part in self.path:
            if not isinstance(part, str) or not part:
                raise ValueError(f"path components must be non-empty strings: {self.path!r}")
        object.__setattr__(self, "_hash", hash((self.path,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> Tuple[Any, Tuple[Tuple[str, ...]]]:
        return (TransactionName, (self.path,))

    # -- interning -------------------------------------------------------

    @classmethod
    def interned(cls, path: Tuple[str, ...]) -> "TransactionName":
        """The canonical shared instance for ``path``.

        Equality and hashing are value-based either way; interning only
        lets hot loops reuse one instance (and its cached ancestor
        chain) instead of re-allocating.
        """
        name = _INTERNED.get(path)
        if name is None:
            name = _INTERNED.setdefault(path, cls(path))
        return name

    # -- tree structure -------------------------------------------------

    @property
    def is_root(self) -> bool:
        """True iff this is ``T0``, the root of the transaction tree."""
        return not self.path

    @property
    def depth(self) -> int:
        """Distance from the root; ``T0`` has depth 0."""
        return len(self.path)

    @property
    def parent(self) -> "TransactionName":
        """The parent name.  Raises ``ValueError`` on the root."""
        if self.is_root:
            raise ValueError("T0 has no parent")
        return TransactionName.interned(self.path[:-1])

    def child(self, component: str) -> "TransactionName":
        """The child of this name labelled ``component``."""
        return TransactionName.interned(self.path + (component,))

    def ancestor_chain(self) -> Tuple["TransactionName", ...]:
        """The cached tuple of ancestors, from this name up to the root.

        Per the paper, a transaction is its own ancestor; the chain is
        ``(self, parent, ..., T0)``.  Computed once per distinct path and
        shared, so ancestor walks in hot loops stop allocating.
        """
        chain = _CHAINS.get(self.path)
        if chain is None:
            if not self.path:
                chain = (TransactionName.interned(()),)
            else:
                me = TransactionName.interned(self.path)
                chain = (me,) + me.parent.ancestor_chain()
            _CHAINS[self.path] = chain
        return chain

    def ancestors(self) -> Iterator["TransactionName"]:
        """Yield every ancestor, from this name up to and including the root.

        Per the paper, a transaction is its own ancestor.
        """
        return iter(self.ancestor_chain())

    def proper_ancestors(self) -> Iterator["TransactionName"]:
        """Yield every ancestor strictly above this name, up to the root."""
        return iter(self.ancestor_chain()[1:])

    def prefix(self, depth: int) -> "TransactionName":
        """The (interned) ancestor of this name at the given depth.

        ``name.prefix(d)`` equals ``TransactionName(name.path[:d])`` but
        reads the cached ancestor chain instead of slicing.
        """
        if not 0 <= depth <= len(self.path):
            raise ValueError(f"depth {depth} out of range for {self}")
        return self.ancestor_chain()[len(self.path) - depth]

    def is_ancestor_of(self, other: "TransactionName") -> bool:
        """True iff ``self`` is an ancestor of ``other`` (reflexively)."""
        if self is other:
            return True
        n = len(self.path)
        if n > len(other.path):
            return False
        return other.path[:n] == self.path

    def is_descendant_of(self, other: "TransactionName") -> bool:
        """True iff ``self`` is a descendant of ``other`` (reflexively)."""
        return other.is_ancestor_of(self)

    def is_sibling_of(self, other: "TransactionName") -> bool:
        """True iff both names are distinct children of the same parent."""
        if self == other or self.is_root or other.is_root:
            return False
        return self.path[:-1] == other.path[:-1]

    def is_related_to(self, other: "TransactionName") -> bool:
        """True iff one name is an ancestor of the other."""
        return self.is_ancestor_of(other) or other.is_ancestor_of(self)

    def __str__(self) -> str:
        return "T0" if self.is_root else "T0/" + "/".join(self.path)

    def __repr__(self) -> str:
        return str(self)


ROOT = TransactionName.interned(())
"""The mythical root transaction ``T0`` modelling the environment."""


def lca(a: TransactionName, b: TransactionName) -> TransactionName:
    """The least common ancestor of two transaction names.

    O(depth) with early exit: walks the two paths until they diverge and
    returns the (interned) ancestor at that depth — no prefix list is
    built, and when one name is an ancestor of the other it is returned
    directly.
    """
    if a is b:
        return a
    a_path, b_path = a.path, b.path
    limit = min(len(a_path), len(b_path))
    i = 0
    while i < limit and a_path[i] == b_path[i]:
        i += 1
    if i == len(a_path):
        return a
    if i == len(b_path):
        return b
    return a.prefix(i)


@dataclass(frozen=True, order=True, slots=True)
class ObjectName:
    """The name of a shared data object.

    Like :class:`TransactionName`, it computes its hash once and pickles
    as its name alone.
    """

    name: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("object names must be non-empty strings")
        object.__setattr__(self, "_hash", hash((self.name,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> Tuple[Any, Tuple[str]]:
        return (ObjectName, (self.name,))

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Access:
    """The access information encoded in an access (leaf) name.

    ``obj`` names the object the access touches and ``op`` is the
    abstract operation the access performs.  For read/write objects,
    ``op`` is a :class:`repro.core.rw_semantics.ReadOp` or
    :class:`repro.core.rw_semantics.WriteOp`; for arbitrary data types it
    is whatever (hashable) operation descriptor the type understands.
    """

    obj: ObjectName
    op: Any

    def __post_init__(self) -> None:
        hash(self.op)  # operations must be hashable, like names


class SystemType:
    """The finite, workload-relevant part of a system type.

    Holds the set of object names, a *serial specification* for each
    object (anything with the small protocol used by the checkers — see
    :mod:`repro.core.rw_semantics` and :mod:`repro.spec.datatype`), and
    the registry mapping access leaf names to :class:`Access` records.
    """

    def __init__(
        self,
        objects: Mapping[ObjectName, Any],
        accesses: Optional[Mapping[TransactionName, Access]] = None,
    ) -> None:
        self._objects: Dict[ObjectName, Any] = dict(objects)
        self._accesses: Dict[TransactionName, Access] = {}
        self._by_object: Optional[Dict[ObjectName, Tuple[TransactionName, ...]]] = None
        for name, access in (accesses or {}).items():
            self.register_access(name, access)

    # -- objects ---------------------------------------------------------

    @property
    def objects(self) -> Mapping[ObjectName, Any]:
        """Read-only view of the object-name → serial-spec mapping."""
        return dict(self._objects)

    def object_names(self) -> Tuple[ObjectName, ...]:
        return tuple(sorted(self._objects))

    def spec(self, obj: ObjectName) -> Any:
        """The serial specification registered for ``obj``."""
        try:
            return self._objects[obj]
        except KeyError:
            raise KeyError(f"unknown object {obj}") from None

    # -- accesses ---------------------------------------------------------

    def register_access(self, name: TransactionName, access: Access) -> None:
        """Declare ``name`` to be an access leaf with the given access info."""
        if name.is_root:
            raise ValueError("T0 cannot be an access")
        if access.obj not in self._objects:
            raise KeyError(f"access {name} names unknown object {access.obj}")
        existing = self._accesses.get(name)
        if existing is not None and existing != access:
            raise ValueError(f"access {name} already registered with different info")
        for ancestor in name.proper_ancestors():
            if ancestor in self._accesses:
                raise ValueError(f"{name} is a descendant of the access {ancestor}")
        self._accesses[name] = access
        self._by_object = None

    def is_access(self, name: TransactionName) -> bool:
        """True iff ``name`` is a registered access leaf."""
        return name in self._accesses

    def access(self, name: TransactionName) -> Access:
        """The :class:`Access` record for an access leaf name."""
        try:
            return self._accesses[name]
        except KeyError:
            raise KeyError(f"{name} is not a registered access") from None

    def object_of(self, name: TransactionName) -> ObjectName:
        """The object that the access leaf ``name`` touches."""
        return self.access(name).obj

    def accesses_to(self, obj: ObjectName) -> Tuple[TransactionName, ...]:
        """All registered access names touching ``obj``, sorted."""
        return tuple(sorted(self.accesses_by_object().get(obj, ())))

    def all_accesses(self) -> Mapping[TransactionName, Access]:
        return dict(self._accesses)

    def accesses_by_object(self) -> Mapping[ObjectName, Tuple[TransactionName, ...]]:
        """The registered accesses grouped by object, in registration order.

        Built in one pass over the registry and kept until the next
        registration, so the objects of one system share that pass.
        """
        if self._by_object is None:
            grouped: Dict[ObjectName, List[TransactionName]] = {}
            for name, access in self._accesses.items():
                grouped.setdefault(access.obj, []).append(name)
            self._by_object = {obj: tuple(names) for obj, names in grouped.items()}
        return self._by_object

    def merged_with(self, other: "SystemType") -> "SystemType":
        """A new system type combining the objects and accesses of both."""
        objects = dict(self._objects)
        for obj, spec in other._objects.items():
            if obj in objects and objects[obj] is not spec and objects[obj] != spec:
                raise ValueError(f"conflicting specs for object {obj}")
            objects[obj] = spec
        merged = SystemType(objects, self._accesses)
        for name, access in other._accesses.items():
            merged.register_access(name, access)
        return merged

    def __repr__(self) -> str:
        return (
            f"SystemType(objects={sorted(map(str, self._objects))}, "
            f"accesses={len(self._accesses)})"
        )
