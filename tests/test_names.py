"""Tests for transaction names, object names and system types."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import ROOT, Access, ObjectName, RWSpec, SystemType, TransactionName, lca
from repro.core.rw_semantics import ReadOp

from conftest import T


components = st.text(
    alphabet="abcdefgh", min_size=1, max_size=3
)
paths = st.lists(components, min_size=0, max_size=5).map(tuple)
names = paths.map(TransactionName)


class TestTransactionName:
    def test_root_properties(self):
        assert ROOT.is_root
        assert ROOT.depth == 0
        assert str(ROOT) == "T0"
        with pytest.raises(ValueError):
            ROOT.parent

    def test_parent_and_child(self):
        name = T("a", "b")
        assert name.parent == T("a")
        assert T("a").child("b") == name
        assert name.depth == 2

    def test_invalid_components(self):
        with pytest.raises(ValueError):
            TransactionName(("",))
        with pytest.raises(TypeError):
            TransactionName(["a"])  # type: ignore[arg-type]

    def test_ancestors_include_self_and_root(self):
        ancestors = list(T("a", "b").ancestors())
        assert ancestors == [T("a", "b"), T("a"), ROOT]

    def test_proper_ancestors_exclude_self(self):
        assert list(T("a", "b").proper_ancestors()) == [T("a"), ROOT]
        assert list(ROOT.proper_ancestors()) == []

    def test_ancestor_descendant(self):
        assert T("a").is_ancestor_of(T("a", "b", "c"))
        assert T("a", "b").is_descendant_of(T("a"))
        assert not T("a", "b").is_ancestor_of(T("a", "c"))
        # reflexive per the paper
        assert T("a").is_ancestor_of(T("a"))
        assert T("a").is_descendant_of(T("a"))

    def test_siblings(self):
        assert T("a", "x").is_sibling_of(T("a", "y"))
        assert not T("a", "x").is_sibling_of(T("a", "x"))
        assert not T("a", "x").is_sibling_of(T("b", "y"))
        assert not T("a").is_sibling_of(ROOT)

    def test_related(self):
        assert T("a").is_related_to(T("a", "b"))
        assert not T("a", "x").is_related_to(T("a", "y"))

    def test_ordering_is_total(self):
        ordered = sorted([T("b"), T("a", "z"), T("a"), ROOT])
        assert ordered == [ROOT, T("a"), T("a", "z"), T("b")]

    @given(names, names)
    def test_lca_is_common_ancestor(self, a, b):
        ancestor = lca(a, b)
        assert ancestor.is_ancestor_of(a)
        assert ancestor.is_ancestor_of(b)

    @given(names, names)
    def test_lca_is_least(self, a, b):
        ancestor = lca(a, b)
        # any deeper common prefix would differ
        if ancestor != a and ancestor != b:
            deeper_a = a.path[: ancestor.depth + 1]
            deeper_b = b.path[: ancestor.depth + 1]
            assert deeper_a != deeper_b

    @given(names)
    def test_ancestor_chain_length(self, name):
        assert len(list(name.ancestors())) == name.depth + 1

    @given(names, names)
    def test_sibling_symmetry(self, a, b):
        assert a.is_sibling_of(b) == b.is_sibling_of(a)


class TestObjectName:
    def test_valid(self):
        assert str(ObjectName("x")) == "x"

    def test_invalid(self):
        with pytest.raises(ValueError):
            ObjectName("")

    def test_ordering(self):
        assert sorted([ObjectName("b"), ObjectName("a")]) == [
            ObjectName("a"),
            ObjectName("b"),
        ]


class TestSystemType:
    def _system(self) -> SystemType:
        return SystemType({ObjectName("x"): RWSpec(initial=0)})

    def test_register_and_query(self):
        system = self._system()
        access = T("t", "a")
        system.register_access(access, Access(ObjectName("x"), ReadOp()))
        assert system.is_access(access)
        assert system.object_of(access) == ObjectName("x")
        assert not system.is_access(T("t"))
        assert system.accesses_to(ObjectName("x")) == (access,)

    def test_accesses_by_object_follows_registration(self):
        x, y = ObjectName("x"), ObjectName("y")
        system = SystemType({x: RWSpec(), y: RWSpec()})
        system.register_access(T("t", "b"), Access(x, ReadOp()))
        system.register_access(T("t", "a"), Access(x, ReadOp()))
        assert system.accesses_by_object() == {x: (T("t", "b"), T("t", "a"))}
        # a registration after a query is seen by the next query
        system.register_access(T("u", "c"), Access(y, ReadOp()))
        assert system.accesses_by_object() == {
            x: (T("t", "b"), T("t", "a")),
            y: (T("u", "c"),),
        }
        assert system.accesses_to(x) == (T("t", "a"), T("t", "b"))

    def test_unknown_object_rejected(self):
        system = self._system()
        with pytest.raises(KeyError):
            system.register_access(T("t", "a"), Access(ObjectName("nope"), ReadOp()))

    def test_root_cannot_be_access(self):
        system = self._system()
        with pytest.raises(ValueError):
            system.register_access(ROOT, Access(ObjectName("x"), ReadOp()))

    def test_access_below_access_rejected(self):
        system = self._system()
        system.register_access(T("t", "a"), Access(ObjectName("x"), ReadOp()))
        with pytest.raises(ValueError):
            system.register_access(
                T("t", "a", "b"), Access(ObjectName("x"), ReadOp())
            )

    def test_conflicting_reregistration_rejected(self):
        system = self._system()
        system.register_access(T("t", "a"), Access(ObjectName("x"), ReadOp()))
        with pytest.raises(ValueError):
            from repro.core.rw_semantics import WriteOp

            system.register_access(T("t", "a"), Access(ObjectName("x"), WriteOp(1)))

    def test_idempotent_reregistration_allowed(self):
        system = self._system()
        system.register_access(T("t", "a"), Access(ObjectName("x"), ReadOp()))
        system.register_access(T("t", "a"), Access(ObjectName("x"), ReadOp()))

    def test_spec_lookup(self):
        system = self._system()
        assert system.spec(ObjectName("x")).initial == 0
        with pytest.raises(KeyError):
            system.spec(ObjectName("zzz"))

    def test_merged_with(self):
        left = self._system()
        right = SystemType({ObjectName("y"): RWSpec(initial=1)})
        right.register_access(T("u", "a"), Access(ObjectName("y"), ReadOp()))
        merged = left.merged_with(right)
        assert set(merged.object_names()) == {ObjectName("x"), ObjectName("y")}
        assert merged.is_access(T("u", "a"))
