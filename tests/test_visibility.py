"""Tests for lock-visible / locally-visible / local-orphan (Sections 5.3, 6.3)."""

from repro.core.actions import InformAbort, InformCommit
from repro.core.names import ObjectName
from repro.locking.visibility import (
    inform_chain,
    is_local_orphan,
    is_lock_visible,
    is_locally_visible,
)

from conftest import T


X = ObjectName("x")
Y = ObjectName("y")


class TestInformChain:
    def test_chain_to_root(self):
        chain = inform_chain(T("a", "b", "c"), T())
        assert chain == [T("a", "b", "c"), T("a", "b"), T("a")]

    def test_chain_to_sibling_subtree(self):
        chain = inform_chain(T("a", "b"), T("a", "c"))
        assert chain == [T("a", "b")]

    def test_chain_to_ancestor_empty(self):
        assert inform_chain(T("a"), T("a", "b")) == []
        assert inform_chain(T("a"), T("a")) == []


class TestLocalOrphan:
    def test_orphan_via_ancestor_abort(self):
        behavior = (InformAbort(X, T("a")),)
        assert is_local_orphan(behavior, X, T("a", "b", "c"))
        assert is_local_orphan(behavior, X, T("a"))
        assert not is_local_orphan(behavior, X, T("b"))

    def test_other_object_informs_ignored(self):
        behavior = (InformAbort(Y, T("a")),)
        assert not is_local_orphan(behavior, X, T("a", "b"))


class TestLockVisible:
    def test_requires_leaf_to_root_order(self):
        up = (InformCommit(X, T("a", "b")), InformCommit(X, T("a")))
        down = (InformCommit(X, T("a")), InformCommit(X, T("a", "b")))
        assert is_lock_visible(up, X, T("a", "b"), T())
        assert not is_lock_visible(down, X, T("a", "b"), T())

    def test_locally_visible_any_order(self):
        down = (InformCommit(X, T("a")), InformCommit(X, T("a", "b")))
        assert is_locally_visible(down, X, T("a", "b"), T())

    def test_missing_link_not_visible(self):
        behavior = (InformCommit(X, T("a", "b")),)
        assert not is_lock_visible(behavior, X, T("a", "b"), T())
        assert not is_locally_visible(behavior, X, T("a", "b"), T())

    def test_empty_chain_trivially_visible(self):
        assert is_lock_visible((), X, T("a"), T("a", "b"))
        assert is_locally_visible((), X, T("a"), T("a", "b"))

    def test_interleaved_subsequence_accepted(self):
        behavior = (
            InformCommit(X, T("zzz")),
            InformCommit(X, T("a", "b")),
            InformAbort(X, T("other")),
            InformCommit(X, T("a")),
        )
        assert is_lock_visible(behavior, X, T("a", "b"), T())

    def test_wrong_object_ignored(self):
        behavior = (InformCommit(Y, T("a")),)
        assert not is_lock_visible(behavior, X, T("a"), T())
        assert not is_locally_visible(behavior, X, T("a"), T())

    def test_lock_visible_implies_locally_visible(self):
        behaviors = [
            (InformCommit(X, T("a", "b")), InformCommit(X, T("a"))),
            (InformCommit(X, T("a")),),
            (),
        ]
        cases = [(T("a", "b"), T()), (T("a"), T()), (T("a"), T("a", "c"))]
        for behavior in behaviors:
            for source, target in cases:
                if is_lock_visible(behavior, X, source, target):
                    assert is_locally_visible(behavior, X, source, target)
