"""Tests for projections, status index, visibility, clean, affects."""

from repro.core.actions import (
    Abort,
    Commit,
    Create,
    InformCommit,
    ReportAbort,
    ReportCommit,
    RequestCommit,
    RequestCreate,
)
from repro.core.events import (
    AffectsRelation,
    StatusIndex,
    clean_projection,
    directly_affects_pairs,
    project_object,
    project_transaction,
    serial_projection,
    visible_projection,
)
from repro.core.names import ROOT, ObjectName
from repro.core.rw_semantics import OK

from conftest import BehaviorBuilder, T, rw_system


class TestProjections:
    def test_serial_projection_drops_informs(self):
        behavior = (
            Create(T("t")),
            InformCommit(ObjectName("x"), T("t")),
            Commit(T("t")),
        )
        assert serial_projection(behavior) == (Create(T("t")), Commit(T("t")))

    def test_project_transaction(self):
        behavior = (
            RequestCreate(T("t")),          # transaction = T0
            Create(T("t")),                 # transaction = t
            RequestCreate(T("t", "u")),     # transaction = t
            RequestCommit(T("t"), 1),       # transaction = t
            Commit(T("t")),                 # completion: no transaction
            ReportCommit(T("t"), 1),        # transaction = T0
        )
        assert project_transaction(behavior, T("t")) == (
            Create(T("t")),
            RequestCreate(T("t", "u")),
            RequestCommit(T("t"), 1),
        )
        assert project_transaction(behavior, ROOT) == (
            RequestCreate(T("t")),
            ReportCommit(T("t"), 1),
        )

    def test_project_object(self):
        system = rw_system("x", "y")
        b = BehaviorBuilder(system)
        t = b.begin_top("t")
        b.read(t, "rx", "x", 0)
        b.write(t, "wy", "y", 3)
        behavior = b.build()
        x_events = project_object(behavior, ObjectName("x"), system)
        assert [type(a).__name__ for a in x_events] == ["Create", "RequestCommit"]
        assert all(a.transaction == t.child("rx") for a in x_events)


class TestStatusIndex:
    def test_basic_sets(self):
        behavior = (
            RequestCreate(T("a")),
            Create(T("a")),
            RequestCommit(T("a"), 5),
            Commit(T("a")),
            RequestCreate(T("b")),
            Abort(T("b")),
            ReportAbort(T("b")),
        )
        index = StatusIndex(behavior)
        assert T("a") in index.committed
        assert T("b") in index.aborted
        assert index.commit_requested[T("a")] == 5
        assert T("b") in index.reported
        assert index.completed(T("a")) and index.completed(T("b"))

    def test_orphan(self):
        index = StatusIndex((Abort(T("a")),))
        assert index.is_orphan(T("a"))
        assert index.is_orphan(T("a", "deep", "child"))
        assert not index.is_orphan(T("b"))
        assert not index.is_orphan(ROOT)

    def test_live(self):
        behavior = (RequestCreate(T("a")), Create(T("a")))
        index = StatusIndex(behavior)
        assert index.is_live(T("a"))
        index2 = StatusIndex(behavior + (Commit(T("a")),))
        assert not index2.is_live(T("a"))
        assert not StatusIndex(()).is_live(T("a"))

    def test_visibility_requires_chain_commits(self):
        # T0/a/b visible to T0 iff both a/b and a committed.
        behavior = (Commit(T("a", "b")),)
        index = StatusIndex(behavior)
        assert not index.is_visible(T("a", "b"), ROOT)
        index = StatusIndex(behavior + (Commit(T("a")),))
        assert index.is_visible(T("a", "b"), ROOT)

    def test_visibility_to_relative(self):
        # a/b visible to a/c needs only COMMIT(a/b); the shared ancestor a
        # need not have committed.
        index = StatusIndex((Commit(T("a", "b")),))
        assert index.is_visible(T("a", "b"), T("a", "c"))
        assert index.is_visible(T("a", "b"), T("a"))

    def test_ancestor_always_visible(self):
        index = StatusIndex(())
        assert index.is_visible(T("a"), T("a", "b"))
        assert index.is_visible(ROOT, T("a"))
        assert index.is_visible(T("a"), T("a"))

    def test_descendant_not_visible_without_commit(self):
        index = StatusIndex(())
        assert not index.is_visible(T("a", "b"), T("a"))


class TestVisibleAndClean:
    def test_visible_projection_filters_uncommitted(self):
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t1, t2 = b.begin_top("t1"), b.begin_top("t2")
        b.write(t1, "w", "x", 1)
        b.write(t2, "w", "x", 2)
        b.commit(t1)  # t2 never commits
        behavior = b.build()
        visible = visible_projection(behavior, ROOT)
        touched = {getattr(a, "transaction", None) for a in visible}
        assert t1.child("w") in touched
        assert t2.child("w") not in touched
        # t2's own creation is visible (hightransaction T0), its access is not
        assert RequestCreate(t2) in visible

    def test_clean_projection_drops_orphans(self):
        system = rw_system("x")
        b = BehaviorBuilder(system)
        t1 = b.begin_top("t1")
        access = b.write(t1, "w", "x", 1)
        b.abort(t1)
        behavior = b.build()
        clean = clean_projection(behavior)
        touched = {getattr(a, "transaction", None) for a in clean}
        assert access not in touched
        # T0-level actions survive
        assert RequestCreate(t1) in clean

    def test_clean_keeps_unaborted(self):
        behavior = (RequestCreate(T("a")), Create(T("a")))
        assert clean_projection(behavior) == behavior


class TestAffects:
    def test_directly_affects_same_transaction(self):
        behavior = (
            Create(T("t")),
            RequestCreate(T("t", "u")),
            RequestCommit(T("t"), 1),
        )
        pairs = directly_affects_pairs(behavior)
        assert (0, 1) in pairs and (0, 2) in pairs and (1, 2) in pairs

    def test_directly_affects_protocol_pairs(self):
        behavior = (
            RequestCreate(T("t")),
            Create(T("t")),
            RequestCommit(T("t"), 1),
            Commit(T("t")),
            ReportCommit(T("t"), 1),
        )
        pairs = set(directly_affects_pairs(behavior))
        assert (0, 1) in pairs  # REQUEST_CREATE -> CREATE
        assert (2, 3) in pairs  # REQUEST_COMMIT -> COMMIT
        assert (3, 4) in pairs  # COMMIT -> REPORT_COMMIT

    def test_abort_pairs(self):
        behavior = (
            RequestCreate(T("t")),
            Abort(T("t")),
            ReportAbort(T("t")),
        )
        pairs = set(directly_affects_pairs(behavior))
        assert (0, 1) in pairs  # REQUEST_CREATE -> ABORT
        assert (1, 2) in pairs  # ABORT -> REPORT_ABORT

    def test_affects_transitive(self):
        behavior = (
            RequestCreate(T("t")),   # by T0
            Create(T("t")),
            RequestCommit(T("t"), 1),
            Commit(T("t")),
            ReportCommit(T("t"), 1),
        )
        affects = AffectsRelation(behavior)
        assert affects.affects(0, 4)  # request-create transitively affects report
        assert not affects.affects(4, 0)
        assert not affects.affects(3, 3)

    def test_unrelated_events_do_not_affect(self):
        behavior = (
            RequestCreate(T("a")),
            RequestCreate(T("b")),
        )
        affects = AffectsRelation(behavior)
        # both have transaction T0, so earlier affects later
        assert affects.affects(0, 1)
        behavior = (Create(T("a")), Create(T("b")))
        affects = AffectsRelation(behavior)
        assert not affects.affects(0, 1)
