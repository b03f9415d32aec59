"""repro — A Serialization Graph Construction for Nested Transactions.

An executable reproduction of Fekete, Lynch & Weihl (PODS 1990): the
nested-transaction system model of Lynch & Merritt, the serialization
graph construction whose acyclicity (with appropriate return values)
certifies serial correctness for ``T0``, and the two algorithms the
paper verifies with it — Moss' read/write locking and undo logging for
arbitrary data types.

Quick start::

    from repro import (
        WorkloadConfig, generate_workload, make_generic_system,
        MossRWLockingObject, EagerInformPolicy, run_system, certify,
    )

    system_type, programs = generate_workload(WorkloadConfig(seed=7))
    system = make_generic_system(system_type, programs, MossRWLockingObject)
    result = run_system(system, EagerInformPolicy(seed=7), system_type)
    certificate = certify(result.behavior, system_type)
    assert certificate.certified          # Theorem 17 in action
    print(certificate.explain())

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
reproduction results.
"""

from .core import (
    CONFLICT,
    OK,
    PRECEDES,
    ROOT,
    Abort,
    Access,
    Action,
    AffectsRelation,
    Behavior,
    Certificate,
    Commit,
    ConflictCache,
    Create,
    CycleError,
    Digraph,
    HistoryIndex,
    IncrementalTopology,
    InformAbort,
    InformCommit,
    ObjectName,
    OnlineCertifier,
    OnlineVerdict,
    Operation,
    OracleResult,
    ReadOp,
    ReportAbort,
    ReportCommit,
    RequestCommit,
    RequestCreate,
    ReturnValueViolation,
    RWSpec,
    SerializationGraph,
    SiblingEdge,
    SiblingOrder,
    StatusIndex,
    SystemType,
    TransactionName,
    WitnessError,
    WriteOp,
    build_serialization_graph,
    build_witness,
    certify,
    check_appropriate_return_values,
    check_current_and_safe,
    clean_projection,
    conflict_pairs,
    enumerate_sibling_orders,
    final_value,
    has_appropriate_return_values,
    has_appropriate_return_values_rw,
    is_current,
    is_safe,
    is_suitable,
    lca,
    oracle_serially_correct,
    perform,
    precedes_pairs,
    project_object,
    project_transaction,
    serial_projection,
    serializability_theorem_applies,
    validate_serial_behavior,
    view,
    visible_projection,
    dump_case,
    load_case,
    ConflictWitness,
    CycleExplanation,
    EdgeExplanation,
    PrecedesWitness,
    explain_behavior,
    explain_cycle,
    explain_edge,
)
from .obs import (
    LATENCY_BUCKETS,
    NULL_TRACER,
    FlightRecorder,
    JSONLFileSink,
    LoggingSink,
    MetricsRegistry,
    NullTracer,
    RingBufferSink,
    SnapshotExporter,
    Span,
    Tracer,
    bucket_quantile,
    latency_histogram,
    load_jsonl_trace,
    load_postmortems,
    load_snapshots,
    log_buckets,
    parse_prometheus,
    prometheus_name,
    render_registry,
    span_coverage,
    to_prometheus,
)
from .parallel import (
    CaseVerdict,
    certify_corpus,
    record_corpus,
    simulate_corpus,
)
from .report import (
    behavior_summary,
    certificate_report,
    explanation_report,
    serialization_graph_to_dot,
)
from .automata import Composition, IOAutomaton, replay_schedule
from .classical import (
    FlatScript,
    classical_edges,
    history_to_nested_behavior,
    is_conflict_serializable,
    random_history,
    run_strict_2pl,
)
from .extensions import MVTORWObject
from .generic import (
    GenericController,
    GenericObject,
    ValidationReport,
    make_generic_system,
    validate_object_algorithm,
)
from .locking import (
    MossRWLockingObject,
    MossState,
    ReadUpdateLockingObject,
    is_lock_visible,
    is_local_orphan,
    is_locally_visible,
)
from .serial import (
    SerialRWObject,
    SerialScheduler,
    SerialTypedObject,
    SimpleDatabase,
    check_simple_behavior,
    enumerate_serial_behaviors,
    make_serial_system,
)
from .sim import (
    AbortInjector,
    BankAccountKind,
    MapKind,
    CounterKind,
    EagerInformPolicy,
    OrphanFreePolicy,
    QueueKind,
    RandomPolicy,
    RegisterKind,
    RoundRobinPolicy,
    RunResult,
    RunStats,
    RWKind,
    SetKind,
    TransactionProgram,
    WorkloadConfig,
    generate_workload,
    op,
    par,
    read,
    run_system,
    seq,
    sub,
    write,
)
from .spec import (
    BankAccountType,
    CounterType,
    DataType,
    QueueType,
    RegisterType,
    SetType,
    verify_commutativity_table,
)
from .undo import UndoLoggingObject, UndoLogState

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
