"""Core model: names, actions, event machinery, and the SG construction."""

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
    hightransaction,
    is_completion,
    is_serial_action,
    lowtransaction,
    object_of,
    transaction_of,
)
from .completion_order import (
    completion_holds,
    completion_positions,
    edges_respect_completion_order,
)
from .correctness import (
    Certificate,
    WitnessError,
    build_witness,
    certify,
    validate_serial_behavior,
)
from .explain import (
    ConflictWitness,
    CycleExplanation,
    EdgeExplanation,
    PrecedesWitness,
    explain_behavior,
    explain_cycle,
    explain_edge,
)
from .events import (
    AffectsRelation,
    StatusIndex,
    clean_projection,
    directly_affects_pairs,
    project_object,
    project_transaction,
    serial_projection,
    visible_projection,
)
from .graph import CycleError, Digraph, IncrementalTopology
from .columnar import (
    ColumnarHistory,
    ColumnarSerializationGraph,
    build_columnar_graph,
)
from .history import ConflictCache, HistoryIndex
from .names import ROOT, Access, ObjectName, SystemType, TransactionName, lca
from .operations import (
    Operation,
    is_serial_object_well_formed,
    operation_payloads,
    operations,
    operations_of_object,
    perform,
)
from .online import OnlineCertifier, OnlineVerdict
from .oracle import OracleResult, enumerate_sibling_orders, oracle_serially_correct
from .return_values import (
    ReturnValueViolation,
    check_appropriate_return_values,
    check_current_and_safe,
    has_appropriate_return_values,
    has_appropriate_return_values_rw,
    is_current,
    is_safe,
)
from .rw_semantics import (
    OK,
    ReadOp,
    RWSpec,
    WriteOp,
    clean_final_value,
    clean_last_write,
    clean_write_sequence,
    final_value,
    is_read_access,
    is_write_access,
    last_write,
    write_sequence,
)
from .serialization_graph import (
    CONFLICT,
    PRECEDES,
    SerializationGraph,
    SiblingEdge,
    build_serialization_graph,
    conflict_pairs,
    precedes_pairs,
)
from .serde import (
    behavior_from_json,
    behavior_to_json,
    dump_case,
    load_case,
    system_type_from_json,
    system_type_to_json,
)
from .sibling_order import SiblingOrder, consistent_partial_orders, is_suitable
from .view import serializability_theorem_applies, view

__all__ = [name for name in dir() if not name.startswith("_")]
