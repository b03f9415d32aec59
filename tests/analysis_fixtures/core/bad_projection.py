"""Known-bad fixture for R003: a full-scan projection per loop iteration.

``witness_check`` is the shape the batch certifier's witness check once
had: one ``project_transaction`` scan of the witness per visible
transaction.  Lives under a ``core/`` directory on purpose — R003 only
fires on hot-path modules.
"""

from repro.core.events import project_object, project_transaction


def witness_check(witness, serial, visible, index):
    problems = []
    for transaction in visible:
        if project_transaction(
            witness, transaction  # -> R003: no index, scans the witness
        ) != project_transaction(serial, transaction, index):
            problems.append(transaction)
    return problems


def object_replay(behavior, system_type):
    projections = []
    for obj in system_type.object_names():
        projections.append(project_object(behavior, obj, system_type))  # -> R003
    return projections


def explicit_none(behavior, transactions):
    out = []
    for transaction in transactions:
        out.append(project_transaction(behavior, transaction, index=None))  # -> R003
    return out


def indexed(behavior, transactions, index):
    out = []
    for transaction in transactions:
        out.append(project_transaction(behavior, transaction, index))
        out.append(index.project_transaction(transaction))
        out.append(project_object(behavior, transaction, None, index=index))
    return out


def iterable_runs_once(behavior, transaction):
    out = []
    for action in project_transaction(behavior, transaction):
        out.append(action)
    return out


def tagged(witness, candidates):
    out = []
    for transaction in candidates:
        # each candidate is a new behavior, projected once
        out.append(project_transaction(witness, transaction))  # lint: allow-quadratic
    return out
