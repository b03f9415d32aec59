"""E4 — sufficiency, not necessity: how often does the SG test reject
serially correct behaviors?

Unlike the classical theory, acyclicity of the nested serialization
graph is only a *sufficient* condition for the user-view correctness
notion.  We generate small random interleaved behaviors (including
non-locking ones), decide ground truth with the brute-force oracle, and
report the confusion table.  Expected shape:

* soundness — no behavior certified by the SG test is rejected by the
  oracle (zero false accepts);
* incompleteness — a *nonzero* fraction of oracle-correct behaviors is
  rejected by the SG test (the blind-write phenomenon).
"""

import itertools
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _smoke import SMOKE, pick
from _tables import print_table

from repro.core.actions import (
    Commit,
    Create,
    ReportCommit,
    RequestCommit,
    RequestCreate,
)
from repro.core.correctness import certify
from repro.core.names import Access, ObjectName, SystemType, TransactionName
from repro.core.oracle import oracle_serially_correct
from repro.core.rw_semantics import OK, ReadOp, RWSpec, WriteOp


def random_behavior(seed: int):
    """A random interleaving of two top-level transactions' access ceremonies.

    Accesses are blind reads/writes over two objects; read values are
    chosen from plausible candidates so that both ARV-satisfying and
    ARV-violating behaviors occur.
    """
    rng = random.Random(seed)
    objects = {ObjectName("x"): RWSpec(initial=0), ObjectName("y"): RWSpec(initial=0)}
    system_type = SystemType(objects)
    behavior = []
    tops = [TransactionName(("t1",)), TransactionName(("t2",))]
    for top in tops:
        behavior += [RequestCreate(top), Create(top)]
    # build per-transaction access scripts
    scripts = {}
    for index, top in enumerate(tops):
        ops = []
        for position in range(rng.randint(1, 3)):
            obj = ObjectName(rng.choice(["x", "y"]))
            if rng.random() < 0.6:
                ops.append((obj, WriteOp(rng.randint(1, 2))))
            else:
                ops.append((obj, ReadOp()))
        scripts[top] = ops
    # interleave access ceremonies randomly; track an update-in-place value
    # per object (over non-aborted writes) to generate mostly-plausible reads
    pending = {top: list(ops) for top, ops in scripts.items()}
    current = {obj: 0 for obj in objects}
    counter = itertools.count()
    while any(pending.values()):
        top = rng.choice([t for t, ops in pending.items() if ops])
        obj, op = pending[top].pop(0)
        access = top.child(f"a{next(counter)}")
        system_type.register_access(access, Access(obj, op))
        if isinstance(op, WriteOp):
            value = OK
            current[obj] = op.data
        else:
            # usually the current value; sometimes a stale/wrong one
            value = current[obj] if rng.random() < 0.8 else rng.randint(0, 2)
        behavior += [
            RequestCreate(access),
            Create(access),
            RequestCommit(access, value),
            Commit(access),
            ReportCommit(access, value),
        ]
    for top in tops:
        behavior += [
            RequestCommit(top, "done"),
            Commit(top),
            ReportCommit(top, "done"),
        ]
    return tuple(behavior), system_type


def run_sweep(samples: int):
    both_accept = only_oracle = only_sg = both_reject = 0
    for seed in range(samples):
        behavior, system_type = random_behavior(seed)
        sg = certify(behavior, system_type, construct_witness=False).certified
        oracle = bool(
            oracle_serially_correct(behavior, system_type, max_orders=2000)
        )
        if sg and oracle:
            both_accept += 1
        elif oracle and not sg:
            only_oracle += 1
        elif sg and not oracle:
            only_sg += 1
        else:
            both_reject += 1
    return both_accept, only_oracle, only_sg, both_reject


@pytest.mark.benchmark(group="e4")
def test_e4_precision(benchmark):
    samples = pick(150, 10)
    both_accept, only_oracle, only_sg, both_reject = benchmark.pedantic(
        run_sweep, args=(samples,), rounds=1, iterations=1
    )
    print_table(
        "E4: SG test vs brute-force oracle on random behaviors",
        ["verdict", "count", "fraction"],
        [
            ("certified & correct", both_accept, f"{both_accept / samples:.2f}"),
            (
                "correct but rejected (incompleteness)",
                only_oracle,
                f"{only_oracle / samples:.2f}",
            ),
            ("certified but incorrect (UNSOUND!)", only_sg, f"{only_sg / samples:.2f}"),
            ("rejected & incorrect", both_reject, f"{both_reject / samples:.2f}"),
        ],
    )
    assert only_sg == 0, "the SG test accepted an incorrect behavior"
    if not SMOKE:  # the shape claims need the full sample size
        assert only_oracle > 0, "expected some correct-but-rejected behaviors"
        assert both_accept > 0
