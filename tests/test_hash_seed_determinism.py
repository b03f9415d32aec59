"""Certificates do not depend on ``PYTHONHASHSEED``.

Both graph builders seed their sibling-group nodes in transaction-name
order, so the cycle a rejection reports (and ``repro audit``/``explain``
print) and the sibling order behind a witness are the same in every
interpreter.  Set iteration order varies with the hash seed, so this
suite certifies the same contended behaviors in two fresh interpreters
with different seeds and compares what they report.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

SCRIPT = """
from repro import certify
from conftest import reference_certify
from test_online import random_contended_behavior

for seed in range(40):
    behavior, system = random_contended_behavior(seed)
    certificate = certify(behavior, system)
    print(seed, "certify", certificate.cycle)
    print(seed, "witness", certificate.witness)
    for indexed in (True, False):
        reference = reference_certify(behavior, system, indexed=indexed)
        print(seed, "indexed" if indexed else "naive", reference.cycle)
"""


def certify_under(hash_seed):
    env = dict(
        os.environ,
        PYTHONHASHSEED=str(hash_seed),
        PYTHONPATH=os.pathsep.join((str(SRC), str(TESTS))),
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout.splitlines()


def test_cycles_and_witnesses_do_not_depend_on_the_hash_seed():
    first, second = certify_under(0), certify_under(23)
    assert len(first) == 40 * 4
    # the sweep must report cycles, or it proves nothing about them
    cycles = [line for line in first if " certify " in line]
    assert sum(not line.endswith(" None") for line in cycles) >= 20
    assert first == second
