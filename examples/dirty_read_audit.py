#!/usr/bin/env python3
"""Auditing anomalous logs with the certifier — and the counterexamples.

The serialization-graph test is a *checker*: point it at any recorded
behavior (here: the canonical scenarios shipped in ``repro.scenarios``)
and it diagnoses what went wrong:

* ``dirty-read``   — appropriate-return-values violation (Lemma 6's
  "safe" condition fails);
* ``lost-update`` / ``write-skew`` — cycles in the serialization graph;
* ``blind-writes`` — rejected by the SG test yet *serially correct*:
  acyclicity is sufficient, not necessary (unlike the classical theory);
* ``mvto-stale-read`` — correct in timestamp order; the single-version
  test rejects it (the multiversion boundary of Section 7).

The brute-force oracle supplies ground truth for the rejected cases.
"""

from repro.core.correctness import certify
from repro.core.oracle import oracle_serially_correct
from repro.scenarios import build_scenario, scenario_names


def audit(name: str) -> None:
    behavior, system_type, expectation = build_scenario(name)
    print(f"=== {name} " + "=" * max(1, 50 - len(name)))
    print(f"({expectation.reason})")
    certificate = certify(behavior, system_type)
    print(certificate.explain())
    if not certificate.certified:
        verdict = oracle_serially_correct(behavior, system_type)
        outcome = (
            "IS serially correct anyway" if verdict else "is genuinely incorrect"
        )
        print(
            f"Brute-force oracle ({verdict.orders_tried} orders tried): "
            f"the behavior {outcome}."
        )
    print()


def main() -> None:
    for name in scenario_names():
        audit(name)
    print("Takeaway: ARV violations and SG cycles pinpoint real anomalies;")
    print("blind-writes and mvto-stale-read show the test is sufficient,")
    print("not necessary, for the user-view correctness notion.")


if __name__ == "__main__":
    main()
