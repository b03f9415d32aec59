"""Static analysis for the reproduction itself (``repro lint``).

The correctness of the reproduction rests on invariants the test suite
only samples.  This package proves them at lint time instead:

* :mod:`repro.analysis.linter` — an AST lint engine with a rule
  registry and project-specific rules (R001–R004): A/B engine flags
  keep both paths alive, library-code hygiene, no quadratic patterns in
  ``core/`` hot paths, automaton handlers guard before deriving state;
* :mod:`repro.analysis.spec_check` — a spec-soundness checker that
  exhaustively verifies, over bounded op/value domains, that every
  registered commutativity specification is symmetric, that read-only
  operations never conflict (the exact assumption the engines'
  read/read skip relies on), and that ``conflicts``
  agrees with the definitional tables of :mod:`repro.spec.commutativity`;
* :mod:`repro.analysis.drift` — drift detectors keeping
  ``docs/OBSERVABILITY.md`` in sync with the metric names the source
  actually emits, and ``EXPERIMENTS.md`` in sync with
  ``benchmarks/bench_*.py``, in both directions;
* :mod:`repro.analysis.robustness` — the static robustness analyzer:
  program-level serialization graphs over the :mod:`repro.sim.programs`
  templates, dangerous-structure detection (lost update, write skew,
  fractured read), and a validation bridge that machine-checks every
  NOT-ROBUST verdict against the dynamic certifier (``repro
  robustness``).

The lint engines run via ``repro lint [--json] [--rules ...]`` and the
``make lint`` target; see ``docs/STATIC_ANALYSIS.md`` for the rule
catalogue, the robustness verdict semantics, and suppression syntax.
"""
