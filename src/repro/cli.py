"""Command-line interface: record runs, audit recorded behaviors, trace.

Subcommands::

    python -m repro demo   [--algorithm moss|undo] [--seed N]
    python -m repro record [--algorithm moss|undo] [--seed N] -o run.json
    python -m repro record --runs 8 --jobs 4 -o corpus.json
    python -m repro audit  run.json [--dot graph.dot] [--oracle]
    python -m repro audit  corpus-*.json --jobs 4
    python -m repro trace  [--seed N] --out trace.jsonl
    python -m repro stream [--sessions N] [--workers K] [--no-compaction]
    python -m repro metrics snapshot.json [--serve PORT]
    python -m repro explain run.json [--json out.json] [--dot graph.dot]
    python -m repro lint   [--json] [--rules R001 spec drift]
    python -m repro robustness [--json] [--explain] [scenario ...]

``record`` simulates a nested-transaction workload and writes the
(behavior, system type) pair as JSON; with ``--runs N`` it records a
whole seeded corpus (one file per seed), fanned out over ``--jobs``
worker processes.  ``audit`` re-checks any such file with the
serialization-graph certifier, optionally cross-examining with the
brute-force oracle and exporting the graph as Graphviz DOT; given
several files it batch-certifies them as a corpus, sharded over
``--jobs`` workers (see :mod:`repro.parallel`).  The audit exit status
is 0 when every case is certified, 2 when any is not, and 1 when a case
cannot be read or ``--dot``/``--oracle``/``--witness`` is given with
several cases or the online engine (they need one batch certificate).

``trace`` runs a fully instrumented workload + certification, writing a
JSONL span trace plus a metrics snapshot (see ``docs/OBSERVABILITY.md``
for the schema); ``demo``/``record``/``audit`` accept ``--metrics-json``
for the snapshot alone, and ``demo`` additionally ``--stats-json`` for
the raw run counters.

``stream`` drives generated commit-as-you-go streams through the
:mod:`repro.stream` asyncio feed service — concurrent sessions sharded
over certifier workers with bounded queues and prefix compaction on by
default (``--no-compaction`` selects the baseline engine).  With
``--metrics-json`` the run reports p50/p95/p99 feed→verdict latency;
``--flight PATH`` attaches a violation flight recorder (post-mortem
JSONL on cycle latch / ARV violation); ``--export-jsonl PATH`` runs the
periodic metrics snapshot exporter alongside the service.

``metrics`` renders a ``--metrics-json`` snapshot in the Prometheus
text exposition format — one-shot to stdout (or ``-o``), or served at
``/metrics`` over :mod:`http.server` with ``--serve PORT`` (the file is
re-read per scrape, so a live run's exporter output stays fresh).

``explain`` maps a rejected case's SG cycle back to concrete
conflicting operation pairs (see :mod:`repro.core.explain`): a text
provenance report, optionally ``--json`` structured output and an
annotated ``--dot`` rendering.  Exit status 2 when a cycle was found
and explained, 0 when the behavior's graph is acyclic.

``lint`` runs the project static analysis (:mod:`repro.analysis`): the
AST rules R001–R005, the spec-soundness checker and the docs drift
detectors.  Exit status is 0 when clean, 1 when any problem is found,
2 on a usage error; ``--json`` emits one machine-readable report (see
``docs/STATIC_ANALYSIS.md``).

``robustness`` runs the static robustness analyzer
(:mod:`repro.analysis.robustness`) over the shipped program-scenario
catalogue (optionally plus ``--generated N`` workload program sets),
checking every verdict against its recorded ROBUST/NOT-ROBUST
expectation and — unless ``--no-validate`` — machine-checking each
NOT-ROBUST verdict by driving a concrete cyclic history through the
certifier.  Exit status 0 on full agreement, 1 on drift.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .core.correctness import certify
from .core.oracle import oracle_serially_correct
from .core.serde import dump_case, load_case
from .obs import MetricsRegistry
from .parallel import certify_corpus, record_corpus, seeded_run
from .report import certificate_report, serialization_graph_to_dot

__all__ = ["main"]

#: sibling orders ``repro audit --oracle`` tries unless ``--oracle-budget``
#: says otherwise
ORACLE_BUDGET = 5000


def _make_registry(args: argparse.Namespace) -> Optional[MetricsRegistry]:
    """A metrics registry when any metrics output was requested."""
    if getattr(args, "metrics_json", None):
        return MetricsRegistry()
    return None


def _write_metrics(registry: Optional[MetricsRegistry],
                   args: argparse.Namespace) -> None:
    path = getattr(args, "metrics_json", None)
    if registry is not None and path:
        registry.write_json(path)
        print(f"metrics snapshot written to {path}")


def _run(args: argparse.Namespace, registry: Optional[MetricsRegistry]):
    """The seeded run the options name; its counters go to ``registry``."""
    result, system_type = seeded_run(
        args.seed,
        args.algorithm,
        args.transactions,
        args.objects,
        args.depth,
        args.abort_rate,
        args.max_steps,
    )
    if registry is not None:
        result.stats.record(registry)
    return result, system_type


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--algorithm",
        choices=("moss", "undo", "read-update"),
        default="moss",
        help="concurrency control algorithm (default: moss)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--transactions", type=int, default=4,
                        help="top-level transactions (default: 4)")
    parser.add_argument("--objects", type=int, default=3)
    parser.add_argument("--depth", type=int, default=2)
    parser.add_argument("--abort-rate", type=float, default=0.0,
                        help="per-step abort injection probability")
    parser.add_argument("--max-steps", type=int, default=10_000)


def _cmd_demo(args: argparse.Namespace) -> int:
    registry = _make_registry(args)
    result, system_type = _run(args, registry)
    print(f"run: {result.stats.summary()}\n")
    if args.stats_json:
        Path(args.stats_json).write_text(
            json.dumps(result.stats.to_dict(), indent=2) + "\n"
        )
        print(f"run stats written to {args.stats_json}")
    if args.tree:
        from .core.names import ROOT
        from .sim.analysis import analyze_trace

        analysis = analyze_trace(result.behavior, system_type)
        print("transaction tree:")
        for line in analysis.tree_lines(ROOT, indent="  "):
            print(line)
        latency = analysis.mean_access_latency()
        if latency is not None:
            print(f"mean access latency: {latency:.1f} events\n")
        else:
            print()
    certificate = certify(result.behavior, system_type, metrics=registry)
    print(certificate_report(certificate, result.behavior, system_type,
                             witness_preview=args.witness))
    _write_metrics(registry, args)
    return 0 if certificate.certified else 2


def _corpus_paths(output: str, seeds: Sequence[int]) -> list:
    base = Path(output)
    return [base.with_name(f"{base.stem}-s{seed}{base.suffix}") for seed in seeds]


def _cmd_record(args: argparse.Namespace) -> int:
    registry = _make_registry(args)
    if args.runs > 1:
        seeds = range(args.seed, args.seed + args.runs)
        paths = _corpus_paths(args.output, seeds)
        recorded = record_corpus(
            seeds,
            paths,
            algorithm=args.algorithm,
            top_level=args.transactions,
            objects=args.objects,
            max_depth=args.depth,
            abort_rate=args.abort_rate,
            max_steps=args.max_steps,
            jobs=args.jobs,
            metrics=registry,
        )
        for path, events in recorded:
            print(f"recorded {events} events to {path}")
        _write_metrics(registry, args)
        return 0
    result, system_type = _run(args, registry)
    text = dump_case(result.behavior, system_type)
    Path(args.output).write_text(text)
    print(f"recorded {len(result.behavior)} events to {args.output}")
    print(f"run: {result.stats.summary()}")
    _write_metrics(registry, args)
    return 0


def _load_cases(paths: Sequence[str]):
    cases = []
    for name in paths:
        path = Path(name)
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return None
        try:
            behavior, system_type = load_case(text)
        except ValueError as exc:
            print(f"{path} is not a valid repro case: {exc}", file=sys.stderr)
            return None
        cases.append((str(path), behavior, system_type))
    return cases


def _cmd_audit(args: argparse.Namespace) -> int:
    # the DOT graph, oracle and witness preview come from one batch
    # certificate; refuse them elsewhere rather than drop them
    if args.engine == "online" or len(args.cases) > 1:
        mode = "--engine online" if args.engine == "online" else "several cases"
        for option, requested in (
            ("--dot", args.dot), ("--oracle", args.oracle),
            ("--oracle-budget", args.oracle_budget is not None),
            ("--witness", args.witness),
        ):
            if requested:
                print(f"{option} needs one case on the batch engine, not {mode}",
                      file=sys.stderr)
                return 1
    if args.oracle_budget is not None and not args.oracle:
        print("--oracle-budget needs --oracle", file=sys.stderr)
        return 1
    cases = _load_cases(args.cases)
    if cases is None:
        return 1
    registry = _make_registry(args)
    if args.engine == "online":
        from .core.online import OnlineCertifier

        all_certified = True
        for label, behavior, system_type in cases:
            verdict = OnlineCertifier(system_type, metrics=registry).feed_all(
                behavior
            )
            prefix = f"{label}: " if len(cases) > 1 else ""
            print(
                f"{prefix}CERTIFIED (online engine)"
                if verdict.certified
                else f"{prefix}NOT certified (online engine):"
            )
            for violation in verdict.arv_violations:
                print(f"  {violation}")
            if verdict.cycle is not None:
                parent, nodes = verdict.cycle
                print(f"  SG cycle under {parent}: "
                      + " -> ".join(str(n) for n in nodes))
            all_certified = all_certified and verdict.certified
        _write_metrics(registry, args)
        return 0 if all_certified else 2
    if len(cases) > 1:
        verdicts = certify_corpus(
            cases, jobs=args.jobs, validate_input=True, metrics=registry
        )
        for verdict in verdicts:
            print(verdict)
        certified = sum(1 for verdict in verdicts if verdict.certified)
        print(f"\n{certified}/{len(verdicts)} cases certified "
              f"(jobs={min(args.jobs, len(cases))})")
        _write_metrics(registry, args)
        return 0 if certified == len(verdicts) else 2
    _, behavior, system_type = cases[0]
    certificate = certify(behavior, system_type, validate_input=True,
                          metrics=registry)
    print(certificate_report(certificate, behavior, system_type,
                             witness_preview=args.witness))
    if args.dot:
        Path(args.dot).write_text(
            serialization_graph_to_dot(certificate.graph)
        )
        print(f"\nserialization graph written to {args.dot}")
    if args.oracle and not certificate.certified:
        budget = ORACLE_BUDGET if args.oracle_budget is None else args.oracle_budget
        verdict = oracle_serially_correct(behavior, system_type,
                                          max_orders=budget)
        print(
            f"\nbrute-force oracle ({verdict.orders_tried} orders"
            f"{', truncated' if verdict.truncated else ''}): "
            + ("serially correct despite rejection (sufficiency gap)"
               if verdict else "no serial witness found")
        )
    _write_metrics(registry, args)
    return 0 if certificate.certified else 2


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import JSONLFileSink, RingBufferSink, Tracer, span_coverage

    registry = MetricsRegistry()
    ring = RingBufferSink()
    tracer = Tracer(ring, JSONLFileSink(args.out), metrics=registry)
    with tracer.span("trace", seed=args.seed, algorithm=args.algorithm):
        with tracer.span("simulate"):
            result, system_type = _run(args, registry)
        certificate = certify(
            result.behavior, system_type, tracer=tracer, metrics=registry
        )
        if args.online:
            from .core.online import OnlineCertifier

            online = OnlineCertifier(
                system_type, tracer=tracer, metrics=registry
            )
            with tracer.span("online.feed_all", events=len(result.behavior)):
                online_verdict = online.feed_all(result.behavior)
            if online_verdict.certified != certificate.certified:
                print("WARNING: online and batch verdicts disagree",
                      file=sys.stderr)
    coverage = span_coverage(ring.spans(), "certify")
    registry.set_gauge(
        "trace.certify_coverage", round(coverage, 4) if coverage is not None else 0
    )
    tracer.close()
    metrics_path = args.metrics_json or f"{args.out}.metrics.json"
    registry.write_json(metrics_path)
    print(f"run: {result.stats.summary()}")
    print(
        "CERTIFIED" if certificate.certified else "NOT certified",
        f"({len(result.behavior)} events)",
    )
    print(f"trace: {len(ring)} spans written to {args.out}")
    print(f"metrics snapshot written to {metrics_path}")
    if coverage is not None:
        print(f"certify phase coverage: {coverage:.1%} of certify wall time")
    return 0 if certificate.certified else 2


def _cmd_stream(args: argparse.Namespace) -> int:
    import asyncio

    from .obs import MetricsRegistry as Registry
    from .stream import (
        StreamConfig,
        StreamService,
        StreamWorkload,
        commit_as_you_go,
    )

    try:
        config = StreamConfig(
            workers=args.workers,
            queue_size=args.queue_size,
            compaction=not args.no_compaction,
            compaction_interval=args.interval,
        )
    except ValueError as exc:
        print(f"invalid stream configuration: {exc}", file=sys.stderr)
        return 1
    registry = (
        MetricsRegistry()
        if args.metrics_json or args.flight or args.export_jsonl
        else None
    )

    async def run() -> list:
        from .obs import FlightRecorder, SnapshotExporter

        service = StreamService(config, metrics=registry)
        await service.start()
        exporter = None
        if args.export_jsonl:
            assert registry is not None
            exporter = SnapshotExporter(
                registry, args.export_jsonl, interval=args.export_interval
            )
            await exporter.start()

        async def drive(index: int):
            workload = StreamWorkload(
                top_level=args.transactions,
                accesses=args.accesses,
                window=args.window,
                seed=args.seed + index,
            )
            system_type, actions = commit_as_you_go(workload)
            flight = (
                FlightRecorder(args.flight, metrics=registry)
                if args.flight
                else None
            )
            session = await service.open_session(
                f"session-{index}", system_type, metrics=Registry(),
                flight=flight,
            )
            await session.feed_all(actions)
            return await session.close()

        try:
            return await asyncio.gather(
                *(drive(index) for index in range(args.sessions))
            )
        finally:
            await service.close()
            if exporter is not None:
                await exporter.close()

    results = asyncio.run(run())
    all_certified = True
    for result in results:
        verdict = result.verdict
        status = "CERTIFIED" if verdict.certified else "NOT certified"
        stats = result.compaction_stats
        print(
            f"{result.name}: {status} [{result.actions} events] "
            f"evicted {stats['evicted_rows']} rows / "
            f"{stats['evicted_subtrees']} subtrees, "
            f"live {stats['live_tracked_ops']} ops"
        )
        all_certified = all_certified and verdict.certified
    if registry is not None:
        snapshot = registry.snapshot()
        latency = snapshot["histograms"].get("stream.latency.feed_to_verdict")
        if latency and latency["count"]:
            print(
                f"feed->verdict latency over {latency['count']} events: "
                f"p50={latency['p50'] * 1e6:.0f}us "
                f"p95={latency['p95'] * 1e6:.0f}us "
                f"p99={latency['p99'] * 1e6:.0f}us"
            )
    if args.flight:
        print(f"post-mortems appended to {args.flight}")
    if args.export_jsonl:
        print(f"metrics snapshots exported to {args.export_jsonl}")
    _write_metrics(registry, args)
    return 0 if all_certified else 2


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .obs import to_prometheus

    path = Path(args.snapshot)

    def render() -> str:
        text = path.read_text()
        try:
            snapshot = json.loads(text)
        except json.JSONDecodeError:
            # an exporter JSONL file: the last record is the freshest
            lines = [line for line in text.splitlines() if line.strip()]
            if not lines:
                raise ValueError("empty snapshot file")
            snapshot = json.loads(lines[-1])
        if isinstance(snapshot, dict) and "snapshot" in snapshot:
            snapshot = snapshot["snapshot"]
        if not isinstance(snapshot, dict):
            raise ValueError("not a metrics snapshot")
        return to_prometheus(snapshot, namespace=args.namespace)

    if args.serve is None:
        try:
            text = render()
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"cannot render {path}: {exc}", file=sys.stderr)
            return 1
        if args.output:
            Path(args.output).write_text(text)
            print(f"prometheus exposition written to {args.output}")
        else:
            print(text, end="")
        return 0

    from http.server import BaseHTTPRequestHandler, HTTPServer

    class _MetricsHandler(BaseHTTPRequestHandler):
        def do_GET(self) -> None:  # noqa: N802 - http.server API
            if self.path not in ("/metrics", "/"):
                self.send_error(404)
                return
            try:
                body = render().encode("utf-8")
            except (OSError, ValueError, json.JSONDecodeError) as exc:
                self.send_error(500, str(exc))
                return
            self.send_response(200)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, format: str, *log_args: object) -> None:
            pass  # scrapes are not news

    server = HTTPServer((args.bind, args.serve), _MetricsHandler)
    print(
        f"serving {path} at http://{args.bind}:{args.serve}/metrics "
        "(Ctrl-C to stop)"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .core.explain import explain_behavior
    from .report import explanation_report

    cases = _load_cases([args.case])
    if cases is None:
        return 1
    label, behavior, system_type = cases[0]
    explained = explain_behavior(
        behavior, system_type, max_witnesses=args.max_witnesses
    )
    if explained is None:
        print(f"{label}: serialization graph is acyclic; nothing to explain")
        return 0
    explanation, graph = explained
    print(explanation_report(explanation))
    if args.json:
        Path(args.json).write_text(
            json.dumps(explanation.to_dict(), indent=2, default=str) + "\n"
        )
        print(f"structured explanation written to {args.json}")
    if args.dot:
        Path(args.dot).write_text(
            serialization_graph_to_dot(graph, explanation=explanation)
        )
        print(f"annotated serialization graph written to {args.dot}")
    return 2


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from .core.oracle import oracle_serially_correct
    from .scenarios import SCENARIOS, build_scenario

    names = [args.name] if args.name else list(SCENARIOS)
    for name in names:
        behavior, system_type, expectation = build_scenario(name)
        certificate = certify(behavior, system_type, construct_witness=False)
        oracle = bool(
            oracle_serially_correct(behavior, system_type, max_orders=2000)
        )
        status = "certified" if certificate.certified else "rejected"
        truth = "correct" if oracle else "incorrect"
        marker = "OK" if (
            certificate.certified == expectation.certified
            and oracle == expectation.serially_correct
        ) else "UNEXPECTED"
        print(f"{name:16s} {status:9s} / {truth:9s}  [{marker}]  {expectation.reason}")
    if not args.name:
        from .distributed import build_dist_scenario, dist_scenario_names

        print()
        print("distributed scenarios (run with: repro distsim --scenario NAME):")
        for name in dist_scenario_names():
            _, _, expectation = build_dist_scenario(name)
            local = "local-ok" if expectation.locally_certified else "local-NO"
            glob = "global-ok" if expectation.globally_certified else "global-NO"
            print(f"{name:24s} {local} / {glob}  {expectation.reason}")

        from .scenarios import PROGRAM_SCENARIOS

        print()
        print("program scenarios (run with: repro robustness [NAME]):")
        for name, (_, robustness) in PROGRAM_SCENARIOS.items():
            verdict = "ROBUST" if robustness.robust else "NOT-ROBUST"
            shape = f" [{robustness.classification}]" if robustness.classification else ""
            print(f"{name:24s} {verdict:10s}{shape}  {robustness.reason}")
    return 0


def _cmd_distsim(args: argparse.Namespace) -> int:
    from .core.online import OnlineCertifier
    from .distributed import (
        build_dist_scenario,
        certify_distributed,
        certify_sites,
        dist_scenario_names,
        divergence_config,
        replica_divergence,
        run_distributed,
    )
    from .obs import FlightRecorder

    registry = (
        MetricsRegistry() if args.metrics_json or args.flight else None
    )
    flight = (
        FlightRecorder(args.flight, metrics=registry) if args.flight else None
    )

    def feed_flight(tag, site_histories):
        # replay each site's history through an online certifier so
        # post-mortems carry the originating site id
        if flight is None:
            return
        for site in sorted(site_histories):
            behavior, system_type = site_histories[site]
            online = OnlineCertifier(
                system_type,
                flight=flight,
                session=tag,
                site=f"s{site}",
            )
            online.feed_all(behavior)

    if args.scenario:
        histories, placement, expectation = build_dist_scenario(args.scenario)
        certificate = certify_sites(
            histories,
            metrics=registry,
            divergent_replicas=replica_divergence(histories, placement),
        )
        print(f"scenario {args.scenario}: {expectation.reason}")
        print(certificate.summary())
        feed_flight(f"distsim-{args.scenario}", histories)
        matches = (
            certificate.locally_certified == expectation.locally_certified
            and certificate.globally_certified == expectation.globally_certified
        )
        if not matches:
            print("UNEXPECTED: verdicts differ from the documented expectation")
        _write_metrics(registry, args)
        return 0 if certificate.globally_certified and matches else 2

    if args.sweep:
        divergent = []
        rejected = []
        for seed in range(args.sweep):
            config = divergence_config(
                seed, sites=args.sites, pairs=args.pairs, crash=args.crash
            )
            run = run_distributed(config, metrics=registry)
            certificate = certify_distributed(run, metrics=registry)
            if certificate.divergent:
                divergent.append(seed)
            if not certificate.globally_certified:
                rejected.append(seed)
        print(
            f"{args.sweep} seeds: {len(rejected)} globally rejected, "
            f"{len(divergent)} divergent (every local SG acyclic, merged "
            f"SG cyclic)"
        )
        if divergent:
            shown = ", ".join(str(seed) for seed in divergent[:10])
            more = "..." if len(divergent) > 10 else ""
            print(f"divergent seeds: {shown}{more}")
        _write_metrics(registry, args)
        return 0

    config = divergence_config(
        args.seed, sites=args.sites, pairs=args.pairs, crash=args.crash
    )
    run = run_distributed(config, metrics=registry)
    certificate = certify_distributed(run, metrics=registry)
    outcomes = ", ".join(
        f"{name}={outcome}" for name, outcome in sorted(run.outcomes.items())
    )
    print(
        f"seed {args.seed}: {config.sites} sites, "
        f"{len(config.transactions)} transactions, "
        f"{run.routing.routed_accesses()} routed accesses, "
        f"{len(run.doomed)} doomed"
    )
    print(f"outcomes: {outcomes}")
    for name, reason in sorted(run.doomed.items()):
        print(f"  doomed {name}: {reason}")
    print(certificate.summary())
    feed_flight(
        f"distsim-seed{args.seed}",
        {
            site: (site_run.behavior, site_run.system_type)
            for site, site_run in run.site_runs.items()
        },
    )
    if args.flight:
        print(f"post-mortems appended to {args.flight}")
    _write_metrics(registry, args)
    return 0 if certificate.globally_certified else 2


class _LintSelectionError(ValueError):
    """An unknown ``--rules`` token (reported as a usage error, exit 2)."""


def _lint_selection(tokens: Sequence[str]):
    """Split ``--rules`` tokens into (ast rule ids, run_spec, run_drift)."""
    from .analysis.rules import all_rules

    known_ids = {rule.rule_id for rule in all_rules()}
    if not tokens:
        return sorted(known_ids), True, True
    rule_ids, run_spec, run_drift = [], False, False
    for token in tokens:
        for piece in token.split(","):
            piece = piece.strip()
            if not piece:
                continue
            upper = piece.upper()
            if upper in known_ids:
                rule_ids.append(upper)
            elif piece.lower() == "spec":
                run_spec = True
            elif piece.lower() == "drift":
                run_drift = True
            else:
                raise _LintSelectionError(
                    f"unknown lint rule '{piece}' (known: "
                    f"{', '.join(sorted(known_ids))}, spec, drift)"
                )
    return rule_ids, run_spec, run_drift


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import (
        check_all_builtin_specs,
        check_all_drift,
        lint_paths,
    )
    from .analysis.rules import rule_by_id

    # argparse's greedy nargs lets `--rules R002 path/to/mod.py` bind the
    # path as a rules token; reclaim tokens that name existing files/dirs.
    rule_tokens, extra_paths = [], []
    for token in args.rules or []:
        if ("/" in token or token.endswith(".py")) and Path(token).exists():
            extra_paths.append(token)
        else:
            rule_tokens.append(token)
    try:
        rule_ids, run_spec, run_drift = _lint_selection(rule_tokens)
    except _LintSelectionError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    repo_root = (
        Path(args.root).resolve()
        if args.root
        else Path(__file__).resolve().parents[2]
    )
    findings = []
    if rule_ids:
        rules = [rule_by_id(rule_id) for rule_id in rule_ids]
        tests_root = repo_root / "tests"
        explicit = [Path(path) for path in (*args.paths, *extra_paths)]
        targets = explicit or [repo_root / "src" / "repro"]
        for target in targets:
            findings.extend(lint_paths(target, rules, tests_root=tests_root))
    spec_reports = check_all_builtin_specs() if run_spec else []
    spec_problems = [
        problem for report in spec_reports for problem in report.problems
    ]
    drift_problems = check_all_drift(repo_root) if run_drift else []
    total = len(findings) + len(spec_problems) + len(drift_problems)
    if args.json:
        print(
            json.dumps(
                {
                    "ok": total == 0,
                    "problems": total,
                    "findings": [finding.to_dict() for finding in findings],
                    "spec_reports": [
                        report.to_dict() for report in spec_reports
                    ],
                    "drift": [
                        problem.to_dict() for problem in drift_problems
                    ],
                },
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding)
        for problem in spec_problems:
            print(problem)
        for problem in drift_problems:
            print(problem)
        if run_spec:
            certified = sum(1 for report in spec_reports if report.ok)
            print(
                f"spec-check: {certified}/{len(spec_reports)} specs certified"
            )
        print("repro lint: clean" if total == 0 else
              f"repro lint: {total} problem(s)")
    return 0 if total == 0 else 1


def _cmd_robustness(args: argparse.Namespace) -> int:
    from .analysis.robustness import analyze_robustness
    from .scenarios import PROGRAM_SCENARIOS, build_program_scenario

    validate = not args.no_validate
    try:
        names = list(args.names) if args.names else list(PROGRAM_SCENARIOS)
        for name in names:
            if name not in PROGRAM_SCENARIOS:
                raise KeyError(name)
    except KeyError as exc:
        print(
            f"repro robustness: unknown program scenario {exc.args[0]!r}; "
            f"available: {', '.join(PROGRAM_SCENARIOS)}",
            file=sys.stderr,
        )
        return 2
    entries = []
    mismatches = 0
    for name in names:
        objects, programs, expectation = build_program_scenario(name)
        report = analyze_robustness(
            objects, programs, validate=validate and not expectation.robust
        )
        verdict_match = report.robust == expectation.robust
        class_match = (
            not expectation.classification
            or expectation.classification in report.classifications
        )
        witnessed = report.witnessed if report.validations else None
        matched = verdict_match and class_match and witnessed is not False
        if not matched:
            mismatches += 1
        entries.append((name, expectation, report, matched))
    generated = []
    if args.generated:
        from .sim.workload import WorkloadConfig, generate_program_set

        for offset in range(args.generated):
            config = WorkloadConfig(
                objects=2, top_level=3, max_calls=2, seed=args.seed + offset
            )
            objects, programs = generate_program_set(config)
            report = analyze_robustness(objects, programs, validate=False)
            generated.append((config.seed, report))
    if args.json:
        payload = {
            "ok": mismatches == 0,
            "scenarios": [
                {
                    "name": name,
                    "expected": {
                        "robust": expectation.robust,
                        "classification": expectation.classification,
                    },
                    "matched": matched,
                    "report": report.to_dict(),
                }
                for name, expectation, report, matched in entries
            ],
            "generated": [
                {"seed": seed, "report": report.to_dict()}
                for seed, report in generated
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        for name, expectation, report, matched in entries:
            expected = "ROBUST" if expectation.robust else "NOT-ROBUST"
            marker = "OK" if matched else "UNEXPECTED"
            detail = expectation.classification or expectation.reason
            print(
                f"{name:24s} {report.verdict:10s} (expected {expected:10s}) "
                f"[{marker}]  {detail}"
            )
            if args.explain:
                for line in report.explain().splitlines()[1:]:
                    print(f"    {line}")
        for seed, report in generated:
            print(f"generated seed={seed:<6d} {report.verdict}")
    return 0 if mismatches == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Serialization graphs for nested transactions "
                    "(Fekete–Lynch–Weihl, PODS 1990)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser("demo", help="simulate a workload and certify it")
    _add_run_options(demo)
    demo.add_argument("--witness", type=int, default=0,
                      help="preview this many witness events")
    demo.add_argument("--tree", action="store_true",
                      help="print the transaction tree with outcomes/latencies")
    demo.add_argument("--stats-json", metavar="PATH",
                      help="write the run statistics as JSON")
    demo.add_argument("--metrics-json", metavar="PATH",
                      help="write a metrics snapshot as JSON")
    demo.set_defaults(func=_cmd_demo)

    record = subparsers.add_parser("record", help="simulate and save a run as JSON")
    _add_run_options(record)
    record.add_argument("-o", "--output", required=True, help="output JSON path")
    record.add_argument("--runs", type=int, default=1,
                        help="record a corpus of N seeded runs (seed, seed+1, "
                             "...), one '<output>-s<seed>.json' file each")
    record.add_argument("--jobs", type=int, default=1,
                        help="worker processes for --runs > 1 (default: 1)")
    record.add_argument("--metrics-json", metavar="PATH",
                        help="write a metrics snapshot as JSON")
    record.set_defaults(func=_cmd_record)

    trace = subparsers.add_parser(
        "trace",
        help="simulate + certify a workload with full tracing/metrics",
    )
    _add_run_options(trace)
    trace.add_argument("--out", required=True, metavar="PATH",
                       help="JSONL span-trace output path")
    trace.add_argument("--metrics-json", metavar="PATH",
                       help="metrics snapshot path (default: OUT.metrics.json)")
    trace.add_argument("--online", action="store_true",
                       help="additionally stream through the online certifier")
    trace.set_defaults(func=_cmd_trace)

    audit = subparsers.add_parser("audit", help="certify recorded runs")
    audit.add_argument("cases", nargs="+", metavar="case",
                       help="JSON file(s) produced by 'record'; several files "
                            "are batch-certified as a corpus")
    audit.add_argument("--jobs", type=int, default=1,
                       help="worker processes for multi-case audits "
                            "(default: 1)")
    audit.add_argument("--dot", help="write the serialization graph as DOT "
                                     "(one case, batch engine)")
    audit.add_argument("--oracle", action="store_true",
                       help="on rejection, search for a serial witness anyway "
                            "(one case, batch engine)")
    audit.add_argument("--oracle-budget", type=int,
                       help="sibling orders the oracle may try (with "
                            f"--oracle; default: {ORACLE_BUDGET})")
    audit.add_argument("--witness", type=int, default=0,
                       help="preview this many witness events "
                            "(one case, batch engine)")
    audit.add_argument("--engine", choices=("batch", "online"), default="batch",
                       help="batch (full certificate + witness) or online "
                            "(incremental verdict)")
    audit.add_argument("--metrics-json", metavar="PATH",
                       help="write a metrics snapshot as JSON")
    audit.set_defaults(func=_cmd_audit)

    stream = subparsers.add_parser(
        "stream",
        help="run concurrent commit-as-you-go streams through the "
             "bounded-memory feed service",
        description="Certify generated commit-as-you-go streams through "
                    "the repro.stream asyncio service (compaction on by "
                    "default). Exit status 0 when every session "
                    "certifies, 2 otherwise.",
    )
    stream.add_argument("--sessions", type=int, default=2,
                        help="concurrent sessions (default: 2)")
    stream.add_argument("--workers", type=int, default=2,
                        help="certifier workers sessions are sharded over")
    stream.add_argument("--queue-size", type=int, default=256,
                        help="per-worker queue bound (the backpressure point)")
    stream.add_argument("--transactions", type=int, default=200,
                        help="top-level transactions per session stream")
    stream.add_argument("--accesses", type=int, default=4,
                        help="accesses per top-level transaction")
    stream.add_argument("--window", type=int, default=8,
                        help="interleaved transactions per stream")
    stream.add_argument("--interval", type=int, default=64,
                        help="compaction sweep interval in events")
    stream.add_argument("--no-compaction", action="store_true",
                        help="run the uncompacted baseline engine instead")
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--metrics-json", metavar="PATH",
                        help="write the service metrics snapshot as JSON")
    stream.add_argument("--flight", metavar="PATH",
                        help="attach a violation flight recorder; post-mortem "
                             "records (recent actions, metrics, cycle "
                             "witness) append to this JSONL file")
    stream.add_argument("--export-jsonl", metavar="PATH",
                        help="run the periodic metrics snapshot exporter "
                             "alongside the service, appending to this "
                             "JSONL file")
    stream.add_argument("--export-interval", type=float, default=1.0,
                        help="snapshot exporter period in seconds "
                             "(default: 1.0)")
    stream.set_defaults(func=_cmd_stream)

    metrics = subparsers.add_parser(
        "metrics",
        help="render a metrics snapshot in the Prometheus text format",
        description="One-shot: print the exposition (or write it with -o). "
                    "With --serve, expose /metrics over http.server, "
                    "re-reading the snapshot file per scrape.",
    )
    metrics.add_argument("snapshot", metavar="SNAPSHOT",
                         help="a --metrics-json snapshot, or a snapshot "
                              "exporter JSONL file (last record wins)")
    metrics.add_argument("-o", "--output", metavar="PATH",
                         help="write the exposition here instead of stdout")
    metrics.add_argument("--namespace", default="repro",
                         help="metric name prefix (default: repro)")
    metrics.add_argument("--serve", type=int, metavar="PORT",
                         help="serve /metrics on this port instead of "
                              "rendering once")
    metrics.add_argument("--bind", default="127.0.0.1",
                         help="address to bind --serve to "
                              "(default: 127.0.0.1)")
    metrics.set_defaults(func=_cmd_metrics)

    explain = subparsers.add_parser(
        "explain",
        help="map a rejected case's SG cycle back to the conflicting "
             "operation pairs",
        description="Build SG(beta) for a recorded case, find a cycle and "
                    "explain every edge with concrete operation-pair "
                    "witnesses. Exit status 2 when a cycle was explained, "
                    "0 when the graph is acyclic.",
    )
    explain.add_argument("case", metavar="case",
                         help="a JSON file produced by 'record'")
    explain.add_argument("--json", metavar="PATH",
                         help="write the structured explanation as JSON")
    explain.add_argument("--dot", metavar="PATH",
                         help="write the witness-annotated serialization "
                              "graph as DOT")
    explain.add_argument("--max-witnesses", type=int, default=0,
                         help="cap conflict witnesses per object per edge "
                              "(0 = unbounded)")
    explain.set_defaults(func=_cmd_explain)

    scenarios = subparsers.add_parser(
        "scenarios", help="judge the canonical anomaly scenarios"
    )
    scenarios.add_argument("name", nargs="?", help="a single scenario to judge")
    scenarios.set_defaults(func=_cmd_scenarios)

    distsim = subparsers.add_parser(
        "distsim",
        help="simulate a replicated multi-site workload and certify it "
             "locally and globally",
        description="Route a partition-prone replicated workload onto "
                    "per-site generic controllers, certify each site "
                    "with the single-site machinery, then merge the "
                    "per-site serialization graphs and certify "
                    "globally. Exit status 2 when the global verdict "
                    "rejects (including local/global divergence), 0 "
                    "otherwise.",
    )
    distsim.add_argument("--scenario", metavar="NAME",
                         help="run a hand-built distributed scenario "
                              "instead of the seeded simulator (see "
                              "'repro scenarios' for names)")
    distsim.add_argument("--seed", type=int, default=0,
                         help="simulator seed (default: 0)")
    distsim.add_argument("--sites", type=int, default=2,
                         help="number of sites (default: 2)")
    distsim.add_argument("--pairs", type=int, default=2,
                         help="cross-reading transaction pairs "
                              "(default: 2)")
    distsim.add_argument("--crash", action="store_true",
                         help="also crash and recover site 2 mid-window")
    distsim.add_argument("--sweep", type=int, metavar="N",
                         help="run seeds 0..N-1 and report how many "
                              "runs diverge (local pass, global fail)")
    distsim.add_argument("--metrics-json", metavar="PATH",
                         help="write the distributed.* metrics snapshot "
                              "as JSON")
    distsim.add_argument("--flight", metavar="PATH",
                         help="replay site histories through online "
                              "certifiers with a flight recorder; "
                              "post-mortems record the originating "
                              "site id")
    distsim.set_defaults(func=_cmd_distsim)

    lint = subparsers.add_parser(
        "lint",
        help="run the project static analysis (AST rules, spec "
             "soundness, docs drift)",
        description="Exit status: 0 clean, 1 problems found, 2 usage "
                    "error. See docs/STATIC_ANALYSIS.md.",
    )
    lint.add_argument("paths", nargs="*", metavar="path",
                      help="files/directories for the AST rules "
                           "(default: src/repro)")
    lint.add_argument("--json", action="store_true",
                      help="emit one machine-readable JSON report on stdout")
    lint.add_argument("--rules", nargs="*", metavar="RULE",
                      help="run only these engines: rule ids (R001...), "
                           "'spec', 'drift'; comma- or space-separated "
                           "(default: everything)")
    lint.add_argument("--root", metavar="PATH",
                      help="repository root for tests/docs discovery "
                           "(default: inferred from the package location)")
    lint.set_defaults(func=_cmd_lint)

    robustness = subparsers.add_parser(
        "robustness",
        help="static robustness analysis of the program-scenario "
             "catalogue (and generated program sets)",
        description="Exit status: 0 when every scenario's verdict "
                    "matches its shipped expectation, 1 on drift, 2 on "
                    "usage error. See docs/STATIC_ANALYSIS.md.",
    )
    robustness.add_argument("names", nargs="*", metavar="scenario",
                            help="program scenarios to analyse "
                                 "(default: the whole catalogue)")
    robustness.add_argument("--json", action="store_true",
                            help="emit one machine-readable JSON report")
    robustness.add_argument("--explain", action="store_true",
                            help="print counterexample sketches for "
                                 "NOT-ROBUST verdicts")
    robustness.add_argument("--no-validate", action="store_true",
                            help="skip the dynamic validation bridge "
                                 "(static verdicts only)")
    robustness.add_argument("--generated", type=int, default=0, metavar="N",
                            help="additionally analyse N generated "
                                 "program sets (static only)")
    robustness.add_argument("--seed", type=int, default=0,
                            help="base seed for --generated")
    robustness.set_defaults(func=_cmd_robustness)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point: parse ``argv`` (or ``sys.argv``) and run the subcommand."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
