"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {pipeline,audit,stream} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout: the program is imported from
``src/``, and the run exits with status 2, printing no result, when the
sources are not there.  Inputs are made from ``--seed`` and generated
before timing starts; ``--seconds`` is the measured time.

``setup_s`` is the time from process start (the first line of this
script) until the inputs are built, scaled to the nominal machine speed
by probes taken during it (``measure.ScaledClock``).  It is the median
over :data:`SETUP_REPEATS` set-ups: this process's own and the rest in
fresh processes (``--setup-only``), so that the imports are repeated
along with the build.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures the workload twice on the same inputs, half the
time each: untraced, then with spans around the calls into each layer,
and reports the per-layer metrics of the traced half together with the
tracing overhead and the share of wall time the spans attribute.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it name every metric with its unit, including the workload-specific
ones (``moss.events_per_s``, ``lag_p50_ms``, ...) and ``failed_frac``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MODULES = {"pipeline": "pipeline", "audit": "audit", "stream": "streaming"}

#: end-to-end metrics: every workload reports each of them.  The
#: workload-specific ones (``moss.events_per_s``, ``case_p50_ms``,
#: ``lag_p50_ms``, ...) are printed above the result; latency quantiles
#: are not gated because on these inputs they spread more between seeds
#: than any bound the gate allows (see LAYERS.md)
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "events_per_s": "events/s",
}

#: per-layer metrics of the traced run: every workload reports each of
#: them, 0 for layers its path does not reach
PER_LAYER = {
    # pipeline
    "sim.workload.generate_s": "s",
    "generic.system.compose_s": "s",
    "sim.driver.self_s": "s",
    "sim.driver.steps": "count",
    "sim.driver.deadlock_aborts": "count",
    "sim.driver.top_commit_ratio": "ratio",
    "generic.controller.enabled_outputs_s": "s",
    "generic.controller.enabled_aborts_s": "s",
    "generic.controller.effect_s": "s",
    "generic.controller.calls": "count",
    "automata.composition.effect_self_s": "s",
    "locking.moss.s": "s",
    "undo.logging.s": "s",
    "sim.programs.s": "s",
    "core.correctness.certify_share": "ratio",
    # audit
    "core.serde.load_s": "s",
    "core.serde.bytes": "bytes",
    "core.events.project_s": "s",
    "core.history.index_s": "s",
    "serial.simple_db.validate_s": "s",
    "serial.simple_db.problems": "count",
    "core.return_values.arv_s": "s",
    "core.return_values.violations": "count",
    "core.serialization_graph.conflict_s": "s",
    "core.serialization_graph.conflict_edges": "count",
    "core.serialization_graph.precedes_s": "s",
    "core.serialization_graph.precedes_edges": "count",
    "core.serialization_graph.build_s": "s",
    "core.graph.find_cycle_s": "s",
    "core.graph.cycles": "count",
    "core.correctness.order_s": "s",
    "core.correctness.witness_build_s": "s",
    "core.correctness.witness_validate_s": "s",
    "core.correctness.witness_check_s": "s",
    "core.correctness.witness_events": "count",
    "audit.coverage": "ratio",
    # stream
    "core.online.feed_s": "s",
    "core.online.feed_p50_us": "us",
    "core.online.feed_p99_us": "us",
    "core.online.verdict_s": "s",
    "core.online.edges": "count",
    "core.online.sweeps": "count",
    "core.online.live_ops_peak": "count",
    "stream.service.self_s": "s",
    "stream.service.feed_block_s": "s",
    "stream.lag_p99_ms": "ms",
    "stream.lag_samples": "count",
    "stream.gen_late_max_ms": "ms",
    "stream.client_s": "s",
    "stream.idle_s": "s",
    # every workload
    "runtime.gc.pause_s": "s",
    "runtime.gc.gen2_collections": "count",
    "trace.attributed_share": "ratio",
    "trace.overhead": "ratio",
}

#: set-ups timed per run (this process's and the rest in fresh ones);
#: ``setup_s`` is their median
SETUP_REPEATS = 3
#: a fresh set-up process is stopped after this many seconds
SETUP_TIMEOUT_S = 60

#: a traced run should attribute at least this share of its timed wall
#: time to named layers
ATTRIBUTION_BAR = 0.95


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(MODULES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="build the inputs, print the scaled set-up seconds and exit",
    )
    return parser.parse_args(argv)


def setup_in_fresh_process(args: argparse.Namespace) -> float:
    """Scaled seconds one set-up takes in a new process of this script."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-only",
    ]
    done = subprocess.run(
        command, capture_output=True, text=True, check=True, timeout=SETUP_TIMEOUT_S
    )
    return float(done.stdout.split()[-1])


def _line(name: str, value: Any, unit: str) -> str:
    if isinstance(value, float):
        return f"{name} = {value:.6g} {unit}"
    return f"{name} = {value} {unit}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: the program's sources are missing ({SRC / 'repro'}); "
            "run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    from measure import GcMonitor, ScaledClock, SpanRecorder, median, peak_rss_mb

    clock = ScaledClock(PROCESS_START)
    sys.path.insert(0, str(SRC))
    workload = importlib.import_module(MODULES[args.workload])
    inputs = workload.build(args.seed)
    setups = [clock.stop()[1]]
    if args.setup_only:
        print(setups[0])
        return 0
    # the peak so far, to tell whether the set-up or the run sets
    # peak_rss_mb (fresh processes do not count toward this one's)
    setup_peak_rss_mb = peak_rss_mb()
    setups += [setup_in_fresh_process(args) for _ in range(SETUP_REPEATS - 1)]
    setup_s = median(setups)
    # the inputs stay alive for the whole run; keep the collector from
    # tracing them again and again, which a service fed from outside
    # would not pay
    gc.collect()
    gc.freeze()

    metrics: Dict[str, Tuple[Any, str]]
    if args.trace == 0:
        outcome = workload.measure(inputs, args.seconds, None)
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "events_per_s": outcome["events_per_s"],
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        extra = outcome["report"]
    else:
        untraced = workload.measure(inputs, args.seconds / 2, None)
        recorder = SpanRecorder(sampled=("core.online.feed",))
        with GcMonitor() as gc_monitor:
            outcome = workload.measure(inputs, args.seconds / 2, recorder)
        layers = workload.layer_metrics(outcome, recorder, untraced)
        layers.update(
            {
                "runtime.gc.pause_s": gc_monitor.pause_s,
                "runtime.gc.gen2_collections": gc_monitor.gen2_collections,
                "trace.attributed_share": recorder.attributed() / outcome["wall_s"],
                "trace.overhead": untraced["events_per_s"] / outcome["events_per_s"] - 1,
            }
        )
        metrics = {name: (layers.get(name, 0), unit) for name, unit in PER_LAYER.items()}
        extra = {
            f"untraced.{name}": value for name, value in untraced["report"].items()
        }
        extra.update({f"traced.{name}": value for name, value in outcome["report"].items()})
        extra.update(
            (f"span.{name}.self_s", (seconds, "s"))
            for name, seconds in sorted(
                recorder.self_time.items(), key=lambda item: -item[1]
            )
        )
        failures = untraced["failures"] + outcome["failures"]
        outcome = {
            "attempted": untraced["attempted"] + outcome["attempted"],
            "failed": untraced["failed"] + outcome["failed"],
            "failures": failures,
            "digest": outcome["digest"],
        }
        if layers["trace.attributed_share"] < ATTRIBUTION_BAR:
            print(
                f"warning: spans attribute {layers['trace.attributed_share']:.1%} "
                f"of timed wall time, below {ATTRIBUTION_BAR:.0%}",
                file=sys.stderr,
            )

    digest = outcome["digest"]
    attempted = outcome["attempted"]
    failed = outcome["failed"]
    for problem in outcome["failures"][:10]:
        print(f"FAILED: {problem}", file=sys.stderr)
    lines: List[str] = [
        f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}",
        f"inputs: events={digest.events} digest={digest.hexdigest()}",
        "set-ups: " + ", ".join(f"{seconds:.4g}" for seconds in setups) + " s (scaled)",
        _line("setup.peak_rss_mb", setup_peak_rss_mb, "MB"),
    ]
    lines += [_line(name, value, unit) for name, (value, unit) in extra.items()]
    lines += [_line(name, value, unit) for name, (value, unit) in metrics.items()]
    lines.append(_line("failed_frac", failed / attempted if attempted else 1.0, "ratio"))
    print("\n".join(lines))
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
