"""E16 — distributed certification: local-vs-global divergence and merge cost.

A site certifies its own history with the unchanged single-site
machinery; the global certifier merges the per-site serialization
graphs and re-checks acyclicity (``repro.distributed``).  Two questions
have a price:

* **How often does local-only certification lie?**  Seed sweeps over
  the partition-prone cross-reading workload
  (:func:`repro.distributed.scenarios.divergence_config`) count the runs where
  every per-site SG is acyclic but the merged global SG is cyclic —
  each one a run a local-only checker would have wrongly passed.
* **What does the merge cost?**  The global pass re-certifies nothing;
  it unions per-site graphs and runs one cycle search.  Scaling the
  workload (pairs of cross-reading transactions, then sites) prices
  the merge against the per-site certification it rides on.

Results land in ``BENCH_e16_distributed.json``: per-case divergence
counts and rates, plus merge timings.  The headline assertion is the
acceptance criterion of the distributed subsystem: a seeded partition
scenario exists whose local graphs are all acyclic while the merged
graph is cyclic.
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
from _obs import write_bench_json
from _smoke import SMOKE, pick
from _tables import print_table

from repro.core.correctness import certify
from repro.distributed.certifier import certify_sites, merge_site_graphs
from repro.distributed.scenarios import divergence_config
from repro.distributed.simulate import run_distributed

#: (label, sites, cross-reading pairs, crash schedule?)
CASES = pick(
    [
        ("2s-2p", 2, 2, False),
        ("2s-4p", 2, 4, False),
        ("3s-4p", 3, 4, False),
        ("2s-2p-crash", 2, 2, True),
    ],
    [
        ("2s-2p", 2, 2, False),
        ("2s-2p-crash", 2, 2, True),
    ],
)

#: seeds per case
SEEDS = pick(200, 15)


def sweep_case(label, sites, pairs, crash):
    """Run SEEDS seeded simulations; count verdicts and time the merge."""
    divergent_seeds = []
    rejected = 0
    locally_rejected = 0
    site_seconds = 0.0
    merge_seconds = 0.0
    routed = 0
    example = None
    for seed in range(SEEDS):
        config = divergence_config(seed, sites=sites, pairs=pairs, crash=crash)
        run = run_distributed(config)
        routed += run.routing.routed_accesses()
        start = time.perf_counter()
        site_certs = {
            site: certify(
                site_run.behavior,
                site_run.system_type,
                construct_witness=False,
            )
            for site, site_run in run.site_runs.items()
        }
        site_seconds += time.perf_counter() - start
        start = time.perf_counter()
        merged, _ = merge_site_graphs(
            {site: cert.graph for site, cert in site_certs.items()}
        )
        cycle = merged.find_cycle()
        merge_seconds += time.perf_counter() - start
        local_ok = all(cert.certified for cert in site_certs.values())
        global_ok = cycle is None and all(
            not cert.arv_violations for cert in site_certs.values()
        )
        if not local_ok:
            locally_rejected += 1
        if not global_ok:
            rejected += 1
        if local_ok and not global_ok:
            divergent_seeds.append(seed)
            if example is None:
                example = {
                    "seed": seed,
                    "cycle": [str(node) for node in cycle[1]],
                    "local_edges": {
                        f"s{site}": cert.graph.edge_count()
                        for site, cert in site_certs.items()
                    },
                    "merged_edges": merged.edge_count(),
                }
    return {
        "sites": sites,
        "pairs": pairs,
        "crash": crash,
        "seeds": SEEDS,
        "routed_accesses": routed,
        "locally_rejected": locally_rejected,
        "globally_rejected": rejected,
        "divergent": len(divergent_seeds),
        "divergence_rate": len(divergent_seeds) / SEEDS,
        "divergent_seeds": divergent_seeds[:20],
        "example": example,
        "site_certify_seconds": site_seconds,
        "merge_seconds": merge_seconds,
        "merge_share": merge_seconds / max(site_seconds + merge_seconds, 1e-9),
    }


def run_comparison():
    report = {}
    rows = []
    for label, sites, pairs, crash in CASES:
        result = sweep_case(label, sites, pairs, crash)
        report[label] = result
        rows.append(
            (
                label,
                result["seeds"],
                result["globally_rejected"],
                result["divergent"],
                f"{result['divergence_rate']:.0%}",
                f"{result['site_certify_seconds'] * 1e3:.0f}ms",
                f"{result['merge_seconds'] * 1e3:.0f}ms",
                f"{result['merge_share']:.1%}",
            )
        )
    write_bench_json("e16_distributed", report)
    return report, rows


@pytest.mark.benchmark(group="e16")
def test_e16_distributed_divergence(benchmark):
    report, rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    print_table(
        "E16: local-vs-global certification over seeded partition workloads",
        [
            "case",
            "seeds",
            "global rej",
            "divergent",
            "rate",
            "site certify",
            "merge",
            "merge share",
        ],
        rows,
    )
    base = report["2s-2p"]
    # the acceptance scenario: seeds where every local SG is acyclic but
    # the merged global SG is cyclic
    assert base["divergent"] >= 1, "no divergent seed found"
    example = base["example"]
    assert example is not None
    assert len(example["cycle"]) >= 3  # first node repeated last
    assert example["merged_edges"] >= sum(example["local_edges"].values()) // 2
    # divergence implies global rejection, and a local rejection (cycle
    # or ARV violation) always survives into the merged verdict
    for case in report.values():
        assert case["divergent"] <= case["globally_rejected"]
        assert case["locally_rejected"] <= case["globally_rejected"]
    # the merge is cheap next to the per-site certification it rides on
    assert base["merge_share"] < 0.5
    # certify_sites agrees with the inlined pipeline on the example seed
    run = run_distributed(divergence_config(example["seed"]))
    certificate = certify_sites(
        {
            site: (site_run.behavior, site_run.system_type)
            for site, site_run in run.site_runs.items()
        }
    )
    assert certificate.divergent
    if not SMOKE:
        # at full size the sweep must find a meaningful divergence rate
        assert base["divergent"] >= 10
        assert report["2s-4p"]["routed_accesses"] > base["routed_accesses"]
