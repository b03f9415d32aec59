"""Tests for repro.distributed: placement, routing, simulation, merging."""

import random

import pytest

from repro.core.actions import Abort, Commit
from repro.core.names import ObjectName, TransactionName
from repro.core.online import OnlineCertifier
from repro.core.serialization_graph import SerializationGraph
from repro.distributed.certifier import (
    certify_distributed,
    certify_sites,
    merge_site_graphs,
    replica_divergence,
)
from repro.distributed.cluster import (
    ClusterSchedule,
    DistributedConfig,
    DRead,
    DWrite,
    GlobalTransaction,
    PartitionWindow,
    route_workload,
)
from repro.distributed.placement import (
    Placement,
    replica_name,
    replica_site,
    replica_variable,
)
from repro.distributed.scenarios import (
    build_dist_scenario,
    dist_scenario_names,
    divergence_config,
)
from repro.distributed.simulate import run_distributed
from repro.obs.export import load_jsonl
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.sim.faults import SiteCrash, SiteRecovery


class TestPlacement:
    def test_even_variables_replicated_everywhere(self):
        placement = Placement.indexed(3, 6)
        assert placement.sites_for("x2") == (1, 2, 3)
        assert placement.sites_for("x4") == (1, 2, 3)
        assert placement.is_replicated("x6")

    def test_odd_variables_pinned_to_one_site(self):
        placement = Placement.indexed(3, 6)
        assert placement.sites_for("x1") == (1 + 1 % 3,)
        assert placement.sites_for("x3") == (1 + 3 % 3,)
        assert placement.sites_for("x5") == (1 + 5 % 3,)
        assert not placement.is_replicated("x1")

    def test_explicit_placement_overrides_indexed_rule(self):
        placement = Placement(3, ("x1", "balance"), explicit={"balance": (1, 3)})
        assert placement.sites_for("balance") == (1, 3)
        assert placement.sites_for("x1") == (2,)

    def test_unindexed_variable_without_explicit_placement_rejected(self):
        with pytest.raises(ValueError, match="trailing index"):
            Placement(2, ("balance",))

    def test_replica_name_round_trip(self):
        obj = replica_name("x12", 3)
        assert obj == ObjectName("x12@s3")
        assert replica_variable(obj) == "x12"
        assert replica_site(obj) == 3

    def test_variables_at_site(self):
        placement = Placement.indexed(2, 4)
        assert placement.variables_at(1) == ("x2", "x4")
        assert placement.variables_at(2) == ("x1", "x2", "x3", "x4")

    def test_replica_rejects_non_holding_site(self):
        placement = Placement.indexed(2, 2)
        with pytest.raises(ValueError, match="holds no copy"):
            placement.replica("x1", 1)


class TestRouting:
    def test_write_fans_out_to_all_sites(self):
        config = DistributedConfig(
            sites=3,
            transactions=(GlobalTransaction("t1", (DWrite("x2", 5),)),),
        )
        routing = route_workload(config)
        assert {site for plan in routing.plans.values() for site in
                {r.site for r in plan}} == {1, 2, 3}
        assert routing.routed_accesses() == 3

    def test_read_served_by_single_copy(self):
        config = DistributedConfig(
            sites=3,
            transactions=(GlobalTransaction("t1", (DRead("x2"),)),),
        )
        routing = route_workload(config)
        assert routing.routed_accesses() == 1

    def test_partition_blocks_write_fanout_and_flags_stale(self):
        window = PartitionWindow((frozenset({1}), frozenset({2})), 0, 10)
        config = DistributedConfig(
            sites=2,
            transactions=(GlobalTransaction("t1", (DWrite("x2", 5),), home=1),),
            schedule=ClusterSchedule(partitions=(window,)),
        )
        routing = route_workload(config)
        assert [r.site for plan in routing.plans.values() for r in plan] == [1]
        assert routing.stale_risk == {"x2": {2}}

    def test_crash_dooms_in_flight_transaction(self):
        config = DistributedConfig(
            sites=2,
            transactions=(
                GlobalTransaction("t1", (DWrite("x2", 5), DRead("x2"))),
            ),
            schedule=ClusterSchedule(crashes=(SiteCrash(site=2, at_step=1),)),
        )
        routing = route_workload(config)
        assert "t1" in routing.doomed
        assert "crashed mid-transaction" in routing.doomed["t1"]

    def test_crash_after_commit_point_spares_transaction(self):
        config = DistributedConfig(
            sites=2,
            transactions=(GlobalTransaction("t1", (DWrite("x2", 5),)),),
            schedule=ClusterSchedule(crashes=(SiteCrash(site=2, at_step=1),)),
        )
        routing = route_workload(config)
        assert routing.doomed == {}

    def test_no_available_copy_dooms(self):
        config = DistributedConfig(
            sites=2,
            transactions=(GlobalTransaction("t1", (DRead("x1"),), home=1),),
            schedule=ClusterSchedule(crashes=(SiteCrash(site=2, at_step=0),)),
        )
        routing = route_workload(config)
        assert "no available copy" in routing.doomed["t1"]


class TestRecoveryBarrier:
    def _barrier_config(self, recovery_barrier):
        # s2 crashes and recovers before any op; the partition pins the
        # reader (home 2) to s2, so the read must hit the recovered copy
        window = PartitionWindow((frozenset({1}), frozenset({2})), 0, 10)
        return DistributedConfig(
            sites=2,
            transactions=(GlobalTransaction("t1", (DRead("x2"),), home=2),),
            schedule=ClusterSchedule(
                crashes=(SiteCrash(site=2, at_step=0),),
                recoveries=(SiteRecovery(site=2, at_step=0),),
                partitions=(window,),
            ),
            recovery_barrier=recovery_barrier,
        )

    def test_replicated_copy_unreadable_until_fresh_write(self):
        routing = route_workload(self._barrier_config(True))
        assert "recovery barrier" in routing.doomed["t1"]
        assert routing.barrier_excluded_reads == 1

    def test_unguarded_recovery_serves_the_stale_copy(self):
        routing = route_workload(self._barrier_config(False))
        assert routing.doomed == {}
        (access,) = routing.plans[2]
        assert access.obj == ObjectName("x2@s2")

    def test_fresh_write_lifts_the_barrier(self):
        # a single write-then-read transaction is deterministic: the
        # write lands on the recovered copy and unlocks it for the read
        config = self._barrier_config(True)
        config.transactions = (
            GlobalTransaction("t1", (DWrite("x2", 9), DRead("x2")), home=2),
        )
        routing = route_workload(config)
        assert routing.doomed == {}
        reads = [r for plan in routing.plans.values() for r in plan
                 if r.transaction == "t1" and r.component.startswith("o1r")]
        assert reads and reads[0].site == 2

    def test_non_replicated_variable_readable_immediately(self):
        config = DistributedConfig(
            sites=2,
            transactions=(GlobalTransaction("t1", (DRead("x1"),), home=2),),
            schedule=ClusterSchedule(
                crashes=(SiteCrash(site=2, at_step=0),),
                recoveries=(SiteRecovery(site=2, at_step=0),),
            ),
        )
        routing = route_workload(config)
        assert routing.doomed == {}


class TestSimulation:
    def test_commit_racing_site_crash_aborts_everywhere(self):
        # t1 writes the replicated x2 (both sites), then s2 crashes
        # before its second op: the abort must land at *every* site,
        # even at s1 where the local run could happily have committed
        config = DistributedConfig(
            sites=2,
            transactions=(
                GlobalTransaction("t1", (DWrite("x2", 5), DRead("x2"))),
            ),
            schedule=ClusterSchedule(crashes=(SiteCrash(site=2, at_step=1),)),
        )
        run = run_distributed(config)
        assert run.doomed.keys() == {"t1"}
        assert run.outcomes == {"t1": "aborted"}
        top = TransactionName(("t1",))
        for site_run in run.site_runs.values():
            commits = [a for a in site_run.behavior
                       if isinstance(a, Commit) and a.transaction == top]
            assert commits == [], f"t1 committed at s{site_run.site}"
        aborts_at_s1 = [a for a in run.site_runs[1].behavior
                        if isinstance(a, Abort) and a.transaction == top]
        assert aborts_at_s1, "the crash at s2 must abort t1 at s1 too"

    def test_survivors_commit_at_every_site(self):
        config = DistributedConfig(
            sites=2,
            transactions=(GlobalTransaction("t1", (DWrite("x2", 5),)),),
        )
        run = run_distributed(config)
        assert run.outcomes == {"t1": "committed"}
        for site_run in run.site_runs.values():
            assert any(isinstance(a, Commit)
                       and a.transaction == TransactionName(("t1",))
                       for a in site_run.behavior)

    def test_partition_healing_mid_subtree(self):
        # the first write lands only at s1; the partition heals before
        # the second write, which fans out and reconverges the replicas
        window = PartitionWindow((frozenset({1}), frozenset({2})), 0, 1)
        config = DistributedConfig(
            sites=2,
            transactions=(
                GlobalTransaction("t1", (DWrite("x2", 1), DWrite("x2", 2))),
            ),
            schedule=ClusterSchedule(partitions=(window,)),
        )
        run = run_distributed(config)
        assert run.outcomes == {"t1": "committed"}
        certificate = certify_distributed(run)
        assert certificate.globally_certified
        assert certificate.divergent_replicas == {}

    def test_stale_replica_read_after_partition(self):
        # t1's write misses the partitioned s2; t2, pinned there, reads
        # the stale copy — serializable, but the divergence report flags it
        window = PartitionWindow((frozenset({1}), frozenset({2})), 0, 10)
        config = DistributedConfig(
            sites=2,
            transactions=(
                GlobalTransaction("t1", (DWrite("x2", 7),), home=1),
                GlobalTransaction("t2", (DRead("x2"),), home=2),
            ),
            schedule=ClusterSchedule(partitions=(window,)),
        )
        run = run_distributed(config)
        assert run.outcomes == {"t1": "committed", "t2": "committed"}
        certificate = certify_distributed(run)
        assert certificate.globally_certified
        assert set(certificate.divergent_replicas) == {"x2"}
        assert certificate.divergent_replicas["x2"][1] == 7
        assert certificate.divergent_replicas["x2"][2] == 0

    def test_divergence_sweep_finds_local_global_disagreement(self):
        divergent = []
        for seed in range(30):
            run = run_distributed(divergence_config(seed))
            certificate = certify_distributed(run)
            if certificate.divergent:
                divergent.append(seed)
        assert divergent, "no seed in 0..29 produced a local/global divergence"

    def test_divergent_run_is_locally_clean_globally_cyclic(self):
        run = run_distributed(divergence_config(8))
        certificate = certify_distributed(run)
        assert certificate.divergent
        for cert in certificate.site_certificates.values():
            assert cert.certified
            assert cert.graph.find_cycle() is None
        assert certificate.global_cycle is not None
        sites_in_cycle = {site
                          for _, sites in certificate.cycle_edges()
                          for site in sites}
        assert len(sites_in_cycle) >= 2, "the cycle must span sites"

    def test_distributed_metrics_are_emitted(self):
        registry = MetricsRegistry()
        run = run_distributed(divergence_config(8), metrics=registry)
        certify_distributed(run, metrics=registry)
        snapshot = registry.snapshot()
        names = set(snapshot["counters"]) | set(snapshot["gauges"])
        for expected in (
            "distributed.sites",
            "distributed.routed.reads",
            "distributed.routed.writes",
            "distributed.routed.write_replicas",
            "distributed.reconcile_rounds",
            "distributed.certify.site_certified",
            "distributed.certify.global_rejected",
            "distributed.certify.divergence",
            "distributed.merge.groups",
            "distributed.merge.edges",
            "distributed.replica.divergent_vars",
        ):
            assert expected in names, expected


class TestSingleSiteEquivalence:
    """On one site, the global certifier is exactly the local one."""

    @staticmethod
    def _random_config(seed):
        rng = random.Random(seed)
        variables = ("x1", "x2", "x3", "x4")
        transactions = []
        for index in range(rng.randint(2, 4)):
            ops = []
            for _ in range(rng.randint(1, 3)):
                variable = rng.choice(variables)
                if rng.random() < 0.5:
                    ops.append(DRead(variable))
                else:
                    ops.append(DWrite(variable, rng.randint(1, 9)))
            transactions.append(
                GlobalTransaction(f"t{index + 1}", tuple(ops), home=1)
            )
        return DistributedConfig(
            sites=1,
            variables=variables,
            transactions=tuple(transactions),
            seed=seed,
        )

    def test_local_and_global_verdicts_agree_on_200_seeds(self):
        for seed in range(200):
            run = run_distributed(self._random_config(seed))
            certificate = certify_distributed(run)
            assert certificate.locally_certified == certificate.globally_certified
            assert not certificate.divergent
            (site_cert,) = certificate.site_certificates.values()
            assert (certificate.global_graph.edge_count()
                    == site_cert.graph.edge_count())
            assert (certificate.global_cycle is None) == (
                site_cert.graph.find_cycle() is None)


class TestMerge:
    def test_merge_of_single_graph_is_identity(self):
        histories, _, _ = build_dist_scenario("replicated-serial")
        certificate = certify_sites({1: histories[1]})
        site_graph = certificate.site_certificates[1].graph
        assert (sorted(map(str, certificate.global_graph.nodes()))
                == sorted(map(str, site_graph.nodes())))
        assert certificate.global_graph.edge_count() == site_graph.edge_count()

    def test_merge_records_edge_provenance(self):
        histories, _, _ = build_dist_scenario("partitioned-write-skew")
        certificate = certify_sites(histories)
        root_edges = {(str(e.source), str(e.target)): sites
                      for e, sites in certificate.edge_sites.items()
                      if len(e.source.path) == 1}
        assert root_edges[("T0/t1", "T0/t2")] == (1,)
        assert root_edges[("T0/t2", "T0/t1")] == (2,)

    def test_merge_empty_input(self):
        merged, provenance = merge_site_graphs({})
        assert isinstance(merged, SerializationGraph)
        assert merged.edge_count() == 0
        assert provenance == {}


class TestDistributedScenarios:
    @pytest.mark.parametrize("name", dist_scenario_names())
    def test_scenario_matches_expectation(self, name):
        histories, placement, expectation = build_dist_scenario(name)
        certificate = certify_sites(
            histories,
            divergent_replicas=replica_divergence(histories, placement),
        )
        assert certificate.locally_certified == expectation.locally_certified
        assert certificate.globally_certified == expectation.globally_certified
        assert certificate.divergent == expectation.divergent
        assert (tuple(sorted(certificate.divergent_replicas))
                == tuple(sorted(expectation.stale_variables)))

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="unknown distributed scenario"):
            build_dist_scenario("nope")

    def test_write_skew_summary_names_both_sites(self):
        histories, _, _ = build_dist_scenario("partitioned-write-skew")
        summary = certify_sites(histories).summary()
        assert "DIVERGENCE" in summary
        assert "(from s1)" in summary and "(from s2)" in summary


class TestFlightSiteId:
    def test_postmortem_records_originating_site(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        flight = FlightRecorder(str(path))
        histories, _, _ = build_dist_scenario("local-reject")
        behavior, system_type = histories[1]
        online = OnlineCertifier(
            system_type, flight=flight, session="test", site="s1"
        )
        online.feed_all(behavior)
        records = load_jsonl(str(path))
        assert records
        assert all(r["context"]["site"] == "s1" for r in records)

    def test_site_label_defaults_to_empty(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        flight = FlightRecorder(str(path))
        histories, _, _ = build_dist_scenario("local-reject")
        behavior, system_type = histories[1]
        OnlineCertifier(system_type, flight=flight).feed_all(behavior)
        records = load_jsonl(str(path))
        assert records and all(r["context"]["site"] == "" for r in records)


class TestDistsimCli:
    def test_scenario_divergence_exits_2(self, capsys):
        from repro.cli import main

        code = main(["distsim", "--scenario", "partitioned-write-skew"])
        out = capsys.readouterr().out
        assert code == 2
        assert "DIVERGENCE" in out

    def test_clean_scenario_exits_0(self, capsys):
        from repro.cli import main

        code = main(["distsim", "--scenario", "replicated-serial"])
        assert code == 0
        assert "global: certified" in capsys.readouterr().out

    def test_sweep_reports_divergent_seeds(self, capsys):
        from repro.cli import main

        code = main(["distsim", "--sweep", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "divergent" in out

    def test_seeded_run_writes_metrics_and_flight(self, tmp_path, capsys):
        from repro.cli import main

        metrics = tmp_path / "metrics.json"
        flight = tmp_path / "flight.jsonl"
        code = main([
            "distsim", "--seed", "1",
            "--metrics-json", str(metrics),
            "--flight", str(flight),
        ])
        assert code in (0, 2)
        assert metrics.exists()
