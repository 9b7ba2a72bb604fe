"""Hot-path instrumentation: simulator, routing, failover, queues,
collectives -- all recording through repro.obs, and silent when off."""

from __future__ import annotations

import pytest

from repro.access import FailoverTimeline
from repro.core.units import GB, MB
from repro.fabric import Flow, FluidSimulator, QueueTracker
from repro.obs import Recorder, get_logger, recording
from repro.routing import CachedRouter, FiveTuple, find_paths


def _edge_flow(topo, router, src, dst, rail, size, sport=50000, plane=0):
    a = topo.hosts[src].nic_for_rail(rail)
    b = topo.hosts[dst].nic_for_rail(rail)
    ft = FiveTuple(a.ip, b.ip, sport, 4791)
    path = router.path_for(a, b, ft, plane=plane)
    return Flow(ft, size, path)


# ----------------------------------------------------------------------
# simulator
# ----------------------------------------------------------------------
class TestSimulatorInstrumentation:
    def test_run_records_span_counters_and_flow_events(
        self, hpn_small, hpn_router
    ):
        rec = Recorder()
        f = _edge_flow(hpn_small, hpn_router, "pod0/seg0/host0",
                       "pod0/seg0/host1", 0, GB)
        sim = FluidSimulator(hpn_small, recorder=rec)
        sim.add_flows([f])
        result = sim.run()

        m = rec.metrics
        assert m.counter("sim.flows_started").value == 1
        assert m.counter("sim.flows_finished").value == 1
        assert m.counter("sim.solves").value >= 1
        assert m.counter("sim.solver_iterations").value >= 1

        (run_span,) = rec.events.by_name("sim.run")
        assert run_span.track == "sim"
        assert run_span.dur_s == pytest.approx(result.finish_time)
        assert run_span.args["flows_finished"] == 1

        (flow_span,) = rec.events.by_name("flow")
        assert flow_span.end_s == pytest.approx(f.finish_time)
        assert rec.events.by_name("flow.start")
        assert rec.events.by_name("link.saturated")

    def test_link_util_series_labeled_by_tier(self, hpn_small, hpn_router):
        rec = Recorder()
        # cross-segment flow rides access + agg links
        f = _edge_flow(hpn_small, hpn_router, "pod0/seg0/host0",
                       "pod0/seg1/host0", 0, GB)
        sim = FluidSimulator(hpn_small, recorder=rec)
        sim.add_flows([f])
        sim.run()
        series = {m.series for m in rec.metrics.series()}
        assert "link_util{tier=access}" in series
        assert "link_util{tier=agg}" in series
        util = rec.metrics.gauge("link_util", tier="access")
        assert 0.0 < util.value <= 1.0 + 1e-9
        assert len(util.samples) >= 1

    def test_process_wide_recorder_picked_up(self, hpn_small, hpn_router):
        f = _edge_flow(hpn_small, hpn_router, "pod0/seg0/host0",
                       "pod0/seg0/host1", 0, GB)
        with recording() as rec:
            sim = FluidSimulator(hpn_small)
            sim.add_flows([f])
            sim.run()
        assert rec.metrics.counter("sim.flows_finished").value == 1

    def test_disabled_records_nothing(self, hpn_small, hpn_router):
        f = _edge_flow(hpn_small, hpn_router, "pod0/seg0/host0",
                       "pod0/seg0/host1", 0, GB)
        sim = FluidSimulator(hpn_small)
        sim.add_flows([f])
        result = sim.run()
        assert result.finish_time > 0  # ran fine with no recorder anywhere


# ----------------------------------------------------------------------
# routing: ECMP hash decisions + RePaC probes
# ----------------------------------------------------------------------
class TestRoutingInstrumentation:
    def test_hash_decision_counters_by_tier(self, hpn_small):
        rec = Recorder()
        router = CachedRouter(hpn_small, recorder=rec)
        a = hpn_small.hosts["pod0/seg0/host0"].nic_for_rail(0)
        b = hpn_small.hosts["pod0/seg1/host0"].nic_for_rail(0)
        ft = FiveTuple(a.ip, b.ip, 50000, 4791)
        router.path_for(a, b, ft, plane=0)
        # cross-segment: one ToR (tier 1) hash decision minimum
        assert rec.metrics.counter("ecmp.hash_decisions",
                                   tier="1").value >= 1

    def test_plane_failover_counter(self, hpn_mutable):
        rec = Recorder()
        router = CachedRouter(hpn_mutable, recorder=rec)
        a = hpn_mutable.hosts["pod0/seg0/host0"].nic_for_rail(0)
        b = hpn_mutable.hosts["pod0/seg0/host1"].nic_for_rail(0)
        # kill the plane-0 access leg of the source NIC
        leg0 = next(l for l in router.access_legs(a) if l.port_index == 0)
        hpn_mutable.set_link_state(leg0.link.link_id, False)
        ft = FiveTuple(a.ip, b.ip, 50000, 4791)
        path = router.path_for(a, b, ft, plane=0)
        assert path.plane == 1
        assert rec.metrics.counter("ecmp.plane_failover").value == 1

    def test_repac_probe_outcomes(self, hpn_small, hpn_router):
        a = hpn_small.hosts["pod0/seg0/host0"].nic_for_rail(0)
        b = hpn_small.hosts["pod0/seg1/host0"].nic_for_rail(0)
        with recording() as rec:
            found = find_paths(hpn_router, a, b, 4791, num_paths=2,
                               plane=0, sport_span=64)
        kept = rec.metrics.counter("repac.probes", outcome="kept").value
        assert kept == len(found.probes)
        (ev,) = rec.events.by_name("repac.path_set")
        assert ev.track == "routing"
        assert ev.args["kept"] == len(found.probes)
        assert ev.args["attempts"] == found.attempts


# ----------------------------------------------------------------------
# BGP failover timeline
# ----------------------------------------------------------------------
class TestFailoverInstrumentation:
    def test_blackhole_and_restore_spans(self, hpn_mutable):
        rec = Recorder()
        tl = FailoverTimeline(hpn_mutable, recorder=rec)
        done = tl.fail_access_link(3, now=10.0)
        tl.recover_access_link(3, now=60.0)

        (black,) = rec.events.by_name("bgp.blackhole")
        assert black.track == "failover"
        assert black.ts_s == 10.0
        assert black.end_s == pytest.approx(done)
        assert black.args["link_id"] == 3

        (restore,) = rec.events.by_name("bgp.restore")
        assert restore.ts_s == 60.0
        assert restore.dur_s == pytest.approx(tl.convergence_delay_s)
        assert rec.metrics.counter("bgp.withdrawals").value == 1
        assert rec.metrics.counter("bgp.restorations").value == 1

    def test_log_api_unchanged_with_shared_ring(self, hpn_mutable):
        tl = FailoverTimeline(hpn_mutable, max_entries=2)
        for i in range(4):
            tl.fail_access_link(i, now=float(i))
        assert len(tl.log) == 2
        assert tl.rolled_up_entries == 2
        at_s, message = tl.log[0]  # tuple unpacking still works
        assert at_s == 2.0
        assert "link 2 down" in message


# ----------------------------------------------------------------------
# queue tracker
# ----------------------------------------------------------------------
class TestQueueInstrumentation:
    def test_step_records_gauges(self, hpn_small, hpn_router):
        rec = Recorder()
        qt = QueueTracker(hpn_small, recorder=rec)
        f = _edge_flow(hpn_small, hpn_router, "pod0/seg0/host0",
                       "pod0/seg0/host1", 0, GB)
        qt.step([f], dt=0.01)
        qt.step([f], dt=0.01)
        assert rec.metrics.counter("queue.steps").value == 2
        g = rec.metrics.gauge("queue.total_bytes")
        assert [t for t, _v in g.samples] == [
            pytest.approx(0.01), pytest.approx(0.02)
        ]

    def test_history_ring_keeps_public_api(self, hpn_small, hpn_router):
        qt = QueueTracker(hpn_small, max_entries=2)
        f = _edge_flow(hpn_small, hpn_router, "pod0/seg0/host0",
                       "pod0/seg0/host1", 0, GB)
        for _ in range(5):
            qt.step([f], dt=0.001)
        assert len(qt.history) == 2
        assert qt.rolled_up_entries == 3
        t, snapshot = qt.history[-1]  # (time, dict) tuples preserved
        assert t == pytest.approx(0.005)
        assert isinstance(snapshot, dict)


# ----------------------------------------------------------------------
# fault injector
# ----------------------------------------------------------------------
class TestInjectorInstrumentation:
    def test_drill_emits_failover_spans(self):
        from repro.engine import get_experiment

        with recording() as rec:
            get_experiment("drill.link-failure").fn(
                {"model": "llama-7b", "job_hosts": 4, "microbatches": 4,
                 "fail_at_s": 10.0, "repair_at_s": 60.0,
                 "duration_s": 80.0},
                seed=0,
            )
        (conv,) = rec.events.by_name("failover.convergence")
        assert conv.track == "failover"
        assert conv.ts_s == 10.0
        assert rec.events.by_name("failover.repair")
        assert rec.metrics.counter("inject.faults",
                                   kind="link_down").value == 1


# ----------------------------------------------------------------------
# collectives
# ----------------------------------------------------------------------
class TestCollectiveInstrumentation:
    @pytest.fixture()
    def comm(self):
        from repro.cluster import Cluster
        from repro.topos import HpnSpec

        cluster = Cluster.hpn(HpnSpec(
            segments_per_pod=1, hosts_per_segment=8,
            backup_hosts_per_segment=0, aggs_per_plane=4,
        ))
        return cluster.communicator(cluster.place(4))

    def test_allreduce_serialized_stage_spans(self, comm):
        from repro.collective import allreduce

        with recording() as rec:
            result = allreduce(comm, 64 * MB)
        (intra,) = rec.events.by_name("allreduce.intra")
        (inter,) = rec.events.by_name("allreduce.inter")
        assert intra.track == inter.track == "collective"
        assert intra.ts_s == 0.0
        assert intra.dur_s == pytest.approx(result.intra_seconds)
        # serialized: the inter stage starts where intra ends
        assert inter.ts_s == pytest.approx(result.intra_seconds)
        assert inter.dur_s == pytest.approx(result.inter_seconds)
        assert rec.metrics.counter("collective.ops",
                                   op="allreduce").value == 1
        busbw = rec.metrics.gauge("collective.busbw_gbps", op="allreduce")
        assert busbw.value == pytest.approx(result.busbw_gb_per_sec)

    def test_allgather_pipelined_stages_overlap(self, comm):
        from repro.collective import allgather

        with recording() as rec:
            allgather(comm, 64 * MB)
        (intra,) = rec.events.by_name("allgather.intra")
        (inter,) = rec.events.by_name("allgather.inter")
        assert intra.ts_s == inter.ts_s == 0.0  # overlapped stages
        assert inter.args["pipelined"] is True

    def test_reduce_scatter_is_traced_as_itself(self, comm):
        from repro.collective import reduce_scatter
        from repro.collective.model import allgather_busbw

        with recording() as rec:
            result = reduce_scatter(comm, 64 * MB)
        assert result.op == "reducescatter"
        (intra,) = rec.events.by_name("reducescatter.intra")
        (inter,) = rec.events.by_name("reducescatter.inter")
        assert intra.dur_s == pytest.approx(result.intra_seconds)
        assert inter.ts_s == pytest.approx(result.intra_seconds)
        assert not rec.events.by_name("allgather.intra")
        assert rec.metrics.counter("collective.ops",
                                   op="reducescatter").value == 1
        assert rec.metrics.counter("collective.ops",
                                   op="allgather").value == 0
        # busbw keeps the (n-1)/n normalization of an AllGather
        assert result.busbw_bytes_per_sec == pytest.approx(allgather_busbw(
            result.size_bytes, result.world_size, result.seconds))

    def test_alltoall_network_span(self, comm):
        from repro.collective import all_to_all

        with recording() as rec:
            result = all_to_all(comm, 16 * MB)
        (net,) = rec.events.by_name("alltoall.network")
        assert net.dur_s == pytest.approx(result.network_seconds)
        assert not rec.events.by_name("alltoall.relay")  # HPN: no relay


# ----------------------------------------------------------------------
# logger
# ----------------------------------------------------------------------
class TestDerivedViews:
    def test_logger_mirrors_warnings_into_recorder(self):
        log = get_logger("test.obs")
        with recording() as rec:
            log.info("quiet")  # below the mirrored threshold
            log.warning("dropped %s", "entry-42")
        (ev,) = rec.events.by_track("log")
        assert ev.name == "log.warning"
        assert ev.args["message"] == "dropped entry-42"
        assert rec.metrics.counter("log.records", level="warning").value == 1


# ----------------------------------------------------------------------
# overhead benchmark (smoke: tiny scenario, not the CI gate)
# ----------------------------------------------------------------------
def test_overhead_measure_smoke():
    from repro.obs.overhead import measure

    result = measure(repeats=1, params={"job_hosts": 4, "size_mb": 1})
    assert result["off_s"] > 0
    assert result["disabled_s"] > 0
    assert result["enabled_s"] > 0
    assert "disabled_overhead" in result and "enabled_overhead" in result
