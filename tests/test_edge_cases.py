"""Edge cases across the stack: multi-pod failover, core fallback,
degenerate communicators, scheduler corners, simulator boundaries."""

import pytest

from repro import Cluster, HpnSpec, build_hpn
from repro.core.errors import RoutingError, SimulationError
from repro.core.units import GB, MB
from repro.fabric import Flow, FluidSimulator
from repro.routing import FiveTuple, Router
from repro.routing.perport import select_core_egress


@pytest.fixture()
def two_pod():
    return build_hpn(
        HpnSpec(
            pods=2, segments_per_pod=1, hosts_per_segment=4,
            backup_hosts_per_segment=0, aggs_per_plane=4,
            agg_core_uplinks=2, cores_per_plane=4,
        )
    )


class TestMultiPodFailover:
    def test_core_link_failure_falls_back_to_tuple_hash(self, two_pod):
        """Section 7: per-port core hashing falls back to 5-tuple ECMP
        when the preferred link is down."""
        router = Router(two_pod, per_port_core_hash=True)
        a = two_pod.hosts["pod0/seg0/host0"].nic_for_rail(0)
        b = two_pod.hosts["pod1/seg0/host0"].nic_for_rail(0)
        ft = FiveTuple(a.ip, b.ip, 50000, 4791)
        path = router.path_for(a, b, ft, plane=0)
        core_idx = next(i for i, n in enumerate(path.nodes) if n.startswith("core/"))
        preferred_dl = path.dirlinks[core_idx]
        two_pod.set_link_state(preferred_dl // 2, False)
        rerouted = router.path_for(a, b, ft, plane=0)
        assert rerouted.dirlinks != path.dirlinks
        assert all(two_pod.links[dl // 2].up for dl in rerouted.dirlinks)

    def test_all_core_links_down_unreachable(self, two_pod):
        router = Router(two_pod)
        a = two_pod.hosts["pod0/seg0/host0"].nic_for_rail(0)
        b = two_pod.hosts["pod1/seg0/host0"].nic_for_rail(0)
        for link in two_pod.links.values():
            core_touch = any(
                end.startswith("core/") for end in (link.a.node, link.b.node)
            )
            if core_touch:
                link.up = False
        with pytest.raises(RoutingError):
            router.path_for(a, b, FiveTuple(a.ip, b.ip, 1, 2), plane=0)

    def test_intra_pod_unaffected_by_core_outage(self, two_pod):
        router = Router(two_pod)
        for link in two_pod.links.values():
            if any(e.startswith("core/") for e in (link.a.node, link.b.node)):
                link.up = False
        a = two_pod.hosts["pod0/seg0/host0"].nic_for_rail(0)
        b = two_pod.hosts["pod0/seg0/host1"].nic_for_rail(0)
        path = router.path_for(a, b, FiveTuple(a.ip, b.ip, 1, 2), plane=0)
        assert path.hops == 2

    def test_select_core_egress_raises_when_all_dead(self, two_pod):
        # craft a candidates list of dead links
        dead = [l for l in two_pod.links.values()][:3]
        for l in dead:
            l.up = False
        ports = [two_pod.port(l.a) for l in dead]
        with pytest.raises(ValueError):
            select_core_egress(
                list(zip(ports, dead)), 0, 1, FiveTuple("a", "b", 1, 2), 0
            )


class TestAggResilience:
    def test_one_agg_down_traffic_survives(self, hpn_mutable):
        """Section 6.1: 59 surviving aggs keep balancing the plane."""
        router = Router(hpn_mutable)
        hpn_mutable.fail_node("pod0/plane0/agg0")
        a = hpn_mutable.hosts["pod0/seg0/host0"].nic_for_rail(0)
        b = hpn_mutable.hosts["pod0/seg1/host0"].nic_for_rail(0)
        aggs_used = set()
        for sport in range(49152, 49152 + 32):
            path = router.path_for(a, b, FiveTuple(a.ip, b.ip, sport, 4791), plane=0)
            aggs_used.add(path.nodes[2])
        assert "pod0/plane0/agg0" not in aggs_used
        assert len(aggs_used) == 3  # the surviving aggs of the plane

    def test_whole_plane_down_forces_other_plane(self, hpn_mutable):
        router = Router(hpn_mutable)
        for i in range(4):
            hpn_mutable.fail_node(f"pod0/plane0/agg{i}")
        a = hpn_mutable.hosts["pod0/seg0/host0"].nic_for_rail(0)
        b = hpn_mutable.hosts["pod0/seg1/host0"].nic_for_rail(0)
        # plane 0 has no aggregation left: cross-segment unreachable on
        # plane 0...
        with pytest.raises(RoutingError):
            router._walk(a, b, FiveTuple(a.ip, b.ip, 1, 2), 0)
        # ...but same-ToR traffic still works (never leaves tier 1)
        c = hpn_mutable.hosts["pod0/seg0/host1"].nic_for_rail(0)
        path = router.path_for(a, c, FiveTuple(a.ip, c.ip, 1, 2), plane=0)
        assert path.hops == 2


class TestCommunicatorEdges:
    def test_two_host_ring_bidirectional_edges(self, hpn_small, hpn_router):
        from repro.collective import Communicator

        comm = Communicator(
            hpn_small, hpn_router,
            ["pod0/seg0/host0", "pod0/seg0/host1"], num_conns=1,
        )
        flows = comm.ring_flows(0, 10 * MB, tag="r")
        # a 2-ring has edges in both directions
        assert len(flows) == 2
        srcs = {f.path.src for f in flows}
        assert srcs == {"pod0/seg0/host0", "pod0/seg0/host1"}

    def test_single_host_ring_empty(self, hpn_small, hpn_router):
        from repro.collective import Communicator

        comm = Communicator(hpn_small, hpn_router, ["pod0/seg0/host0"])
        assert comm.ring_flows(0, 10 * MB, tag="r") == []


class TestSimulatorBoundaries:
    def test_run_with_no_flows_is_noop(self, hpn_small):
        sim = FluidSimulator(hpn_small)
        result = sim.run()
        assert result.finish_time == 0.0
        assert result.flow_finish == {}

    def test_event_only_run_advances_clock(self, hpn_small):
        sim = FluidSimulator(hpn_small)
        fired = []
        sim.schedule(5.0, lambda s: fired.append(s.now))
        result = sim.run()
        assert fired == [5.0]
        assert result.finish_time == 5.0

    def test_until_before_any_event(self, hpn_small):
        sim = FluidSimulator(hpn_small)
        fired = []
        sim.schedule(10.0, lambda s: fired.append(True))
        sim.run(until=2.0)
        assert fired == []
        assert sim.now == 2.0

    def test_flow_stalled_then_revived_by_event(self, hpn_mutable):
        router = Router(hpn_mutable)
        a = hpn_mutable.hosts["pod0/seg0/host0"].nic_for_rail(0)
        b = hpn_mutable.hosts["pod0/seg0/host1"].nic_for_rail(0)
        ft = FiveTuple(a.ip, b.ip, 1, 2)
        flow = Flow(ft, GB, router.path_for(a, b, ft, plane=0))
        link = flow.path.dirlinks[1] // 2
        hpn_mutable.set_link_state(link, False)
        sim = FluidSimulator(hpn_mutable)
        sim.add_flows([flow])
        sim.schedule(1.0, lambda s: hpn_mutable.set_link_state(link, True))
        result = sim.run()
        assert result.finish_time == pytest.approx(1.0 + 0.04)


class TestSchedulerEdges:
    def test_zero_hosts_allocation(self, hpn_small):
        from repro.training import Scheduler

        sched = Scheduler(hpn_small)
        assert sched.place(0) == []

    def test_exact_capacity_allocation(self, hpn_small):
        from repro.training import Scheduler

        sched = Scheduler(hpn_small)
        hosts = sched.place(16)  # all active hosts
        assert len(hosts) == 16
