"""Fluid simulator: max-min fairness, event loop, failures mid-flight."""

import pytest

from repro.core.errors import SimulationError
from repro.core.units import GB, MB
from repro.fabric import Flow, FluidSimulator, max_min_rates, run_flows
from repro.routing import FiveTuple, Router


def _edge_flow(topo, router, src, dst, rail, size, sport=50000, plane=0):
    a = topo.hosts[src].nic_for_rail(rail)
    b = topo.hosts[dst].nic_for_rail(rail)
    ft = FiveTuple(a.ip, b.ip, sport, 4791)
    path = router.path_for(a, b, ft, plane=plane)
    return Flow(ft, size, path)


class TestMaxMin:
    def test_single_flow_gets_access_rate(self, hpn_small, hpn_router):
        f = _edge_flow(hpn_small, hpn_router, "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        rates = max_min_rates([f], lambda dl: hpn_small.links[dl // 2].gbps)
        assert rates[f.flow_id] == pytest.approx(200.0)

    def test_two_flows_share_access_link(self, hpn_small, hpn_router):
        # same src NIC port, different destinations: 200G port shared
        a = hpn_small.hosts["pod0/seg0/host0"].nic_for_rail(0)
        flows = []
        for i, dst in enumerate(["pod0/seg0/host1", "pod0/seg0/host2"]):
            b = hpn_small.hosts[dst].nic_for_rail(0)
            ft = FiveTuple(a.ip, b.ip, 50000 + i, 4791)
            flows.append(Flow(ft, GB, hpn_router.path_for(a, b, ft, plane=0)))
        rates = max_min_rates(flows, lambda dl: hpn_small.links[dl // 2].gbps)
        for f in flows:
            assert rates[f.flow_id] == pytest.approx(100.0)

    def test_dead_link_zeroes_flows(self, hpn_mutable):
        router = Router(hpn_mutable)
        f = _edge_flow(hpn_mutable, router, "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        link_id = f.path.dirlinks[0] // 2
        hpn_mutable.set_link_state(link_id, False)
        rates = max_min_rates(
            [f],
            lambda dl: hpn_mutable.links[dl // 2].gbps
            if hpn_mutable.links[dl // 2].up
            else 0.0,
        )
        assert rates[f.flow_id] == 0.0

    def test_total_never_exceeds_capacity(self, hpn_small, hpn_router):
        flows = []
        for i in range(8):
            flows.append(
                _edge_flow(
                    hpn_small, hpn_router,
                    f"pod0/seg0/host{i}", f"pod0/seg1/host{i}",
                    0, GB, sport=50000 + i,
                )
            )
        rates = max_min_rates(flows, lambda dl: hpn_small.links[dl // 2].gbps)
        per_link = {}
        for f in flows:
            for dl in f.path.dirlinks:
                per_link[dl] = per_link.get(dl, 0.0) + rates[f.flow_id]
        for dl, total in per_link.items():
            assert total <= hpn_small.links[dl // 2].gbps + 1e-6


class TestEventLoop:
    def test_completion_time_of_one_flow(self, hpn_small, hpn_router):
        f = _edge_flow(hpn_small, hpn_router, "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        result = run_flows(hpn_small, [f])
        # 1 GB at 200 Gbps = 40 ms
        assert result.finish_time == pytest.approx(0.04)
        assert f.finish_time == pytest.approx(0.04)

    def test_flows_rates_rise_after_completion(self, hpn_small, hpn_router):
        """The short flow finishes, the long one speeds up."""
        a = hpn_small.hosts["pod0/seg0/host0"].nic_for_rail(0)
        b = hpn_small.hosts["pod0/seg0/host1"].nic_for_rail(0)
        c = hpn_small.hosts["pod0/seg0/host2"].nic_for_rail(0)
        ft1 = FiveTuple(a.ip, b.ip, 50000, 4791)
        ft2 = FiveTuple(a.ip, c.ip, 50001, 4791)
        short = Flow(ft1, 250 * MB, hpn_router.path_for(a, b, ft1, plane=0))
        long = Flow(ft2, GB, hpn_router.path_for(a, c, ft2, plane=0))
        result = run_flows(hpn_small, [short, long])
        # share 100G until short finishes at 20ms; long then runs 200G:
        # 0.25GB at 100G (20ms) + 0.75GB at 200G (30ms) = 50ms
        assert result.flow_finish[short.flow_id] == pytest.approx(0.02)
        assert result.finish_time == pytest.approx(0.05)

    def test_staggered_start_times(self, hpn_small, hpn_router):
        f1 = _edge_flow(hpn_small, hpn_router, "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        f2 = _edge_flow(
            hpn_small, hpn_router, "pod0/seg0/host2", "pod0/seg0/host3", 0, GB,
            sport=50001,
        )
        f2.start_time = 0.1
        result = run_flows(hpn_small, [f1, f2])
        assert result.flow_finish[f1.flow_id] == pytest.approx(0.04)
        assert result.flow_finish[f2.flow_id] == pytest.approx(0.14)

    def test_past_start_time_rejected(self, hpn_small, hpn_router):
        sim = FluidSimulator(hpn_small)
        sim.now = 5.0
        f = _edge_flow(hpn_small, hpn_router, "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        with pytest.raises(SimulationError):
            sim.add_flows([f])

    def test_until_cuts_run_short(self, hpn_small, hpn_router):
        f = _edge_flow(hpn_small, hpn_router, "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        sim = FluidSimulator(hpn_small)
        sim.add_flows([f])
        result = sim.run(until=0.01)
        assert result.finish_time == pytest.approx(0.01)
        assert f.finish_time is None and f.remaining_bytes > 0

    def test_mid_run_failure_event(self, hpn_mutable):
        """A link failure mid-transfer stalls the flow until repair."""
        router = Router(hpn_mutable)
        f = _edge_flow(hpn_mutable, router, "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        link_id = f.path.dirlinks[0] // 2

        sim = FluidSimulator(hpn_mutable)
        sim.add_flows([f])
        sim.schedule(0.02, lambda s: hpn_mutable.set_link_state(link_id, False))
        sim.schedule(0.10, lambda s: hpn_mutable.set_link_state(link_id, True))
        result = sim.run()
        # 20ms transfers half; stalled 80ms; 20ms for the rest
        assert result.finish_time == pytest.approx(0.12)

    def test_deadlock_detection(self, hpn_mutable):
        router = Router(hpn_mutable)
        f = _edge_flow(hpn_mutable, router, "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        hpn_mutable.set_link_state(f.path.dirlinks[0] // 2, False)
        sim = FluidSimulator(hpn_mutable)
        sim.add_flows([f])
        with pytest.raises(SimulationError):
            sim.run()

    def test_flow_reset(self, hpn_small, hpn_router):
        f = _edge_flow(hpn_small, hpn_router, "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        run_flows(hpn_small, [f])
        assert f.finish_time is not None and f.remaining_bytes == 0.0
        f.reset()
        assert f.finish_time is None
        assert f.remaining_bytes == f.size_bytes

    def test_flow_size_must_be_positive(self, hpn_small, hpn_router):
        a = hpn_small.hosts["pod0/seg0/host0"].nic_for_rail(0)
        b = hpn_small.hosts["pod0/seg0/host1"].nic_for_rail(0)
        ft = FiveTuple(a.ip, b.ip, 1, 2)
        path = hpn_router.path_for(a, b, ft, plane=0)
        with pytest.raises(ValueError):
            Flow(ft, 0, path)
