"""Queue model and port telemetry."""

import pytest

from repro.core.units import GB
from repro.fabric import (
    Flow,
    QueueTracker,
    agg_ingress_gbps,
    dirlink_loads,
    imbalance_ratio,
    jain_fairness,
    tor_ports_towards_nic,
)
from repro.fabric.oracle import max_min_rates
from repro.routing import FiveTuple


def _flows_to_one_nic(topo, router, n, dst="pod0/seg0/host0", rail=0):
    """Several hosts sending to one NIC -- incast onto its access links."""
    b = topo.hosts[dst].nic_for_rail(rail)
    flows = []
    for i in range(n):
        src = f"pod0/seg1/host{i}"
        a = topo.hosts[src].nic_for_rail(rail)
        ft = FiveTuple(a.ip, b.ip, 50000 + i, 4791)
        plane = i % 2
        flows.append(Flow(ft, GB, router.path_for(a, b, ft, plane=plane)))
    return flows


class TestQueueTracker:
    def test_no_queue_under_light_load(self, hpn_small, hpn_router):
        flows = _flows_to_one_nic(hpn_small, hpn_router, 1)
        qt = QueueTracker(hpn_small)
        qt.step(flows, 0.01)
        assert qt.max_queue() == 0.0

    def test_queue_grows_under_incast(self, hpn_small, hpn_router):
        # 4 hosts x 200G into one plane-0 access port (200G): overload
        b = hpn_small.hosts["pod0/seg0/host0"].nic_for_rail(0)
        flows = []
        for i in range(4):
            a = hpn_small.hosts[f"pod0/seg1/host{i}"].nic_for_rail(0)
            ft = FiveTuple(a.ip, b.ip, 50000 + i, 4791)
            flows.append(Flow(ft, GB, hpn_router.path_for(a, b, ft, plane=0)))
        qt = QueueTracker(hpn_small)
        qt.step(flows, 0.01)
        assert qt.max_queue() > 0.0

    def test_queue_drains_when_load_stops(self, hpn_small, hpn_router):
        b = hpn_small.hosts["pod0/seg0/host0"].nic_for_rail(0)
        flows = []
        for i in range(4):
            a = hpn_small.hosts[f"pod0/seg1/host{i}"].nic_for_rail(0)
            ft = FiveTuple(a.ip, b.ip, 50000 + i, 4791)
            flows.append(Flow(ft, GB, hpn_router.path_for(a, b, ft, plane=0)))
        qt = QueueTracker(hpn_small)
        qt.step(flows, 0.01)
        peak = qt.max_queue()
        for _ in range(50):
            qt.step([], 0.01)
        assert qt.max_queue() < peak
        assert qt.max_queue() == 0.0

    def test_queue_never_negative(self, hpn_small):
        qt = QueueTracker(hpn_small)
        for _ in range(5):
            qt.step([], 1.0)
        assert all(q >= 0 for q in qt.queues.values())

    def test_history_bounded_by_max_entries(self, hpn_small):
        qt = QueueTracker(hpn_small, max_entries=10)
        for _ in range(25):
            qt.step([], 0.01)
        assert len(qt.history) == 10
        assert qt.rolled_up_entries == 15
        # the retained snapshots are the most recent ones
        times = [t for t, _snap in qt.history]
        assert times == sorted(times)
        assert times[-1] == pytest.approx(0.25)

    def test_history_unbounded_by_default(self, hpn_small):
        qt = QueueTracker(hpn_small)
        for _ in range(25):
            qt.step([], 0.01)
        assert len(qt.history) == 25
        assert qt.rolled_up_entries == 0

    def test_series_of_port_history(self, hpn_small, hpn_router):
        flows = _flows_to_one_nic(hpn_small, hpn_router, 4)
        qt = QueueTracker(hpn_small)
        for _ in range(3):
            qt.step(flows, 0.01)
        tor = hpn_small.tors_of_host("pod0/seg0/host0")[0]
        # find the port index on the tor facing the host
        series = None
        for port in hpn_small.ports[tor]:
            s = qt.series_of_port(tor, port.ref.index)
            if s and any(v > 0 for _t, v in s):
                series = s
                break
        assert series is None or len(series) == 3


class TestTelemetry:
    def _rated_flows(self, topo, router, n=4):
        flows = _flows_to_one_nic(topo, router, n)
        rates = max_min_rates(flows, lambda dl: topo.links[dl // 2].gbps)
        for f in flows:
            f.rate_gbps = rates[f.flow_id]
        return flows

    def test_dirlink_loads_count_mode(self, hpn_small, hpn_router):
        flows = self._rated_flows(hpn_small, hpn_router)
        counts = dirlink_loads(flows, use_rate=False)
        assert all(v >= 1 for v in counts.values())

    def test_tor_ports_towards_nic_keys(self, hpn_small, hpn_router):
        flows = self._rated_flows(hpn_small, hpn_router)
        loads = tor_ports_towards_nic(hpn_small, flows, "pod0/seg0/host0", 0)
        assert set(loads) == set(hpn_small.tors_of_host("pod0/seg0/host0")[:2]) or len(loads) == 2

    def test_dual_plane_balances_nic_ports(self, hpn_small, hpn_router):
        """Alternating planes deliver even load to the two ToR downlinks."""
        flows = self._rated_flows(hpn_small, hpn_router, n=4)
        loads = tor_ports_towards_nic(hpn_small, flows, "pod0/seg0/host0", 0)
        values = sorted(loads.values())
        assert values[0] == pytest.approx(values[1])

    def test_agg_ingress_positive_for_cross_segment(self, hpn_small, hpn_router):
        flows = self._rated_flows(hpn_small, hpn_router)
        assert agg_ingress_gbps(hpn_small, flows) > 0

    def test_agg_ingress_zero_for_intra_segment(self, hpn_small, hpn_router):
        a = hpn_small.hosts["pod0/seg0/host1"].nic_for_rail(0)
        b = hpn_small.hosts["pod0/seg0/host2"].nic_for_rail(0)
        ft = FiveTuple(a.ip, b.ip, 50000, 4791)
        f = Flow(ft, GB, hpn_router.path_for(a, b, ft, plane=0))
        f.rate_gbps = 200.0
        assert agg_ingress_gbps(hpn_small, [f]) == 0.0

    def test_imbalance_ratio(self):
        assert imbalance_ratio([100, 100]) == 1.0
        assert imbalance_ratio([300, 100]) == 3.0
        assert imbalance_ratio([100, 0]) == float("inf")
        assert imbalance_ratio([]) == 1.0

    def test_jain_fairness(self):
        assert jain_fairness([10, 10, 10]) == pytest.approx(1.0)
        assert jain_fairness([1, 0, 0]) == pytest.approx(1 / 3)
        assert jain_fairness([]) == 1.0
