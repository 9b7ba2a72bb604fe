"""fabric.telemetry: dirlink loads (incl. the repeated-dirlink dedupe),
NIC-facing port counters, aggregation ingress and imbalance summaries."""

from __future__ import annotations

import pytest

from repro.core.units import GB
from repro.fabric import (
    Flow,
    agg_ingress_gbps,
    dirlink_loads,
    imbalance_ratio,
    jain_fairness,
    tor_ports_towards_nic,
)
from repro.routing import FiveTuple


def _flow(topo, router, src, dst, rail=0, sport=50000, rate=100.0):
    a = topo.hosts[src].nic_for_rail(rail)
    b = topo.hosts[dst].nic_for_rail(rail)
    ft = FiveTuple(a.ip, b.ip, sport, 4791)
    f = Flow(ft, GB, router.path_for(a, b, ft, plane=0))
    f.rate_gbps = rate
    return f


class TestDirlinkLoads:
    def test_rate_mode_sums_rates(self, hpn_small, hpn_router):
        f1 = _flow(hpn_small, hpn_router, "pod0/seg0/host0",
                   "pod0/seg0/host1", rate=80.0)
        f2 = _flow(hpn_small, hpn_router, "pod0/seg0/host0",
                   "pod0/seg0/host1", sport=50001, rate=40.0)
        loads = dirlink_loads([f1, f2])
        shared = set(f1.path.dirlinks) & set(f2.path.dirlinks)
        assert shared
        for dl in shared:
            assert loads[dl] == pytest.approx(120.0)

    def test_count_mode(self, hpn_small, hpn_router):
        f = _flow(hpn_small, hpn_router, "pod0/seg0/host0",
                  "pod0/seg0/host1")
        counts = dirlink_loads([f], use_rate=False)
        assert all(c == 1.0 for c in counts.values())

    def test_repeated_dirlink_counted_once(self, hpn_small, hpn_router):
        """Regression: a path that revisits a directed link (bent walk
        after a mis-wiring) must contribute its rate once, not per
        visit."""
        f = _flow(hpn_small, hpn_router, "pod0/seg0/host0",
                  "pod0/seg0/host1", rate=100.0)
        first = f.path.dirlinks[0]
        f.path.dirlinks.append(first)  # simulate the bent-back walk
        loads = dirlink_loads([f])
        assert loads[first] == pytest.approx(100.0)
        counts = dirlink_loads([f], use_rate=False)
        assert counts[first] == 1.0


class TestPortCounters:
    def test_tor_ports_towards_nic_keys_by_tor(self, hpn_small, hpn_router):
        f = _flow(hpn_small, hpn_router, "pod0/seg0/host0",
                  "pod0/seg0/host1", rate=120.0)
        out = tor_ports_towards_nic(hpn_small, [f], "pod0/seg0/host1", 0)
        assert len(out) == 2  # dual-ToR: both serving ToRs reported
        assert max(out.values()) == pytest.approx(120.0)

    def test_agg_ingress_counts_cross_segment_only(
        self, hpn_small, hpn_router
    ):
        intra = _flow(hpn_small, hpn_router, "pod0/seg0/host0",
                      "pod0/seg0/host1", rate=100.0)
        assert agg_ingress_gbps(hpn_small, [intra]) == 0.0
        cross = _flow(hpn_small, hpn_router, "pod0/seg0/host0",
                      "pod0/seg1/host0", rate=100.0)
        assert agg_ingress_gbps(hpn_small, [cross]) == pytest.approx(100.0)


class TestImbalanceSummaries:
    def test_imbalance_ratio(self):
        assert imbalance_ratio([]) == 1.0
        assert imbalance_ratio([100.0, 100.0]) == 1.0
        assert imbalance_ratio([300.0, 100.0]) == 3.0
        assert imbalance_ratio([100.0, 0.0]) == float("inf")
        assert imbalance_ratio([0.0, 0.0]) == 1.0

    def test_jain_fairness(self):
        assert jain_fairness([]) == 1.0
        assert jain_fairness([5.0, 5.0, 5.0]) == pytest.approx(1.0)
        assert jain_fairness([1.0, 0.0]) == pytest.approx(0.5)
