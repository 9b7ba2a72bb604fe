"""FlowPath encoding, disjointness, RePaC probing, complexity accounting."""

import pytest

from repro.core.errors import RoutingError
from repro.routing import (
    FiveTuple,
    FlowPath,
    Router,
    decode_dirlink,
    disjoint,
    encode_dirlink,
    find_paths,
    max_disjoint_paths,
    measured_complexity,
    mutually_disjoint,
    table1,
)
from repro.topos import table1_cards


class TestDirlinks:
    def test_encode_decode_roundtrip(self, hpn_small):
        link = next(iter(hpn_small.links.values()))
        fwd = encode_dirlink(link, link.a.node)
        rev = encode_dirlink(link, link.b.node)
        assert decode_dirlink(fwd) == (link.link_id, 0)
        assert decode_dirlink(rev) == (link.link_id, 1)
        assert fwd != rev

    def test_encode_rejects_stranger(self, hpn_small):
        link = next(iter(hpn_small.links.values()))
        with pytest.raises(ValueError):
            encode_dirlink(link, "not-an-endpoint")


class TestFlowPath:
    def _path(self, hpn_small, hpn_router, sport=50000):
        a = hpn_small.hosts["pod0/seg0/host0"].nic_for_rail(0)
        b = hpn_small.hosts["pod0/seg1/host0"].nic_for_rail(0)
        ft = FiveTuple(a.ip, b.ip, sport, 4791)
        return hpn_router.path_for(a, b, ft, plane=0)

    def test_endpoints(self, hpn_small, hpn_router):
        p = self._path(hpn_small, hpn_router)
        assert p.src == "pod0/seg0/host0"
        assert p.dst == "pod0/seg1/host0"

    def test_core_dirlinks_strip_access(self, hpn_small, hpn_router):
        p = self._path(hpn_small, hpn_router)
        assert len(p.core_dirlinks()) == p.hops - 2

    def test_two_hop_path_has_no_interior(self, hpn_small, hpn_router):
        a = hpn_small.hosts["pod0/seg0/host0"].nic_for_rail(0)
        b = hpn_small.hosts["pod0/seg0/host1"].nic_for_rail(0)
        p = hpn_router.path_for(a, b, FiveTuple(a.ip, b.ip, 1, 2), plane=0)
        assert p.core_dirlinks() == []

    def test_disjoint_and_mutually_disjoint(self):
        a = FlowPath(nodes=["x", "t", "y"], dirlinks=[0, 2, 4])
        b = FlowPath(nodes=["x", "t", "y"], dirlinks=[0, 6, 4])
        c = FlowPath(nodes=["x", "t", "y"], dirlinks=[0, 2, 4])
        assert disjoint(a, b)
        assert not disjoint(a, c)
        assert mutually_disjoint([a, b])
        assert not mutually_disjoint([a, b, c])
        # access links shared is fine under ignore_access
        assert not disjoint(a, b, ignore_access=False)


class TestRepac:
    def test_finds_requested_disjoint_paths(self, hpn_small, hpn_router):
        a = hpn_small.hosts["pod0/seg0/host0"].nic_for_rail(0)
        b = hpn_small.hosts["pod0/seg1/host0"].nic_for_rail(0)
        found = find_paths(hpn_router, a, b, 4791, num_paths=3, plane=0)
        assert len(found.probes) == 3
        assert mutually_disjoint(found.paths)
        assert len(set(found.sports)) == 3

    def test_max_disjoint_equals_tor_fanout(self, hpn_small, hpn_router):
        """Dual-plane HPN: disjoint paths == ToR uplinks (Table 1's O(60))."""
        a = hpn_small.hosts["pod0/seg0/host0"].nic_for_rail(0)
        b = hpn_small.hosts["pod0/seg1/host0"].nic_for_rail(0)
        n = max_disjoint_paths(hpn_router, a, b, plane=0, sport_span=1024)
        assert n == 4  # SMALL_HPN.aggs_per_plane

    def test_num_paths_validation(self, hpn_small, hpn_router):
        a = hpn_small.hosts["pod0/seg0/host0"].nic_for_rail(0)
        b = hpn_small.hosts["pod0/seg1/host0"].nic_for_rail(0)
        with pytest.raises(ValueError):
            find_paths(hpn_router, a, b, 4791, num_paths=0)

    def test_unreachable_raises(self, railonly_small):
        router = Router(railonly_small)
        a = railonly_small.hosts["seg0/host0"].nic_for_rail(0)
        b = railonly_small.hosts["seg1/host0"].nic_for_rail(1)
        with pytest.raises(RoutingError):
            find_paths(router, a, b, 4791, num_paths=1, sport_span=8)


class TestComplexity:
    def test_table1_paper_numbers(self):
        rows = table1(table1_cards())
        by_name = {r.name: r for r in rows}
        assert by_name["Pod in HPN"].complexity == 60
        assert by_name["SuperPod"].complexity == 32 * 32 * 4
        assert by_name["Jupiter"].complexity == 8 * 256
        assert by_name["Fat tree (k=48)"].complexity == 48 * 48
        assert by_name["Pod in HPN"].supported_gpus == 15360

    def test_hpn_is_one_to_two_magnitudes_simpler(self):
        rows = table1(table1_cards())
        hpn = next(r for r in rows if "HPN" in r.name)
        for other in rows:
            if other is hpn:
                continue
            assert other.complexity / hpn.complexity >= 10

    def test_measured_matches_card_on_scaled_topo(self, hpn_small, hpn_router):
        measured = measured_complexity(
            hpn_small, "pod0/seg0/host0", "pod0/seg1/host0", router=hpn_router
        )
        assert measured == 4  # == aggs_per_plane at this scale
