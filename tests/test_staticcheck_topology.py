"""Per-rule fixtures for the topology analyzer registry.

Each test builds a minimal fixture topology that violates exactly one
rule and asserts that rule (and only that rule, at its severity) fires
in a full collecting run.
"""

from __future__ import annotations

import pytest

from repro.core.entities import PortKind
from repro.core.errors import TopologyError
from repro.staticcheck import (
    Report,
    Severity,
    all_rules,
    run_topology_rules,
)
from repro.topos import (
    HpnSpec,
    RailOnlySpec,
    build_hpn,
    build_railonly,
    validate,
)
from repro.topos.hpn import agg_name, tor_name


TINY = HpnSpec(
    segments_per_pod=1,
    hosts_per_segment=2,
    backup_hosts_per_segment=0,
    aggs_per_plane=2,
    agg_core_uplinks=0,
)


def unwire(topo, pref) -> None:
    """Cleanly remove the link attached at ``pref`` (both endpoints)."""
    port = topo.port(pref)
    link = topo.links.pop(port.link_id)
    topo.port(link.a).link_id = None
    topo.port(link.b).link_id = None


def error_ids(report: Report):
    return sorted({d.rule_id for d in report.errors})


def warning_ids(report: Report):
    return sorted({d.rule_id for d in report.warnings})


class TestCleanBuilds:
    def test_hpn_clean(self, hpn_small):
        report = run_topology_rules(hpn_small)
        assert report.ok and not report.warnings

    def test_railonly_clean(self, railonly_small):
        report = run_topology_rules(railonly_small)
        assert report.ok and not report.warnings


class TestTopo001LinkConsistency:
    def test_dangling_backref(self):
        topo = build_hpn(TINY)
        agg = agg_name(0, 0, 0)
        port = topo.down_ports(agg)[0]
        port.link_id = None  # corrupt: link still references this port
        report = run_topology_rules(topo)
        assert error_ids(report) == ["TOPO001"]


class TestTopo002DualTor:
    def test_single_tor_nic_names_the_tor(self):
        spec = HpnSpec(segments_per_pod=1, hosts_per_segment=1,
                       backup_hosts_per_segment=0, aggs_per_plane=2,
                       agg_core_uplinks=0)
        topo = build_hpn(spec)
        nic = topo.hosts["pod0/seg0/host0"].nic_for_rail(0)
        unwire(topo, nic.ports[1])
        report = run_topology_rules(topo)
        assert error_ids(report) == ["TOPO002"]
        (diag,) = report.errors
        # the message names the ToR actually reached, not just a count
        assert tor_name(0, 0, 0, 0) in diag.message

    def test_raise_first_wrapper_names_tors(self):
        spec = HpnSpec(segments_per_pod=1, hosts_per_segment=1,
                       backup_hosts_per_segment=0, aggs_per_plane=2,
                       agg_core_uplinks=0)
        topo = build_hpn(spec)
        nic = topo.hosts["pod0/seg0/host0"].nic_for_rail(0)
        unwire(topo, nic.ports[1])
        with pytest.raises(TopologyError, match=r"tor-r0p0"):
            validate(topo)


class TestTopo003DualPlane:
    def test_swapped_nic_ports_land_in_wrong_planes(self):
        topo = build_hpn(TINY)
        nic = topo.hosts["pod0/seg0/host0"].nic_for_rail(0)
        far = []
        for pref in nic.ports:
            link = topo.links[topo.port(pref).link_id]
            far.append(link.other("pod0/seg0/host0"))
        unwire(topo, nic.ports[0])
        unwire(topo, nic.ports[1])
        topo.wire(nic.ports[0], far[1])  # port 0 -> plane-1 ToR
        topo.wire(nic.ports[1], far[0])  # port 1 -> plane-0 ToR
        report = run_topology_rules(topo)
        assert error_ids(report) == ["TOPO003"]
        assert len(report.errors) == 2  # one per swapped port


class TestTopo004RailOptimized:
    def test_cross_rail_nic_swap(self):
        topo = build_hpn(TINY)
        host = topo.hosts["pod0/seg0/host0"]
        nic0, nic1 = host.nic_for_rail(0), host.nic_for_rail(1)
        far = {}
        for nic in (nic0, nic1):
            for i, pref in enumerate(nic.ports):
                link = topo.links[topo.port(pref).link_id]
                far[(nic.rail, i)] = link.other(host.name)
                unwire(topo, pref)
        # swap the rails' ToR sets, preserving the plane order
        topo.wire(nic0.ports[0], far[(1, 0)])
        topo.wire(nic0.ports[1], far[(1, 1)])
        topo.wire(nic1.ports[0], far[(0, 0)])
        topo.wire(nic1.ports[1], far[(0, 1)])
        report = run_topology_rules(topo)
        assert error_ids(report) == ["TOPO004"]
        assert {"rail 0", "rail 1"} <= {
            d.message[d.message.index("rail"):d.message.index("rail") + 6]
            for d in report.errors
        }


class TestTopo005RailIsolation:
    def test_cross_rail_aggregation_link(self):
        topo = build_railonly(
            RailOnlySpec(segments_per_pod=1, hosts_per_segment=2,
                         aggs_per_plane=2)
        )
        up = topo.alloc_port("seg0/tor-r0p0", 400.0, PortKind.UP)
        down = topo.alloc_port("rail1/plane0/agg0", 400.0, PortKind.DOWN)
        topo.wire(up.ref, down.ref)
        report = run_topology_rules(topo)
        assert error_ids(report) == ["TOPO005"]


class TestTopo006Tier3Oversubscription:
    SPEC = HpnSpec(segments_per_pod=1, hosts_per_segment=2,
                   backup_hosts_per_segment=0, aggs_per_plane=2,
                   agg_core_uplinks=2, cores_per_plane=2)

    def test_clean_core_layer_matches_spec(self):
        report = run_topology_rules(build_hpn(self.SPEC))
        assert report.ok and not report.warnings

    def test_missing_core_uplink_deviates(self):
        topo = build_hpn(self.SPEC)
        agg = agg_name(0, 0, 0)
        up = topo.up_ports(agg)[0]
        unwire(topo, up.ref)
        report = run_topology_rules(topo)
        assert warning_ids(report) == ["TOPO006"]
        assert error_ids(report) == []
        assert "oversubscription" in report.warnings[0].message


class TestTopo007PortBudget:
    def test_chip_capacity_exceeded(self):
        topo = build_hpn(TINY)
        tor = tor_name(0, 0, 0, 0)
        topo.switches[tor].chip_gbps = 100.0
        report = run_topology_rules(topo)
        assert error_ids(report) == ["TOPO007"]
        assert "chip provides 100" in report.errors[0].message

    def test_tor_downlink_budget_exceeded(self):
        topo = build_hpn(TINY)
        tor = tor_name(0, 0, 0, 0)
        host = topo.hosts["pod0/seg0/host0"]
        nic = host.nic_for_rail(1)  # steal rail-1's plane-0 leg
        unwire(topo, nic.ports[0])
        extra = topo.alloc_port(tor, 200.0, PortKind.DOWN)
        topo.wire(nic.ports[0], extra.ref)
        report = run_topology_rules(topo)
        assert "TOPO007" in error_ids(report)
        assert any("downlinks" in d.message for d in report.errors)


class TestTopo008Addressing:
    def test_duplicate_ip(self, ):
        topo = build_hpn(TINY)
        a = topo.hosts["pod0/seg0/host0"].nic_for_rail(0)
        b = topo.hosts["pod0/seg0/host1"].nic_for_rail(0)
        b.ip = a.ip
        report = run_topology_rules(topo)
        assert error_ids(report) == ["TOPO008"]
        assert a.name in report.errors[0].message
        assert b.name in report.errors[0].message

    def test_duplicate_mac(self):
        topo = build_hpn(TINY)
        a = topo.hosts["pod0/seg0/host0"].nic_for_rail(0)
        b = topo.hosts["pod0/seg0/host1"].nic_for_rail(3)
        b.mac = a.mac
        report = run_topology_rules(topo)
        assert error_ids(report) == ["TOPO008"]
        assert "MAC" in report.errors[0].message


class TestTopo009BondSymmetry:
    def test_member_speed_mismatch(self):
        topo = build_hpn(TINY)
        nic = topo.hosts["pod0/seg0/host0"].nic_for_rail(0)
        topo.port(nic.ports[1]).gbps = 400.0
        report = run_topology_rules(topo)
        assert error_ids(report) == ["TOPO009"]
        assert "different speeds" in report.errors[0].message

    def test_half_wired_nic_is_a_warning(self):
        spec = HpnSpec(segments_per_pod=1, hosts_per_segment=1,
                       backup_hosts_per_segment=0, aggs_per_plane=2,
                       agg_core_uplinks=0)
        topo = build_hpn(spec)
        nic = topo.hosts["pod0/seg0/host0"].nic_for_rail(2)
        unwire(topo, nic.ports[1])
        report = run_topology_rules(topo)
        assert "TOPO009" in warning_ids(report)
        assert any("only port 0 wired" in d.message for d in report.warnings)


class TestTopo010UplinkMesh:
    def test_incomplete_mesh_is_a_warning(self):
        topo = build_hpn(TINY)
        tor = tor_name(0, 0, 0, 0)
        unwire(topo, topo.up_ports(tor)[0].ref)
        report = run_topology_rules(topo)
        assert warning_ids(report) == ["TOPO010"]
        assert "1 of 2" in report.warnings[0].message

    def test_cross_plane_uplink_is_an_error(self):
        topo = build_hpn(TINY)
        tor = tor_name(0, 0, 1, 0)
        up = topo.alloc_port(tor, 400.0, PortKind.UP)
        down = topo.alloc_port(agg_name(0, 1, 0), 400.0, PortKind.DOWN)
        topo.wire(up.ref, down.ref)
        report = run_topology_rules(topo)
        assert "TOPO010" in error_ids(report)
        assert "TOPO003" in error_ids(report)  # also a cross-plane link


class TestExpensiveRules:
    def test_wiring_sweep_reports_wire001(self):
        from repro.telemetry import swap_access_links

        topo = build_hpn(TINY)
        a = topo.hosts["pod0/seg0/host0"].nic_for_rail(0)
        b = topo.hosts["pod0/seg0/host1"].nic_for_rail(1)
        swap_access_links(topo, a, b)
        report = run_topology_rules(topo, include_expensive=True,
                                    forwarding_kwargs={"max_pairs": 2})
        assert "WIRE001" in error_ids(report)

    def test_dead_dual_tor_pair_black_holes(self):
        topo = build_hpn(TINY)
        # kill both planes' ToRs for rail 0: the probed rail-0 pairs
        # lose every usable plane -> black hole
        topo.fail_node(tor_name(0, 0, 0, 0))
        topo.fail_node(tor_name(0, 0, 0, 1))
        report = run_topology_rules(topo, include_expensive=True,
                                    forwarding_kwargs={"max_pairs": 2})
        assert "FWD002" in error_ids(report)
        assert report.stats["fwd_pairs_checked"] >= 1

    def test_expensive_skipped_by_default(self):
        topo = build_hpn(TINY)
        report = run_topology_rules(topo)
        assert "fwd_pairs_checked" not in report.stats


class TestEngine:
    def test_suppression_via_meta(self):
        topo = build_hpn(TINY)
        nic = topo.hosts["pod0/seg0/host0"].nic_for_rail(0)
        topo.port(nic.ports[1]).gbps = 400.0
        topo.meta["suppress"] = ["TOPO009"]
        report = run_topology_rules(topo)
        assert report.ok
        assert any(d.suppressed and d.rule_id == "TOPO009"
                   for d in report.diagnostics)

    def test_rule_subset(self):
        topo = build_hpn(TINY)
        nic = topo.hosts["pod0/seg0/host0"].nic_for_rail(0)
        topo.port(nic.ports[1]).gbps = 400.0
        report = run_topology_rules(topo, rule_ids=["TOPO001", "TOPO002"])
        assert report.ok  # TOPO009 not in the subset

    def test_analyze_serialized_topology(self, tmp_path):
        from repro.core import load_topology, save_topology

        topo = build_hpn(TINY)
        tor = tor_name(0, 0, 0, 0)
        topo.switches[tor].chip_gbps = 100.0
        path = str(tmp_path / "bad.json")
        save_topology(topo, path)
        report = run_topology_rules(load_topology(path))
        assert error_ids(report) == ["TOPO007"]

    def test_serialized_spec_still_drives_budget_rules(self, tmp_path):
        """The spec survives the JSON round-trip as a reconstructable
        dataclass, so spec-derived budgets apply to loaded fabrics."""
        from repro.core import load_topology, save_topology
        from repro.staticcheck import resolve_spec

        topo = build_hpn(TINY)
        path = str(tmp_path / "t.json")
        save_topology(topo, path)
        clone = load_topology(path)
        spec = resolve_spec(clone)
        assert isinstance(spec, HpnSpec)
        assert spec.tor_uplinks == TINY.tor_uplinks

    def test_report_json_roundtrip(self):
        import json

        topo = build_hpn(TINY)
        nic = topo.hosts["pod0/seg0/host0"].nic_for_rail(0)
        topo.port(nic.ports[1]).gbps = 400.0
        report = run_topology_rules(topo)
        clone = Report.from_dict(json.loads(report.to_json()))
        assert [d.rule_id for d in clone.sorted()] == [
            d.rule_id for d in report.sorted()
        ]
        assert clone.errors[0].severity is Severity.ERROR

    def test_catalogue_contains_both_families(self):
        ids = {info.rule_id for info in all_rules()}
        assert {"TOPO001", "TOPO010", "WIRE001", "FWD001", "LINT001"} <= ids
