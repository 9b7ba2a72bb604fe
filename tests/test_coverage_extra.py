"""Remaining coverage: serialization across architectures, CLI failure
paths, communicator chunking, verifier property, misc."""

import json

import pytest

from repro import (
    Cluster,
    DcnPlusSpec,
    FrontendSpec,
    HpnSpec,
    RailOnlySpec,
    build_frontend,
    build_railonly,
)
from repro.cli import main as cli_main
from repro.core import topology_from_dict, topology_to_dict
from repro.core.units import MB
from repro.routing import Router, verify_forwarding
from repro.topos import ThreeTierSpec, build_threetier, validate


class TestSerializeAllArchitectures:
    @pytest.mark.parametrize("builder", [
        lambda: build_railonly(
            RailOnlySpec(segments_per_pod=1, hosts_per_segment=2, aggs_per_plane=2)
        ),
        lambda: build_frontend(
            FrontendSpec(compute_hosts=4, storage_hosts=2,
                         hosts_per_tor_pair=4, aggs=2, cores=2)
        ),
        lambda: build_threetier(ThreeTierSpec(pods=1, segments_per_pod=2,
                                              hosts_per_segment=2,
                                              spines_per_pod=2)),
    ])
    def test_roundtrip(self, builder):
        topo = builder()
        clone = topology_from_dict(topology_to_dict(topo))
        assert clone.summary() == topo.summary()
        validate(clone)

    def test_dcn_roundtrip_preserves_meta(self, dcn_small):
        clone = topology_from_dict(topology_to_dict(dcn_small))
        assert clone.meta["architecture"] == "dcnplus"
        assert clone.meta["planes"] == 1


class TestCliFailurePaths:
    def test_validate_fails_on_miswired_fabric(self, tmp_path, capsys):
        from repro.core import save_topology
        from repro.telemetry import swap_access_links

        cluster = Cluster.hpn(
            HpnSpec(segments_per_pod=1, hosts_per_segment=2,
                    backup_hosts_per_segment=0, aggs_per_plane=2)
        )
        a = cluster.topo.hosts["pod0/seg0/host0"].nic_for_rail(0)
        b = cluster.topo.hosts["pod0/seg0/host1"].nic_for_rail(1)
        swap_access_links(cluster.topo, a, b)
        path = str(tmp_path / "bad.json")
        save_topology(cluster.topo, path)
        rc = cli_main(["check", "--family", "TOPO,WIRE,FWD", "-i", path])
        assert rc == 1
        out = capsys.readouterr().out
        assert "TOPO004" in out and "WIRE001" in out

    def test_validate_probe_pairs_flag(self, capsys):
        rc = cli_main(["check", "--family", "TOPO,WIRE,FWD",
                       "--segments", "1", "--hosts", "2", "--aggs", "2",
                       "--probe-pairs", "1", "--format", "json"])
        assert rc == 0
        stats = json.loads(capsys.readouterr().out)["stats"]
        assert stats["fwd_pairs_checked"] == 1
        assert stats["fwd_flows_walked"] > 0

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--version"])
        assert exc.value.code == 0


class TestCommunicatorChunking:
    def test_many_chunks_split_across_connections(self, hpn_small, hpn_router):
        from repro.collective import Communicator

        comm = Communicator(
            hpn_small, hpn_router,
            ["pod0/seg0/host0", "pod0/seg0/host1"],
            num_conns=2, chunk_bytes=1 * MB,
        )
        flows = comm.edge_flows("pod0/seg0/host0", "pod0/seg0/host1", 0,
                                8 * MB, tag="t")
        assert len(flows) == 2
        sizes = sorted(f.size_bytes for f in flows)
        # least-loaded over even drains = even split
        assert sizes[0] == pytest.approx(sizes[1])

    def test_sub_chunk_message_rides_one_connection(self, hpn_small, hpn_router):
        from repro.collective import Communicator

        comm = Communicator(
            hpn_small, hpn_router,
            ["pod0/seg0/host0", "pod0/seg0/host1"],
            num_conns=2, chunk_bytes=4 * MB,
        )
        flows = comm.edge_flows("pod0/seg0/host0", "pod0/seg0/host1", 0,
                                1 * MB, tag="t")
        assert len(flows) == 1

    def test_start_time_propagates(self, hpn_small, hpn_router):
        from repro.collective import Communicator

        comm = Communicator(
            hpn_small, hpn_router, ["pod0/seg0/host0", "pod0/seg0/host1"]
        )
        flows = comm.edge_flows("pod0/seg0/host0", "pod0/seg0/host1", 0,
                                32 * MB, tag="t", start_time=3.5)
        assert all(f.start_time == 3.5 for f in flows)


class TestVerifierOnEveryFixture:
    def test_singletor_forwarding(self, singletor_small):
        report = verify_forwarding(singletor_small, max_pairs=10)
        assert report.ok

    def test_fattree_forwarding(self, fattree_k4):
        report = verify_forwarding(fattree_k4, max_pairs=10)
        assert report.ok

    def test_threetier_forwarding(self):
        topo = build_threetier(ThreeTierSpec(cores=4))
        report = verify_forwarding(topo, max_pairs=16)
        assert report.ok

    def test_multi_pod_hpn_forwarding(self):
        from repro.topos import build_hpn

        topo = build_hpn(
            HpnSpec(pods=2, segments_per_pod=1, hosts_per_segment=2,
                    backup_hosts_per_segment=0, aggs_per_plane=2,
                    agg_core_uplinks=2, cores_per_plane=2)
        )
        report = verify_forwarding(topo, max_pairs=6)
        assert report.ok


class TestNicSeries:
    def test_duty_cycle_empty_and_flat(self):
        from repro.fabric import NicSeries

        ns = NicSeries("h", 0)
        assert ns.duty_cycle() == 0.0
        assert ns.peak() == 0.0
        ns.samples = [(0.0, 0.0), (1.0, 0.0)]
        assert ns.duty_cycle() == 0.0

    def test_duty_cycle_half(self):
        from repro.fabric import NicSeries

        ns = NicSeries("h", 0)
        ns.samples = [(0.0, 400.0), (1.0, 0.0), (2.0, 400.0), (3.0, 0.0)]
        assert ns.duty_cycle() == pytest.approx(0.5)
