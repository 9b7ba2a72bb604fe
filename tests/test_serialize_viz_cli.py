"""Serialization round-trips, text rendering, CLI commands, replay."""

import json

import pytest

from repro import Cluster, HpnSpec
from repro.cli import main as cli_main
from repro.core import (
    Topology,
    TopologyError,
    load_topology,
    save_topology,
    topology_from_dict,
    topology_to_dict,
)
from repro.core.units import GB
from repro.fabric import IterationReplay
from repro.routing import FiveTuple, Router
from repro.topos import validate
from repro import viz


class TestSerialize:
    def test_roundtrip_preserves_everything(self, hpn_small):
        data = topology_to_dict(hpn_small)
        clone = topology_from_dict(data)
        assert clone.summary() == hpn_small.summary()
        assert set(clone.links) == set(hpn_small.links)
        # NIC addressing survives
        a = hpn_small.hosts["pod0/seg0/host0"].nic_for_rail(2)
        b = clone.hosts["pod0/seg0/host0"].nic_for_rail(2)
        assert a.ip == b.ip and a.mac == b.mac
        # port wiring survives
        validate(clone)

    def test_roundtrip_is_json_safe(self, hpn_small):
        data = topology_to_dict(hpn_small)
        again = json.loads(json.dumps(data))
        clone = topology_from_dict(again)
        assert clone.gpu_count() == hpn_small.gpu_count()

    def test_clone_is_independent(self, hpn_small):
        clone = topology_from_dict(topology_to_dict(hpn_small))
        some_link = next(iter(clone.links))
        clone.set_link_state(some_link, False)
        assert hpn_small.links[some_link].up

    def test_routing_works_on_clone(self, hpn_small):
        clone = topology_from_dict(topology_to_dict(hpn_small))
        router = Router(clone)
        a = clone.hosts["pod0/seg0/host0"].nic_for_rail(0)
        b = clone.hosts["pod0/seg1/host0"].nic_for_rail(0)
        path = router.path_for(a, b, FiveTuple(a.ip, b.ip, 1, 2), plane=0)
        assert path.hops == 4

    def test_link_state_survives(self, hpn_mutable):
        hpn_mutable.set_link_state(3, False)
        clone = topology_from_dict(topology_to_dict(hpn_mutable))
        assert not clone.links[3].up

    def test_file_roundtrip(self, hpn_small, tmp_path):
        path = str(tmp_path / "topo.json")
        save_topology(hpn_small, path)
        clone = load_topology(path)
        assert clone.summary() == hpn_small.summary()

    @pytest.mark.parametrize("fabric", ["hpn_small", "dcn_small"])
    def test_loaded_topology_saves_again(self, fabric, request, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_topology(request.getfixturevalue(fabric), str(first))
        save_topology(load_topology(str(first)), str(second))
        # the same JSON; only the order of the nodes' port lists differs
        assert json.loads(second.read_text()) == json.loads(first.read_text())

    def test_failed_save_leaves_the_file_alone(self, tmp_path):
        path = tmp_path / "topo.json"
        path.write_text("previous contents")
        topo = Topology(name="t")
        topo.meta["spec"] = object()  # not a dataclass: asdict() refuses
        with pytest.raises(TypeError):
            save_topology(topo, str(path))
        assert path.read_bytes() == b"previous contents"

    def test_schema_version_checked(self):
        with pytest.raises(TopologyError):
            topology_from_dict({"schema": 99, "name": "x"})

    def test_unknown_port_node_rejected(self, hpn_small):
        data = topology_to_dict(hpn_small)
        data["ports"]["ghost"] = []
        with pytest.raises(TopologyError):
            topology_from_dict(data)


class TestViz:
    def test_summary_mentions_counts(self, hpn_small):
        text = viz.render_summary(hpn_small)
        assert "128 GPUs" in text
        assert "hpn" in text

    def test_tiers_elide_long_lists(self, hpn_small):
        text = viz.render_tiers(hpn_small, max_items=4)
        assert "(+" in text
        assert "tier1/ToR" in text

    def test_path_rendering(self, hpn_small, hpn_router):
        a = hpn_small.hosts["pod0/seg0/host0"].nic_for_rail(0)
        b = hpn_small.hosts["pod0/seg1/host0"].nic_for_rail(0)
        path = hpn_router.path_for(a, b, FiveTuple(a.ip, b.ip, 1, 2), plane=1)
        text = viz.render_path(path)
        assert "->" in text and "[plane 1]" in text

    def test_loads_bar_chart(self, hpn_small, hpn_router):
        from repro.fabric import Flow, max_min_rates

        a = hpn_small.hosts["pod0/seg0/host0"].nic_for_rail(0)
        b = hpn_small.hosts["pod0/seg1/host0"].nic_for_rail(0)
        ft = FiveTuple(a.ip, b.ip, 1, 2)
        f = Flow(ft, GB, hpn_router.path_for(a, b, ft, plane=0))
        rates = max_min_rates([f], lambda dl: hpn_small.links[dl // 2].gbps)
        f.rate_gbps = rates[f.flow_id]
        text = viz.render_loads(hpn_small, [f], "pod0/seg0/tor-r0p0")
        assert "#" in text
        assert "Gbps" in text

    def test_plane_usage_split(self, hpn_small, hpn_router):
        from repro.fabric import Flow, max_min_rates

        flows = []
        for plane in (0, 1):
            a = hpn_small.hosts["pod0/seg0/host0"].nic_for_rail(0)
            b = hpn_small.hosts["pod0/seg1/host0"].nic_for_rail(0)
            ft = FiveTuple(a.ip, b.ip, 100 + plane, 2)
            flows.append(Flow(ft, GB, hpn_router.path_for(a, b, ft, plane=plane)))
        rates = max_min_rates(flows, lambda dl: hpn_small.links[dl // 2].gbps)
        for f in flows:
            f.rate_gbps = rates[f.flow_id]
        text = viz.render_plane_usage(hpn_small, flows)
        assert "plane 0" in text and "plane 1" in text

    def test_oversubscription_table(self, hpn_small):
        assert "tor" in viz.render_oversubscription(hpn_small)


class TestCli:
    def test_build_and_save(self, tmp_path, capsys):
        out = str(tmp_path / "t.json")
        rc = cli_main(["build", "--segments", "1", "--hosts", "2",
                       "--aggs", "2", "-o", out])
        assert rc == 0
        assert "16 GPUs" in capsys.readouterr().out
        assert load_topology(out).gpu_count() == 16

    def test_validate_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "t.json")
        cli_main(["build", "--segments", "1", "--hosts", "2", "--aggs", "2",
                  "-o", out])
        capsys.readouterr()
        rc = cli_main(["check", "--family", "TOPO,WIRE,FWD", "-i", out])
        assert rc == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_complexity_prints_table1(self, capsys):
        assert cli_main(["complexity"]) == 0
        out = capsys.readouterr().out
        assert "O(60)" in out and "SuperPod" in out

    def test_train_command(self, capsys):
        rc = cli_main(["train", "--hosts", "4", "--aggs", "2",
                       "--job-hosts", "4", "--model", "llama-7b"])
        assert rc == 0
        assert "samples/s" in capsys.readouterr().out

    def test_inject_command_recovers(self, capsys):
        rc = cli_main(["inject", "--hosts", "4", "--aggs", "2",
                       "--job-hosts", "4", "--repair-at", "30"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "repaired" in out

    def test_inject_command_crash_exit_code(self, capsys):
        rc = cli_main(["inject", "--arch", "singletor", "--segments", "1",
                       "--hosts", "4", "--job-hosts", "4",
                       "--repair-at", "200", "--duration", "400"])
        assert rc == 2
        assert "CRASHED" in capsys.readouterr().out


class TestReplay:
    def test_bursts_reach_line_rate(self):
        cluster = Cluster.hpn(
            HpnSpec(segments_per_pod=1, hosts_per_segment=4,
                    backup_hosts_per_segment=0, aggs_per_plane=2)
        )
        hosts = [f"pod0/seg0/host{i}" for i in range(4)]
        comm = cluster.communicator(hosts)
        from repro.collective.model import ring_allreduce_edge_bytes

        per_edge = ring_allreduce_edge_bytes(20 * GB, 4)
        replay = IterationReplay(
            cluster.topo,
            compute_seconds=1.0,
            make_burst_flows=lambda: comm.all_rails_ring_flows(per_edge, tag="b"),
            sample_dt=0.1,
        )
        series = replay.run(2, watch=[("pod0/seg0/host0", 0)])
        ns = series[("pod0/seg0/host0", 0)]
        assert ns.peak() == pytest.approx(400.0)
        assert 0.1 < ns.duty_cycle() < 0.9
        times = [t for t, _g in ns.samples]
        assert times == sorted(times)
