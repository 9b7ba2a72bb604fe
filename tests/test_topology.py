"""Topology container: nodes, ports, wiring, queries, failures."""

import pytest

from repro.core import (
    Host,
    PortKind,
    Switch,
    SwitchRole,
    Topology,
    TopologyError,
)


@pytest.fixture()
def topo():
    t = Topology(name="t")
    t.add_switch(Switch(name="tor0", role=SwitchRole.TOR, tier=1))
    t.add_switch(Switch(name="tor1", role=SwitchRole.TOR, tier=1))
    t.build_host("h0", pod=0, segment=0, index=0, num_gpus=2)
    return t


def test_duplicate_node_name_rejected(topo):
    with pytest.raises(TopologyError):
        topo.add_switch(Switch(name="tor0", role=SwitchRole.TOR))
    with pytest.raises(TopologyError):
        topo.add_host(Host(name="tor0"))


def test_build_host_creates_gpus_nics_ports(topo):
    h = topo.hosts["h0"]
    assert len(h.gpus) == 2
    # frontend NIC + 2 backend NICs
    assert len(h.nics) == 3
    assert h.frontend_nic() is not None
    assert len(h.backend_nics()) == 2
    # every NIC has two ports allocated on the host
    assert len(topo.ports["h0"]) == 6


def test_nic_for_rail(topo):
    h = topo.hosts["h0"]
    assert h.nic_for_rail(1).rail == 1
    with pytest.raises(KeyError):
        h.nic_for_rail(7)


def test_wire_and_neighbors(topo):
    nic = topo.hosts["h0"].nic_for_rail(0)
    down = topo.alloc_port("tor0", 200.0, PortKind.DOWN)
    link = topo.wire(nic.ports[0], down.ref)
    assert link.gbps == 200.0
    peers = [peer for _p, _l, peer in topo.neighbors("h0")]
    assert peers == ["tor0"]
    assert topo.tors_of_host("h0") == ["tor0"]
    assert topo.hosts_of_tor("tor0") == ["h0"]


def test_wire_rejects_double_wiring(topo):
    nic = topo.hosts["h0"].nic_for_rail(0)
    down = topo.alloc_port("tor0", 200.0, PortKind.DOWN)
    topo.wire(nic.ports[0], down.ref)
    other = topo.alloc_port("tor1", 200.0, PortKind.DOWN)
    with pytest.raises(TopologyError):
        topo.wire(nic.ports[0], other.ref)


def test_wire_rejects_rate_above_port_speed(topo):
    a = topo.alloc_port("tor0", 200.0, PortKind.UP)
    b = topo.alloc_port("tor1", 200.0, PortKind.DOWN)
    with pytest.raises(TopologyError):
        topo.wire(a.ref, b.ref, gbps=400.0)


def test_link_rate_defaults_to_min_port_speed(topo):
    a = topo.alloc_port("tor0", 400.0, PortKind.UP)
    b = topo.alloc_port("tor1", 200.0, PortKind.DOWN)
    assert topo.wire(a.ref, b.ref).gbps == 200.0


def test_connect_lays_up_port_to_down_port(topo):
    epoch = topo.structure_epoch
    link = topo.connect("tor0", "tor1", 400.0)
    up, down = topo.port(link.a), topo.port(link.b)
    assert (link.a.node, link.b.node) == ("tor0", "tor1")
    assert (up.kind, down.kind) == (PortKind.UP, PortKind.DOWN)
    assert up.link_id == down.link_id == link.link_id
    assert topo.links[link.link_id] is link
    assert link.gbps == up.gbps == down.gbps == 400.0
    assert topo.structure_epoch == epoch + 1
    again = topo.connect("tor0", "tor1", 400.0)
    assert again.link_id == link.link_id + 1
    assert (again.a.index, again.b.index) == (link.a.index + 1, link.b.index + 1)
    assert topo.structure_epoch == epoch + 2


def test_attach_wires_nic_port_to_new_down_port(topo):
    nic = topo.hosts["h0"].nic_for_rail(0)
    epoch = topo.structure_epoch
    link = topo.attach(nic.ports[1], "tor1", 200.0)
    assert link.a == nic.ports[1]
    down = topo.port(link.b)
    assert (link.b.node, down.kind) == ("tor1", PortKind.DOWN)
    assert topo.port(nic.ports[1]).link_id == down.link_id == link.link_id
    assert topo.structure_epoch == epoch + 1
    assert topo.tor_for_nic_port("h0", nic.index, 1) == "tor1"
    # the link runs at the slower end
    assert topo.attach(nic.ports[0], "tor0", 400.0).gbps == 200.0


@pytest.mark.parametrize("call", [
    lambda t: t.connect("nope", "tor1", 400.0),
    lambda t: t.connect("tor0", "nope", 400.0),
    lambda t: t.attach(t.hosts["h0"].nic_for_rail(0).ports[0], "nope", 200.0),
])
def test_connect_and_attach_refuse_unknown_nodes(topo, call):
    with pytest.raises(TopologyError, match="unknown node"):
        call(topo)
    assert not topo.links and topo.structure_epoch == 0


def test_attach_refuses_a_wired_nic_port(topo):
    nic = topo.hosts["h0"].nic_for_rail(0)
    topo.attach(nic.ports[0], "tor0", 200.0)
    with pytest.raises(TopologyError, match="already wired"):
        topo.attach(nic.ports[0], "tor1", 200.0)
    assert len(topo.links) == topo.structure_epoch == 1


def test_link_between_finds_parallel_links(topo):
    for _ in range(3):
        a = topo.alloc_port("tor0", 400.0, PortKind.UP)
        b = topo.alloc_port("tor1", 400.0, PortKind.DOWN)
        topo.wire(a.ref, b.ref)
    assert len(topo.link_between("tor0", "tor1")) == 3


def test_fail_and_recover_node(topo):
    a = topo.alloc_port("tor0", 400.0, PortKind.UP)
    b = topo.alloc_port("tor1", 400.0, PortKind.DOWN)
    link = topo.wire(a.ref, b.ref)
    failed = topo.fail_node("tor0")
    assert failed == [link.link_id]
    assert not topo.links[link.link_id].up
    assert not topo.switches["tor0"].up
    topo.recover_node("tor0")
    assert topo.links[link.link_id].up
    assert topo.switches["tor0"].up


def test_net_link_changes_keeps_odd_toggles(topo):
    links = [
        topo.wire(topo.alloc_port("tor0", 400.0, PortKind.UP).ref,
                  topo.alloc_port("tor1", 400.0, PortKind.DOWN).ref)
        for _ in range(3)
    ]
    once, twice, thrice = (link.link_id for link in links)
    since = topo.state_epoch
    # interleaved, so log order differs from id order
    for lid, up in [(thrice, False), (twice, False), (once, False),
                    (thrice, True), (twice, True), (thrice, False)]:
        topo.set_link_state(lid, up)
    assert topo.net_link_changes(since) == sorted([once, thrice])
    assert topo.net_link_changes(topo.state_epoch) == []
    # a later cursor sees only the transitions after it
    assert topo.net_link_changes(since + 3) == [twice]


def test_fail_node_rejects_hosts(topo):
    with pytest.raises(TopologyError):
        topo.fail_node("h0")


def test_alloc_port_on_unknown_node(topo):
    with pytest.raises(TopologyError):
        topo.alloc_port("nope", 100.0, PortKind.DOWN)


def test_gpu_count_excludes_backup():
    t = Topology()
    t.build_host("a", 0, 0, 0, num_gpus=8)
    t.build_host("b", 0, 0, 1, num_gpus=8, backup=True)
    assert t.gpu_count() == 8
    assert t.gpu_count(include_backup=True) == 16


def test_summary_counts(hpn_small):
    s = hpn_small.summary()
    assert s["gpus"] == 2 * 8 * 8
    assert s["switches"]["tor"] == 2 * 16
    assert s["switches"]["agg"] == 8


def test_link_other_raises_for_stranger(topo):
    a = topo.alloc_port("tor0", 400.0, PortKind.UP)
    b = topo.alloc_port("tor1", 400.0, PortKind.DOWN)
    link = topo.wire(a.ref, b.ref)
    with pytest.raises(ValueError):
        link.other("h0")


def test_to_networkx_roundtrip(hpn_small):
    g = hpn_small.to_networkx()
    assert g.number_of_nodes() == len(hpn_small.hosts) + len(hpn_small.switches)
    assert g.number_of_edges() == len(hpn_small.links)


def _tier_by_role(topo, link):
    """The label a link's end roles imply (independent of tier numbers)."""
    if link.a.node in topo.hosts or link.b.node in topo.hosts:
        return "access"
    roles = {topo.switches[link.a.node].role, topo.switches[link.b.node].role}
    if SwitchRole.CORE in roles:
        return "core"
    assert roles == {SwitchRole.TOR, SwitchRole.AGG}, roles
    return "agg"


@pytest.mark.parametrize("shape", ["hpn", "dcnplus"])
def test_link_tier_labels(shape, dcn_small):
    from repro.topos import HpnSpec, build_hpn

    if shape == "hpn":
        fabric = build_hpn(HpnSpec(
            pods=2, segments_per_pod=1, hosts_per_segment=2,
            backup_hosts_per_segment=0, gpus_per_host=1, aggs_per_plane=2,
            agg_core_uplinks=2, cores_per_plane=2,
        ))
    else:
        fabric = dcn_small
    labels = {}
    for lid, link in fabric.links.items():
        label = fabric.link_tier(lid)
        assert label == _tier_by_role(fabric, link), (lid, link)
        labels[label] = labels.get(label, 0) + 1
    assert set(labels) == {"access", "agg", "core"}


def test_link_tier_names_other_tiers(topo):
    a = topo.alloc_port("tor0", 400.0, PortKind.UP)
    b = topo.alloc_port("tor1", 400.0, PortKind.DOWN)
    assert topo.link_tier(topo.wire(a.ref, b.ref).link_id) == "tier1"
