"""Equal-cost paths against an oracle that shares no router code.

``count_equal_paths`` is Table 1's measured search space: how many
distinct up/down paths one flow may take. Both routers answer it from
their own candidate sets -- the uncached walker from its adjacency
index, :class:`CachedRouter` from its compiled FIB -- and they share
the access-leg and plane logic, so agreeing with each other proves
little. :func:`updown_paths` enumerates the same paths from the raw
``topo.links`` and the up/down rule alone, on seven fabrics, healthy
and with interior links down: both routers count exactly as many, and
every path either one routes is one of them.
"""

from __future__ import annotations

import random

import pytest

from repro.core.errors import RoutingError
from repro.routing import CachedRouter, FiveTuple, Router
from repro.topos import (
    HpnSpec,
    RailOnlySpec,
    ThreeTierSpec,
    build_dcnplus,
    build_hpn,
    build_jupiter_like,
    build_railonly,
    build_superpod_like,
    build_threetier,
)

from .conftest import SMALL_DCN


def _dirlink(link, from_node):
    return 2 * link.link_id + (0 if link.a.node == from_node else 1)


def updown_paths(topo, src_nic, dst_nic, plane):
    """Up-then-down shortest link sequences from ``src_nic`` to ``dst_nic``.

    A path is the tuple of directed link ids it crosses up to the ToR
    that delivers to the destination NIC, access link first. It leaves
    the source on NIC port ``plane`` over a live link, crosses only
    live switch-to-switch links, never climbs after descending nor
    moves within a tier, takes as many hops as the shortest switch
    path between its two ToRs in the healthy fabric, and ends at a ToR
    holding a live leg of the destination NIC (on port ``plane`` too
    when the fabric has more than one plane).
    """
    link_at = {}
    peers = {name: [] for name in topo.switches}
    for link in topo.links.values():
        link_at[link.a] = link
        link_at[link.b] = link
        a, b = link.a.node, link.b.node
        if a in topo.switches and b in topo.switches:
            peers[a].append((link, b))
            peers[b].append((link, a))

    def far_end(link, node):
        return link.b.node if link.a.node == node else link.a.node

    if plane >= len(src_nic.ports):
        return []
    src_link = link_at.get(src_nic.ports[plane])
    if src_link is None or not src_link.up:
        return []
    src_tor = far_end(src_link, src_nic.host)
    isolated = int(topo.meta.get("planes", 1)) > 1
    dst_tors = set()
    for index, ref in enumerate(dst_nic.ports):
        link = link_at.get(ref)
        if link is not None and link.up and (index == plane or not isolated):
            dst_tors.add(far_end(link, dst_nic.host))
    if not dst_tors:
        return []

    # hop budget: breadth-first over every switch link, up or down
    hops, frontier, seen = 0, {src_tor}, {src_tor}
    while not frontier & dst_tors:
        frontier = {
            peer for node in frontier for _link, peer in peers[node]
        } - seen
        if not frontier:
            return []
        seen |= frontier
        hops += 1

    tier = {name: sw.tier for name, sw in topo.switches.items()}

    def walk(node, left, descending, prefix):
        if not left:
            if node in dst_tors:
                yield prefix
            return
        for link, peer in peers[node]:
            if not link.up or tier[peer] == tier[node]:
                continue
            climbing = tier[peer] > tier[node]
            if climbing and descending:
                continue
            yield from walk(peer, left - 1, not climbing,
                            prefix + (_dirlink(link, node),))

    return list(walk(src_tor, hops, False,
                     (_dirlink(src_link, src_nic.host),)))


FABRICS = {
    "hpn-1pod": lambda: build_hpn(HpnSpec(
        segments_per_pod=2, hosts_per_segment=4,
        backup_hosts_per_segment=0, aggs_per_plane=4,
    )),
    "hpn-2pod-cores": lambda: build_hpn(HpnSpec(
        pods=2, segments_per_pod=2, hosts_per_segment=4,
        backup_hosts_per_segment=0, aggs_per_plane=4,
        agg_core_uplinks=2, cores_per_plane=4,
    )),
    "dcnplus": lambda: build_dcnplus(SMALL_DCN),
    "railonly": lambda: build_railonly(RailOnlySpec(
        segments_per_pod=2, hosts_per_segment=4, aggs_per_plane=2,
    )),
    "threetier": lambda: build_threetier(ThreeTierSpec(cores=4)),
    "superpod": build_superpod_like,
    "jupiter": build_jupiter_like,
}


@pytest.mark.parametrize("name", sorted(FABRICS))
def test_both_routers_count_what_the_oracle_counts(name):
    topo = FABRICS[name]()
    rng = random.Random(f"path-count/{name}")
    routers = (Router(topo), CachedRouter(topo))
    hosts = sorted(topo.active_hosts(), key=lambda h: h.name)
    interior = sorted(
        lid for lid, link in topo.links.items()
        if link.a.node in topo.switches and link.b.node in topo.switches
    )
    counts = []
    # one healthy case, then five with three interior links down
    for case in range(6):
        with topo.transient_state():
            if case:
                for lid in rng.sample(interior, 3):
                    topo.set_link_state(lid, False)
            for _ in range(30):
                a, b = rng.sample(hosts, 2)
                src = rng.choice(a.backend_nics())
                dst = rng.choice(b.backend_nics())
                plane = rng.choice((0, 1))
                want = len(updown_paths(topo, src, dst, plane))
                got = [r.count_equal_paths(src, dst, plane) for r in routers]
                assert got == [want, want], (case, src.name, dst.name, plane)
                counts.append(want)
    # not vacuous: some pair has several paths (rail-only fabrics
    # refuse most random pairs, which cross rails, so many count 0)
    assert max(counts) > 1


def _port_index(topo, nic, dirlink):
    """The NIC port ``dirlink``'s link is wired to, or None."""
    link = topo.links[dirlink // 2]
    for index, ref in enumerate(nic.ports):
        if ref in (link.a, link.b):
            return index
    return None


@pytest.mark.parametrize("name", sorted(FABRICS))
def test_routed_paths_are_updown_shortest_paths(name):
    """Every path either router returns is one :func:`updown_paths`
    enumerates for the NIC port it leaves on, and it reaches the
    destination over a live leg. On plane-isolated fabrics (HPN, and
    rail-only per arXiv 2307.12169) all of a path's switches share one
    plane (§6)."""
    topo = FABRICS[name]()
    rng = random.Random(f"path-set/{name}")
    routers = (Router(topo), CachedRouter(topo))
    isolated = int(topo.meta.get("planes", 1)) > 1
    hosts = sorted(topo.active_hosts(), key=lambda h: h.name)
    interior = sorted(
        lid for lid, link in topo.links.items()
        if link.a.node in topo.switches and link.b.node in topo.switches
    )
    widest = 0
    # one healthy case, then five with three interior links down
    for case in range(6):
        with topo.transient_state():
            if case:
                for lid in rng.sample(interior, 3):
                    topo.set_link_state(lid, False)
            for _ in range(30):
                a, b = rng.sample(hosts, 2)
                src = rng.choice(a.backend_nics())
                dst = rng.choice(b.backend_nics())
                plane = rng.choice((0, 1))
                ft = FiveTuple(src.ip, dst.ip, rng.randrange(49152, 65536),
                               4791)
                for router in routers:
                    try:
                        path = router.path_for(src, dst, ft, plane=plane)
                    except RoutingError:
                        continue
                    port = _port_index(topo, src, path.dirlinks[0])
                    allowed = updown_paths(topo, src, dst, port)
                    assert tuple(path.dirlinks[:-1]) in allowed, (
                        case, src.name, dst.name, port, path.nodes)
                    leg = path.dirlinks[-1]
                    dst_port = _port_index(topo, dst, leg)
                    assert dst_port is not None and topo.links[leg // 2].up
                    if isolated:
                        assert dst_port == port
                        planes = {topo.switches[node].plane
                                  for node in path.switch_nodes()}
                        assert len(planes) == 1, (path.nodes, planes)
                    widest = max(widest, len(allowed))
    # not vacuous: some routed flow had several paths to choose from
    assert widest > 1
