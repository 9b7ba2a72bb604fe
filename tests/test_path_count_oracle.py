"""Equal-cost path counts against an oracle that shares no router code.

``count_equal_paths`` is Table 1's measured search space: how many
distinct up/down paths one flow may take. Both routers answer it from
their own candidate sets -- the uncached walker from its adjacency
index, :class:`CachedRouter` from its compiled FIB -- and they share
the access-leg and plane logic, so agreeing with each other proves
little. :func:`count_updown_paths` counts the same paths from the raw
``topo.links`` and the up/down rule alone, on seven fabrics, healthy
and with interior links down.
"""

from __future__ import annotations

import random

import pytest

from repro.routing import CachedRouter, Router
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


def count_updown_paths(topo, src_nic, dst_nic, plane):
    """Up-then-down shortest switch paths from ``src_nic`` to ``dst_nic``.

    A counted path leaves the source on NIC port ``plane`` over a live
    link, crosses only live switch-to-switch links, never climbs after
    descending nor moves within a tier, takes as many hops as the
    shortest switch path between its two ToRs in the healthy fabric,
    and ends at a ToR holding a live leg of the destination NIC (on
    port ``plane`` too when the fabric has more than one plane).
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
        return 0
    src_link = link_at.get(src_nic.ports[plane])
    if src_link is None or not src_link.up:
        return 0
    src_tor = far_end(src_link, src_nic.host)
    isolated = int(topo.meta.get("planes", 1)) > 1
    dst_tors = set()
    for index, ref in enumerate(dst_nic.ports):
        link = link_at.get(ref)
        if link is not None and link.up and (index == plane or not isolated):
            dst_tors.add(far_end(link, dst_nic.host))
    if not dst_tors:
        return 0

    # hop budget: breadth-first over every switch link, up or down
    hops, frontier, seen = 0, {src_tor}, {src_tor}
    while not frontier & dst_tors:
        frontier = {
            peer for node in frontier for _link, peer in peers[node]
        } - seen
        if not frontier:
            return 0
        seen |= frontier
        hops += 1

    tier = {name: sw.tier for name, sw in topo.switches.items()}

    def walk(node, left, descending):
        if not left:
            return 1 if node in dst_tors else 0
        total = 0
        for link, peer in peers[node]:
            if not link.up or tier[peer] == tier[node]:
                continue
            climbing = tier[peer] > tier[node]
            if climbing and descending:
                continue
            total += walk(peer, left - 1, not climbing)
        return total

    return walk(src_tor, hops, False)


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
                want = count_updown_paths(topo, src, dst, plane)
                got = [r.count_equal_paths(src, dst, plane) for r in routers]
                assert got == [want, want], (case, src.name, dst.name, plane)
                counts.append(want)
    # not vacuous: some pair has several paths (rail-only fabrics
    # refuse most random pairs, which cross rails, so many count 0)
    assert max(counts) > 1
