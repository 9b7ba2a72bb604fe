"""The routing oracle: an uncached up/down ECMP walker and its campaign.

Production code routes through :class:`~repro.routing.cache.CachedRouter`.
The :class:`Router` here shares no routing code with it and walks a
flow hop by hop from the raw wiring, exactly as the deployed network
forwards it:

* at the source host, the flow egresses one NIC port -- this fixes the
  *plane* in HPN (the dual-plane property: the plane chosen at the NIC
  is the plane the packet rides end to end);
* at a ToR, traffic for a NIC directly attached goes straight down;
  anything else is hashed over the ToR's uplinks;
* at an aggregation switch, intra-pod traffic goes down towards the
  ToR(s) advertising the destination /32 (in HPN there is exactly one
  such ToR per plane -- the "path fully determined after the ToR uplink"
  property; in DCN+ both ToRs of the destination pair qualify, adding a
  third hash stage), cross-pod traffic is hashed up to the cores;
* at a core switch, traffic goes down towards the destination pod,
  selected either by 5-tuple hash or the paper's per-port deterministic
  hash (section 7).

Failures are honored by reading ``Link.up`` at walk time, which models
the BGP-converged state: a withdrawn /32 removes the dead ToR from the
down candidates, and a dead plane pushes the flow to the other NIC port.
The *pre*-convergence window (traffic still blackholed) is modeled by
:mod:`repro.access.bgp`.

:class:`RoutingEquivalence` compares the two routers query by query.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.entities import Link, Nic, Port, PortKind, Switch
from ..core.errors import RoutingError
from ..core.topology import Topology
from .cache import CachedRouter
from .fib import AccessLeg
from .hashing import FiveTuple, ecmp_index
from .path import FlowPath, encode_dirlink

#: safety bound on hop count (host-tor-agg-core-agg-tor-host = 6 links)
_MAX_HOPS = 10


class Router:
    """Uncached hop-by-hop ECMP walker for one topology (the oracle)."""

    def __init__(self, topo: Topology, per_port_core_hash: bool = True):
        self.topo = topo
        self.per_port_core_hash = per_port_core_hash
        #: >1 when the architecture physically isolates planes above tier 1
        self.planes: int = int(topo.meta.get("planes", 1))
        self.plane_isolated = self.planes > 1
        # per-NIC access-leg memo; legs are structural (usable reads
        # link.up live), so only a wiring change invalidates them
        self._legs_memo: Dict[Tuple[str, int], List[AccessLeg]] = {}
        self._legs_epoch: int = topo.structure_epoch

    # ------------------------------------------------------------------
    # The walker's adjacency index, built from the wiring on first read
    # after each wiring change.
    @cached_property
    def _adj(self) -> Dict[str, Dict[str, List[Tuple[Port, Link]]]]:
        """Per switch: peer -> ``[(local port, link)]``, in port order."""
        adj: Dict[str, Dict[str, List[Tuple[Port, Link]]]] = {}
        for name in self.topo.switches:
            peers: Dict[str, List[Tuple[Port, Link]]] = {}
            for port, link, peer in self.topo.neighbors(name):
                peers.setdefault(peer, []).append((port, link))
            adj[name] = peers
        return adj

    @cached_property
    def _up(self) -> Dict[str, List[Tuple[Port, Link, str]]]:
        """Per switch: ``[(port, link, peer)]`` of its wired uplinks."""
        up: Dict[str, List[Tuple[Port, Link, str]]] = {}
        for name in self.topo.switches:
            ups = []
            for port in self.topo.ports[name]:
                if port.kind is PortKind.UP and port.link_id is not None:
                    link = self.topo.links[port.link_id]
                    ups.append((port, link, link.other(name).node))
            up[name] = ups
        return up

    def _sync_wiring(self) -> None:
        """Drop the leg memo and the adjacency index once
        ``Topology.structure_epoch`` has moved: both capture wiring
        only (usability reads ``link.up`` live), so link flaps keep
        them. Every reader of either goes through this check."""
        if self._legs_epoch != self.topo.structure_epoch:
            self._legs_memo.clear()
            self.__dict__.pop("_adj", None)
            self.__dict__.pop("_up", None)
            self._legs_epoch = self.topo.structure_epoch

    # ------------------------------------------------------------------
    def access_legs(self, nic: Nic) -> List[AccessLeg]:
        """The wired access legs of a NIC, indexed by NIC port.

        Memoized per NIC until the wiring changes (:meth:`_sync_wiring`).
        """
        self._sync_wiring()
        key = (nic.host, nic.index)
        legs = self._legs_memo.get(key)
        if legs is not None:
            return legs
        legs = []
        for idx, pref in enumerate(nic.ports):
            port = self.topo.port(pref)
            if port.link_id is None:
                continue
            link = self.topo.links[port.link_id]
            legs.append(AccessLeg(idx, link, link.other(nic.host).node))
        self._legs_memo[key] = legs
        return legs

    def usable_planes(self, src_nic: Nic, dst_nic: Nic) -> List[int]:
        """NIC port indices that currently yield a deliverable path.

        In plane-isolated architectures both endpoints must use the same
        port index; otherwise the source leg only needs a live uplink
        side while the destination side is resolved mid-network.
        """
        src_legs = {l.port_index: l for l in self.access_legs(src_nic)}
        dst_legs = {l.port_index: l for l in self.access_legs(dst_nic)}
        out = []
        if self.plane_isolated:
            for idx, leg in sorted(src_legs.items()):
                dleg = dst_legs.get(idx)
                if leg.usable and dleg is not None and dleg.usable:
                    out.append(idx)
        else:
            any_dst_up = any(l.usable for l in dst_legs.values())
            if any_dst_up:
                out = [idx for idx, leg in sorted(src_legs.items()) if leg.usable]
        return out

    # ------------------------------------------------------------------
    def path_for(
        self,
        src_nic: Nic,
        dst_nic: Nic,
        ft: FiveTuple,
        plane: Optional[int] = None,
    ) -> FlowPath:
        """Compute the path a flow takes, honoring current link state.

        ``plane`` is the *preferred* source NIC port; if the preferred
        plane cannot deliver (failure), the other one is used -- the
        dual-ToR failover. Raises :class:`RoutingError` when the
        destination is unreachable.
        """
        if src_nic.host == dst_nic.host:
            raise RoutingError("intra-host traffic rides NVLink, not the fabric")
        usable = self.usable_planes(src_nic, dst_nic)
        if not usable:
            raise RoutingError(
                f"no usable plane from {src_nic.name} to {dst_nic.name}"
            )
        if plane is None:
            plane = usable[0]
        elif plane not in usable:
            plane = usable[0]  # dual-ToR failover to the surviving port
        return self._walk(src_nic, dst_nic, ft, plane)

    # ------------------------------------------------------------------
    def _walk(self, src_nic: Nic, dst_nic: Nic, ft: FiveTuple, plane: int) -> FlowPath:
        topo = self.topo
        src_host = src_nic.host
        dst_host = dst_nic.host
        dst = topo.hosts[dst_host]
        dst_rail = dst_nic.rail

        # destination access legs, keyed by serving ToR
        dst_by_tor: Dict[str, AccessLeg] = {
            leg.tor: leg for leg in self.access_legs(dst_nic) if leg.usable
        }
        if not dst_by_tor:
            raise RoutingError(f"{dst_nic.name} has no live access link")
        if self.plane_isolated:
            dst_by_tor = {
                tor: leg for tor, leg in dst_by_tor.items() if leg.port_index == plane
            }
            if not dst_by_tor:
                raise RoutingError(
                    f"{dst_nic.name} unreachable on plane {plane}"
                )

        src_leg = next(
            (l for l in self.access_legs(src_nic) if l.port_index == plane and l.usable),
            None,
        )
        if src_leg is None:
            raise RoutingError(f"{src_nic.name} port {plane} is down")

        path = FlowPath(nodes=[src_host], plane=plane if self.plane_isolated else None)
        path.dirlinks.append(encode_dirlink(src_leg.link, src_host))
        cur = src_leg.tor
        path.nodes.append(cur)
        ingress_port_index = self._far_port_index(src_leg.link, cur)

        for _ in range(_MAX_HOPS):
            if cur in dst_by_tor:
                leg = dst_by_tor[cur]
                path.dirlinks.append(encode_dirlink(leg.link, cur))
                path.nodes.append(dst_host)
                return path
            sw = topo.switches[cur]
            candidates = self._candidates(sw, dst, dst_rail, dst_by_tor)
            if not candidates:
                raise RoutingError(
                    f"{cur} has no live candidate towards {dst_nic.name}"
                )
            port, link = self._select(sw, candidates, ft, dst.pod, ingress_port_index)
            path.dirlinks.append(encode_dirlink(link, cur))
            cur = link.other(cur).node
            path.nodes.append(cur)
            ingress_port_index = self._far_port_index(link, cur)
        raise RoutingError("hop limit exceeded (routing loop?)")

    # ------------------------------------------------------------------
    def _candidates(
        self,
        sw: Switch,
        dst,
        dst_rail: int,
        dst_by_tor: Dict[str, AccessLeg],
    ) -> List[Tuple[Port, Link]]:
        """Live (port, link) options at ``sw`` towards the destination."""
        self._sync_wiring()
        if sw.tier == 1:
            # rail-only fabrics cannot carry cross-rail traffic at all
            if (
                self.topo.meta.get("architecture") == "railonly"
                and sw.rail is not None
                and dst_rail is not None
                and sw.rail != dst_rail
            ):
                raise RoutingError(
                    f"rail-only fabric: rail {sw.rail} cannot reach rail {dst_rail}"
                )
            return self._live_ups(sw.name)
        if sw.tier == 2:
            if sw.pod == dst.pod:
                out: List[Tuple[Port, Link]] = []
                for tor in dst_by_tor:
                    for port, link in self._adj[sw.name].get(tor, ()):
                        if link.up:
                            out.append((port, link))
                return out
            return self._live_ups(sw.name)
        if sw.tier == 3:
            out = []
            for peer, plist in self._adj[sw.name].items():
                peer_sw = self.topo.switches.get(peer)
                if peer_sw is None or peer_sw.pod != dst.pod:
                    continue
                if (
                    self.plane_isolated
                    and sw.plane is not None
                    and peer_sw.plane != sw.plane
                ):
                    continue
                for port, link in plist:
                    if link.up:
                        out.append((port, link))
            return out
        raise RoutingError(f"unexpected tier {sw.tier} at {sw.name}")

    def _live_ups(self, name: str) -> List[Tuple[Port, Link]]:
        return [(p, l) for p, l, _peer in self._up[name] if l.up]

    def _select(
        self,
        sw: Switch,
        candidates: Sequence[Tuple[Port, Link]],
        ft: FiveTuple,
        dst_pod: int,
        ingress_port_index: int,
    ) -> Tuple[Port, Link]:
        if sw.tier == 3 and self.per_port_core_hash:
            # section 7: egress is a function of (ingress port, dst pod)
            # only -- 5-tuple irrelevant -- which kills core polarization.
            idx = (ingress_port_index + dst_pod) % len(candidates)
            return candidates[idx]
        idx = ecmp_index(ft, sw.hash_seed, len(candidates))
        return candidates[idx]

    @staticmethod
    def _far_port_index(link: Link, node: str) -> int:
        """Index of the port on ``node``'s side of ``link``."""
        if link.a.node == node:
            return link.a.index
        return link.b.index

    # ------------------------------------------------------------------
    def count_equal_paths(self, src_nic: Nic, dst_nic: Nic, plane: int = 0) -> int:
        """Number of distinct up/down paths available to one flow.

        This is the search space an ideal path-selection scheme must
        explore (paper Table 1): the product of candidate-set sizes at
        every hash stage, enumerated by DFS over actual candidates.
        """
        dst = self.topo.hosts[dst_nic.host]
        dst_by_tor = {
            leg.tor: leg for leg in self.access_legs(dst_nic) if leg.usable
        }
        if self.plane_isolated:
            dst_by_tor = {
                t: l for t, l in dst_by_tor.items() if l.port_index == plane
            }
        legs = [
            l for l in self.access_legs(src_nic) if l.port_index == plane and l.usable
        ]
        if not legs or not dst_by_tor:
            return 0

        def dfs(node: str, depth: int) -> int:
            if node in dst_by_tor:
                return 1
            if depth > _MAX_HOPS:
                return 0
            try:
                pairs = self._candidates(
                    self.topo.switches[node], dst, dst_nic.rail, dst_by_tor
                )
            except RoutingError:
                return 0
            total = 0
            for _port, link in pairs:
                total += dfs(link.other(node).node, depth + 1)
            return total

        return sum(dfs(leg.tor, 0) for leg in legs)


# ----------------------------------------------------------------------
# differential campaign: the production router against this walker
# ----------------------------------------------------------------------
#: queries per fabric in a campaign's pool, drawn once per campaign
_QUERY_POOL = 48


def _query(router, src: Nic, dst: Nic, ft: FiveTuple,
           plane: Optional[int]) -> Tuple[Any, ...]:
    """One routed query's outcome, comparable byte for byte."""
    try:
        p = router.path_for(src, dst, ft, plane)
        return ("ok", tuple(p.nodes), tuple(p.dirlinks), p.plane)
    except RoutingError as err:
        return ("err", str(err))


class RoutingEquivalence:
    """Randomized cached-vs-oracle campaign over three architectures.

    A seeded failure/repair campaign (same pattern as the simulator's
    :class:`~repro.fabric.oracle.SolverEquivalence`): every query must
    produce a byte-identical ``FlowPath`` -- or the identical
    ``RoutingError`` message -- from :class:`~repro.routing.cache.CachedRouter`
    and from the uncached :class:`Router`, under arbitrary link flips,
    switch failures and recoveries, across the HPN, DCN+ and rail-only
    architectures.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed

    def _fabrics(self) -> List[Tuple[str, Topology]]:
        from ..topos import (
            DcnPlusSpec,
            HpnSpec,
            RailOnlySpec,
            build_dcnplus,
            build_hpn,
            build_railonly,
        )

        return [
            ("hpn", build_hpn(HpnSpec(
                segments_per_pod=2, hosts_per_segment=8,
                backup_hosts_per_segment=0, aggs_per_plane=4,
            ))),
            ("dcnplus", build_dcnplus(DcnPlusSpec(
                pods=2, segments_per_pod=2, hosts_per_segment=6,
            ))),
            ("railonly", build_railonly(RailOnlySpec(
                segments_per_pod=2, hosts_per_segment=6,
            ))),
        ]

    def run_random(self, cases: int = 50,
                   queries_per_case: int = 25) -> Dict[str, Any]:
        """Run ``cases`` randomized failure/repair cases; returns a report.

        Each case mutates one fabric (link flips, or a switch
        failure/recovery) and compares every query outcome. Queries are
        drawn from a pool of 48 per fabric, fixed once per campaign, so
        the cached routers mostly answer from memory: invalidation --
        not a cold cache -- is what keeps them honest, and an entry a
        flap should have dropped shows up as a mismatch.
        ``recover_node`` cases are the stale-cache regression the
        paper's dual-ToR failover makes dangerous.
        """
        rng = random.Random(self.seed)
        fabrics = self._fabrics()
        oracles = {name: Router(topo) for name, topo in fabrics}
        cached = {name: CachedRouter(topo) for name, topo in fabrics}
        pools: Dict[str, List[Tuple[Nic, Nic, FiveTuple, Any]]] = {}
        for name, topo in fabrics:
            hosts = [h for h in topo.hosts.values() if not h.backup]
            pool = pools[name] = []
            for _ in range(_QUERY_POOL):
                a, b = rng.sample(hosts, 2)
                src = rng.choice(a.backend_nics())
                dst = rng.choice(b.backend_nics())
                plane = rng.choice([None, 0, 1])
                ft = FiveTuple(src.ip, dst.ip, 49152 + rng.randrange(4096), 4791)
                pool.append((src, dst, ft, plane))
        mismatches: List[str] = []
        checked = 0
        for case in range(cases):
            name, topo = fabrics[rng.randrange(len(fabrics))]
            # mutate: mostly link flips, sometimes a whole-switch event
            roll = rng.random()
            if roll < 0.2 and topo.switches:
                victim = rng.choice(sorted(topo.switches))
                if topo.switches[victim].up:
                    topo.fail_node(victim)
                else:
                    topo.recover_node(victim)
            else:
                for _ in range(rng.randint(1, 3)):
                    lid = rng.choice(list(topo.links))
                    topo.set_link_state(lid, rng.random() < 0.5)
            for q in range(queries_per_case):
                src, dst, ft, plane = rng.choice(pools[name])
                want = _query(oracles[name], src, dst, ft, plane)
                got = _query(cached[name], src, dst, ft, plane)
                checked += 1
                if want != got:
                    mismatches.append(
                        f"{name} case {case} query {q}: {src.name}->"
                        f"{dst.name} plane={plane}: oracle={want!r} "
                        f"cached={got!r}"
                    )
        stats = {name: r.stats.as_dict() for name, r in cached.items()}
        return {
            "ok": not mismatches,
            "cases": cases,
            "checked": checked,
            "mismatches": mismatches[:10],
            "mismatch_count": len(mismatches),
            "cache_stats": stats,
        }
