"""Compiled per-switch forwarding tables (FIB).

At pod scale a collective issues tens of thousands of ``path_for``
calls per step, all walking the same handful of switches, so the
candidate *structure* -- which links could ever carry traffic towards a
destination class -- is worth compiling once per wiring
(``Topology.structure_epoch``) and filtering by live ``Link.up`` state
at walk time. A :class:`Fib` is :class:`~repro.routing.cache.CachedRouter`'s
one snapshot of the wiring: its switch tables, its per-NIC access-leg
table (:meth:`Fib.access_legs`) and the structure epoch both were
compiled at.

Destination classes per tier mirror the deployed Clos forwarding
state (paper section 6):

* **tier 1 (ToR)** -- traffic for an attached NIC goes straight down
  (handled by the walker via the destination's access legs); everything
  else is hashed over the compiled uplink set. Rail-only fabrics refuse
  cross-rail traffic here.
* **tier 2 (Agg)** -- intra-pod traffic goes down towards the ToR(s)
  advertising the destination /32 (compiled per-ToR down groups);
  cross-pod traffic is hashed over the compiled core uplink set.
* **tier 3 (Core)** -- traffic goes down towards the destination pod
  (compiled per-pod down groups, plane-filtered at compile time in
  plane-isolated architectures since a core never crosses planes).

A compiled group is a tuple of links. Candidate ordering is
byte-compatible with the uncached oracle walker
(:class:`repro.routing.ecmp.Router`): uplink sets are in port order,
per-ToR groups are per-peer port-order lists, and per-pod groups
concatenate peers in first-appearance (port) order. This matters
because ECMP selection is an index into the candidate list -- a
reordered list is a different path.

Every compiled group also carries a *token*, a negative int that never
collides with a link id, so the router can record, per routed flow,
which groups it *examined* (not just which links it traversed) with
one key per group, however wide the group. That dependency set is
what makes precise cache invalidation correct: a link coming back up
can grow a candidate set and shift the ECMP index of a flow that never
crossed it. :meth:`Fib.dependents` maps changed links to the tokens of
the groups that hold them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core.entities import Host, Link, Nic, PortKind, Switch
from ..core.errors import RoutingError
from ..core.topology import Topology

#: one compiled candidate group: its links, and its dependency token
Group = Tuple[Tuple[Link, ...], int]

#: a group with no member: no link state can grow it (only a rewiring,
#: which recompiles the FIB), so no link maps to its token
_EMPTY_GROUP: Group = ((), -1)


@dataclass
class AccessLeg:
    """One access link of a NIC: the port index, the link and the ToR."""

    port_index: int
    link: Link
    tor: str

    @property
    def usable(self) -> bool:
        return self.link.up


class SwitchFib:
    """Compiled forwarding state of one switch."""

    __slots__ = (
        "switch", "name", "tier", "pod", "plane", "rail",
        "ups", "down_by_tor", "down_by_pod",
    )

    def __init__(self, switch: Switch):
        self.switch = switch
        self.name = switch.name
        self.tier = switch.tier
        self.pod = switch.pod
        self.plane = switch.plane
        self.rail = switch.rail
        #: uplink candidates in port order (tier 1, tier-2 cross-pod)
        self.ups: Group = _EMPTY_GROUP
        #: tier 2: down candidates towards one ToR, per-peer port order
        self.down_by_tor: Dict[str, Group] = {}
        #: tier 3: down candidates towards one pod, peers in
        #: first-appearance order, plane-filtered at compile time
        self.down_by_pod: Dict[int, Group] = {}


class Fib:
    """Per-switch compiled candidate tables for one wiring epoch."""

    def __init__(self, topo: Topology, plane_isolated: bool):
        self.topo = topo
        self.plane_isolated = plane_isolated
        #: the wiring this FIB was compiled against
        self.structure_epoch = topo.structure_epoch
        self.railonly = topo.meta.get("architecture") == "railonly"
        self.switches: Dict[str, SwitchFib] = {}
        #: ``(host, NIC index)`` -> its wired access legs, filled on a
        #: NIC's first lookup; legs are wiring (``usable`` reads
        #: ``Link.up`` live), so link flaps keep them
        self.legs: Dict[Tuple[str, int], List[AccessLeg]] = {}
        #: link id -> tokens of the compiled groups holding that link
        self._tokens: Dict[int, Tuple[int, ...]] = {}
        self._next_token = _EMPTY_GROUP[1] - 1
        self._compile()

    # ------------------------------------------------------------------
    def _group(self, links: List[Link]) -> Group:
        """Compile ``links`` into a group with a fresh token."""
        if not links:
            return _EMPTY_GROUP
        token = self._next_token
        self._next_token -= 1
        tokens = self._tokens
        for link in links:
            lid = link.link_id
            tokens[lid] = tokens.get(lid, ()) + (token,)
        return tuple(links), token

    def _peer_links(self, name: str) -> Dict[str, List[Link]]:
        """``name``'s links per peer, peers in first-appearance order and
        links in port order -- the shape of the oracle's ``Router._adj``,
        so candidate order matches."""
        adj: Dict[str, List[Link]] = {}
        for _port, link, peer in self.topo.neighbors(name):
            adj.setdefault(peer, []).append(link)
        return adj

    def _compile(self) -> None:
        topo = self.topo
        for name, sw in topo.switches.items():
            entry = SwitchFib(sw)
            entry.ups = self._group([
                topo.links[port.link_id]
                for port in topo.ports[name]
                if port.kind is PortKind.UP and port.link_id is not None
            ])
            if sw.tier == 2:
                for peer, links in self._peer_links(name).items():
                    if peer in topo.switches and topo.switches[peer].tier == 1:
                        entry.down_by_tor[peer] = self._group(links)
            elif sw.tier == 3:
                by_pod: Dict[int, List[Link]] = {}
                for peer, links in self._peer_links(name).items():
                    peer_sw = topo.switches.get(peer)
                    if peer_sw is None or peer_sw.pod is None:
                        continue
                    if (
                        self.plane_isolated
                        and sw.plane is not None
                        and peer_sw.plane != sw.plane
                    ):
                        continue
                    by_pod.setdefault(peer_sw.pod, []).extend(links)
                entry.down_by_pod = {
                    pod: self._group(links) for pod, links in by_pod.items()
                }
            self.switches[name] = entry

    def access_legs(self, nic: Nic) -> List[AccessLeg]:
        """The wired access legs of a NIC, in NIC port order."""
        key = (nic.host, nic.index)
        legs = self.legs.get(key)
        if legs is None:
            topo = self.topo
            legs = []
            for idx, pref in enumerate(nic.ports):
                port = topo.port(pref)
                if port.link_id is None:
                    continue
                link = topo.links[port.link_id]
                legs.append(AccessLeg(idx, link, link.other(nic.host).node))
            self.legs[key] = legs
        return legs

    def dependents(self, changed: Iterable[int]) -> Set[int]:
        """``changed`` link ids plus the tokens of every group holding one.

        A cached route filed under a link id or a group token must be
        dropped when any of these changes state.
        """
        out: Set[int] = set()
        tokens = self._tokens
        for lid in changed:
            out.add(lid)
            out.update(tokens.get(lid, ()))
        return out

    # ------------------------------------------------------------------
    def candidates(
        self,
        entry: SwitchFib,
        dst: Host,
        dst_rail: Optional[int],
        dst_tors: Dict[str, object],
        deps: Set[int],
    ) -> List[Link]:
        """Live candidate links at ``entry`` towards the destination.

        Indexes the compiled tables (the oracle ``Router._candidates``
        scans adjacency dicts instead) and adds the token of every
        *examined* group to ``deps`` (the cache entry's invalidation
        set).
        """
        tier = entry.tier
        if tier == 1:
            if (
                self.railonly
                and entry.rail is not None
                and dst_rail is not None
                and entry.rail != dst_rail
            ):
                raise RoutingError(
                    f"rail-only fabric: rail {entry.rail} cannot reach "
                    f"rail {dst_rail}"
                )
            links, token = entry.ups
            deps.add(token)
            return [link for link in links if link.up]
        if tier == 2:
            if entry.pod == dst.pod:
                out: List[Link] = []
                for tor in dst_tors:
                    links, token = entry.down_by_tor.get(tor, _EMPTY_GROUP)
                    deps.add(token)
                    out.extend(link for link in links if link.up)
                return out
            links, token = entry.ups
            deps.add(token)
            return [link for link in links if link.up]
        if tier == 3:
            links, token = entry.down_by_pod.get(dst.pod, _EMPTY_GROUP)
            deps.add(token)
            return [link for link in links if link.up]
        raise RoutingError(f"unexpected tier {tier} at {entry.name}")
