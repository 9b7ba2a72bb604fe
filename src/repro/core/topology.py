"""Topology container.

A :class:`Topology` owns all hosts, switches, ports and links of one
network (backend or frontend), provides wiring primitives for the
builders in :mod:`repro.topos`, and answers the structural queries used
by routing and the fluid simulator.

The container deliberately stores adjacency in plain dictionaries rather
than a general graph library: route computation in a Clos exploits tier
structure (up/down) and never needs generic shortest paths. An export to
:mod:`networkx` is provided for analysis and visualization.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from .entities import (
    Gpu,
    Host,
    Link,
    Nic,
    NodeKind,
    Port,
    PortKind,
    PortRef,
    Switch,
    SwitchRole,
)
from .errors import TopologyError

Node = Union[Host, Switch]

#: link tier label by the higher switch tier on the link
_TIER_LABELS = {2: "agg", 3: "core"}


@dataclass
class Topology:
    """Mutable network topology with typed nodes."""

    name: str = "topology"
    hosts: Dict[str, Host] = field(default_factory=dict)
    switches: Dict[str, Switch] = field(default_factory=dict)
    links: Dict[int, Link] = field(default_factory=dict)
    #: ports per node: node name -> list of Port (index == position)
    ports: Dict[str, List[Port]] = field(default_factory=dict)
    _next_link_id: int = 0
    #: free-form metadata recorded by builders (spec echo, plane count...)
    meta: Dict[str, object] = field(default_factory=dict)
    #: monotonic link-state epoch: one bump per actual up/down transition
    #: (``set_link_state``/``fail_node``/``recover_node``); consumers such
    #: as the route cache diff against it to invalidate precisely
    state_epoch: int = 0
    #: monotonic wiring epoch: bumped whenever links/ports are added or
    #: re-terminated; compiled forwarding state (FIBs, access-leg maps)
    #: must be rebuilt when it moves
    structure_epoch: int = 0
    #: link id per state transition, in epoch order (len == state_epoch)
    _state_log: List[int] = field(default_factory=list)

    # ------------------------------------------------------------------
    # node management
    # ------------------------------------------------------------------
    def add_host(self, host: Host) -> Host:
        if host.name in self.hosts or host.name in self.switches:
            raise TopologyError(f"duplicate node name {host.name!r}")
        self.hosts[host.name] = host
        self.ports.setdefault(host.name, [])
        return host

    def add_switch(self, switch: Switch) -> Switch:
        if switch.name in self.switches or switch.name in self.hosts:
            raise TopologyError(f"duplicate node name {switch.name!r}")
        self.switches[switch.name] = switch
        self.ports.setdefault(switch.name, [])
        return switch

    def node(self, name: str) -> Node:
        if name in self.hosts:
            return self.hosts[name]
        if name in self.switches:
            return self.switches[name]
        raise KeyError(f"unknown node {name!r}")

    def has_node(self, name: str) -> bool:
        return name in self.hosts or name in self.switches

    def nodes(self) -> Iterator[Node]:
        yield from self.hosts.values()
        yield from self.switches.values()

    # ------------------------------------------------------------------
    # ports & links
    # ------------------------------------------------------------------
    def alloc_port(
        self,
        node: str,
        gbps: float,
        kind: PortKind,
        nic_index: Optional[int] = None,
        nic_port: Optional[int] = None,
    ) -> Port:
        """Create a new port on ``node`` and return it."""
        if not self.has_node(node):
            raise TopologyError(f"cannot allocate port on unknown node {node!r}")
        plist = self.ports[node]
        port = Port(
            ref=PortRef(node, len(plist)),
            gbps=gbps,
            kind=kind,
            nic_index=nic_index,
            nic_port=nic_port,
        )
        plist.append(port)
        return port

    def port(self, ref: PortRef) -> Port:
        return self.ports[ref.node][ref.index]

    def wire(self, a: PortRef, b: PortRef, gbps: Optional[float] = None) -> Link:
        """Connect two free ports with a full-duplex link."""
        pa, pb = self.port(a), self.port(b)
        if pa.connected or pb.connected:
            raise TopologyError(f"port already wired: {a if pa.connected else b}")
        rate = gbps if gbps is not None else min(pa.gbps, pb.gbps)
        if rate > min(pa.gbps, pb.gbps):
            raise TopologyError(
                f"link rate {rate} exceeds port speed on {a}<->{b}"
            )
        link = Link(self._next_link_id, a, b, rate)
        self.links[link.link_id] = link
        pa.link_id = link.link_id
        pb.link_id = link.link_id
        self._next_link_id += 1
        self.structure_epoch += 1
        return link

    def link_between(self, node_a: str, node_b: str) -> List[Link]:
        """All (possibly parallel) links between two nodes."""
        out = []
        for link in self.links.values():
            ends = {link.a.node, link.b.node}
            if ends == {node_a, node_b}:
                out.append(link)
        return out

    def neighbors(self, node: str) -> Iterator[Tuple[Port, Link, str]]:
        """Yield ``(local port, link, peer node name)`` for each wired port."""
        for port in self.ports[node]:
            if port.link_id is None:
                continue
            link = self.links[port.link_id]
            yield port, link, link.other(node).node

    def up_ports(self, switch: str) -> List[Port]:
        return [p for p in self.ports[switch] if p.kind is PortKind.UP and p.connected]

    def down_ports(self, switch: str) -> List[Port]:
        return [p for p in self.ports[switch] if p.kind is PortKind.DOWN and p.connected]

    # ------------------------------------------------------------------
    # host construction helper
    # ------------------------------------------------------------------
    def build_host(
        self,
        name: str,
        pod: int,
        segment: int,
        index: int,
        num_gpus: int = 8,
        nic_gbps: float = 200.0,
        with_frontend_nic: bool = True,
        nvlink_gbps: float = 3200.0,
        backup: bool = False,
    ) -> Host:
        """Create a host with its GPUs, NICs and NIC ports (unwired)."""
        host = self.add_host(
            Host(
                name=name,
                pod=pod,
                segment=segment,
                index=index,
                nvlink_gbps=nvlink_gbps,
                backup=backup,
            )
        )
        host.gpus = [Gpu(host=name, rail=r) for r in range(num_gpus)]
        nic_index = 0
        if with_frontend_nic:
            fe = Nic(host=name, index=nic_index, rail=-1)
            p0 = self.alloc_port(name, nic_gbps, PortKind.HOST, nic_index, 0)
            p1 = self.alloc_port(name, nic_gbps, PortKind.HOST, nic_index, 1)
            fe.ports = (p0.ref, p1.ref)
            host.nics.append(fe)
            nic_index += 1
        for rail in range(num_gpus):
            nic = Nic(host=name, index=nic_index, rail=rail)
            p0 = self.alloc_port(name, nic_gbps, PortKind.HOST, nic_index, 0)
            p1 = self.alloc_port(name, nic_gbps, PortKind.HOST, nic_index, 1)
            nic.ports = (p0.ref, p1.ref)
            host.nics.append(nic)
            nic_index += 1
        return host

    # ------------------------------------------------------------------
    # structural queries
    # ------------------------------------------------------------------
    def tors_of_host(self, host: str) -> List[str]:
        """All distinct ToR switches this host's backend NICs reach."""
        tors = []
        seen = set()
        h = self.hosts[host]
        for nic in h.backend_nics():
            for pref in nic.ports:
                port = self.port(pref)
                if port.link_id is None:
                    continue
                peer = self.links[port.link_id].other(host).node
                if peer not in seen:
                    seen.add(peer)
                    tors.append(peer)
        return tors

    def hosts_of_tor(self, tor: str) -> List[str]:
        """Host names attached below a ToR."""
        out, seen = [], set()
        for port in self.down_ports(tor):
            peer = self.links[port.link_id].other(tor).node
            if peer in self.hosts and peer not in seen:
                seen.add(peer)
                out.append(peer)
        return out

    def switches_by_role(self, role: SwitchRole) -> List[Switch]:
        return [s for s in self.switches.values() if s.role is role]

    def link_tier(self, link_id: int) -> str:
        """Tier label of a link: ``access`` when either end is a host,
        otherwise ``agg`` / ``core`` / ``tierN`` by the higher switch
        tier. Both directions of a link share the label."""
        link = self.links[link_id]
        sa = self.switches.get(link.a.node)
        sb = self.switches.get(link.b.node)
        if sa is None or sb is None:
            return "access"
        top = max(sa.tier, sb.tier)
        return _TIER_LABELS.get(top, f"tier{top}")

    def tor_for_nic_port(self, host: str, nic_index: int, nic_port: int) -> Optional[str]:
        """ToR name reached by a specific NIC port, or None if unwired."""
        nic = self.hosts[host].nics[nic_index]
        pref = nic.ports[nic_port]
        port = self.port(pref)
        if port.link_id is None:
            return None
        return self.links[port.link_id].other(host).node

    def active_hosts(self) -> List[Host]:
        return [h for h in self.hosts.values() if not h.backup]

    def gpu_count(self, include_backup: bool = False) -> int:
        hosts: Iterable[Host] = (
            self.hosts.values() if include_backup else self.active_hosts()
        )
        return sum(len(h.gpus) for h in hosts)

    # ------------------------------------------------------------------
    # link state (failures)
    # ------------------------------------------------------------------
    def set_link_state(self, link_id: int, up: bool) -> None:
        link = self.links[link_id]
        if link.up != up:
            link.up = up
            self.state_epoch += 1
            self._state_log.append(link_id)

    def fail_node(self, name: str) -> List[int]:
        """Mark a switch down and all its links down; returns link ids."""
        sw = self.switches.get(name)
        if sw is None:
            raise TopologyError(f"only switches can be failed, got {name!r}")
        sw.up = False
        failed = []
        for port in self.ports[name]:
            if port.link_id is not None and self.links[port.link_id].up:
                self.set_link_state(port.link_id, False)
                failed.append(port.link_id)
        return failed

    def recover_node(self, name: str) -> None:
        sw = self.switches[name]
        sw.up = True
        for port in self.ports[name]:
            if port.link_id is not None:
                self.set_link_state(port.link_id, True)

    def link_state_changes(self, since: int) -> List[int]:
        """Link ids that transitioned up/down after epoch ``since``.

        One entry per transition, in order; the caller advances its
        cursor to :attr:`state_epoch` after consuming them.
        """
        return self._state_log[since:]

    def net_link_changes(self, since: int) -> List[int]:
        """Ids of links whose state differs from epoch ``since``.

        A link that toggled an even number of times since then is back
        where it was, so only odd transition counts are returned, in
        ascending id order. This is the net-change rule every
        epoch-cursor consumer (route caches, serving memos, the
        :meth:`transient_state` restore) invalidates by.
        """
        counts = Counter(self._state_log[since:])
        return sorted(lid for lid, n in counts.items() if n % 2)

    @contextmanager
    def transient_state(self) -> Iterator["Topology"]:
        """Scoped what-if failures: snapshot link/switch state, restore
        on exit.

        Inside the block, callers use the normal mutators
        (:meth:`set_link_state` / :meth:`fail_node`), so every
        transition bumps :attr:`state_epoch` and lands in the state log
        -- epoch-diffing consumers (route caches, compiled FIBs) observe
        both the failure and the restore. This is the sanctioned way to
        write failure sweeps (SPOF analysis, Monte-Carlo what-ifs);
        flipping ``link.up`` directly bypasses the epoch and poisons
        caches (flagged by SEM001).

        Restore cost is O(transitions inside the block), not O(links):
        ``state_epoch`` indexes the state log, so the links to undo are
        exactly those with an odd transition count since entry. A probe
        that fails k links therefore costs 2k log entries total, which
        net-change cache invalidation then recognises as zero -- warm
        routers survive fork-and-probe untouched.
        """
        switch_state = {name: sw.up for name, sw in self.switches.items()}
        enter_epoch = self.state_epoch
        try:
            yield self
        finally:
            for name, up in switch_state.items():
                sw = self.switches[name]
                if sw.up != up:
                    sw.up = up
            for lid in self.net_link_changes(enter_epoch):
                self.set_link_state(lid, not self.links[lid].up)

    def notify_structure_changed(self) -> None:
        """Record out-of-band rewiring (e.g. moving a link endpoint).

        Mutating ``Link``/``Port`` objects directly bypasses
        :meth:`wire`, so callers must bump the structure epoch by hand
        for compiled forwarding state (FIBs, access-leg maps) to be
        rebuilt.
        """
        self.structure_epoch += 1

    # ------------------------------------------------------------------
    # export & stats
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Export as a networkx MultiGraph (optional dependency)."""
        import networkx as nx

        g = nx.MultiGraph()
        for host in self.hosts.values():
            g.add_node(host.name, kind="host", pod=host.pod, segment=host.segment)
        for sw in self.switches.values():
            g.add_node(
                sw.name,
                kind="switch",
                role=sw.role.value,
                tier=sw.tier,
                pod=sw.pod,
                plane=sw.plane,
            )
        for link in self.links.values():
            g.add_edge(
                link.a.node, link.b.node, key=link.link_id, gbps=link.gbps, up=link.up
            )
        return g

    def summary(self) -> Dict[str, object]:
        """Inventory counts, handy for logging and tests."""
        role_counts = defaultdict(int)
        for sw in self.switches.values():
            role_counts[sw.role.value] += 1
        return {
            "name": self.name,
            "hosts": len(self.hosts),
            "active_hosts": len(self.active_hosts()),
            "gpus": self.gpu_count(),
            "switches": dict(role_counts),
            "links": len(self.links),
        }
