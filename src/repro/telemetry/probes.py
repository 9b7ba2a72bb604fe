"""INT-based wiring verification (paper section 10, "HPN complicates
wiring").

HPN's rail-optimized + dual-plane design multiplies cabling mistakes at
build-out. Before end-to-end testing, Alibaba runs INT-style probes
that record every hop's (switch ID, port ID) and compares the trace
against the blueprint definition. This module reimplements that check:

* :func:`probe_path` produces the hop trace a probe would record;
* :class:`Blueprint` derives the *expected* trace set from the spec;
* :func:`verify_wiring` sweeps probes across the fabric and reports
  every deviation.

Mis-wirings are injected with :func:`swap_access_links`, which models
the classic on-site mistake of crossing two NICs' cables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..core.entities import Nic
from ..core.errors import TopologyError
from ..core.topology import Topology
from ..routing.cache import CachedRouter
from ..routing.hashing import FiveTuple


@dataclass(frozen=True)
class HopRecord:
    """One INT record: the switch and its egress port index."""

    switch: str
    egress_port: int


@dataclass
class ProbeTrace:
    """The full path trace of one probe packet."""

    src_nic: str
    dst_nic: str
    plane: Optional[int]
    hops: Tuple[HopRecord, ...]


def probe_path(
    router: CachedRouter, src_nic: Nic, dst_nic: Nic, plane: int, sport: int = 61000
) -> ProbeTrace:
    """Send one INT probe and record per-hop (switch, egress port)."""
    ft = FiveTuple(src_nic.ip, dst_nic.ip, sport, 4791)
    path = router.path_for(src_nic, dst_nic, ft, plane=plane)
    topo = router.topo
    hops: List[HopRecord] = []
    for node, dirlink in zip(path.nodes[1:-1], path.dirlinks[1:]):
        link = topo.links[dirlink // 2]
        egress = link.a if (dirlink % 2 == 0) else link.b
        hops.append(HopRecord(node, egress.index))
    return ProbeTrace(src_nic.name, dst_nic.name, path.plane, tuple(hops))


@dataclass
class WiringFault:
    """One detected deviation from the blueprint."""

    kind: str
    detail: str


@dataclass
class Blueprint:
    """Expected wiring rules derived from the architecture."""

    topo: Topology

    def expected_tor(self, nic: Nic, plane: int) -> Optional[str]:
        """The ToR a rail-optimized dual-plane NIC port must land on."""
        host = self.topo.hosts[nic.host]
        arch = self.topo.meta.get("architecture")
        if arch != "hpn":
            return None
        from ..topos.hpn import tor_name

        return tor_name(host.pod, host.segment, nic.rail, plane)

    def check_access(self, nic: Nic) -> List[WiringFault]:
        """Verify both access legs of one NIC against the blueprint."""
        faults: List[WiringFault] = []
        for plane, pref in enumerate(nic.ports):
            port = self.topo.port(pref)
            if port.link_id is None:
                continue
            actual = self.topo.links[port.link_id].other(nic.host).node
            expected = self.expected_tor(nic, plane)
            if expected is not None and actual != expected:
                faults.append(
                    WiringFault(
                        kind="access-miswire",
                        detail=(
                            f"{nic.name} port {plane}: wired to {actual}, "
                            f"blueprint says {expected}"
                        ),
                    )
                )
        return faults


def verify_wiring(
    topo: Topology,
    hosts: Optional[Sequence[str]] = None,
) -> List[WiringFault]:
    """Sweep the blueprint check across hosts; returns all faults."""
    blueprint = Blueprint(topo)
    faults: List[WiringFault] = []
    names = list(hosts) if hosts is not None else list(topo.hosts)
    for name in names:
        for nic in topo.hosts[name].backend_nics():
            faults.extend(blueprint.check_access(nic))
    return faults


def swap_access_links(topo: Topology, nic_a: Nic, nic_b: Nic, port: int = 0) -> None:
    """Inject the classic wiring mistake: cross two NICs' cables.

    The two NICs' ``port`` legs are re-terminated on each other's ToR
    ports, exactly what happens when on-site staff swap two fibers.
    """
    pa = topo.port(nic_a.ports[port])
    pb = topo.port(nic_b.ports[port])
    if pa.link_id is None or pb.link_id is None:
        raise TopologyError("both NIC ports must be wired to swap them")
    link_a = topo.links[pa.link_id]
    link_b = topo.links[pb.link_id]
    far_a = link_a.other(nic_a.host)
    far_b = link_b.other(nic_b.host)
    # re-point each link's far end at the other NIC's ToR port
    if link_a.a == far_a:
        link_a.a = far_b
    else:
        link_a.b = far_b
    if link_b.a == far_b:
        link_b.a = far_a
    else:
        link_b.b = far_a
    topo.port(far_a).link_id = link_b.link_id
    topo.port(far_b).link_id = link_a.link_id
    # links were re-terminated behind wire()'s back: compiled routers
    # (FIBs, route caches, access-leg memos) must rebuild
    topo.notify_structure_changed()
