"""Port counters and imbalance metrics.

These mirror the switch statistics the paper collects in production:
per-port traffic towards a NIC (Figure 13), aggregation-switch ingress
(Figure 15b), and load-imbalance summaries.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable

from ..core.entities import SwitchRole
from ..core.topology import Topology
from .flow import Flow


def dirlink_loads(flows: Iterable[Flow], use_rate: bool = True) -> Dict[int, float]:
    """Load per directed link: current rate (Gbps) or flow count.

    A flow contributes to each directed link on its path **once**, even
    if the path revisits a link -- possible when mis-wirings injected
    with :func:`~repro.telemetry.probes.swap_access_links` bend a walk
    back on itself. A flow's rate occupies such a link once, not per
    visit, so duplicates are collapsed (in first-traversal order).
    """
    loads: Dict[int, float] = defaultdict(float)
    for f in flows:
        weight = f.rate_gbps if use_rate else 1.0
        for dl in dict.fromkeys(f.path.dirlinks):
            loads[dl] += weight
    return dict(loads)


def tor_ports_towards_nic(
    topo: Topology, flows: Iterable[Flow], host: str, rail: int
) -> Dict[str, float]:
    """Figure 13's quantity: egress Gbps of each dual-ToR downlink
    serving one NIC, keyed by ToR name."""
    nic = topo.hosts[host].nic_for_rail(rail)
    loads = dirlink_loads(flows)
    out: Dict[str, float] = {}
    for pref in nic.ports:
        port = topo.port(pref)
        if port.link_id is None:
            continue
        link = topo.links[port.link_id]
        tor = link.other(host).node
        direction = 0 if link.a.node == tor else 1
        out[tor] = loads.get(link.link_id * 2 + direction, 0.0)
    return out


def agg_ingress_gbps(topo: Topology, flows: Iterable[Flow]) -> float:
    """Total traffic entering the aggregation layer (Figure 15b)."""
    total = 0.0
    agg_names = {s.name for s in topo.switches_by_role(SwitchRole.AGG)}
    loads = dirlink_loads(flows)
    for link in topo.links.values():
        for direction, into in ((0, link.b.node), (1, link.a.node)):
            if into in agg_names:
                total += loads.get(link.link_id * 2 + direction, 0.0)
    return total


def imbalance_ratio(values: Iterable[float]) -> float:
    """max/min over positive values; inf when some port starves."""
    vals = list(values)
    if not vals:
        return 1.0
    hi = max(vals)
    lo = min(vals)
    if lo <= 0:
        return float("inf") if hi > 0 else 1.0
    return hi / lo


def jain_fairness(values: Iterable[float]) -> float:
    """Jain's fairness index in [1/n, 1]; 1.0 is perfectly even."""
    vals = [v for v in values]
    if not vals:
        return 1.0
    num = sum(vals) ** 2
    den = len(vals) * sum(v * v for v in vals)
    if den == 0:
        return 1.0
    return num / den

