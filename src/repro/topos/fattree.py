"""Classic k-ary fat-tree [Al-Fares et al., SIGCOMM 2008].

Used as a Table 1 comparison point: a 3-tier architecture where ToR,
aggregation *and* core hashing all participate in load balancing, giving
path-selection complexity O((k/2)^2) per pod pair.

Structure (for even ``k``): ``k`` pods, each with ``k/2`` edge (ToR) and
``k/2`` aggregation switches; ``(k/2)^2`` core switches. Each edge switch
serves ``k/2`` hosts.
"""

from __future__ import annotations

from ..core.addressing import assign_addresses
from ..core.entities import Switch, SwitchRole
from ..core.topology import Topology
from .spec import FatTreeSpec


def build_fattree(spec: FatTreeSpec = FatTreeSpec(k=4)) -> Topology:
    """Build a k-ary fat-tree. Hosts have one single-port NIC."""
    topo = Topology(name=f"fattree-k{spec.k}")
    topo.meta["spec"] = spec
    topo.meta["architecture"] = "fattree"
    topo.meta["planes"] = 1
    half = spec.k // 2

    # core switches: grid of half x half
    cores = []
    for i in range(half):
        row = []
        for j in range(half):
            sw = topo.add_switch(
                Switch(
                    name=f"core/c{i}-{j}",
                    role=SwitchRole.CORE,
                    tier=3,
                    pod=-1,
                    chip_gbps=spec.k * spec.link_gbps,
                )
            )
            row.append(sw)
        cores.append(row)

    for pod in range(spec.k):
        aggs = []
        for a in range(half):
            sw = topo.add_switch(
                Switch(
                    name=f"pod{pod}/agg{a}",
                    role=SwitchRole.AGG,
                    tier=2,
                    pod=pod,
                    chip_gbps=spec.k * spec.link_gbps,
                )
            )
            aggs.append(sw)
            # agg a connects to core row a (one link to each core in row)
            for j in range(half):
                topo.connect(sw.name, cores[a][j].name, spec.link_gbps)

        for e in range(half):
            edge = topo.add_switch(
                Switch(
                    name=f"pod{pod}/edge{e}",
                    role=SwitchRole.TOR,
                    tier=1,
                    pod=pod,
                    segment=e,
                    chip_gbps=spec.k * spec.link_gbps,
                )
            )
            for agg in aggs:
                topo.connect(edge.name, agg.name, spec.link_gbps)
            for h in range(half):
                host = topo.build_host(
                    name=f"pod{pod}/edge{e}/host{h}",
                    pod=pod,
                    segment=e,
                    index=h,
                    num_gpus=spec.gpus_per_host,
                    nic_gbps=spec.link_gbps,
                    with_frontend_nic=False,
                )
                # single-homed: wire only port 0 of NIC 0
                nic = host.backend_nics()[0]
                topo.attach(nic.ports[0], edge.name, spec.link_gbps)

    assign_addresses(topo)
    return topo
