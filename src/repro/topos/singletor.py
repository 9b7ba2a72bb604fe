"""Single-ToR access topology (the traditional design, for section 9.3).

Identical to a DCN+ pod except each NIC has a single 400G access link to
one ToR per segment. Used to reproduce the fault-injection comparison in
Figure 18: when that one link (or the ToR) fails, the host is simply
gone, halting synchronous training.
"""

from __future__ import annotations

from typing import List

from ..core.addressing import assign_addresses
from ..core.entities import Switch, SwitchRole
from ..core.topology import Topology
from .spec import SingleTorSpec, TOR_UP_GBPS, hash_seeds


def tor_name(segment: int) -> str:
    return f"seg{segment}/tor0"


def host_name(segment: int, index: int) -> str:
    return f"seg{segment}/host{index}"


def build_singletor(spec: SingleTorSpec = SingleTorSpec()) -> Topology:
    """Build a single-ToR Clos from ``spec``.

    NICs are created with two ports for API uniformity, but only port 0
    is wired (at the bonded 400G rate); port 1 stays unconnected.
    """
    topo = Topology(name="singletor")
    topo.meta["spec"] = spec
    topo.meta["architecture"] = "singletor"
    topo.meta["planes"] = 1
    seeds = hash_seeds(spec.polarized_hashing)

    aggs: List[Switch] = []
    if spec.segments > 1:
        for a in range(spec.aggs):
            aggs.append(
                topo.add_switch(
                    Switch(
                        name=f"agg{a}",
                        role=SwitchRole.AGG,
                        tier=2,
                        pod=0,
                        hash_seed=next(seeds),
                    )
                )
            )

    for segment in range(spec.segments):
        tor = topo.add_switch(
            Switch(
                name=tor_name(segment),
                role=SwitchRole.TOR,
                tier=1,
                pod=0,
                segment=segment,
                hash_seed=next(seeds),
            )
        )
        for agg in aggs:
            for _ in range(spec.tor_agg_links):
                topo.connect(tor.name, agg.name, TOR_UP_GBPS)

        for h in range(spec.hosts_per_segment):
            host = topo.build_host(
                name=host_name(segment, h),
                pod=0,
                segment=segment,
                index=h,
                num_gpus=spec.gpus_per_host,
                nic_gbps=spec.nic_gbps,
                nvlink_gbps=spec.nvlink_gbps,
            )
            for nic in host.backend_nics():
                topo.attach(nic.ports[0], tor.name, spec.nic_gbps)

    assign_addresses(topo)
    return topo
