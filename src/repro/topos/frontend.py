"""Frontend network builder (paper section 8, Figure 21b).

The frontend is a classic 3-tier Clos, physically decoupled from the
training backend, with 1:1 convergence at both aggregation and core
layers. It carries management, storage (CPFS/OSS) and inference
traffic. Compute hosts attach through their ninth NIC (2x200G,
non-stacked dual-ToR); the storage cluster (96-128 hosts) lives only
here.

The builder creates storage hosts as regular hosts whose single NIC is
the frontend NIC (``rail == -1``); they carry a ``storage`` flag in
``topo.meta["storage_hosts"]``.
"""

from __future__ import annotations

from typing import List

from ..core.addressing import assign_addresses
from ..core.entities import Switch, SwitchRole
from ..core.topology import Topology
from .spec import FrontendSpec, TOR_UP_GBPS


def build_frontend(spec: FrontendSpec = FrontendSpec()) -> Topology:
    """Build the frontend network from ``spec``."""
    topo = Topology(name="frontend")
    topo.meta["spec"] = spec
    topo.meta["architecture"] = "frontend"
    topo.meta["planes"] = 1

    total_hosts = spec.compute_hosts + spec.storage_hosts
    pairs_needed = (total_hosts + spec.hosts_per_tor_pair - 1) // spec.hosts_per_tor_pair
    # 1:1 convergence at the aggregation layer (section 8): each agg's
    # core uplink count equals its ToR downlink count, spread over cores
    agg_downlinks = pairs_needed * 2 * spec.tor_agg_links
    links_per_core = max(1, agg_downlinks // spec.cores)

    cores: List[Switch] = []
    for c in range(spec.cores):
        cores.append(
            topo.add_switch(
                Switch(name=f"fe/core{c}", role=SwitchRole.CORE, tier=3, pod=-1)
            )
        )

    aggs: List[Switch] = []
    for a in range(spec.aggs):
        sw = topo.add_switch(
            Switch(name=f"fe/agg{a}", role=SwitchRole.AGG, tier=2, pod=0)
        )
        aggs.append(sw)
        for core in cores:
            for _ in range(links_per_core):
                topo.connect(sw.name, core.name, TOR_UP_GBPS)

    pairs = pairs_needed
    storage_names: List[str] = []

    host_idx = 0
    for pair in range(pairs):
        tors: List[Switch] = []
        for side in range(2):
            sw = topo.add_switch(
                Switch(
                    name=f"fe/pair{pair}/tor{side}",
                    role=SwitchRole.TOR,
                    tier=1,
                    pod=0,
                    segment=pair,
                )
            )
            tors.append(sw)
            for agg in aggs:
                for _ in range(spec.tor_agg_links):
                    topo.connect(sw.name, agg.name, TOR_UP_GBPS)

        for _ in range(spec.hosts_per_tor_pair):
            if host_idx >= total_hosts:
                break
            is_storage = host_idx >= spec.compute_hosts
            name = (
                f"fe/storage{host_idx - spec.compute_hosts}"
                if is_storage
                else f"fe/compute{host_idx}"
            )
            host = topo.build_host(
                name=name,
                pod=0,
                segment=pair,
                index=host_idx,
                num_gpus=0 if is_storage else 8,
                nic_gbps=spec.nic_gbps,
                with_frontend_nic=True,
            )
            fe_nic = host.frontend_nic()
            for side in (0, 1):
                topo.attach(fe_nic.ports[side], tors[side].name, spec.nic_gbps)
            if is_storage:
                storage_names.append(name)
            host_idx += 1

    topo.meta["storage_hosts"] = storage_names
    assign_addresses(topo)
    return topo
