"""Rail-only tier-2 variant (paper Table 4 and section 10 discussion).

In a rail-only tier-2, the aggregation layer is split per rail (and per
plane): ToRs of rail ``r``/plane ``k`` connect only to the aggregation
plane ``(r, k)``. Cross-rail GPU pairs have *no* network path and must
relay through the intra-host interconnect. The freed ToR-Agg links let
one pod cover 8x the segments (122,880 GPUs at production scale), which
is the trade the paper declines because MoE all-to-all and multi-tenant
serverless traffic break the intra-rail-only assumption.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core.addressing import assign_addresses
from ..core.entities import Switch, SwitchRole
from ..core.topology import Topology
from .spec import RailOnlySpec, TOR_UP_GBPS


def build_railonly(spec: RailOnlySpec) -> Topology:
    """Build a rail-only pod from ``spec``."""
    topo = Topology(name="railonly")
    topo.meta["spec"] = spec
    topo.meta["architecture"] = "railonly"
    topo.meta["planes"] = spec.planes  # one plane per (rail, side)

    # aggregation planes: one per (rail, side)
    aggs: Dict[Tuple[int, int, int], Switch] = {}
    for rail in range(spec.rails):
        for side in range(2):
            for a in range(spec.aggs_per_plane):
                sw = topo.add_switch(
                    Switch(
                        name=f"rail{rail}/plane{side}/agg{a}",
                        role=SwitchRole.AGG,
                        tier=2,
                        pod=0,
                        plane=rail * 2 + side,
                        rail=rail,
                    )
                )
                aggs[(rail, side, a)] = sw

    for segment in range(spec.segments_per_pod):
        seg_tors: Dict[Tuple[int, int], Switch] = {}
        for rail in range(spec.rails):
            for side in range(2):
                sw = topo.add_switch(
                    Switch(
                        name=f"seg{segment}/tor-r{rail}p{side}",
                        role=SwitchRole.TOR,
                        tier=1,
                        pod=0,
                        segment=segment,
                        plane=rail * 2 + side,
                        rail=rail,
                    )
                )
                seg_tors[(rail, side)] = sw
                for a in range(spec.aggs_per_plane):
                    for _ in range(spec.tor_agg_links):
                        topo.connect(sw.name, aggs[(rail, side, a)].name, TOR_UP_GBPS)

        for h in range(spec.hosts_per_segment):
            host = topo.build_host(
                name=f"seg{segment}/host{h}",
                pod=0,
                segment=segment,
                index=h,
                num_gpus=spec.gpus_per_host,
                nic_gbps=spec.nic_gbps,
                nvlink_gbps=spec.nvlink_gbps,
            )
            for nic in host.backend_nics():
                for side in (0, 1):
                    tor = seg_tors[(nic.rail, side)]
                    topo.attach(nic.ports[side], tor.name, spec.nic_gbps)

    assign_addresses(topo)
    return topo


def cross_rail_reachable(topo: Topology, src_rail: int, dst_rail: int) -> bool:
    """Whether the network (not NVLink) can carry rail->rail traffic."""
    if topo.meta.get("architecture") != "railonly":
        return True
    return src_rail == dst_rail
