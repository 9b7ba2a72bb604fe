"""DCN+ baseline topology (paper Appendix C, Figure 20).

DCN+ is Alibaba's previous-generation training network: a classic
3-tier Clos with dual-ToR access but *no* rail optimization and *no*
dual-plane:

* a segment is 16 hosts (128 GPUs) behind one dual-ToR pair; every NIC
  of every host lands on the same two ToRs (port 0 -> ToR1, port 1 ->
  ToR2);
* each pod has 4 segments and 8 aggregation switches; every ToR
  connects to every agg with 8 parallel 400G links (64 uplinks);
* agg switches have 64 further uplinks; agg ``i`` of every pod joins
  core group ``i`` (full bisection bandwidth end to end).

Because the same flow is hashed independently at ToR, agg, and -- for
cross-pod traffic -- core, and all chips share the hash function, DCN+
exhibits the cascading "hash polarization" the paper measures.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.addressing import assign_addresses
from ..core.entities import Switch, SwitchRole
from ..core.topology import Topology
from .spec import DcnPlusSpec, TOR_UP_GBPS, hash_seeds


def tor_name(pod: int, segment: int, side: int) -> str:
    return f"pod{pod}/seg{segment}/tor{side}"


def agg_name(pod: int, index: int) -> str:
    return f"pod{pod}/agg{index}"


def core_name(group: int, index: int) -> str:
    return f"core/g{group}/c{index}"


def host_name(pod: int, segment: int, index: int) -> str:
    return f"pod{pod}/seg{segment}/host{index}"


def build_dcnplus(spec: DcnPlusSpec = DcnPlusSpec()) -> Topology:
    """Build a DCN+ network from ``spec``."""
    topo = Topology(name="dcnplus")
    topo.meta["spec"] = spec
    topo.meta["architecture"] = "dcnplus"
    topo.meta["planes"] = 1
    seeds = hash_seeds(spec.polarized_hashing)

    # --- core groups ---------------------------------------------------
    cores: Dict[Tuple[int, int], Switch] = {}
    build_core = spec.pods > 1 and spec.cores_per_group > 0
    if build_core:
        for group in range(spec.aggs_per_pod):
            for c in range(spec.cores_per_group):
                sw = topo.add_switch(
                    Switch(
                        name=core_name(group, c),
                        role=SwitchRole.CORE,
                        tier=3,
                        pod=-1,
                        hash_seed=next(seeds),
                    )
                )
                cores[(group, c)] = sw

    for pod in range(spec.pods):
        aggs: List[Switch] = []
        for a in range(spec.aggs_per_pod):
            sw = topo.add_switch(
                Switch(
                    name=agg_name(pod, a),
                    role=SwitchRole.AGG,
                    tier=2,
                    pod=pod,
                    hash_seed=next(seeds),
                )
            )
            aggs.append(sw)
            if build_core:
                links_per_core = spec.agg_core_uplinks // spec.cores_per_group
                for c in range(spec.cores_per_group):
                    for _ in range(links_per_core):
                        topo.connect(sw.name, cores[(a, c)].name, TOR_UP_GBPS)

        for segment in range(spec.segments_per_pod):
            pair: List[Switch] = []
            for side in range(2):
                sw = topo.add_switch(
                    Switch(
                        name=tor_name(pod, segment, side),
                        role=SwitchRole.TOR,
                        tier=1,
                        pod=pod,
                        segment=segment,
                        plane=None,  # DCN+ has no plane isolation
                        hash_seed=next(seeds),
                    )
                )
                pair.append(sw)
                for agg in aggs:
                    for _ in range(spec.tor_agg_links):
                        topo.connect(sw.name, agg.name, TOR_UP_GBPS)

            for h in range(spec.hosts_per_segment):
                host = topo.build_host(
                    name=host_name(pod, segment, h),
                    pod=pod,
                    segment=segment,
                    index=h,
                    num_gpus=spec.gpus_per_host,
                    nic_gbps=spec.nic_gbps,
                    nvlink_gbps=spec.nvlink_gbps,
                )
                for nic in host.backend_nics():
                    for side in (0, 1):
                        topo.attach(nic.ports[side], pair[side].name, spec.nic_gbps)

    assign_addresses(topo)
    return topo
