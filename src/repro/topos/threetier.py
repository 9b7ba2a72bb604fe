"""Generic single-homed, rail-optimized 3-tier Clos builder.

This is the family the paper's Table 1 competitors live in (DGX
SuperPod-like, Jupiter-like): GPUs connect with a *single* access link
to a rail leaf; leaves hash over their uplinks to spines, spines hash
again (and cores a third time for cross-pod traffic). Every tier's
fan-out is a free parameter, so scaled instances reproduce the paper's
search-space arithmetic measurably: the number of equal-cost paths a
flow sees equals the product of the per-tier fan-outs along its route.

:func:`build_superpod_like` and :func:`build_jupiter_like` produce
scaled instances with the same *fan-out structure* as the Table 1 rows
(32x32x4 and 8x256) at a size a test can enumerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.addressing import assign_addresses
from ..core.entities import Switch, SwitchRole
from ..core.errors import SpecError
from ..core.topology import Topology
from .spec import TOR_UP_GBPS, hash_seeds


@dataclass(frozen=True)
class ThreeTierSpec:
    """Parameter set of the generic 3-tier single-homed fabric."""

    pods: int = 2
    segments_per_pod: int = 2
    hosts_per_segment: int = 4
    gpus_per_host: int = 8
    nic_gbps: float = 400.0
    #: leaf fan-out: distinct spine switches each leaf connects to
    spines_per_pod: int = 4
    leaf_spine_links: int = 1
    #: spine fan-out towards cores (0 = no core layer)
    cores: int = 0
    spine_core_links: int = 1
    polarized_hashing: bool = True

    def __post_init__(self) -> None:
        if min(self.pods, self.segments_per_pod, self.hosts_per_segment) < 1:
            raise SpecError("counts must be positive")
        if self.pods > 1 and self.cores < 1:
            raise SpecError("multi-pod fabrics need a core layer")

    @property
    def leaf_uplinks(self) -> int:
        return self.spines_per_pod * self.leaf_spine_links

    @property
    def total_gpus(self) -> int:
        return (
            self.pods
            * self.segments_per_pod
            * self.hosts_per_segment
            * self.gpus_per_host
        )


def build_threetier(spec: ThreeTierSpec) -> Topology:
    """Build the generic fabric; leaves are rail-optimized, single-homed."""
    topo = Topology(name="threetier")
    topo.meta["spec"] = spec
    topo.meta["architecture"] = "threetier"
    topo.meta["planes"] = 1
    seeds = hash_seeds(spec.polarized_hashing)

    cores: List[Switch] = []
    for c in range(spec.cores):
        cores.append(
            topo.add_switch(
                Switch(name=f"core/c{c}", role=SwitchRole.CORE, tier=3,
                       pod=-1, hash_seed=next(seeds))
            )
        )

    for pod in range(spec.pods):
        spines: List[Switch] = []
        for sp in range(spec.spines_per_pod):
            sw = topo.add_switch(
                Switch(name=f"pod{pod}/spine{sp}", role=SwitchRole.AGG,
                       tier=2, pod=pod, hash_seed=next(seeds))
            )
            spines.append(sw)
            for core in cores:
                for _ in range(spec.spine_core_links):
                    topo.connect(sw.name, core.name, TOR_UP_GBPS)

        for segment in range(spec.segments_per_pod):
            leaves: Dict[int, Switch] = {}
            for rail in range(spec.gpus_per_host):
                leaf = topo.add_switch(
                    Switch(
                        name=f"pod{pod}/seg{segment}/leaf-r{rail}",
                        role=SwitchRole.TOR, tier=1, pod=pod,
                        segment=segment, rail=rail, hash_seed=next(seeds),
                    )
                )
                leaves[rail] = leaf
                for spine in spines:
                    for _ in range(spec.leaf_spine_links):
                        topo.connect(leaf.name, spine.name, TOR_UP_GBPS)

            for h in range(spec.hosts_per_segment):
                host = topo.build_host(
                    name=f"pod{pod}/seg{segment}/host{h}",
                    pod=pod, segment=segment, index=h,
                    num_gpus=spec.gpus_per_host, nic_gbps=spec.nic_gbps,
                )
                for nic in host.backend_nics():
                    topo.attach(nic.ports[0], leaves[nic.rail].name, spec.nic_gbps)

    assign_addresses(topo)
    return topo


def build_superpod_like(scale: int = 1) -> Topology:
    """A scaled fabric with SuperPod's fan-out *structure*.

    Paper scale is (32 leaf uplinks) x (32 spine choices down... ) x
    (4 core groups); the scaled instance keeps three hash stages with
    enumerable fan-outs so Table 1's arithmetic can be cross-checked by
    DFS: cross-pod complexity = leaf_uplinks x spine_core x core_down.
    """
    return build_threetier(
        ThreeTierSpec(
            pods=2,
            segments_per_pod=2,
            hosts_per_segment=2 * scale,
            spines_per_pod=4,
            leaf_spine_links=1,
            cores=4,
            spine_core_links=1,
        )
    )


def build_jupiter_like(scale: int = 1) -> Topology:
    """A scaled fabric with Jupiter's 2-stage LB structure (ToR x agg)."""
    return build_threetier(
        ThreeTierSpec(
            pods=1,
            segments_per_pod=2 * scale,
            hosts_per_segment=2,
            spines_per_pod=8,
            leaf_spine_links=1,
            cores=0,
        )
    )


def expected_cross_pod_complexity(spec: ThreeTierSpec) -> int:
    """Closed-form equal-path count for a cross-pod flow.

    Four independent hash stages multiply: the leaf's uplink choice,
    the spine's core-uplink choice, the core's downlink choice towards
    the destination pod's spines, and the spine's downlink choice to
    the destination leaf.
    """
    up_leaf = spec.leaf_uplinks
    up_spine = spec.cores * spec.spine_core_links
    down_core = spec.spines_per_pod * spec.spine_core_links
    down_spine = spec.leaf_spine_links
    return up_leaf * up_spine * down_core * down_spine


def expected_intra_pod_complexity(spec: ThreeTierSpec) -> int:
    """Equal paths for an intra-pod, cross-segment flow: the leaf
    hashes over its uplinks; each spine has ``leaf_spine_links`` down
    to the destination leaf."""
    return spec.leaf_uplinks * spec.leaf_spine_links
