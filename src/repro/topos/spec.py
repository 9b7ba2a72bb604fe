"""Architecture specifications.

Each spec is a validated dataclass describing one network architecture at
a chosen scale. The production-scale constants from the paper are the
defaults; tests and benchmarks shrink them (fewer segments, fewer hosts)
while every builder keeps the *structure* (dual-ToR, dual-plane, rail
optimization, oversubscription ratios) intact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count, repeat
from typing import Iterator

from ..core.errors import SpecError

#: port speeds used throughout the paper
NIC_PORT_GBPS = 200.0
TOR_UP_GBPS = 400.0

#: the 51.2 Tbps chip: 128 x 400G equivalent
CHIP_51T_GBPS = 51200.0
CHIP_25T_GBPS = 25600.0


def hash_seeds(polarized: bool) -> Iterator[int]:
    """Per-switch ECMP hash seeds, in switch creation order.

    Polarized fabrics model identical ASICs: every switch shares seed 0.
    Otherwise each switch gets its own seed, counting up from 2.
    """
    return repeat(0) if polarized else count(2)


@dataclass(frozen=True)
class HpnSpec:
    """HPN backend network (paper Figure 7).

    Defaults give the production scale: 15 segments x 128 hosts x 8 GPUs
    = 15,360 GPUs per pod, 16 ToRs per segment (8 rails x 2 planes),
    60 aggregation switches per plane, 15:1 agg->core oversubscription.
    """

    pods: int = 1
    segments_per_pod: int = 15
    hosts_per_segment: int = 128
    backup_hosts_per_segment: int = 8
    gpus_per_host: int = 8
    nic_gbps: float = NIC_PORT_GBPS
    #: 400G links from each ToR up to each agg switch of its plane
    tor_agg_links: int = 1
    aggs_per_plane: int = 60
    #: 400G uplinks per aggregation switch towards the core layer
    agg_core_uplinks: int = 8
    #: core switches per plane (0 disables tier-3 entirely)
    cores_per_plane: int = 0
    tor_chip_gbps: float = CHIP_51T_GBPS
    #: hash behaviour: identical ASICs share a seed unless diversified
    polarized_hashing: bool = True
    nvlink_gbps: float = 3200.0

    def __post_init__(self) -> None:
        if self.pods < 1 or self.segments_per_pod < 1 or self.hosts_per_segment < 1:
            raise SpecError("pod/segment/host counts must be positive")
        if self.gpus_per_host < 1 or self.gpus_per_host > 8:
            raise SpecError("gpus_per_host must be in 1..8")
        if self.aggs_per_plane < 1:
            raise SpecError("need at least one aggregation switch per plane")
        if self.pods > 1 and self.cores_per_plane < 1:
            raise SpecError("multi-pod HPN requires a core layer")
        if self.cores_per_plane:
            total_uplinks = self.aggs_per_plane * self.agg_core_uplinks
            if total_uplinks % self.cores_per_plane:
                raise SpecError(
                    "cores_per_plane must divide aggs_per_plane*agg_core_uplinks "
                    f"({total_uplinks} % {self.cores_per_plane} != 0)"
                )

    # -- derived quantities ------------------------------------------------
    @property
    def rails(self) -> int:
        return self.gpus_per_host

    @property
    def tors_per_segment(self) -> int:
        return self.rails * 2  # dual-ToR: one per plane per rail

    @property
    def tor_uplinks(self) -> int:
        return self.aggs_per_plane * self.tor_agg_links

    @property
    def tor_downlinks(self) -> int:
        return self.hosts_per_segment + self.backup_hosts_per_segment

    @property
    def gpus_per_segment(self) -> int:
        return self.hosts_per_segment * self.gpus_per_host

    @property
    def gpus_per_pod(self) -> int:
        return self.gpus_per_segment * self.segments_per_pod

    @property
    def total_gpus(self) -> int:
        return self.gpus_per_pod * self.pods

    @property
    def tor_oversubscription(self) -> float:
        """Active-host down-capacity / up-capacity at a ToR (paper: 1.067:1).

        Backup ports are excluded, matching the paper's accounting; see
        :meth:`tor_oversubscription_with_backup` for the raw ratio.
        """
        down = self.hosts_per_segment * self.nic_gbps
        up = self.tor_uplinks * TOR_UP_GBPS
        return down / up

    @property
    def tor_oversubscription_with_backup(self) -> float:
        down = self.tor_downlinks * self.nic_gbps
        up = self.tor_uplinks * TOR_UP_GBPS
        return down / up

    @property
    def agg_downlinks(self) -> int:
        return self.segments_per_pod * self.rails * self.tor_agg_links

    @property
    def agg_core_oversubscription(self) -> float:
        """Down/up at an agg switch (paper: 15:1)."""
        if not self.agg_core_uplinks:
            return float("inf")
        return self.agg_downlinks / self.agg_core_uplinks


@dataclass(frozen=True)
class DcnPlusSpec:
    """DCN+ baseline: 3-tier dual-ToR Clos (paper Figure 20).

    Defaults give the production scale: 4 segments x 16 hosts per pod
    (512 GPUs), 8 aggregation switches per pod, 32 pods (16,384 GPUs),
    full bisection bandwidth at every tier.
    """

    pods: int = 1
    segments_per_pod: int = 4
    hosts_per_segment: int = 16
    gpus_per_host: int = 8
    nic_gbps: float = NIC_PORT_GBPS
    aggs_per_pod: int = 8
    #: parallel 400G links between each ToR and each agg
    tor_agg_links: int = 8
    #: 400G uplinks per agg switch (1:1 with its downlinks)
    agg_core_uplinks: int = 64
    #: cores per core-group; agg i of each pod joins core group i
    cores_per_group: int = 64
    polarized_hashing: bool = True
    nvlink_gbps: float = 3200.0

    def __post_init__(self) -> None:
        if self.pods < 1 or self.segments_per_pod < 1:
            raise SpecError("pod/segment counts must be positive")
        if self.agg_core_uplinks and self.cores_per_group:
            if self.agg_core_uplinks % self.cores_per_group:
                raise SpecError("cores_per_group must divide agg_core_uplinks")

    @property
    def tors_per_segment(self) -> int:
        return 2  # one dual-ToR set per segment, not rail-optimized

    @property
    def tor_downlinks(self) -> int:
        return self.hosts_per_segment * self.gpus_per_host

    @property
    def tor_uplinks(self) -> int:
        return self.aggs_per_pod * self.tor_agg_links

    @property
    def gpus_per_pod(self) -> int:
        return self.segments_per_pod * self.hosts_per_segment * self.gpus_per_host

    @property
    def total_gpus(self) -> int:
        return self.gpus_per_pod * self.pods


@dataclass(frozen=True)
class SingleTorSpec:
    """Single-ToR access (the traditional design, for section 9.3).

    Each NIC bonds its two 200G ports into one 400G channel to a single
    ToR -- physically modeled as one 400G link so a ToR or access-link
    failure disconnects the NIC entirely.
    """

    segments: int = 1
    hosts_per_segment: int = 16
    gpus_per_host: int = 8
    nic_gbps: float = 400.0
    aggs: int = 8
    tor_agg_links: int = 8
    polarized_hashing: bool = True
    nvlink_gbps: float = 3200.0

    @property
    def total_gpus(self) -> int:
        return self.segments * self.hosts_per_segment * self.gpus_per_host


@dataclass(frozen=True)
class FatTreeSpec:
    """Classic k-ary fat-tree [Al-Fares 2008], for Table 1 comparisons."""

    k: int = 48
    gpus_per_host: int = 1
    link_gbps: float = 400.0

    def __post_init__(self) -> None:
        if self.k % 2:
            raise SpecError("fat-tree k must be even")

    @property
    def num_pods(self) -> int:
        return self.k

    @property
    def hosts(self) -> int:
        return self.k ** 3 // 4

    @property
    def total_gpus(self) -> int:
        return self.hosts * self.gpus_per_host


@dataclass(frozen=True)
class RailOnlySpec:
    """Rail-only tier-2 variant (paper Table 4 / Meta's proposal).

    Each rail gets its own isolated tier-2 plane; there are no cross-rail
    paths in the network, so cross-rail traffic must relay through the
    intra-host interconnect.
    """

    segments_per_pod: int = 15
    hosts_per_segment: int = 128
    gpus_per_host: int = 8
    nic_gbps: float = NIC_PORT_GBPS
    aggs_per_plane: int = 60
    tor_agg_links: int = 1
    #: scale multiplier: freed ToR-Agg ports let one pod host 8x segments
    nvlink_gbps: float = 3200.0

    @property
    def rails(self) -> int:
        return self.gpus_per_host

    @property
    def planes(self) -> int:
        return self.rails * 2

    @property
    def total_gpus(self) -> int:
        return self.segments_per_pod * self.hosts_per_segment * self.gpus_per_host


@dataclass(frozen=True)
class FrontendSpec:
    """Frontend network (paper section 8): 3-tier, 1:1, dual-ToR access.

    Hosts attach via their frontend NIC (2x200G); a storage cluster of
    96-128 hosts runs CPFS/OSS and lives only here.
    """

    compute_hosts: int = 64
    storage_hosts: int = 96
    hosts_per_tor_pair: int = 32
    aggs: int = 4
    cores: int = 4
    nic_gbps: float = NIC_PORT_GBPS
    tor_agg_links: int = 4
    agg_core_links: int = 4


@dataclass(frozen=True)
class ArchitectureCard:
    """Descriptor used for Table 1 style accounting (no wiring needed)."""

    name: str
    supported_gpus: int
    tiers: int
    #: ECMP fan-out at each tier that participates in load balancing,
    #: in path order (e.g. HPN: [60]; SuperPod: [32, 32, 4])
    lb_fanouts: tuple = field(default_factory=tuple)

    @property
    def path_selection_complexity(self) -> int:
        out = 1
        for f in self.lb_fanouts:
            out *= f
        return out
