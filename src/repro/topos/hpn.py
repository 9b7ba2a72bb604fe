"""HPN backend topology builder (paper Figure 7, sections 5-7).

Structure produced:

* **Tier 1 (segment)** -- ``segments_per_pod`` segments per pod. Each
  segment has ``rails x 2`` ToR switches: rail ``r`` is served by the
  dual-ToR pair ``(plane0, plane1)``. Host NIC ``r`` wires port 0 to the
  plane-0 ToR and port 1 to the plane-1 ToR (non-stacked dual-ToR), so a
  host with 8 rails touches 16 ToRs (rail-optimized, Figure 11).
* **Tier 2 (pod, dual-plane)** -- each plane has ``aggs_per_plane``
  aggregation switches; every ToR of that plane (all rails, all
  segments) connects to every agg of the plane. Traffic entering plane
  ``k`` can only ever exit on plane ``k`` -- the physical isolation that
  eliminates aggregation-layer hash polarization (Figure 12b).
* **Tier 3 (core)** -- optional; each agg has ``agg_core_uplinks``
  uplinks striped over ``cores_per_plane`` core switches per plane with
  a 15:1 oversubscription at production scale (section 7).

Hash seeds: with ``polarized_hashing=True`` every switch shares seed 0,
modeling fleets of identical ASICs -- this is what makes the DCN+
baseline polarize. HPN's structure never gives the same flow two
independent hash stages inside a pod, so the shared seed is harmless
here, which is exactly the paper's point.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.addressing import assign_addresses
from ..core.entities import Switch, SwitchRole
from ..core.errors import SpecError
from ..core.topology import Topology
from .spec import HpnSpec, TOR_UP_GBPS, hash_seeds


def tor_name(pod: int, segment: int, rail: int, plane: int) -> str:
    return f"pod{pod}/seg{segment}/tor-r{rail}p{plane}"


def agg_name(pod: int, plane: int, index: int) -> str:
    return f"pod{pod}/plane{plane}/agg{index}"


def core_name(plane: int, index: int) -> str:
    return f"core/plane{plane}/c{index}"


def host_name(pod: int, segment: int, index: int) -> str:
    return f"pod{pod}/seg{segment}/host{index}"


def build_hpn(spec: HpnSpec = HpnSpec()) -> Topology:
    """Build an HPN backend network from ``spec``.

    Returns a fully wired :class:`Topology` with IP/MAC addressing
    assigned and builder metadata in ``topo.meta``.
    """
    topo = Topology(name="hpn")
    topo.meta["spec"] = spec
    topo.meta["architecture"] = "hpn"
    topo.meta["planes"] = 2
    seeds = hash_seeds(spec.polarized_hashing)

    # --- tier 3: cores (built first so aggs can wire up) -------------
    cores: Dict[Tuple[int, int], Switch] = {}
    if spec.cores_per_plane:
        for plane in range(2):
            for c in range(spec.cores_per_plane):
                sw = topo.add_switch(
                    Switch(
                        name=core_name(plane, c),
                        role=SwitchRole.CORE,
                        tier=3,
                        pod=-1,
                        plane=plane,
                        chip_gbps=spec.tor_chip_gbps,
                        hash_seed=next(seeds),
                    )
                )
                cores[(plane, c)] = sw

    for pod in range(spec.pods):
        # --- tier 2: aggregation switches, two planes ------------------
        aggs: Dict[Tuple[int, int], Switch] = {}
        for plane in range(2):
            for a in range(spec.aggs_per_plane):
                sw = topo.add_switch(
                    Switch(
                        name=agg_name(pod, plane, a),
                        role=SwitchRole.AGG,
                        tier=2,
                        pod=pod,
                        plane=plane,
                        chip_gbps=spec.tor_chip_gbps,
                        hash_seed=next(seeds),
                    )
                )
                aggs[(plane, a)] = sw
                # agg -> core wiring, striped
                if spec.cores_per_plane:
                    for j in range(spec.agg_core_uplinks):
                        cidx = (a * spec.agg_core_uplinks + j) % spec.cores_per_plane
                        topo.connect(sw.name, cores[(plane, cidx)].name, TOR_UP_GBPS)

        # --- tier 1: segments ------------------------------------------
        for segment in range(spec.segments_per_pod):
            seg_tors: Dict[Tuple[int, int], Switch] = {}
            for rail in range(spec.rails):
                for plane in range(2):
                    sw = topo.add_switch(
                        Switch(
                            name=tor_name(pod, segment, rail, plane),
                            role=SwitchRole.TOR,
                            tier=1,
                            pod=pod,
                            segment=segment,
                            plane=plane,
                            rail=rail,
                            chip_gbps=spec.tor_chip_gbps,
                            hash_seed=next(seeds),
                        )
                    )
                    seg_tors[(rail, plane)] = sw
                    # ToR -> every agg in its plane
                    for a in range(spec.aggs_per_plane):
                        for _ in range(spec.tor_agg_links):
                            topo.connect(sw.name, aggs[(plane, a)].name, TOR_UP_GBPS)

            # hosts (active + backup)
            total_hosts = spec.hosts_per_segment + spec.backup_hosts_per_segment
            for h in range(total_hosts):
                backup = h >= spec.hosts_per_segment
                host = topo.build_host(
                    name=host_name(pod, segment, h),
                    pod=pod,
                    segment=segment,
                    index=h,
                    num_gpus=spec.gpus_per_host,
                    nic_gbps=spec.nic_gbps,
                    nvlink_gbps=spec.nvlink_gbps,
                    backup=backup,
                )
                for nic in host.backend_nics():
                    for plane in (0, 1):
                        tor = seg_tors[(nic.rail, plane)]
                        topo.attach(nic.ports[plane], tor.name, spec.nic_gbps)

    assign_addresses(topo)
    _check_port_budgets(topo, spec)
    return topo


def _check_port_budgets(topo: Topology, spec: HpnSpec) -> None:
    """Verify no switch exceeds its chip's port budget."""
    for sw in topo.switches.values():
        used = sum(p.gbps for p in topo.ports[sw.name])
        if used > sw.chip_gbps + 1e-6:
            raise SpecError(
                f"{sw.name} uses {used} Gbps of ports, chip is {sw.chip_gbps}"
            )


def segment_hosts(topo: Topology, pod: int, segment: int, active_only: bool = True) -> List[str]:
    """Names of hosts in one segment, ordered by index."""
    out = [
        h.name
        for h in topo.hosts.values()
        if h.pod == pod and h.segment == segment and (not active_only or not h.backup)
    ]
    return sorted(out, key=lambda n: topo.hosts[n].index)


def dual_tor_pair(topo: Topology, pod: int, segment: int, rail: int) -> Tuple[str, str]:
    """The (plane0, plane1) ToR names serving one rail of one segment."""
    return (
        tor_name(pod, segment, rail, 0),
        tor_name(pod, segment, rail, 1),
    )
