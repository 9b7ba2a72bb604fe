"""Table 1: complexity of path selection across architectures.

Paper's rows: HPN O(60) with only the ToR participating in load
balancing, vs SuperPod O(4096), Jupiter O(2048), fat-tree k=48 O(2304)
with every tier hashing. Also verified: the closed-form count matches
a DFS enumeration of actual equal-cost paths on built (scaled)
topologies, and RePaC probing finds exactly that many disjoint paths.
"""

from conftest import report

from repro.routing import (
    Router,
    max_disjoint_paths,
    measured_complexity,
    shared_router,
    table1,
)
from repro.topos import HpnSpec, build_hpn, table1_cards


def test_tab1_closed_form(benchmark):
    rows = benchmark.pedantic(table1, args=(table1_cards(),), rounds=3, iterations=1)
    report(
        "Table 1: path-selection complexity",
        [
            f"{r.name:<18} {r.supported_gpus:>6} GPUs  {r.tiers} tiers  "
            f"{r.lb_switch_roles:<22} O({r.complexity})"
            for r in rows
        ],
    )
    by_name = {r.name: r.complexity for r in rows}
    assert by_name["Pod in HPN"] == 60
    assert by_name["SuperPod"] == 4096
    assert by_name["Jupiter"] == 2048
    assert by_name["Fat tree (k=48)"] == 2304
    hpn = by_name["Pod in HPN"]
    assert all(c / hpn >= 10 for n, c in by_name.items() if n != "Pod in HPN")


def test_tab1_measured_matches_closed_form(benchmark):
    """On a scaled HPN, DFS-enumerated equal paths == ToR fan-out, and
    RePaC can realize all of them as disjoint connections.

    The count runs through the production router (the topology's shared
    ``CachedRouter``, which walks its FIB) and must equal the uncached
    walker's."""
    spec = HpnSpec(
        segments_per_pod=2, hosts_per_segment=4,
        backup_hosts_per_segment=0, aggs_per_plane=6,
    )
    topo = build_hpn(spec)
    src, dst = "pod0/seg0/host0", "pod0/seg1/host0"

    measured = benchmark.pedantic(
        measured_complexity, args=(topo, src, dst), rounds=3, iterations=1,
    )
    report(
        "Table 1 cross-check (scaled HPN, 6 aggs/plane)",
        [
            f"closed form (ToR uplinks): {spec.tor_uplinks}",
            f"DFS-enumerated equal paths: {measured}",
        ],
    )
    assert measured == spec.tor_uplinks
    assert measured == measured_complexity(topo, src, dst, router=Router(topo))

    a = topo.hosts[src].nic_for_rail(0)
    b = topo.hosts[dst].nic_for_rail(0)
    assert max_disjoint_paths(
        shared_router(topo), a, b, plane=0, sport_span=2048
    ) == spec.tor_uplinks
