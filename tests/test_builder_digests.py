"""Every topology builder lays the same fabric, byte for byte.

Each case pins, for one built fabric, the sha256 of
``topology_to_json``, a digest of the sorted ``(switch, hash_seed)``
pairs, the final ``structure_epoch`` and the link count. The values
were recorded from the builders when each laid its links with
``alloc_port`` and ``wire`` by hand and kept its own seed counter, so a
mismatch means a builder now wires, numbers or seeds differently.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import topology_to_json
from repro.topos import (
    DcnPlusSpec,
    FatTreeSpec,
    FrontendSpec,
    HpnSpec,
    RailOnlySpec,
    SingleTorSpec,
    build_dcnplus,
    build_fattree,
    build_frontend,
    build_hpn,
    build_railonly,
    build_singletor,
)
from repro.topos.threetier import (
    ThreeTierSpec,
    build_jupiter_like,
    build_superpod_like,
    build_threetier,
)

CASES = {
    # hpnbench's `pod` and `fig15` shapes
    "hpn-pod": lambda: build_hpn(HpnSpec(
        segments_per_pod=15, hosts_per_segment=16,
        backup_hosts_per_segment=0, aggs_per_plane=60)),
    "hpn-fig15": lambda: build_hpn(HpnSpec(
        segments_per_pod=3, aggs_per_plane=60)),
    "hpn-2pod-cores-unpolarized": lambda: build_hpn(HpnSpec(
        pods=2, segments_per_pod=2, hosts_per_segment=4,
        backup_hosts_per_segment=1, aggs_per_plane=4, agg_core_uplinks=2,
        cores_per_plane=2, polarized_hashing=False)),
    "dcnplus-1pod": lambda: build_dcnplus(DcnPlusSpec(
        pods=1, segments_per_pod=4, hosts_per_segment=16)),
    "dcnplus-2pod-unpolarized": lambda: build_dcnplus(DcnPlusSpec(
        pods=2, segments_per_pod=2, hosts_per_segment=4, aggs_per_pod=2,
        tor_agg_links=2, agg_core_uplinks=4, cores_per_group=4,
        polarized_hashing=False)),
    "railonly": lambda: build_railonly(RailOnlySpec(
        segments_per_pod=2, hosts_per_segment=4, aggs_per_plane=2)),
    "singletor": lambda: build_singletor(SingleTorSpec(
        segments=2, hosts_per_segment=4)),
    "singletor-unpolarized": lambda: build_singletor(SingleTorSpec(
        segments=2, hosts_per_segment=4, polarized_hashing=False)),
    "fattree-k4": lambda: build_fattree(FatTreeSpec(k=4)),
    "frontend": lambda: build_frontend(FrontendSpec(
        compute_hosts=8, storage_hosts=4, hosts_per_tor_pair=8,
        aggs=2, cores=2)),
    "threetier-superpod": build_superpod_like,
    "threetier-jupiter": build_jupiter_like,
    "threetier-unpolarized": lambda: build_threetier(ThreeTierSpec(
        pods=2, cores=2, spine_core_links=2, polarized_hashing=False)),
}

#: case -> (sha256 of topology_to_json, sha256 of the sorted
#: (switch, hash_seed) pairs, structure_epoch, links)
EXPECTED = {
    "dcnplus-1pod": (
        "466daaaf6718f683dd7a09e3a625b9f31f9bb7f0982b9cd0a844b8a40bd8c753",
        "55f78f08d50c17a88118e9a608225f61c7de2ced525d7c7ef2b72ea6b7449fef",
        1536, 1536),
    "dcnplus-2pod-unpolarized": (
        "064e44560ca7a84267949272b2f611147d88422f2f25d767aaabcb9b8f5b989d",
        "e4e4301b2cea46cefcd384817bab82112a1fcb994f5be64c2da18af14ddc2a47",
        304, 304),
    "fattree-k4": (
        "5fd23c7026e11ae7a007fdc9c444d4fb4b2849e1d0cb17d4705bf154c6af0c08",
        "b2b06d8ffda30b16c171733c68fe8d94f9292e4b58bfe68064b16f398ec4d6fd",
        48, 48),
    "frontend": (
        "f459b17749dca85290143e538e74abee632af04d12e0f5707b8db57261bd7a0c",
        "a7f07b14d0b270fe4f70fbf23df9f386fdc934fe8ce9c632ac60757066e8a1d3",
        88, 88),
    "hpn-2pod-cores-unpolarized": (
        "b99c8d20affa91a2df9646bc32b991046a2adfeed382136165ccdc5c655986e9",
        "ba1dbc303a7c8744cbed9675df6b0ab8c935b9fcf724f2f94271c4f745054f8c",
        608, 608),
    "hpn-fig15": (
        "443f192e0b897420e1606c8ebb77208f0cea9520b145f71a8ddae758d20dfc16",
        "8d619d0b03b21cca8ca285090308fb7f9e5f10304ec5ace39ca1863bdd7cbc30",
        9408, 9408),
    "hpn-pod": (
        "aeefc5a2c176fc720ffdd34110f4173b225422c8ba696395f181b62e945e371b",
        "fdfcbcd61c95d1f175c9b723ec8171aa30ae563df4c2cf6c8056b2b6fa12de93",
        18240, 18240),
    "railonly": (
        "dc97964026e1d20756dc7487c3a0bf09dcbc68c4a0d1d0ca9d2a23837beeaec4",
        "e5efaf407e147f8158e8d226a9b6946a165943ba491bc52acb3b2ad21917b156",
        192, 192),
    "singletor": (
        "469cc640d70f1fc5e1a91b85a40934a2afe1fcc8dc529a59beb447b5a9312a63",
        "f9ca4441051906a7953040ee896e57d749e1b1458f269b53592027c15b85ff16",
        192, 192),
    "singletor-unpolarized": (
        "e90d8b1e05995e38b893b3837e81c151ee07b3d20de15bc6b734fb003eab1298",
        "c0eb6c48e5bdd193f9cb626d005ed55fc84539164f67ae003cec0a27e5419b9b",
        192, 192),
    "threetier-jupiter": (
        "9fd345a92d30b2b45a0ec5aa233815ab6a5379ff65a430c818fb440c26c24ed2",
        "61e76c4e751f3f895acc58dd4e31360c7cdd2a69dc5c86cdd8ad4545c9d6e3e1",
        160, 160),
    "threetier-superpod": (
        "975bd98af14f9886893eb83763f22d33095330b1b8c91bf50048504deb1402ef",
        "d6d717ea4abe44fc89ac44260c96ee082ff5662a824eee83c712492c3305fa05",
        224, 224),
    "threetier-unpolarized": (
        "38fa866c230d28d6a163b7642517835b7abda0195f5682c2e775e5d9bbb8bece",
        "f9e99086fb8c088f333e7965b3965806323b89d4cec4705774ee2e7b76cce7d1",
        288, 288),
}


def builder_digest(topo):
    seeds = sorted((sw.name, sw.hash_seed) for sw in topo.switches.values())
    return (
        hashlib.sha256(topology_to_json(topo).encode()).hexdigest(),
        hashlib.sha256(repr(seeds).encode()).hexdigest(),
        topo.structure_epoch,
        len(topo.links),
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_builder_lays_the_recorded_fabric(case):
    assert builder_digest(CASES[case]()) == EXPECTED[case]
