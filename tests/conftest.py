"""Shared fixtures: small topologies reused across the suite.

Session-scoped because topologies are only mutated by tests that
explicitly say so (those build their own); everything else treats them
as read-only.
"""

from __future__ import annotations

import pytest

from repro.routing import shared_router
from repro.topos import (
    DcnPlusSpec,
    FatTreeSpec,
    HpnSpec,
    RailOnlySpec,
    SingleTorSpec,
    build_dcnplus,
    build_fattree,
    build_hpn,
    build_railonly,
    build_singletor,
)

SMALL_HPN = HpnSpec(
    segments_per_pod=2,
    hosts_per_segment=8,
    backup_hosts_per_segment=1,
    aggs_per_plane=4,
    agg_core_uplinks=0,
)

SMALL_DCN = DcnPlusSpec(
    pods=2,
    segments_per_pod=2,
    hosts_per_segment=4,
    aggs_per_pod=2,
    tor_agg_links=2,
    agg_core_uplinks=4,
    cores_per_group=4,
)


@pytest.fixture(scope="session")
def hpn_small():
    return build_hpn(SMALL_HPN)


@pytest.fixture(scope="session")
def hpn_router(hpn_small):
    return shared_router(hpn_small)


@pytest.fixture(scope="session")
def dcn_small():
    return build_dcnplus(SMALL_DCN)


@pytest.fixture(scope="session")
def dcn_router(dcn_small):
    return shared_router(dcn_small)


@pytest.fixture(scope="session")
def singletor_small():
    return build_singletor(SingleTorSpec(segments=2, hosts_per_segment=4))


@pytest.fixture(scope="session")
def fattree_k4():
    return build_fattree(FatTreeSpec(k=4))


@pytest.fixture(scope="session")
def railonly_small():
    return build_railonly(
        RailOnlySpec(segments_per_pod=2, hosts_per_segment=4, aggs_per_plane=2)
    )


@pytest.fixture()
def hpn_mutable():
    """A fresh small HPN for tests that fail links or switches."""
    return build_hpn(SMALL_HPN)


@pytest.fixture()
def dcn_mutable():
    return build_dcnplus(SMALL_DCN)
