"""Cluster facade."""

import pytest

from repro import Cluster, DcnPlusSpec, HpnSpec, SingleTorSpec
from repro.collective import allreduce
from repro.core.units import MB
from repro.training import LLAMA_7B, ParallelismPlan


@pytest.fixture(scope="module")
def cluster():
    return Cluster.hpn(
        HpnSpec(
            segments_per_pod=2, hosts_per_segment=4,
            backup_hosts_per_segment=0, aggs_per_plane=4,
        )
    )


def test_constructors_set_architecture():
    spec = DcnPlusSpec(pods=1, segments_per_pod=1, hosts_per_segment=2,
                       aggs_per_pod=2, tor_agg_links=2)
    assert Cluster.dcnplus(spec).architecture == "dcnplus"
    st = Cluster.singletor(SingleTorSpec(segments=1, hosts_per_segment=2))
    assert st.architecture == "singletor"
    assert not st.is_hpn


def test_place_and_communicate(cluster):
    hosts = cluster.place(4)
    comm = cluster.communicator(hosts)
    assert comm.world_size == 32
    res = allreduce(comm, 64 * MB)
    assert res.seconds > 0


def test_hpn_defaults_to_disjoint_paths(cluster):
    comm = cluster.communicator(["pod0/seg0/host0", "pod0/seg0/host1"])
    assert comm.disjoint_paths


def test_non_hpn_defaults_to_blind_ecmp():
    st = Cluster.singletor(SingleTorSpec(segments=1, hosts_per_segment=2))
    comm = st.communicator(st.place(2))
    assert not comm.disjoint_paths


def test_train_places_automatically():
    c = Cluster.hpn(
        HpnSpec(segments_per_pod=1, hosts_per_segment=4,
                backup_hosts_per_segment=0, aggs_per_plane=2)
    )
    job = c.train(LLAMA_7B, ParallelismPlan(tp=8, pp=1, dp=4))
    assert len(job.placement.hosts) == 4
    assert job.samples_per_sec() > 0
