"""Figure 15: production-scale end-to-end training, HPN vs DCN+.

Paper's run: a proprietary GPT-3-variant job on 2300+ GPUs (288+
hosts) migrated from DCN+ (spanning 19 segments) to HPN (3 segments):

* (a) end-to-end throughput improved >14.9%;
* (b) cross-segment (aggregation) traffic dropped 37% on average;
* (c) aggregation-switch queues shrank dramatically.

Reproduction: GPT-3 175B with TP=8 / PP=8 / DP=36 on 288 hosts; DCN+
placement fragmented to ~15 free hosts per segment (the paper's job
landed on 19 segments where 18 would fit).
"""

import pytest
from conftest import report, set_fair_rates

from repro import Cluster, DcnPlusSpec, HpnSpec
from repro.fabric import QueueTracker, agg_ingress_gbps
from repro.training import GPT3_175B, ParallelismPlan, dp_sync_flows
from repro.training.traffic import dp_gradient_bytes

PLAN = ParallelismPlan(tp=8, pp=8, dp=36)
MICROBATCHES = 24


@pytest.fixture(scope="module")
def hpn_job():
    cluster = Cluster.hpn(
        HpnSpec(segments_per_pod=3, hosts_per_segment=128,
                backup_hosts_per_segment=8, aggs_per_plane=60)
    )
    hosts = cluster.place(288)
    job = cluster.train(GPT3_175B, PLAN, hosts, microbatches=MICROBATCHES)
    return cluster, job


@pytest.fixture(scope="module")
def dcn_job():
    cluster = Cluster.dcnplus(
        DcnPlusSpec(pods=1, segments_per_pod=24, hosts_per_segment=16)
    )
    # fragmentation: ~15 free hosts per segment -> the job lands on 20
    # segments (the paper's landed on 19)
    hosts = cluster.place(288, max_hosts_per_segment=15)
    job = cluster.train(GPT3_175B, PLAN, hosts, microbatches=MICROBATCHES)
    return cluster, job


def test_fig15a_training_throughput(benchmark, hpn_job, dcn_job):
    h_cluster, h_job = hpn_job
    d_cluster, d_job = dcn_job
    h_it = benchmark.pedantic(h_job.iteration, rounds=1, iterations=1)
    d_it = d_job.iteration()

    gain = h_it.samples_per_sec / d_it.samples_per_sec - 1
    report(
        "Figure 15a: 2300+-GPU end-to-end training",
        [
            f"HPN : {h_it.samples_per_sec:7.1f} samples/s "
            f"({h_job.segments_spanned()} segments, dp sync {h_it.dp_seconds:.3f}s, "
            f"exposed {h_it.dp_exposed_seconds:.3f}s)",
            f"DCN+: {d_it.samples_per_sec:7.1f} samples/s "
            f"({d_job.segments_spanned()} segments, dp sync {d_it.dp_seconds:.3f}s, "
            f"exposed {d_it.dp_exposed_seconds:.3f}s)",
            f"HPN gain: {gain:+.1%} (paper: >+14.9%)",
        ],
    )
    # paper's segment framing: 3 vs ~19
    assert h_job.segments_spanned() == 3
    assert d_job.segments_spanned() >= 19
    # the headline: a clear double-digit-neighbourhood improvement
    assert gain > 0.05


def _dp_flows_with_rates(cluster, job):
    grad = dp_gradient_bytes(GPT3_175B, PLAN)
    return set_fair_rates(cluster, dp_sync_flows(job.comm, job.placement, grad))


def test_fig15b_cross_segment_traffic(benchmark, hpn_job, dcn_job):
    h_cluster, h_job = hpn_job
    d_cluster, d_job = dcn_job
    h_flows = benchmark.pedantic(
        _dp_flows_with_rates, args=(h_cluster, h_job), rounds=1, iterations=1
    )
    d_flows = _dp_flows_with_rates(d_cluster, d_job)

    h_agg = agg_ingress_gbps(h_cluster.topo, h_flows)
    d_agg = agg_ingress_gbps(d_cluster.topo, d_flows)
    drop = 1 - h_agg / d_agg if d_agg else 0.0
    report(
        "Figure 15b: aggregation-layer ingress during DP sync",
        [
            f"HPN : {h_agg/1000:8.1f} Tbps entering aggregation switches",
            f"DCN+: {d_agg/1000:8.1f} Tbps entering aggregation switches",
            f"cross-segment traffic reduction: {drop:.1%} (paper: 37% average)",
        ],
    )
    assert h_agg < d_agg
    assert drop > 0.2


def test_fig15c_agg_queue_length(benchmark, hpn_job, dcn_job):
    h_cluster, h_job = hpn_job
    d_cluster, d_job = dcn_job

    def agg_queue(cluster, job):
        grad = dp_gradient_bytes(GPT3_175B, PLAN)
        flows = dp_sync_flows(job.comm, job.placement, grad)
        tracker = QueueTracker(cluster.topo)
        tracker.step(flows, 0.01)
        # max queue on links whose egress enters/leaves an agg switch
        agg_names = {s.name for s in cluster.topo.switches.values() if s.tier == 2}
        worst = 0.0
        for dl, q in tracker.queues.items():
            link = cluster.topo.links[dl // 2]
            if link.a.node in agg_names or link.b.node in agg_names:
                worst = max(worst, q)
        return worst

    h_q = benchmark.pedantic(agg_queue, args=(h_cluster, h_job), rounds=1, iterations=1)
    d_q = agg_queue(d_cluster, d_job)
    report(
        "Figure 15c: worst aggregation-layer queue during DP sync",
        [
            f"HPN : {h_q/1e6:8.2f} MB",
            f"DCN+: {d_q/1e6:8.2f} MB",
        ],
    )
    assert h_q <= d_q
