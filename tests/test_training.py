"""Training model: configs, parallelism, traffic, iterations, jobs."""

import pytest

from repro.core.errors import PlacementError
from repro.core.units import GB, MB
from repro.training import (
    GPT3_175B,
    H800,
    LLAMA_13B,
    LLAMA_7B,
    ParallelismPlan,
    Placement,
    Scheduler,
    compute_seconds_per_sample,
    dp_gradient_bytes,
    iteration_traffic,
    make_job,
    pp_boundary_bytes,
    simulate_iteration,
    tp_activation_bytes,
)
from repro.collective import Communicator


def _hosts(n, seg=0):
    return [f"pod0/seg{seg}/host{i}" for i in range(n)]


class TestModels:
    def test_param_bytes_bf16(self):
        assert GPT3_175B.param_bytes == pytest.approx(350e9)

    def test_flops_6n_rule(self):
        assert LLAMA_7B.flops_per_token() == pytest.approx(42e9)
        assert LLAMA_7B.flops_per_sample() == pytest.approx(42e9 * 2048)

    def test_compute_seconds_scale_with_world(self):
        t1 = compute_seconds_per_sample(GPT3_175B, H800, 64)
        t2 = compute_seconds_per_sample(GPT3_175B, H800, 128)
        assert t1 == pytest.approx(2 * t2)

    def test_world_size_validation(self):
        with pytest.raises(ValueError):
            compute_seconds_per_sample(GPT3_175B, H800, 0)


class TestParallelismPlan:
    def test_world_and_hosts(self):
        plan = ParallelismPlan(tp=8, pp=8, dp=4)
        assert plan.world_size == 256
        assert plan.num_hosts == 32

    def test_tp_exceeding_host_rejected(self):
        with pytest.raises(PlacementError):
            ParallelismPlan(tp=16, pp=1, dp=1)

    def test_tp_must_divide_gpus(self):
        with pytest.raises(PlacementError):
            ParallelismPlan(tp=3, pp=1, dp=1)

    def test_nonhost_multiple_world_rejected(self):
        plan = ParallelismPlan(tp=2, pp=1, dp=1)
        with pytest.raises(PlacementError):
            _ = plan.num_hosts


class TestPlacement:
    @pytest.fixture()
    def placement(self):
        plan = ParallelismPlan(tp=8, pp=2, dp=2)
        return Placement(plan=plan, hosts=_hosts(4))

    def test_host_count_checked(self):
        plan = ParallelismPlan(tp=8, pp=2, dp=2)
        with pytest.raises(PlacementError):
            Placement(plan=plan, hosts=_hosts(3))

    def test_rank_coords_roundtrip(self, placement):
        for rank in range(placement.plan.world_size):
            d, p, t = placement.rank_coords(rank)
            assert placement.rank_of(d, p, t) == rank

    def test_tp_groups_intra_host(self, placement):
        assert placement.tp_groups_intra_host()
        assert len(placement.tp_groups()) == 4

    def test_dp_groups_one_per_pp_tp(self, placement):
        groups = placement.dp_groups()
        assert len(groups) == 2 * 8
        for group in groups:
            assert len(group) == 2

    def test_dp_group_hosts_ride_one_rail(self, placement):
        for rail, hosts in placement.dp_group_hosts():
            assert 0 <= rail < 8
            assert len(hosts) == 2
            assert len(set(hosts)) == 2

    def test_pp_groups_and_boundaries(self, placement):
        groups = placement.pp_groups()
        assert len(groups) == 2 * 8
        pairs = placement.pp_boundary_host_pairs()
        assert pairs  # pp=2 across distinct hosts
        for src, dst in pairs:
            assert src != dst


class TestTraffic:
    def test_table3_dp_volume(self):
        plan = ParallelismPlan(tp=8, pp=8, dp=512)
        assert dp_gradient_bytes(GPT3_175B, plan) == pytest.approx(5.47 * GB, rel=0.01)

    def test_table3_tp_volume(self):
        plan = ParallelismPlan(tp=8, pp=8, dp=512)
        tp = tp_activation_bytes(GPT3_175B, plan)
        assert 450 * MB < tp < 700 * MB  # paper: 560 MB

    def test_table3_pp_volume(self):
        plan = ParallelismPlan(tp=8, pp=8, dp=512)
        pp = pp_boundary_bytes(GPT3_175B, plan)
        assert 4 * MB < pp < 9 * MB  # paper: 6 MB

    def test_traffic_ordering_matches_paper(self):
        """Table 3: DP >> TP >> PP."""
        plan = ParallelismPlan(tp=8, pp=8, dp=512)
        tr = iteration_traffic(GPT3_175B, plan)
        assert tr.dp_bytes > tr.tp_bytes > tr.pp_bytes_per_boundary

    def test_pp_total_scales_with_microbatches(self):
        plan = ParallelismPlan(tp=8, pp=8, dp=512)
        tr = iteration_traffic(GPT3_175B, plan, microbatches=16)
        assert tr.pp_bytes_total == pytest.approx(16 * tr.pp_bytes_per_boundary)


class TestIteration:
    @pytest.fixture(scope="class")
    def comm(self, hpn_small, hpn_router):
        return Communicator(hpn_small, hpn_router, _hosts(8))

    def test_breakdown_consistency(self, comm):
        placement = Placement(plan=ParallelismPlan(tp=8, pp=2, dp=4), hosts=_hosts(8))
        it = simulate_iteration(comm, placement, LLAMA_13B)
        assert it.total_seconds >= it.compute_seconds
        assert it.dp_exposed_seconds <= it.dp_seconds
        assert it.samples_per_sec > 0

    def test_more_overlap_never_slower(self, comm):
        placement = Placement(plan=ParallelismPlan(tp=8, pp=2, dp=4), hosts=_hosts(8))
        lo = simulate_iteration(comm, placement, LLAMA_13B, overlap=0.0)
        hi = simulate_iteration(comm, placement, LLAMA_13B, overlap=0.9)
        assert hi.total_seconds <= lo.total_seconds

    def test_pp_traffic_present_with_pipeline(self, comm):
        placement = Placement(plan=ParallelismPlan(tp=8, pp=2, dp=4), hosts=_hosts(8))
        it = simulate_iteration(comm, placement, GPT3_175B)
        assert it.pp_seconds > 0

    def test_dp1_has_no_dp_traffic(self, hpn_small, hpn_router):
        comm = Communicator(hpn_small, hpn_router, _hosts(2))
        placement = Placement(plan=ParallelismPlan(tp=8, pp=2, dp=1), hosts=_hosts(2))
        it = simulate_iteration(comm, placement, LLAMA_7B)
        assert it.dp_seconds == 0.0


class TestJob:
    def test_job_runs_and_reports(self, hpn_small, hpn_router):
        job = make_job(
            hpn_small, hpn_router, LLAMA_7B,
            ParallelismPlan(tp=8, pp=1, dp=8), _hosts(8),
        )
        assert job.samples_per_sec() > 0
        assert job.segments_spanned() == 1

    def test_job_detects_degradation(self, hpn_mutable):
        from repro.routing import Router

        router = Router(hpn_mutable)
        hosts = _hosts(8)
        job = make_job(
            hpn_mutable, router, LLAMA_13B,
            ParallelismPlan(tp=8, pp=1, dp=8), hosts, overlap=0.0,
        )
        base = job.samples_per_sec()
        nic = hpn_mutable.hosts[hosts[0]].nic_for_rail(0)
        hpn_mutable.set_link_state(hpn_mutable.port(nic.ports[0]).link_id, False)
        assert job.samples_per_sec() < base


class TestScheduler:
    def test_contiguous_fill(self, hpn_small):
        sched = Scheduler(hpn_small)
        hosts = sched.place(8)
        assert sched.segments_spanned(hosts) == 1

    def test_fragmented_spreads(self, hpn_small):
        sched = Scheduler(hpn_small)
        hosts = sched.place(8, max_hosts_per_segment=4)
        assert sched.segments_spanned(hosts) == 2

    def test_interleaved_order(self, hpn_small):
        sched = Scheduler(hpn_small)
        hosts = sched.place(4, max_hosts_per_segment=2, interleave=True)
        segs = [hpn_small.hosts[h].segment for h in hosts]
        assert segs == [0, 1, 0, 1]

    def test_occupancy_respected(self, hpn_small):
        sched = Scheduler(hpn_small)
        first = sched.place(8)
        second = sched.place(8)
        assert not set(first) & set(second)

    def test_over_allocation_rejected(self, hpn_small):
        sched = Scheduler(hpn_small)
        with pytest.raises(PlacementError):
            sched.place(1000)

    def test_release_returns_capacity(self, hpn_small):
        sched = Scheduler(hpn_small)
        hosts = sched.place(16)
        with pytest.raises(PlacementError):
            sched.place(16)
        sched.release(hosts)
        assert len(sched.place(16)) == 16

    def test_backup_hosts_not_allocated(self, hpn_small):
        sched = Scheduler(hpn_small)
        hosts = sched.place(16)
        assert all(not hpn_small.hosts[h].backup for h in hosts)

    def test_cross_pod_placement(self):
        from repro.topos import HpnSpec, build_hpn

        topo = build_hpn(
            HpnSpec(
                pods=2, segments_per_pod=1, hosts_per_segment=4,
                backup_hosts_per_segment=0, aggs_per_plane=2,
                agg_core_uplinks=2, cores_per_plane=2,
            )
        )
        sched = Scheduler(topo)
        hosts = sched.place_cross_pod(hosts_per_stage=2, pp=4, pods=[0, 1])
        pods = [topo.hosts[h].pod for h in hosts]
        assert pods == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_cross_pod_divisibility(self, hpn_small):
        sched = Scheduler(hpn_small)
        with pytest.raises(PlacementError):
            sched.place_cross_pod(hosts_per_stage=1, pp=3, pods=[0, 1])
