"""Collectives: cost model, connection LB, communicators, operations."""

import math
import random

import pytest

from repro.collective import (
    Communicator,
    LeastLoadedPolicy,
    MessageScheduler,
    RoundRobinPolicy,
    SingleConnectionPolicy,
    all_to_all,
    allgather,
    allreduce,
    establish_conns,
    multi_allreduce,
    pipeline_exchange,
    ring_allgather_edge_bytes,
    ring_allreduce_edge_bytes,
    send_recv,
)
from repro.collective.lb import Connection
from repro.collective.model import GpuBoxProfile, allreduce_busbw
from repro.core.errors import CollectiveError
from repro.core.units import GB, MB
from repro.routing import Router, mutually_disjoint
from repro.routing.path import FlowPath


def _hosts(n, seg=0):
    return [f"pod0/seg{seg}/host{i}" for i in range(n)]


class TestCostModel:
    def test_allreduce_edge_bytes(self):
        assert ring_allreduce_edge_bytes(100, 4) == pytest.approx(150.0)
        assert ring_allreduce_edge_bytes(100, 1) == 0.0

    def test_allgather_edge_bytes(self):
        assert ring_allgather_edge_bytes(100, 4) == pytest.approx(75.0)

    def test_busbw_normalization(self):
        # 1 GB AllReduce over 8 ranks in 1 s: busbw = 2*(7/8) GB/s
        assert allreduce_busbw(GB, 8, 1.0) == pytest.approx(1.75e9)

    def test_busbw_rejects_zero_time(self):
        with pytest.raises(ValueError):
            allreduce_busbw(GB, 8, 0.0)

    def test_profile_times_scale_with_size(self):
        p = GpuBoxProfile()
        assert p.intra_reduce_scatter_time(2 * GB, 8) == pytest.approx(
            2 * p.intra_reduce_scatter_time(GB, 8)
        )
        assert p.intra_allgather_time(GB, 1) == 0.0
        assert p.intra_p2p_time(0) == 0.0


class TestEstablishConns:
    def test_disjoint_paths_on_hpn(self, hpn_small, hpn_router):
        a = hpn_small.hosts["pod0/seg0/host0"].nic_for_rail(0)
        b = hpn_small.hosts["pod0/seg1/host0"].nic_for_rail(0)
        conns = establish_conns(hpn_router, a, b, num_conns=4)
        assert len(conns) == 4
        assert mutually_disjoint([c.path for c in conns])

    def test_alternating_planes(self, hpn_small, hpn_router):
        a = hpn_small.hosts["pod0/seg0/host0"].nic_for_rail(0)
        b = hpn_small.hosts["pod0/seg1/host0"].nic_for_rail(0)
        conns = establish_conns(hpn_router, a, b, num_conns=2)
        planes = {c.path.plane for c in conns}
        assert planes == {0, 1}

    def test_blind_mode_returns_paths_without_guarantee(self, dcn_small, dcn_router):
        a = dcn_small.hosts["pod0/seg0/host0"].nic_for_rail(0)
        b = dcn_small.hosts["pod0/seg1/host1"].nic_for_rail(0)
        conns = establish_conns(dcn_router, a, b, num_conns=4, disjoint=False)
        assert len(conns) == 4
        assert len({c.sport for c in conns}) == 4


class TestScheduler:
    def _conns(self, n=3):
        return [Connection(sport=i, path=FlowPath(nodes=["a", "b"], dirlinks=[i])) for i in range(n)]

    def test_least_loaded_balances_even_drains(self):
        conns = self._conns(3)
        sched = MessageScheduler(conns, LeastLoadedPolicy())
        sched.send_all([10.0] * 30)
        totals = sched.assigned_bytes()
        assert max(totals) - min(totals) <= 10.0

    def test_least_loaded_avoids_congested_connection(self):
        """Algorithm 2: a slow-draining path accumulates WQE backlog and
        receives less new work."""
        conns = self._conns(2)
        sched = MessageScheduler(conns, LeastLoadedPolicy())
        sched.send_all([10.0] * 100, drain_weights=[3.0, 1.0])
        fast, slow = sched.assigned_bytes()
        assert fast > slow

    def test_round_robin_ignores_congestion(self):
        conns = self._conns(2)
        sched = MessageScheduler(conns, RoundRobinPolicy())
        sched.send_all([10.0] * 100, drain_weights=[3.0, 1.0])
        a, b = sched.assigned_bytes()
        assert a == pytest.approx(b)

    def test_single_connection_policy(self):
        conns = self._conns(2)
        sched = MessageScheduler(conns, SingleConnectionPolicy())
        sched.send_all([10.0] * 10)
        assert sched.assigned_bytes() == [100.0, 0.0]

    def test_empty_connection_set_rejected(self):
        with pytest.raises(CollectiveError):
            MessageScheduler([], LeastLoadedPolicy()).send_all([1.0])

    def test_weight_arity_checked(self):
        with pytest.raises(CollectiveError):
            MessageScheduler(self._conns(2)).send_all([1.0], drain_weights=[1.0])

    @pytest.mark.parametrize(
        "weights",
        [[0.0, 0.0], [1.0, -1.0], [float("nan"), 1.0], [-1.0, 3.0]],
        ids=["all-zero", "zero-sum", "nan", "negative"],
    )
    def test_bad_drain_weights_rejected(self, weights):
        with pytest.raises(CollectiveError):
            MessageScheduler(self._conns(2)).send_all([1.0] * 4, drain_weights=weights)

    def test_single_zero_weight_models_a_stalled_connection(self):
        conns = self._conns(2)
        MessageScheduler(conns).send_all([10.0] * 20, drain_weights=[0.0, 1.0])
        stalled, live = conns
        assert stalled.wqe_bytes == stalled.total_bytes > 0.0
        assert live.total_bytes > stalled.total_bytes


def _reference_send_all(conns, policy, message_sizes, drain_weights=None):
    """The per-message Algorithm 2 loop: the oracle for ``send_all``.

    Test infrastructure only. Every message runs one ``pick``, one
    ``post``, one ``list.index`` and one drain of every connection, with
    no cycle skipping.
    """
    weights = list(drain_weights) if drain_weights is not None else [1.0] * len(conns)
    chosen = []
    total_w = sum(weights)
    for i, size in enumerate(message_sizes):
        conn = policy.pick(conns, i)
        conn.post(size)
        chosen.append(conns.index(conn))
        drain_budget = size
        for c, w in zip(conns, weights):
            c.complete(drain_budget * (w / total_w))
    return chosen


_POLICIES = (LeastLoadedPolicy(), RoundRobinPolicy(), SingleConnectionPolicy())

#: one DP-sync ring edge of the fig15 benchmark workload (Fig. 15a's
#: GPT-3 job on HPN): 2 connections, 1,956 equal 4 MiB-class chunks
_FIG15_EDGE_SIZE = float.fromhex("0x1.fff1157f36f82p+21")

#: drain weights under which 8 connections' WQE vector never repeats
#: within 3,000 equal messages (checked by the test that uses them)
_NEVER_REPEATING_WEIGHTS = [0.49, 2.56, 2.31, 0.84, 1.54, 1.4, 1.99, 2.39]


class TestSendAllMatchesReference:
    """``send_all`` is byte-identical to the per-message loop."""

    @staticmethod
    def _conns(counters):
        return [
            Connection(sport=k, path=FlowPath(nodes=["a", "b"], dirlinks=[k]),
                       wqe_bytes=wqe, total_bytes=total)
            for k, (wqe, total) in enumerate(counters)
        ]

    def _check(self, policy, counters, sizes, weights=None):
        ref_conns, conns = self._conns(counters), self._conns(counters)
        want = _reference_send_all(ref_conns, policy, sizes, weights)
        got = MessageScheduler(conns, policy).send_all(sizes, drain_weights=weights)
        assert got == want
        assert [(c.wqe_bytes.hex(), c.total_bytes.hex()) for c in conns] == [
            (c.wqe_bytes.hex(), c.total_bytes.hex()) for c in ref_conns
        ]

    @pytest.mark.parametrize(
        "sizes",
        [[_FIG15_EDGE_SIZE] * 1956, [math.nan] * 40],
        ids=["fig15-edge", "nan"],
    )
    def test_equal_size_stream(self, sizes):
        self._check(LeastLoadedPolicy(), [(0.0, 0.0)] * 2, sizes)

    def test_never_repeating_stream_runs_every_message(self):
        weights, policy = _NEVER_REPEATING_WEIGHTS, LeastLoadedPolicy()
        conns = self._conns([(0.0, 0.0)] * 8)
        seen = set()
        # 375 calls of 8 messages each: the same stream as one call of 3,000
        for _ in range(375):
            vector = tuple(c.wqe_bytes for c in conns)
            assert vector not in seen
            seen.add(vector)
            _reference_send_all(conns, policy, [4.0] * 8, weights)
        self._check(policy, [(0.0, 0.0)] * 8, [4.0] * 3000, weights)

    def test_seeded_fuzz(self):
        rng = random.Random(20241017)
        for _ in range(300):
            n = rng.randint(1, 8)
            if rng.random() < 0.5:
                counters = [(0.0, 0.0)] * n
            else:
                counters = [(rng.choice([0.0, rng.uniform(0.0, 40.0)]),
                             rng.uniform(0.0, 1e3)) for _ in range(n)]
            weights = None
            if rng.random() < 0.6:
                weights = [rng.choice([0.0, 0.2, 1.0, 3.0, rng.uniform(0.0, 5.0)])
                           for _ in range(n)]
                if not sum(weights) > 0.0:
                    weights[rng.randrange(n)] = 1.0
            m = rng.choice([0, 1, 2, rng.randint(3, 40), rng.randint(0, 3000)])
            size = rng.choice([4.0, 10.0, 0.0, _FIG15_EDGE_SIZE, rng.uniform(0.1, 20.0)])
            shape = rng.random()
            if shape < 0.7:
                sizes = [size] * m
            elif shape < 0.85 and m:
                sizes = [size] * m
                sizes[rng.randrange(m)] = size + 1.0
            else:
                sizes = [rng.choice([4.0, 10.0, size]) for _ in range(m)]
            self._check(rng.choice(_POLICIES), counters, sizes, weights)


class TestCommunicator:
    def test_rank_layout(self, hpn_small, hpn_router):
        comm = Communicator(hpn_small, hpn_router, _hosts(2))
        assert comm.world_size == 16
        assert comm.ranks[0].host == "pod0/seg0/host0"
        assert comm.ranks[9].host == "pod0/seg0/host1"
        assert comm.ranks[9].gpu == 1

    def test_rejects_duplicates_and_empty(self, hpn_small, hpn_router):
        with pytest.raises(CollectiveError):
            Communicator(hpn_small, hpn_router, [])
        with pytest.raises(CollectiveError):
            Communicator(hpn_small, hpn_router, ["pod0/seg0/host0"] * 2)

    def test_connection_cache_and_invalidate(self, hpn_small, hpn_router):
        comm = Communicator(hpn_small, hpn_router, _hosts(2))
        c1 = comm.connections("pod0/seg0/host0", "pod0/seg0/host1", 0)
        c2 = comm.connections("pod0/seg0/host0", "pod0/seg0/host1", 0)
        assert c1 is c2
        comm.invalidate_connections()
        assert comm.connections("pod0/seg0/host0", "pod0/seg0/host1", 0) is not c1

    def test_edge_flows_sum_to_volume(self, hpn_small, hpn_router):
        comm = Communicator(hpn_small, hpn_router, _hosts(2))
        flows = comm.edge_flows("pod0/seg0/host0", "pod0/seg0/host1", 0, 64 * MB, tag="t")
        assert sum(f.size_bytes for f in flows) == pytest.approx(64 * MB)

    def test_ring_flows_edges(self, hpn_small, hpn_router):
        comm = Communicator(hpn_small, hpn_router, _hosts(4), num_conns=1)
        flows = comm.ring_flows(0, 10 * MB, tag="ring")
        # 4 edges x 1 connection
        assert len(flows) == 4

    def test_zero_bytes_yield_no_flows(self, hpn_small, hpn_router):
        comm = Communicator(hpn_small, hpn_router, _hosts(2))
        assert comm.edge_flows("pod0/seg0/host0", "pod0/seg0/host1", 0, 0, tag="t") == []


class TestOperations:
    @pytest.fixture(scope="class")
    def comm(self, hpn_small, hpn_router):
        return Communicator(hpn_small, hpn_router, _hosts(4))

    def test_allreduce_result_fields(self, comm):
        res = allreduce(comm, 256 * MB)
        assert res.seconds > 0
        assert res.inter_seconds > 0
        assert res.intra_seconds > 0
        assert res.busbw_gb_per_sec > 0
        assert res.world_size == 32

    def test_allreduce_single_host_is_intra_only(self, hpn_small, hpn_router):
        comm = Communicator(hpn_small, hpn_router, _hosts(1))
        res = allreduce(comm, 256 * MB)
        assert res.inter_seconds == 0.0
        assert res.intra_seconds > 0

    def test_allreduce_size_validation(self, comm):
        with pytest.raises(CollectiveError):
            allreduce(comm, 0)

    def test_allreduce_scales_sublinearly_in_time(self, comm):
        t1 = allreduce(comm, 128 * MB).seconds
        t2 = allreduce(comm, 512 * MB).seconds
        assert 3.0 < t2 / t1 < 5.0

    def test_allgather_bounded_by_nvswitch(self, comm):
        """Figure 17b: AllGather's intra stage dominates."""
        res = allgather(comm, GB)
        assert res.intra_seconds > res.inter_seconds

    def test_multi_allreduce_slower_than_hierarchical(self, comm):
        """All bytes inter-host: Multi-AllReduce busbw < AllReduce busbw."""
        ar = allreduce(comm, 256 * MB)
        mar = multi_allreduce(comm, 256 * MB)
        assert mar.busbw_gb_per_sec < ar.busbw_gb_per_sec
        assert set(mar.rail_finish) == set(range(8))

    def test_multi_allreduce_needs_two_hosts(self, hpn_small, hpn_router):
        comm1 = Communicator(hpn_small, hpn_router, _hosts(1))
        with pytest.raises(CollectiveError):
            multi_allreduce(comm1, MB)

    def test_send_recv_goodput(self, comm):
        res = send_recv(comm, "pod0/seg0/host0", "pod0/seg0/host1", 0, 100 * MB)
        assert res.seconds > 0
        # two conns over two planes: up to 400 Gbps
        assert res.goodput_gbps <= 400.0 + 1e-6
        assert res.goodput_gbps > 100.0

    def test_pipeline_exchange_concurrent(self, comm):
        res = pipeline_exchange(
            comm,
            [("pod0/seg0/host0", "pod0/seg0/host1"),
             ("pod0/seg0/host2", "pod0/seg0/host3")],
            50 * MB,
        )
        assert res.seconds > 0

    def test_all_to_all(self, comm):
        res = all_to_all(comm, 64 * MB)
        assert res.seconds > 0
        assert res.relay_seconds == 0.0  # any-to-any fabric needs no relay

    def test_all_to_all_railonly_relays(self, railonly_small):
        router = Router(railonly_small)
        comm = Communicator(
            railonly_small, router,
            ["seg0/host0", "seg0/host1"], num_conns=1,
        )
        res = all_to_all(comm, 64 * MB)
        assert res.relay_seconds > 0
