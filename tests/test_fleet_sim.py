"""FleetSimulator: churn loop, FIFO queueing, snapshots, observability."""

from __future__ import annotations

import hashlib
import json
import time

import pytest

from repro import obs
from repro.cluster import Cluster
from repro.core.serialize import to_jsonable
from repro.core.units import GB
from repro.engine import get_experiment
from repro.fabric import Flow, FluidSimulator
from repro.fleet import (
    ArrivalSpec,
    FleetSimulator,
    FrontendTrafficSpec,
    JobArrival,
    build_classes,
    first_solve_tier_util,
    generate_arrivals,
    run_churn,
)
from repro.routing import FiveTuple, Router
from repro.topos.spec import HpnSpec

SMALL = HpnSpec(segments_per_pod=2, hosts_per_segment=8,
                backup_hosts_per_segment=0, aggs_per_plane=4)


def small_cluster():
    return Cluster.hpn(SMALL)


def jobs(*specs):
    """(arrive_s, hosts, duration_s) triples -> JobArrival list."""
    return [
        JobArrival(job_id=i, arrive_s=t, gpus=h * 8, hosts=h, duration_s=d)
        for i, (t, h, d) in enumerate(specs)
    ]


class TestChurnLoop:
    def test_every_admitted_job_completes_and_frees_capacity(self):
        arrivals = generate_arrivals(ArrivalSpec(), 40, seed=5)
        sim = FleetSimulator(small_cluster(), arrivals, seed=5)
        result = sim.run()
        states = {j.state for j in result.jobs}
        assert states <= {"done", "rejected"}
        assert sim.scheduler.occupied == set()
        assert sim.scheduler.owners == {}
        for j in result.admitted:
            assert j.departed_at == pytest.approx(
                j.placed_at + j.arrival.duration_s
            )

    def test_oversized_jobs_rejected_not_deadlocked(self):
        # 17 hosts > 16-host cluster: reject; the rest still run
        sim = FleetSimulator(small_cluster(), jobs(
            (0.0, 17, 50.0), (1.0, 4, 50.0)
        ))
        result = sim.run()
        assert result.jobs[0].state == "rejected"
        assert result.jobs[1].state == "done"

    def test_fifo_head_blocks_smaller_later_jobs(self):
        # job1 (12 hosts) cannot fit behind job0 (8 hosts); job2
        # (2 hosts) would fit but strict FIFO makes it wait for job1
        sim = FleetSimulator(small_cluster(), jobs(
            (0.0, 8, 100.0), (1.0, 12, 10.0), (2.0, 2, 10.0)
        ))
        result = sim.run()
        j0, j1, j2 = result.jobs
        assert j1.placed_at == pytest.approx(100.0)  # after job0 departs
        assert j2.placed_at >= j1.placed_at

    def test_queue_wait_measured_from_arrival(self):
        sim = FleetSimulator(small_cluster(), jobs(
            (0.0, 16, 60.0), (5.0, 4, 10.0)
        ))
        result = sim.run()
        assert result.jobs[1].queue_wait_s == pytest.approx(55.0)

    def test_makespan_and_busy_accounting(self):
        sim = FleetSimulator(small_cluster(), jobs((0.0, 2, 30.0)))
        result = sim.run()
        assert result.makespan_s == pytest.approx(30.0)
        assert result.busy_gpu_seconds == pytest.approx(2 * 8 * 30.0)
        assert result.total_gpus == 16 * 8


class TestChurnAtPodScale:
    def test_every_arrival_resolves_within_budget(self):
        """240 arrivals over a 6-segment pod with frontend classes."""
        params = {
            "arch": "hpn", "segments": 6, "hosts_per_segment": 16,
            "aggs_per_plane": 8, "pods": 1, "arrivals": 240,
            "policy": "pack", "snapshots": 6, "frontend": True,
            "mean_interarrival_s": 120.0, "mean_duration_s": 3600.0,
            "edge_mb": 64.0,
        }
        t0 = time.perf_counter()
        payload = run_churn(params, 7)
        wall_s = time.perf_counter() - t0
        assert payload["arrivals"] == 240
        # admitted jobs all complete, the rest are capacity
        # rejections: nothing hangs in the queue
        assert payload["admitted"] + payload["rejected"] == 240
        assert payload["completed"] == payload["admitted"]
        snapshots = payload["snapshots"]
        classes = sum(len(s["frontend"].get("classes", []))
                      for s in snapshots)
        assert classes >= 2 * len(snapshots)
        # snapshots bound the fluid work by snapshots x flows, so the
        # churn's length cannot drag simulation cost with it
        assert wall_s <= 20.0


class TestSnapshots:
    def test_slowdown_never_below_one(self):
        arrivals = generate_arrivals(ArrivalSpec(), 20, seed=9)
        sim = FleetSimulator(small_cluster(), arrivals, policy="interleave",
                             seed=9)
        result = sim.run(snapshots=3)
        assert len(result.snapshots) == 3
        for snap in result.snapshots:
            backend = snap["backend"]
            if not backend:
                continue
            assert backend["mean_slowdown"] >= 1.0 - 1e-9
            for entry in backend["per_job"]:
                assert entry["slowdown"] >= 1.0 - 1e-9
            for util in backend["tier_util"].values():
                assert 0.0 <= util <= 1.0 + 1e-9

    def test_single_host_jobs_make_no_backend_flows(self):
        sim = FleetSimulator(small_cluster(), jobs((0.0, 1, 50.0)))
        sim.run()
        sim._running = {0: sim.jobs[0]}
        sim.jobs[0].state = "running"
        assert sim._job_flows(sim.jobs[0], 49152) == []

    def test_frontend_storm_classes_follow_running_jobs(self):
        spec = FrontendTrafficSpec(synchronized_checkpoints=True)
        running = [(0, 256, 0.0), (1, 512, 0.0)]
        # inside the write window: storm per job + inference + storage
        classes = build_classes(spec, running, now_s=10.0)
        assert [c.kind for c in classes].count("checkpoint") == 2
        # past the write window: storms gone
        classes = build_classes(
            spec, running, now_s=spec.checkpoint.write_seconds + 1.0
        )
        assert [c.kind for c in classes].count("checkpoint") == 0

    def test_first_solve_tier_util_is_first_link_util_sample(self):
        topo = small_cluster().topo
        router = Router(topo)
        flows = []
        for i in range(6):
            # cross-segment, so both the access and the agg tier load;
            # staggered sizes finish at different times (several solves)
            a = topo.hosts[f"pod0/seg0/host{i}"].nic_for_rail(0)
            b = topo.hosts[f"pod0/seg1/host{i % 2}"].nic_for_rail(0)
            ft = FiveTuple(a.ip, b.ip, 49152 + i, 4791)
            flows.append(Flow(ft, (i + 1) * GB, router.path_for(a, b, ft)))
        rec = obs.Recorder()
        sim = FluidSimulator(topo, recorder=rec)
        sim.add_flows(flows)
        tier_util = first_solve_tier_util(sim)
        assert tier_util == {}
        sim.run()
        assert sim.on_solve is None  # the hook removed itself
        assert list(tier_util) == ["access", "agg"]
        for tier, util in tier_util.items():
            samples = rec.metrics.gauge("link_util", tier=tier).samples
            assert len(samples) > 1
            assert util == round(samples[0][1], 6)
        # the agg peak moves after the first solve, so a later one differs
        agg = rec.metrics.gauge("link_util", tier="agg").samples
        assert agg[0][1] != agg[-1][1]


class TestGoldenPayloads:
    """Three fleet payloads, byte for byte.

    One sha256 per run of ``json.dumps(to_jsonable(payload),
    sort_keys=True)``, recorded while snapshots still kept a dirlink
    load map per solve and took the per-tier peaks of the first one,
    before they read ``FluidSimulator.link_view()``. Between them the
    runs hold 22 non-empty ``tier_util`` dicts, plus slowdowns, queue
    waits and fragmentation, so a mismatch is a change in what a
    snapshot measures.
    """

    @pytest.mark.parametrize("name, seed, params, digest", [
        ("fleet.churn", 0, {},
         "1da6ad6aea45d34d609acb4f8cdac7e540c1c199f74f0dcc512c3c7909d0a9ba"),
        ("fleet.churn", 2, {"arch": "dcnplus", "snapshots": 6},
         "da470a4f28271dc16c57e5792da1bc61366eeeb1de322fc47896df90282e9d93"),
        ("fleet.interference", 0, {},
         "0d66d496a71862c86ec2792c7e79dd2095f916f2f29b1bb0a1d640d03a5a0694"),
    ], ids=["churn", "churn-dcnplus", "interference"])
    def test_payload_bytes(self, name, seed, params, digest):
        defn = get_experiment(name)
        payload = defn.fn(dict(defn.defaults, **params), seed)
        text = json.dumps(to_jsonable(payload), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestObservability:
    def test_metrics_and_job_tracks_emitted(self):
        arrivals = jobs((0.0, 4, 20.0), (1.0, 16, 10.0), (2.0, 2, 5.0))
        with obs.recording() as rec:
            sim = FleetSimulator(small_cluster(), arrivals, recorder=rec)
            sim.run(snapshots=1)
        assert rec.metrics.counter("fleet.jobs_admitted").value == 3
        assert rec.metrics.counter("fleet.jobs_completed").value == 3
        assert rec.metrics.gauge("fleet.jobs_running").value == 0
        assert rec.metrics.histogram("fleet.queue_wait").count == 3
        doc = obs.chrome_trace(rec)
        obs.validate_chrome_trace(doc)
        threads = {
            e["args"]["name"] for e in doc["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "thread_name"
        }
        assert {"job0", "job1", "job2", "fleet"} <= threads
        spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert {"job.queued", "job.running"} <= {e["name"] for e in spans}
