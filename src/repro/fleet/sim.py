"""The fleet simulator: admit -> place -> run -> depart over sim time.

:class:`FleetSimulator` drives a whole cluster's worth of job churn:
a seeded arrival trace (:mod:`.arrivals`) flows through a pluggable
placement policy (:mod:`.policies`) onto a
:class:`~repro.training.scheduler.Scheduler`, with strict-FIFO
queueing, departures releasing capacity, and optional **interference
snapshots** that drop the instantaneous traffic population -- one
collective ring per running job plus the frontend's aggregated flow
classes (:mod:`.frontend`) -- into
:class:`~repro.fabric.simulator.FluidSimulator` instances to measure
tenant interference and per-tier contention.

Observability: under an active :mod:`repro.obs` recorder the simulator
emits ``fleet.*`` metrics (jobs running, queue depth/wait, GPUs busy)
and one Chrome-trace track per job (queued + running spans), so
``repro trace fleet.churn`` renders the whole fleet timeline.

The module-level entry points :func:`run_churn` and
:func:`run_interference` are the pure ``(params, seed)`` functions the
engine catalogue registers.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..cluster import Cluster
from ..core.errors import PlacementError
from ..engine.spec import derive_seed
from ..fabric.flow import Flow
from ..fabric.simulator import FluidSimulator
from ..obs import resolve as _obs_resolve
from ..routing.hashing import FiveTuple
from ..topos.spec import DcnPlusSpec, HpnSpec
from ..training.scheduler import Scheduler
from .arrivals import ArrivalSpec, JobArrival, generate_arrivals
from .frontend import (
    FrontendModel,
    FrontendTrafficSpec,
    build_classes,
    first_solve_tier_util,
)
from .policies import PlacementDecision, get_policy

_EPS = 1e-9
_DPORT = 4791


@dataclass
class FleetJob:
    """One job's lifecycle inside the simulator."""

    arrival: JobArrival
    state: str = "pending"  # pending | queued | running | done | rejected
    placed_at: Optional[float] = None
    departed_at: Optional[float] = None
    decision: Optional[PlacementDecision] = None

    @property
    def job_id(self) -> int:
        return self.arrival.job_id

    @property
    def queue_wait_s(self) -> float:
        if self.placed_at is None:
            return 0.0
        return self.placed_at - self.arrival.arrive_s


@dataclass
class FleetResult:
    """Everything one fleet run produced."""

    jobs: List[FleetJob]
    snapshots: List[Dict[str, Any]]
    makespan_s: float
    busy_gpu_seconds: float
    total_gpus: int

    @property
    def admitted(self) -> List[FleetJob]:
        return [j for j in self.jobs if j.decision is not None]

    @property
    def rejected(self) -> List[FleetJob]:
        return [j for j in self.jobs if j.state == "rejected"]


class FleetSimulator:
    """Event-driven multi-job cluster simulation on one backend fabric."""

    def __init__(
        self,
        cluster: Cluster,
        arrivals: Sequence[JobArrival],
        policy: str = "pack",
        frontend_traffic: Optional[FrontendTrafficSpec] = None,
        frontend_model: Optional[FrontendModel] = None,
        edge_mb: float = 64.0,
        snapshot_window_s: float = 100.0,
        seed: int = 0,
        recorder=None,
    ):
        self.cluster = cluster
        self.arrivals = sorted(arrivals, key=lambda a: (a.arrive_s, a.job_id))
        self.policy = get_policy(policy)
        self.frontend_traffic = frontend_traffic
        self._frontend = frontend_model
        self.edge_mb = edge_mb
        self.snapshot_window_s = snapshot_window_s
        self.seed = seed
        # fresh scheduler: fleet occupancy never leaks across runs
        self.scheduler = Scheduler(cluster.topo)
        self.capacity_hosts = len(list(cluster.topo.active_hosts()))
        self.gpus_per_host = len(
            cluster.topo.hosts[next(
                iter(sorted(h.name for h in cluster.topo.active_hosts()))
            )].gpus
        )
        self.now = 0.0
        self._events: List[Tuple[float, int, str, Any]] = []
        self._seq = itertools.count()
        self._queue: List[FleetJob] = []
        self._running: Dict[int, FleetJob] = {}
        self.jobs: Dict[int, FleetJob] = {}
        self.snapshots: List[Dict[str, Any]] = []
        self._busy_gpu_seconds = 0.0
        self._rec = _obs_resolve(recorder)
        # health sampler hub when a HealthEngine is attached (one
        # guard per site, same discipline as _rec)
        self._hub = self._rec.health if self._rec is not None else None
        if self._rec is not None:
            m = self._rec.metrics
            self._g_running = m.gauge("fleet.jobs_running")
            self._g_queue = m.gauge("fleet.queue_depth")
            self._g_busy = m.gauge("fleet.gpus_busy")
            self._h_wait = m.histogram("fleet.queue_wait")
            self._c_admitted = m.counter("fleet.jobs_admitted")
            self._c_completed = m.counter("fleet.jobs_completed")
            self._c_rejected = m.counter("fleet.jobs_rejected")

    # ------------------------------------------------------------------
    @property
    def frontend(self) -> Optional[FrontendModel]:
        if self._frontend is None and self.frontend_traffic is not None:
            self._frontend = FrontendModel()
        return self._frontend

    def _push(self, time: float, kind: str, payload: Any) -> None:
        heapq.heappush(self._events, (time, next(self._seq), kind, payload))

    def _gauge_update(self) -> None:
        if self._rec is None:
            return
        running = self._running.values()
        self._g_running.set(len(self._running), ts_s=self.now)
        self._g_queue.set(len(self._queue), ts_s=self.now)
        self._g_busy.set(sum(j.arrival.gpus for j in running), ts_s=self.now)
        if self._hub is not None:
            self._hub.sample_fleet(
                self.now, len(self._running), len(self._queue))

    # ------------------------------------------------------------------
    def run(self, snapshots: int = 0) -> FleetResult:
        """Process every arrival to completion; returns the record."""
        for arrival in self.arrivals:
            self.jobs[arrival.job_id] = FleetJob(arrival)
            self._push(arrival.arrive_s, "arrive", arrival.job_id)
        for k, t in enumerate(self._snapshot_times(snapshots)):
            self._push(t, "snapshot", k)
        while self._events:
            time, _seq, kind, payload = heapq.heappop(self._events)
            self.now = max(self.now, time)
            if kind == "arrive":
                self._on_arrive(self.jobs[payload])
            elif kind == "depart":
                self._on_depart(self.jobs[payload])
            elif kind == "snapshot":
                self._on_snapshot(payload)
        makespan = self.now
        return FleetResult(
            jobs=[self.jobs[jid] for jid in sorted(self.jobs)],
            snapshots=self.snapshots,
            makespan_s=makespan,
            busy_gpu_seconds=self._busy_gpu_seconds,
            total_gpus=self.capacity_hosts * self.gpus_per_host,
        )

    def _snapshot_times(self, snapshots: int) -> List[float]:
        """Snapshot instants: arrival times at evenly spaced indices."""
        if snapshots <= 0 or not self.arrivals:
            return []
        n = len(self.arrivals)
        times = []
        for k in range(snapshots):
            idx = min(n - 1, (k + 1) * n // (snapshots + 1))
            times.append(self.arrivals[idx].arrive_s)
        return times

    # ------------------------------------------------------------------
    def _on_arrive(self, job: FleetJob) -> None:
        rec = self._rec
        if job.arrival.hosts > self.capacity_hosts:
            job.state = "rejected"
            if rec is not None:
                self._c_rejected.inc()
                rec.events.instant(
                    "job.reject", self.now, track=f"job{job.job_id}",
                    hosts=job.arrival.hosts, gpus=job.arrival.gpus,
                )
            return
        job.state = "queued"
        self._queue.append(job)
        if rec is not None:
            rec.events.instant(
                "job.arrive", self.now, track=f"job{job.job_id}",
                hosts=job.arrival.hosts, gpus=job.arrival.gpus,
                pp=job.arrival.pp,
            )
        self._drain_queue()
        self._gauge_update()

    def _drain_queue(self) -> None:
        """Strict FIFO: admit from the head until the head cannot fit."""
        rec = self._rec
        while self._queue:
            job = self._queue[0]
            try:
                decision = self.policy.place(self.scheduler, job.arrival)
            except PlacementError:
                break
            self._queue.pop(0)
            job.state = "running"
            job.placed_at = self.now
            job.decision = decision
            self._running[job.job_id] = job
            self._push(self.now + job.arrival.duration_s, "depart",
                       job.job_id)
            if rec is not None:
                self._c_admitted.inc()
                self._h_wait.observe(job.queue_wait_s)
                rec.events.span(
                    "job.queued", job.arrival.arrive_s, self.now,
                    track=f"job{job.job_id}", wait_s=job.queue_wait_s,
                )
                rec.events.instant(
                    "job.place", self.now, track=f"job{job.job_id}",
                    policy=decision.policy, hosts=len(decision.hosts),
                    segments=decision.segments_spanned,
                    fragmentation=decision.fragmentation,
                    cross_pod_stages=decision.cross_pod_stages,
                )

    def _on_depart(self, job: FleetJob) -> None:
        assert job.decision is not None and job.placed_at is not None
        job.state = "done"
        job.departed_at = self.now
        del self._running[job.job_id]
        self.scheduler.release(list(job.decision.hosts))
        self._busy_gpu_seconds += job.arrival.gpus * (
            self.now - job.placed_at
        )
        if self._rec is not None:
            self._c_completed.inc()
            self._rec.events.span(
                "job.running", job.placed_at, self.now,
                track=f"job{job.job_id}", gpus=job.arrival.gpus,
                segments=job.decision.segments_spanned,
            )
        self._drain_queue()
        self._gauge_update()

    # -- interference snapshots ----------------------------------------
    def _job_flows(self, job: FleetJob, sport_base: int) -> List[Flow]:
        """One collective ring over the job's hosts (rail-0 DP ring)."""
        assert job.decision is not None
        hosts = list(job.decision.hosts)
        if len(hosts) < 2:
            return []
        topo = self.cluster.topo
        size_bytes = self.edge_mb * 1e6
        requests = []
        for i, src_host in enumerate(hosts):
            dst_host = hosts[(i + 1) % len(hosts)]
            src = topo.hosts[src_host].nic_for_rail(0)
            dst = topo.hosts[dst_host].nic_for_rail(0)
            ft = FiveTuple(src.ip, dst.ip, sport_base + i, _DPORT)
            requests.append((src, dst, ft, None))
        paths = self.cluster.router.route_many(requests, strict=True)
        return [
            Flow(
                five_tuple=req[2],
                size_bytes=size_bytes,
                path=path,
                start_time=0.0,
                tag=f"job{job.job_id}",
            )
            for req, path in zip(requests, paths)
        ]

    def _alone_finish_s(self, flows: Sequence[Flow]) -> float:
        """Uncontended completion: each flow at its path's min capacity."""
        topo = self.cluster.topo
        worst = 0.0
        for f in flows:
            cap = min(topo.links[dl // 2].gbps for dl in f.path.dirlinks)
            worst = max(worst, f.size_bytes * 8.0 / 1e9 / max(cap, _EPS))
        return worst

    def snapshot(self, index: int = 0) -> Dict[str, Any]:
        """Measure interference across the current running set.

        The probe simulations run with health sampling suspended --
        they live on their own t=0 timelines and would corrupt streak
        state -- and the finished snapshot is judged by the hub's
        interference detector instead.
        """
        hub = self._hub
        if hub is None:
            return self._measure_snapshot(index)
        with hub.suspended():
            snap = self._measure_snapshot(index)
        hub.observe_fleet_snapshot(self.now, snap, index)
        return snap

    def _measure_snapshot(self, index: int) -> Dict[str, Any]:
        running = [self._running[jid] for jid in sorted(self._running)]
        snap: Dict[str, Any] = {
            "t_s": round(self.now, 6),
            "index": index,
            "jobs_running": len(running),
            "queue_depth": len(self._queue),
            "backend": {},
            "frontend": {},
        }
        job_flows: Dict[int, List[Flow]] = {}
        sport = 49152
        for job in running:
            flows = self._job_flows(job, sport)
            sport += max(1, len(flows))
            if flows:
                job_flows[job.job_id] = flows
        all_flows = [f for jid in sorted(job_flows)
                     for f in job_flows[jid]]
        if all_flows:
            sim = FluidSimulator(self.cluster.topo, recorder=self._rec)
            sim.add_flows(all_flows)
            tier_util = first_solve_tier_util(sim)
            result = sim.run()
            per_job = []
            for jid in sorted(job_flows):
                flows = job_flows[jid]
                finish = max(result.flow_finish[f.flow_id] for f in flows)
                alone = self._alone_finish_s(flows)
                per_job.append({
                    "job_id": jid,
                    "hosts": len(self.jobs[jid].decision.hosts),
                    "segments": self.jobs[jid].decision.segments_spanned,
                    "slowdown": round(finish / max(alone, _EPS), 6),
                })
            slowdowns = [p["slowdown"] for p in per_job]
            snap["backend"] = {
                "flows": len(all_flows),
                "mean_slowdown": round(sum(slowdowns) / len(slowdowns), 6),
                "max_slowdown": round(max(slowdowns), 6),
                "per_job": per_job,
                "tier_util": tier_util,
            }
        frontend = self.frontend
        if frontend is not None and self.frontend_traffic is not None:
            classes = build_classes(
                self.frontend_traffic,
                [(j.job_id, j.arrival.gpus, j.placed_at or 0.0)
                 for j in running],
                self.now,
            )
            snap["frontend"] = frontend.simulate(
                classes,
                self.snapshot_window_s,
                derive_seed(self.seed, "fleet.snapshot", index),
                recorder=self._rec,
            )
        return snap

    def _on_snapshot(self, index: int) -> None:
        snap = self.snapshot(index)
        self.snapshots.append(snap)
        if self._rec is not None:
            backend = snap.get("backend") or {}
            self._rec.events.instant(
                "fleet.snapshot", self.now, track="fleet",
                index=index, jobs_running=snap["jobs_running"],
                queue_depth=snap["queue_depth"],
                max_slowdown=backend.get("max_slowdown", 0.0),
            )


# ----------------------------------------------------------------------
# engine experiment bodies (pure in (params, seed))
# ----------------------------------------------------------------------
def _build_cluster(params: Mapping[str, Any]) -> Cluster:
    arch = str(params.get("arch", "hpn"))
    segments = int(params.get("segments", 4))
    hosts = int(params.get("hosts_per_segment", 16))
    if arch == "hpn":
        pods = int(params.get("pods", 1))
        aggs = int(params.get("aggs_per_plane", 8))
        return Cluster.hpn(HpnSpec(
            pods=pods,
            segments_per_pod=segments,
            hosts_per_segment=hosts,
            backup_hosts_per_segment=0,
            aggs_per_plane=aggs,
            cores_per_plane=int(params.get("cores_per_plane",
                                           4 if pods > 1 else 0)),
        ))
    if arch == "dcnplus":
        return Cluster.dcnplus(DcnPlusSpec(
            pods=1, segments_per_pod=segments, hosts_per_segment=hosts,
        ))
    raise ValueError(f"unknown fleet arch {arch!r}")


def _arrival_spec(params: Mapping[str, Any]) -> ArrivalSpec:
    return ArrivalSpec(
        mean_interarrival_s=float(params.get("mean_interarrival_s", 120.0)),
        mean_duration_s=float(params.get("mean_duration_s", 3600.0)),
        duration_sigma=float(params.get("duration_sigma", 0.8)),
        pp_fraction=float(params.get("pp_fraction", 0.15)),
    )


def _frontend_traffic(params: Mapping[str, Any]) -> Optional[FrontendTrafficSpec]:
    if not bool(params.get("frontend", True)):
        return None
    return FrontendTrafficSpec(
        users_m=float(params.get("users_m", 2.0)),
        storage_gbps=float(params.get("storage_gbps", 40.0)),
        checkpoint_interval_s=float(
            params.get("checkpoint_interval_s", 2 * 3600.0)
        ),
        synchronized_checkpoints=bool(
            params.get("synchronized_checkpoints", True)
        ),
    )


def _percentile(sorted_vals: Sequence[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, int(q * (len(sorted_vals) - 1) + 0.5))
    return sorted_vals[idx]


def run_churn(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """Fleet churn scenario: the ``fleet.churn`` experiment body."""
    cluster = _build_cluster(params)
    arrivals = generate_arrivals(
        _arrival_spec(params), int(params.get("arrivals", 60)),
        derive_seed(seed, "fleet.churn"),
    )
    sim = FleetSimulator(
        cluster,
        arrivals,
        policy=str(params.get("policy", "pack")),
        frontend_traffic=_frontend_traffic(params),
        edge_mb=float(params.get("edge_mb", 64.0)),
        seed=seed,
    )
    result = sim.run(snapshots=int(params.get("snapshots", 3)))
    admitted = result.admitted
    waits = sorted(j.queue_wait_s for j in admitted)
    frags = [j.decision.fragmentation for j in admitted]
    payload: Dict[str, Any] = {
        "arrivals": len(result.jobs),
        "admitted": len(admitted),
        "completed": sum(1 for j in result.jobs if j.state == "done"),
        "rejected": len(result.rejected),
        "policy": str(params.get("policy", "pack")),
        "makespan_s": round(result.makespan_s, 6),
        "queue_wait": {
            "mean_s": round(sum(waits) / len(waits), 6) if waits else 0.0,
            "p50_s": round(_percentile(waits, 0.50), 6),
            "p95_s": round(_percentile(waits, 0.95), 6),
            "max_s": round(waits[-1], 6) if waits else 0.0,
        },
        "fragmentation": {
            "mean": round(sum(frags) / len(frags), 6) if frags else 1.0,
            "max": round(max(frags), 6) if frags else 1.0,
            "multi_segment_jobs": sum(
                1 for j in admitted if j.decision.segments_spanned > 1
            ),
            "cross_pod_jobs": sum(
                1 for j in admitted if j.decision.cross_pod_boundaries > 0
            ),
        },
        "gpu_utilization": round(
            result.busy_gpu_seconds
            / max(result.total_gpus * result.makespan_s, _EPS),
            6,
        ),
        "snapshots": result.snapshots,
    }
    if not bool(params.get("keep_per_job", False)):
        for snap in payload["snapshots"]:
            if snap["backend"]:
                snap["backend"].pop("per_job", None)
    return payload


def run_interference(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """Tenant interference across policies: ``fleet.interference``."""
    cluster = _build_cluster(params)
    sizes = params.get("gpu_sizes", [32, 32, 64, 64])
    policies = params.get("policies", ["pack", "spread", "interleave"])
    if isinstance(policies, str):
        policies = [policies]
    durations = 3600.0
    jobs = [
        JobArrival(job_id=i, arrive_s=0.0, gpus=int(g),
                   hosts=max(1, -(-int(g) // 8)), duration_s=durations)
        for i, g in enumerate(sizes)
    ]
    frontend_traffic = _frontend_traffic(params)
    frontend_model = (FrontendModel()
                      if frontend_traffic is not None else None)
    out: Dict[str, Any] = {
        "gpu_sizes": [int(g) for g in sizes],
        "policies": {},
    }
    for policy in policies:
        sim = FleetSimulator(
            cluster,
            jobs,
            policy=str(policy),
            frontend_traffic=frontend_traffic,
            frontend_model=frontend_model,
            edge_mb=float(params.get("edge_mb", 64.0)),
            seed=derive_seed(seed, "fleet.interference", str(policy)),
        )
        # place everything by hand-driving arrivals, then snapshot once
        for job in jobs:
            sim.jobs[job.job_id] = FleetJob(job)
            sim.now = job.arrive_s
            sim._on_arrive(sim.jobs[job.job_id])
        queued = [j.job_id for j in sim.jobs.values()
                  if j.state != "running"]
        if queued:
            raise PlacementError(
                f"interference scenario does not fit the cluster: jobs "
                f"{queued} left unplaced under policy {policy!r}"
            )
        snap = sim.snapshot(0)
        out["policies"][str(policy)] = {
            "backend": snap["backend"],
            "frontend": snap["frontend"],
        }
    return out
