"""Seeded fluid-simulator workloads at the paper's reference shapes.

Each function returns the topology, a list of routed flows and a list
of ``(time, link_id, up)`` link-state events (one access-link failure
and its repair). Flows are reusable across runs via ``Flow.reset``.
The differential checks drive them through the simulator and the
from-scratch oracle (:class:`~repro.fabric.oracle.SolverEquivalence`),
and the golden tests pin their finish times bit for bit.

* :func:`build_reference_workload` -- one HPN segment: a dual-plane
  rail-optimized AllReduce driven for many collective steps, per-flow
  size jitter spreading completions into tens of thousands of
  rate-solve boundaries.
* :func:`build_pod_workload` -- one full Pod (15 segments x 128 hosts
  x 8 rails = 15,360 GPUs, §6): a pod-wide inter-segment AllReduce
  ring per rail, every edge crossing the dual-plane tier 2.
* :func:`build_multipod_workload` -- the §7 shape: a 3-Pod
  pipeline-parallel job, PP activations crossing the oversubscribed
  core, per-pod data-parallel rings.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

from ..cluster import Cluster
from ..fabric.flow import Flow
from ..topos.spec import HpnSpec

#: ``(time, link_id, up)`` link-state transitions
LinkEvents = List[Tuple[float, int, bool]]

#: :func:`build_pod_workload` params; ``window_s`` is where callers
#: pause the run (override keys with ``dict(POD_DEFAULTS, **overrides)``)
POD_DEFAULTS: Dict[str, Any] = {
    "segments": 15, "hosts_per_segment": 128, "aggs_per_plane": 60,
    "conns": 1, "edge_mb": 64.0, "jitter": 0.05,
    "fail_at_s": 0.0005, "repair_at_s": 0.0012, "window_s": 0.002,
}
#: :func:`build_multipod_workload` params
MULTIPOD_DEFAULTS: Dict[str, Any] = {
    "pods": 3, "segments": 2, "hosts_per_segment": 8,
    "aggs_per_plane": 8, "agg_core_uplinks": 2, "cores_per_plane": 4,
    "conns": 1, "edge_mb": 24.0, "pp_mb": 8.0, "steps": 2,
    "step_gap_s": 0.004, "jitter": 0.05,
    "fail_at_s": 0.0005, "repair_at_s": 0.0015,
}


def _flap(flows: List[Flow], params: Dict[str, Any]) -> LinkEvents:
    """Fail and repair the access link a mid-pack flow enters on."""
    events: LinkEvents = []
    fail_at = float(params["fail_at_s"])
    repair_at = float(params["repair_at_s"])
    if fail_at >= 0 and repair_at > fail_at:
        victim = flows[len(flows) // 2].path.dirlinks[0] // 2
        events.append((fail_at, victim, False))
        events.append((repair_at, victim, True))
    return events


def build_reference_workload(
    params: Dict[str, Any], seed: int
) -> Tuple[Any, List[Flow], LinkEvents]:
    """Build ``(topology, flows, link_events)`` for one segment.

    ``params``: hosts, conns, steps, step_gap_s, edge_mb, jitter,
    fail_at_s, repair_at_s.
    """
    rng = random.Random(seed)
    hosts = int(params["hosts"])
    cluster = Cluster.hpn(HpnSpec(
        segments_per_pod=1,
        hosts_per_segment=max(8, hosts),
        backup_hosts_per_segment=0,
        aggs_per_plane=4,
    ))
    comm = cluster.communicator(
        cluster.place(hosts), num_conns=int(params["conns"])
    )
    steps = int(params["steps"])
    step_gap_s = float(params["step_gap_s"])
    per_edge = float(params["edge_mb"]) * 1e6
    jitter = float(params["jitter"])
    flows: List[Flow] = []
    for step in range(steps):
        batch = comm.all_rails_ring_flows(
            per_edge, tag=f"simcore/step{step}",
            start_time=step * step_gap_s,
        )
        for f in batch:
            if jitter > 0:
                f.size_bytes *= 1.0 + rng.uniform(-jitter, jitter)
                f.reset()
        flows.extend(batch)
    return cluster.topo, flows, _flap(flows, params)


def build_pod_workload(
    params: Dict[str, Any], seed: int
) -> Tuple[Any, List[Flow], LinkEvents, Dict[str, Any]]:
    """Full-Pod AllReduce: one inter-segment ring per rail (§6 scale).

    Hosts are placed round-robin across the Pod's segments, so every
    ring edge crosses the aggregation layer -- the traffic that
    actually exercises the dual-plane tier-2 fabric (intra-segment
    edges would each own their access links and decompose into
    singleton components).
    """
    rng = random.Random(seed)
    spec = HpnSpec(
        segments_per_pod=int(params["segments"]),
        hosts_per_segment=int(params["hosts_per_segment"]),
        backup_hosts_per_segment=0,
        aggs_per_plane=int(params["aggs_per_plane"]),
    )
    cluster = Cluster.hpn(spec)
    hosts = cluster.place(
        spec.segments_per_pod * spec.hosts_per_segment, interleave=True
    )
    comm = cluster.communicator(hosts, num_conns=int(params["conns"]))
    per_edge = float(params["edge_mb"]) * 1e6
    jitter = float(params["jitter"])
    flows = comm.all_rails_ring_flows(per_edge, tag="pod/allreduce")
    for f in flows:
        if jitter > 0:
            f.size_bytes *= 1.0 + rng.uniform(-jitter, jitter)
            f.reset()
    meta = {
        "tier": "pod",
        "gpus": spec.total_gpus,
        "segments": spec.segments_per_pod,
        "hosts": len(hosts),
        "rails": spec.rails,
        "links": len(cluster.topo.links),
    }
    return cluster.topo, flows, _flap(flows, params), meta


def build_multipod_workload(
    params: Dict[str, Any], seed: int
) -> Tuple[Any, List[Flow], LinkEvents, Dict[str, Any]]:
    """3-Pod §7 PP workload: whole stages per pod, DP rings inside.

    ``place_cross_pod`` enforces the paper's rule (only PP traffic
    crosses the oversubscribed core): each pod holds one pipeline
    stage; activations flow host i of stage s -> host i of stage s+1
    across the core, while each stage runs its own per-rail
    data-parallel ring.
    """
    rng = random.Random(seed)
    pods = int(params["pods"])
    spec = HpnSpec(
        pods=pods,
        segments_per_pod=int(params["segments"]),
        hosts_per_segment=int(params["hosts_per_segment"]),
        backup_hosts_per_segment=0,
        aggs_per_plane=int(params["aggs_per_plane"]),
        agg_core_uplinks=int(params["agg_core_uplinks"]),
        cores_per_plane=int(params["cores_per_plane"]),
    )
    cluster = Cluster.hpn(spec)
    per_stage = spec.segments_per_pod * spec.hosts_per_segment
    hosts = cluster.scheduler.place_cross_pod(
        hosts_per_stage=per_stage, pp=pods, pods=list(range(pods))
    )
    stages = [
        hosts[i * per_stage:(i + 1) * per_stage] for i in range(pods)
    ]
    comm = cluster.communicator(hosts, num_conns=int(params["conns"]))
    per_edge = float(params["edge_mb"]) * 1e6
    pp_bytes = float(params["pp_mb"]) * 1e6
    jitter = float(params["jitter"])
    steps = int(params["steps"])
    step_gap_s = float(params["step_gap_s"])
    flows: List[Flow] = []
    for step in range(steps):
        t = step * step_gap_s
        # per-stage DP rings, one per rail (stays inside each pod)
        for s, stage in enumerate(stages):
            for rail in range(spec.rails):
                flows.extend(comm.ring_flows(
                    rail, per_edge, tag=f"mp/step{step}/dp{s}",
                    hosts=stage, start_time=t,
                ))
        # PP activations: stage s -> stage s+1 across the core
        for s in range(pods - 1):
            for i, src in enumerate(stages[s]):
                dst = stages[s + 1][i]
                for rail in range(spec.rails):
                    flows.extend(comm.edge_flows(
                        src, dst, rail, pp_bytes,
                        tag=f"mp/step{step}/pp{s}", start_time=t,
                    ))
    for f in flows:
        if jitter > 0:
            f.size_bytes *= 1.0 + rng.uniform(-jitter, jitter)
            f.reset()
    meta = {
        "tier": "multipod",
        "gpus": spec.total_gpus,
        "pods": pods,
        "segments": spec.segments_per_pod * pods,
        "hosts": len(hosts),
        "rails": spec.rails,
        "links": len(cluster.topo.links),
    }
    return cluster.topo, flows, _flap(flows, params), meta
