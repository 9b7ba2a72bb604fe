"""Reference workloads + harness for the solver-core perf benchmark.

The ``bench.simcore`` experiment (and the ``benchmarks/perf`` pytest
suite) measure the one hot path every figure funnels through:
:meth:`FluidSimulator.run`. Three tiers:

* **reference** (:func:`run_simcore`) -- the paper's single-segment
  stress shape: a dual-plane rail-optimized AllReduce driven for many
  collective steps, an access-link failure/repair mid-run, per-flow
  size jitter spreading completions into tens of thousands of
  rate-solve boundaries. Gates the incremental engine against the
  from-scratch full engine.
* **pod** (:func:`run_pod_tier`) -- the paper's headline scale: one
  full Pod (15 segments x 128 hosts x 8 rails = 15,360 GPUs, §6), a
  pod-wide inter-segment AllReduce ring per rail (every edge crosses
  the dual-plane aggregation layer), an access-link failure/repair
  inside the measured window. Times the incremental engine and gates
  its committed rates against the legacy oracle per connected
  component (<=1e-9 drift).
* **multipod** (:func:`run_pod_tier`) -- the §7 shape: a 3-Pod
  pipeline-parallel job (whole stages per pod, PP activations crossing
  the oversubscribed core) with per-pod data-parallel rings, run to
  completion under the incremental engine.

Every comparison runs the *same* flow objects (reset in between); the
payloads are JSON-safe and land in ``BENCH_simcore.json``.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Optional, Tuple

from .flow import Flow
from .simulator import FluidSimulator, max_min_rates

#: relative finish-time drift beyond which the engines "disagree"
EQUIVALENCE_TOL = 1e-9


def build_reference_workload(
    params: Dict[str, Any], seed: int
) -> Tuple[Any, List[Flow], List[Tuple[float, int, bool]]]:
    """Build ``(topology, flows, link_events)`` for the benchmark.

    ``params``: hosts, conns, steps, step_gap_s, edge_mb, jitter,
    fail_at_s, repair_at_s. Flows are reusable across runs via
    ``Flow.reset``; ``link_events`` are ``(time, link_id, up)``.
    """
    from ..cluster import Cluster
    from ..topos.spec import HpnSpec

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

    events: List[Tuple[float, int, bool]] = []
    fail_at = float(params["fail_at_s"])
    repair_at = float(params["repair_at_s"])
    if fail_at >= 0 and repair_at > fail_at:
        # victim: an access link some mid-pack flow enters the fabric on
        victim = flows[len(flows) // 2].path.dirlinks[0] // 2
        events.append((fail_at, victim, False))
        events.append((repair_at, victim, True))
    return cluster.topo, flows, events


def _timed_run(
    topo, flows: List[Flow], events, mode: str,
    until: Optional[float] = None,
) -> Tuple[float, Dict[int, float], FluidSimulator]:
    """One engine pass; returns (wall, finishes, sim).

    ``until`` bounds simulated time (the pod tier measures a fixed
    window of the collective rather than running 15k completions). The
    caller resets flows and restores link states between runs --
    restoring here would desynchronize the topology from the committed
    rates any oracle check reads.
    """
    sim = FluidSimulator(topo, solver=mode)
    t0 = time.perf_counter()
    sim.add_flows(flows)
    for t, lid, up in events:
        sim.schedule(t, lambda s, l=lid, u=up: s.topo.set_link_state(l, u))
    result = sim.run(until=until)
    wall = time.perf_counter() - t0
    return wall, result.flow_finish, sim


def run_simcore(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Run the reference workload under both engines and compare.

    Wall-clock is min-of-``repeat`` per engine. The full engine runs
    first so the incremental engine pays its own (indexed) cache
    warm-up inside its measured window -- the reported speedup is
    conservative.
    """
    topo, flows, events = build_reference_workload(params, seed)
    initial_up = {lid: link.up for lid, link in topo.links.items()}
    repeat = max(1, int(params.get("repeat", 1)))

    def measure(mode: str):
        best_wall = float("inf")
        finish: Dict[int, float] = {}
        sim: FluidSimulator = None  # type: ignore[assignment]
        for _ in range(repeat):
            wall, finish, sim = _timed_run(topo, flows, events, mode)
            best_wall = min(best_wall, wall)
            for lid, up in initial_up.items():
                topo.set_link_state(lid, up)
            for f in flows:
                f.reset()
        return best_wall, finish, sim

    full_wall, full_finish, _ = measure("full")
    inc_wall, inc_finish, inc_sim = measure("incremental")

    max_err = 0.0
    missing = 0
    for f in flows:
        a = full_finish.get(f.flow_id)
        b = inc_finish.get(f.flow_id)
        if a is None or b is None:
            missing += int((a is None) != (b is None))
            continue
        err = abs(a - b) / max(1.0, abs(a))
        if err > max_err:
            max_err = err
    stats = inc_sim._solver.stats if inc_sim._solver is not None else None
    payload: Dict[str, Any] = {
        "workload": {
            "hosts": int(params["hosts"]),
            "conns": int(params["conns"]),
            "steps": int(params["steps"]),
            "step_gap_s": float(params["step_gap_s"]),
            "edge_mb": float(params["edge_mb"]),
            "jitter": float(params["jitter"]),
            "fail_at_s": float(params["fail_at_s"]),
            "repair_at_s": float(params["repair_at_s"]),
            "seed": seed,
        },
        "flows": len(flows),
        "full_wall_s": full_wall,
        "incremental_wall_s": inc_wall,
        "speedup": full_wall / inc_wall if inc_wall > 0 else float("inf"),
        "equivalence": {
            "max_finish_rel_err": max_err,
            "one_sided_finishes": missing,
            "tol": EQUIVALENCE_TOL,
            "ok": missing == 0 and max_err <= EQUIVALENCE_TOL,
        },
    }
    if stats is not None:
        payload["solver"] = {
            "full_solves": stats.full_solves,
            "incremental_solves": stats.incremental_solves,
            "noop_solves": stats.noop_solves,
            "mean_dirty_frac": stats.mean_dirty_frac,
            "kernel_iters": stats.kernel_iters,
        }
    return payload


# ======================================================================
# pod / multipod tiers: the incremental engine at paper scale
# ======================================================================
#: per-tier workload defaults (every key overridable via params)
POD_DEFAULTS: Dict[str, Any] = {
    "segments": 15, "hosts_per_segment": 128, "aggs_per_plane": 60,
    "conns": 1, "edge_mb": 64.0, "jitter": 0.05,
    "fail_at_s": 0.0005, "repair_at_s": 0.0012, "window_s": 0.002,
}
MULTIPOD_DEFAULTS: Dict[str, Any] = {
    "pods": 3, "segments": 2, "hosts_per_segment": 8,
    "aggs_per_plane": 8, "agg_core_uplinks": 2, "cores_per_plane": 4,
    "conns": 1, "edge_mb": 24.0, "pp_mb": 8.0, "steps": 2,
    "step_gap_s": 0.004, "jitter": 0.05,
    "fail_at_s": 0.0005, "repair_at_s": 0.0015, "window_s": 0.0,
}


def _tier_params(params: Dict[str, Any], tier: str) -> Dict[str, Any]:
    base = dict(POD_DEFAULTS if tier == "pod" else MULTIPOD_DEFAULTS)
    for key in base:
        if key in params:
            base[key] = params[key]
    return base


def build_pod_workload(
    params: Dict[str, Any], seed: int
) -> Tuple[Any, List[Flow], List[Tuple[float, int, bool]], Dict[str, Any]]:
    """Full-Pod AllReduce: one inter-segment ring per rail (§6 scale).

    Hosts are placed round-robin across the Pod's segments, so every
    ring edge crosses the aggregation layer -- the traffic that
    actually exercises the dual-plane tier-2 fabric (intra-segment
    edges would each own their access links and decompose into
    singleton components).
    """
    from ..cluster import Cluster
    from ..topos.spec import HpnSpec

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
    events: List[Tuple[float, int, bool]] = []
    fail_at = float(params["fail_at_s"])
    repair_at = float(params["repair_at_s"])
    if fail_at >= 0 and repair_at > fail_at:
        victim = flows[len(flows) // 2].path.dirlinks[0] // 2
        events.append((fail_at, victim, False))
        events.append((repair_at, victim, True))
    meta = {
        "tier": "pod",
        "gpus": spec.total_gpus,
        "segments": spec.segments_per_pod,
        "hosts": len(hosts),
        "rails": spec.rails,
        "links": len(cluster.topo.links),
    }
    return cluster.topo, flows, events, meta


def build_multipod_workload(
    params: Dict[str, Any], seed: int
) -> Tuple[Any, List[Flow], List[Tuple[float, int, bool]], Dict[str, Any]]:
    """3-Pod §7 PP workload: whole stages per pod, DP rings inside.

    ``place_cross_pod`` enforces the paper's rule (only PP traffic
    crosses the oversubscribed core): each pod holds one pipeline
    stage; activations flow host i of stage s -> host i of stage s+1
    across the core, while each stage runs its own per-rail
    data-parallel ring.
    """
    from ..cluster import Cluster
    from ..topos.spec import HpnSpec

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
    events: List[Tuple[float, int, bool]] = []
    fail_at = float(params["fail_at_s"])
    repair_at = float(params["repair_at_s"])
    if fail_at >= 0 and repair_at > fail_at:
        victim = flows[len(flows) // 2].path.dirlinks[0] // 2
        events.append((fail_at, victim, False))
        events.append((repair_at, victim, True))
    meta = {
        "tier": "multipod",
        "gpus": spec.total_gpus,
        "pods": pods,
        "segments": spec.segments_per_pod * pods,
        "hosts": len(hosts),
        "rails": spec.rails,
        "links": len(cluster.topo.links),
    }
    return cluster.topo, flows, events, meta


def _oracle_component_drift(sim: FluidSimulator) -> Dict[str, Any]:
    """Max |committed - oracle| rate over every active flow.

    Runs the legacy :func:`max_min_rates` oracle per connected
    component (components are closed, so the restricted solve is
    exact) -- feasible even at Pod scale, where one flat oracle pass
    over 15k coupled dict entries would dominate the benchmark.
    """
    solver = sim._solver
    assert solver is not None
    index = solver.index
    comps = index.components(index.flows, ())
    worst = 0.0
    checked = 0
    for comp_flows, _links in comps:
        live = [index.flows[fid] for fid in sorted(comp_flows)]
        oracle = max_min_rates(live, sim.link_gbps)
        for f in live:
            drift = abs(f.rate_gbps - oracle[f.flow_id])
            if drift > worst:
                worst = drift
            checked += 1
    return {
        "flows_checked": checked,
        "components": len(comps),
        "max_rate_drift_gbps": worst,
        "tol": EQUIVALENCE_TOL,
        "ok": worst <= EQUIVALENCE_TOL,
    }


def run_pod_tier(
    params: Dict[str, Any], seed: int, tier: str = "pod"
) -> Dict[str, Any]:
    """Pod / multipod benchmark: the incremental engine's wall time.

    Correctness rides along: the committed rates must match the legacy
    oracle per connected component within ``EQUIVALENCE_TOL``, read at
    the window boundary when one is set, else at a mid-failure probe
    (completion runs end with nothing active to check).
    """
    if tier not in ("pod", "multipod"):
        raise ValueError(f"unknown simcore tier {tier!r}")
    p = _tier_params(params, tier)
    if tier == "pod":
        topo, flows, events, meta = build_pod_workload(p, seed)
    else:
        topo, flows, events, meta = build_multipod_workload(p, seed)
    window_s = float(p["window_s"])
    initial_up = {lid: link.up for lid, link in topo.links.items()}

    def restore() -> None:
        for lid, up in initial_up.items():
            topo.set_link_state(lid, up)

    def measure(until: Optional[float]) -> Tuple[float, FluidSimulator]:
        for f in flows:
            f.reset()
        wall, _finish, sim = _timed_run(topo, flows, events,
                                        "incremental", until)
        return wall, sim

    wall, sim = measure(window_s if window_s > 0 else None)
    checked = sim
    if window_s <= 0:
        # a completion run ends with nothing active to check: re-run
        # up to a mid-failure probe
        restore()
        probe_s = (float(p["fail_at_s"]) + float(p["repair_at_s"])) / 2.0
        _probe_wall, checked = measure(probe_s)
    # read the drift *before* restoring links: the committed rates
    # were solved against the current link states
    oracle = _oracle_component_drift(checked)
    restore()

    stats = sim._solver.stats
    return {
        "tier": tier,
        "workload": dict(meta, seed=seed, **{
            k: p[k] for k in sorted(p)
        }),
        "flows": len(flows),
        "wall_s": wall,
        "oracle": oracle,
        "solver": {
            "full_solves": stats.full_solves,
            "incremental_solves": stats.incremental_solves,
            "noop_solves": stats.noop_solves,
            "mean_dirty_frac": stats.mean_dirty_frac,
            "kernel_iters": stats.kernel_iters,
        },
    }
