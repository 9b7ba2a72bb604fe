"""Built-in experiment catalogue.

Registers the repo's existing simulation entry points -- design
sweeps, Monte-Carlo reliability, fault-injection drills, a collective
benchmark scenario, fleet churn, the health drill and the solver
equivalence check -- as engine experiments. Importing this module (which
:func:`repro.engine.spec.get_experiment` does lazily) populates the
registry, including inside process-pool workers.

Every function here is pure in ``(params, seed)`` and returns a
JSON-safe payload; that is the whole contract that makes it cacheable
and backend-independent.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from .spec import experiment

_MODEL_NAMES = ("llama-7b", "llama-13b", "gpt3-175b")


def _model_config(name: str):
    from .. import training

    attr = {"llama-7b": "LLAMA_7B", "llama-13b": "LLAMA_13B",
            "gpt3-175b": "GPT3_175B"}[name]
    return getattr(training, attr)


# ----------------------------------------------------------------------
# reliability: Monte-Carlo fleet simulation
# ----------------------------------------------------------------------
@experiment(
    "reliability.trials",
    "Monte-Carlo fleet reliability: repeated seeded month-series trials",
    defaults={"gpus": 3000, "dual_tor": True, "months": 12, "trials": 50,
              "keep_trials": True},
)
def reliability_trials(params: Dict[str, Any], seed: int) -> Mapping[str, Any]:
    from ..reliability import FleetSimulation, JobFootprint

    sim = FleetSimulation(
        JobFootprint.for_gpus(int(params["gpus"]), bool(params["dual_tor"])),
        seed=seed,
    )
    trials = sim.run_trials(int(params["trials"]), int(params["months"]),
                            base_seed=seed)
    n = len(trials)
    crash_free = sum(
        1 for t in trials
        if t["months_without_crash"] >= t["months"]
    )
    payload: Dict[str, Any] = {
        "trials": n,
        "mean_crashes_per_month": sum(
            t["mean_crashes_per_month"] for t in trials) / n,
        "mean_degradations_per_month": sum(
            t["mean_degradations_per_month"] for t in trials) / n,
        "crash_free_trial_rate": crash_free / n,
    }
    # per-trial series are large at fan-out scale; drop on request
    if params.get("keep_trials", True):
        payload["per_trial"] = trials
    return payload


@experiment(
    "reliability.trial",
    "One Monte-Carlo trial (fan-out unit: one seeded month-series)",
    defaults={"gpus": 3000, "dual_tor": True, "months": 12},
)
def reliability_trial(params: Dict[str, Any], seed: int) -> Mapping[str, Any]:
    from ..reliability import FleetSimulation, JobFootprint

    sim = FleetSimulation(
        JobFootprint.for_gpus(int(params["gpus"]), bool(params["dual_tor"])),
        seed=seed,
    )
    return sim.summarize(int(params["months"]), seed=seed)


@experiment(
    "reliability.crash-free",
    "Probability of surviving N months crash-free (paper: 8 months, 0 SPOF)",
    defaults={"gpus": 3000, "dual_tor": True, "months": 8},
)
def reliability_crash_free(params: Dict[str, Any],
                           seed: int) -> Mapping[str, Any]:
    from ..reliability import expected_crash_free_months

    prob = expected_crash_free_months(
        int(params["gpus"]), bool(params["dual_tor"]),
        months=int(params["months"]), seed=seed,
    )
    return {"crash_free_probability": prob, "months": int(params["months"])}


# ----------------------------------------------------------------------
# design sweeps (one experiment per design point)
# ----------------------------------------------------------------------
@experiment(
    "sweep.oversubscription",
    "One §7 design point: agg->core uplink count vs pod size/cost/bandwidth",
    defaults={"value": 8, "build": False},
)
def sweep_oversubscription_point(params: Dict[str, Any],
                                 seed: int) -> Mapping[str, Any]:
    from ..analysis.sweep import evaluate_point, oversubscription_spec
    from ..topos.spec import HpnSpec

    uplinks = int(params["value"])
    point = evaluate_point(
        oversubscription_spec(HpnSpec(), uplinks),
        float(uplinks), bool(params["build"]),
    )
    return _sweep_payload(point)


@experiment(
    "sweep.aggs-per-plane",
    "One plane-width design point: fault domains vs switch count",
    defaults={"value": 60, "build": False},
)
def sweep_aggs_point(params: Dict[str, Any], seed: int) -> Mapping[str, Any]:
    from ..analysis.sweep import aggs_per_plane_spec, evaluate_point
    from ..topos.spec import HpnSpec

    count = int(params["value"])
    point = evaluate_point(
        aggs_per_plane_spec(HpnSpec(), count),
        float(count), bool(params["build"]),
    )
    return _sweep_payload(point)


def _sweep_payload(point: Any) -> Dict[str, Any]:
    from dataclasses import asdict

    payload = asdict(point)
    # NaN is not JSON-interchangeable; unbuilt points omit cost instead
    if payload["relative_cost"] != payload["relative_cost"]:
        payload["relative_cost"] = None
    return payload


# ----------------------------------------------------------------------
# fault-injection drill (Figure 18)
# ----------------------------------------------------------------------
@experiment(
    "drill.link-failure",
    "Figure-18 drill: access-link failure/repair vs training throughput",
    defaults={
        "model": "llama-7b", "job_hosts": 4, "microbatches": 18,
        "fail_at_s": 10.0, "repair_at_s": 60.0, "duration_s": 120.0,
    },
)
def drill_link_failure(params: Dict[str, Any], seed: int) -> Mapping[str, Any]:
    from ..cluster import Cluster
    from ..reliability import FaultInjector, link_failure_scenario
    from ..topos.spec import HpnSpec
    from ..training import ParallelismPlan

    if params["model"] not in _MODEL_NAMES:
        raise ValueError(f"unknown model {params['model']!r}")
    job_hosts = int(params["job_hosts"])
    cluster = Cluster.hpn(HpnSpec(
        segments_per_pod=1, hosts_per_segment=max(8, job_hosts),
        backup_hosts_per_segment=0, aggs_per_plane=2,
    ))
    hosts = cluster.place(job_hosts)
    plan = ParallelismPlan(tp=8, pp=1, dp=job_hosts)
    job = cluster.train(_model_config(params["model"]), plan, hosts,
                        microbatches=int(params["microbatches"]))
    events = link_failure_scenario(
        hosts[0], rail=0,
        fail_at=float(params["fail_at_s"]),
        repair_at=float(params["repair_at_s"]),
    )
    result = FaultInjector(job).run(events,
                                    duration=float(params["duration_s"]))
    throughputs = [p.samples_per_sec for p in result.timeline]
    return {
        "crashed": result.crashed,
        "timeline_points": len(result.timeline),
        "min_samples_per_sec": min(throughputs) if throughputs else 0.0,
        "max_samples_per_sec": max(throughputs) if throughputs else 0.0,
        "final_samples_per_sec": throughputs[-1] if throughputs else 0.0,
    }


# ----------------------------------------------------------------------
# collective benchmark scenario
# ----------------------------------------------------------------------
@experiment(
    "bench.allreduce",
    "AllReduce busbw on a small HPN slice (benchmark scenario unit)",
    defaults={"job_hosts": 8, "size_mb": 256},
)
def bench_allreduce(params: Dict[str, Any], seed: int) -> Mapping[str, Any]:
    from ..cluster import Cluster
    from ..collective import allreduce
    from ..topos.spec import HpnSpec

    job_hosts = int(params["job_hosts"])
    cluster = Cluster.hpn(HpnSpec(
        segments_per_pod=1, hosts_per_segment=max(8, job_hosts),
        backup_hosts_per_segment=0, aggs_per_plane=4,
    ))
    comm = cluster.communicator(cluster.place(job_hosts))
    result = allreduce(comm, float(params["size_mb"]) * 1e6)
    return {
        "job_hosts": job_hosts,
        "size_mb": float(params["size_mb"]),
        "seconds": result.seconds,
        "busbw_gb_per_sec": result.busbw_gb_per_sec,
    }


# ----------------------------------------------------------------------
# solver equivalence: the simulator vs the from-scratch oracle
# ----------------------------------------------------------------------
@experiment(
    "solver.equivalence",
    "The simulator and the from-scratch reference loop over one seeded "
    "dual-plane multi-step AllReduce with an injected link failure: "
    "every finish time must agree to 1e-9, and no flow may finish on "
    "one side only",
    defaults={
        "hosts": 16, "conns": 2, "steps": 80, "step_gap_s": 0.004,
        "edge_mb": 24, "jitter": 0.05, "fail_at_s": 0.05,
        "repair_at_s": 0.12,
    },
)
def solver_equivalence(params: Dict[str, Any],
                       seed: int) -> Mapping[str, Any]:
    from ..fabric.oracle import SolverEquivalence
    from ..workloads.reference import build_reference_workload

    topo, flows, events = build_reference_workload(dict(params), seed)
    report = SolverEquivalence().check_run(topo, flows, events)
    return dict(report.to_jsonable(), flows=len(flows))


# ----------------------------------------------------------------------
# fleet: multi-job churn, placement policies, frontend traffic classes
# ----------------------------------------------------------------------
@experiment(
    "fleet.churn",
    "Multi-job churn on one backend fabric: Figure-6 arrivals through "
    "a placement policy, with queue waits, fragmentation, and "
    "interference snapshots against frontend traffic classes",
    defaults={
        "arch": "hpn", "segments": 4, "hosts_per_segment": 16,
        "aggs_per_plane": 8, "pods": 1, "arrivals": 60,
        "policy": "pack", "snapshots": 3, "frontend": True,
        "mean_interarrival_s": 120.0, "mean_duration_s": 3600.0,
        "edge_mb": 64.0,
    },
)
def fleet_churn(params: Dict[str, Any], seed: int) -> Mapping[str, Any]:
    from ..fleet import run_churn

    return run_churn(dict(params), seed)


@experiment(
    "fleet.interference",
    "Tenant interference by placement policy: fixed co-resident jobs "
    "placed pack/spread/interleave, per-job slowdown vs running alone, "
    "plus the frontend class mix mid checkpoint storm",
    defaults={
        "arch": "hpn", "segments": 4, "hosts_per_segment": 8,
        "aggs_per_plane": 4, "gpu_sizes": [32, 32, 64, 64],
        "policies": ["pack", "spread", "interleave"],
        "frontend": True, "edge_mb": 64.0,
    },
)
def fleet_interference(params: Dict[str, Any], seed: int) -> Mapping[str, Any]:
    from ..fleet import run_interference

    return run_interference(dict(params), seed)


# ----------------------------------------------------------------------
# health: seeded fault-injection scenario for the health engine
# ----------------------------------------------------------------------
@experiment(
    "health.scenario",
    "Seeded health drill: hash-polarized inter-segment flows, a "
    "dual-ToR flap over the failover SLO, and an oversubscribed fleet "
    "burst -- clean mode yields zero incidents, faulty mode exactly "
    "the injected ones",
    defaults={"mode": "faulty"},
)
def health_scenario(params: Dict[str, Any], seed: int) -> Mapping[str, Any]:
    from ..obs.health.scenario import run_health_scenario

    return run_health_scenario(dict(params), seed)
