"""Frontend traffic classes: checkpoint storms, storage, inference.

The paper's section-8 frontend network concurrently carries checkpoint
bursts (Figure 4), CPFS/OSS storage traffic, and inference serving for
*millions of users*. Simulating per-user flows would be absurd; the
fleet layer instead models each traffic family as an **aggregated flow
class** -- a named offered load carried by a handful of representative
flows -- so simulation cost scales with the number of classes, not the
number of users.

:class:`FrontendModel` owns the section-8 topology
(:func:`repro.topos.build_frontend`), routes each class's flows over
it, and runs them through the same
:class:`~repro.fabric.simulator.FluidSimulator` the backend uses. The
output per class is achieved vs. offered throughput (the contention
ratio) plus per-tier peak utilization at the first rate solve.

Extension point: append :class:`FlowClass` records to the list any
builder returns -- the simulator treats every class identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.units import gbps_to_bytes_per_sec
from ..engine.spec import derive_seed
from ..fabric.flow import Flow
from ..fabric.simulator import FluidSimulator
from ..routing.cache import shared_router
from ..routing.hashing import FiveTuple
from ..topos.spec import FrontendSpec
from ..training.checkpoint import CheckpointSpec
from ..workloads.cloud import diurnal_factor

#: RoCEv2 destination port (frontend storage/inference also ride RDMA)
_DPORT = 4791
_EPS = 1e-9


@dataclass(frozen=True)
class FlowClass:
    """One aggregated traffic family on the frontend network."""

    name: str
    kind: str  # "checkpoint" | "storage" | "inference"
    offered_gbps: float
    #: representative flows carrying the class (cost knob, not users)
    flows: int = 4

    def __post_init__(self) -> None:
        if self.flows < 1:
            raise ValueError("a flow class needs at least one flow")
        if self.offered_gbps < 0:
            raise ValueError("offered load cannot be negative")


@dataclass(frozen=True)
class FrontendTrafficSpec:
    """Knobs for the three built-in class families."""

    #: inference serving population, in millions of users
    users_m: float = 2.0
    #: mean per-user serving bandwidth (tokens in/out, kbit/s)
    per_user_kbps: float = 2.0
    inference_flows: int = 8
    #: steady CPFS/OSS background (dataset reads, shuffles)
    storage_gbps: float = 40.0
    storage_flows: int = 8
    #: checkpoint economics (write time and bytes; paper section 2.3)
    checkpoint: CheckpointSpec = CheckpointSpec()
    checkpoint_interval_s: float = 2 * 3600.0
    checkpoint_flows_per_job: int = 4
    #: True aligns every job's storms on a global clock (the Figure-4
    #: worst case); False staggers storms by each job's start time
    synchronized_checkpoints: bool = True
    diurnal_amplitude: float = 0.4
    peak_hour: float = 14.0


def inference_class(spec: FrontendTrafficSpec, now_s: float) -> FlowClass:
    """Millions-of-users serving load at ``now_s`` (diurnal shape)."""
    offered = (
        spec.users_m * 1e6 * spec.per_user_kbps * 1e3 / 1e9
        * diurnal_factor(now_s / 3600.0, spec.diurnal_amplitude,
                         spec.peak_hour)
    )
    return FlowClass("inference", "inference", offered, spec.inference_flows)


def storage_class(spec: FrontendTrafficSpec) -> FlowClass:
    return FlowClass("storage", "storage", spec.storage_gbps,
                     spec.storage_flows)


def checkpoint_classes(
    spec: FrontendTrafficSpec,
    running_jobs: Sequence[Tuple[int, int, float]],
    now_s: float,
) -> List[FlowClass]:
    """Checkpoint storms active at ``now_s``.

    ``running_jobs`` is ``(job_id, gpus, placed_at_s)`` tuples. A job
    is mid-storm when its checkpoint phase falls inside the write
    window; a storm's offered load is the job's full checkpoint image
    pushed out over the write time (Figure 4's burst shape).
    """
    interval = spec.checkpoint_interval_s
    write = spec.checkpoint.write_seconds
    out: List[FlowClass] = []
    for job_id, gpus, placed_at in running_jobs:
        phase = (now_s - (0.0 if spec.synchronized_checkpoints
                          else placed_at)) % interval
        if phase >= write:
            continue
        offered = (
            spec.checkpoint.storage_bytes(gpus) * 8.0 / 1e9 / write
        )
        out.append(
            FlowClass(f"checkpoint/job{job_id}", "checkpoint", offered,
                      spec.checkpoint_flows_per_job)
        )
    return out


def build_classes(
    spec: FrontendTrafficSpec,
    running_jobs: Sequence[Tuple[int, int, float]],
    now_s: float,
) -> List[FlowClass]:
    """The full class mix at one instant: serving + storage + storms."""
    classes = [inference_class(spec, now_s), storage_class(spec)]
    classes.extend(checkpoint_classes(spec, running_jobs, now_s))
    return classes


# ----------------------------------------------------------------------
def first_solve_tier_util(sim: FluidSimulator) -> Dict[str, float]:
    """Per-tier peak utilization at ``sim``'s first rate solve.

    Call before ``sim.run()``: returns a dict, empty until the first
    solve, that a self-removing ``on_solve`` hook then fills from
    :meth:`~repro.fabric.simulator.FluidSimulator.link_view`, tiers
    sorted, each peak rounded to 6 places. Shared by the frontend
    model and the backend interference snapshots.
    """
    tier_util: Dict[str, float] = {}

    def on_first_solve(sim: FluidSimulator,
                       _rates: Dict[int, float]) -> None:
        sim.on_solve = None
        _loads, _counts, _utils, peaks = sim.link_view()
        for tier in sorted(peaks):
            tier_util[tier] = round(peaks[tier], 6)

    sim.on_solve = on_first_solve
    return tier_util


class FrontendModel:
    """The section-8 fabric plus the machinery to simulate class mixes."""

    def __init__(self, spec: Optional[FrontendSpec] = None):
        self.spec = spec or FrontendSpec()
        from ..topos.frontend import build_frontend

        self.topo = build_frontend(self.spec)
        self.router = shared_router(self.topo)
        self.compute = sorted(
            h.name for h in self.topo.active_hosts()
            if h.name not in set(self.topo.meta["storage_hosts"])
        )
        self.storage = sorted(self.topo.meta["storage_hosts"])

    # ------------------------------------------------------------------
    def _endpoints(
        self, cls: FlowClass, rng: random.Random
    ) -> Tuple[str, str]:
        """Pick one (src, dst) host pair for a flow of ``cls``."""
        if cls.kind == "checkpoint":
            return rng.choice(self.compute), rng.choice(self.storage)
        if cls.kind == "storage":
            return rng.choice(self.storage), rng.choice(self.compute)
        # inference: serving traffic traverses the full fabric; model
        # it as compute pairs in different ToR pairs (east-west)
        src = rng.choice(self.compute)
        src_seg = self.topo.hosts[src].segment
        others = [h for h in self.compute
                  if self.topo.hosts[h].segment != src_seg]
        return src, rng.choice(others or self.compute)

    def class_flows(
        self, classes: Sequence[FlowClass], window_s: float, seed: int
    ) -> List[Flow]:
        """Route each class's representative flows for one window."""
        flows: List[Flow] = []
        for cls in classes:
            if cls.offered_gbps <= _EPS:
                continue
            rng = random.Random(derive_seed(seed, "fleet.fe", cls.name))
            per_flow_bytes = (
                gbps_to_bytes_per_sec(cls.offered_gbps) * window_s
                / cls.flows
            )
            for i in range(cls.flows):
                src_host, dst_host = self._endpoints(cls, rng)
                if src_host == dst_host:
                    continue
                src = self.topo.hosts[src_host].frontend_nic()
                dst = self.topo.hosts[dst_host].frontend_nic()
                ft = FiveTuple(src.ip, dst.ip, 49152 + i, _DPORT)
                path = self.router.path_for(src, dst, ft)
                flows.append(
                    Flow(
                        five_tuple=ft,
                        size_bytes=per_flow_bytes,
                        path=path,
                        start_time=0.0,
                        tag=f"fe/{cls.name}",
                    )
                )
        return flows

    def simulate(
        self,
        classes: Sequence[FlowClass],
        window_s: float,
        seed: int,
        recorder=None,
    ) -> Dict[str, Any]:
        """Run one contended window; per-class achieved vs. offered."""
        flows = self.class_flows(classes, window_s, seed)
        result: Dict[str, Any] = {
            "window_s": window_s,
            "classes": [],
            "tier_util": {},
        }
        if not flows:
            return result
        sim = FluidSimulator(self.topo, recorder=recorder)
        sim.add_flows(flows)
        result["tier_util"] = first_solve_tier_util(sim)
        sim.run(until=window_s)
        remaining = {f.flow_id: f.remaining_bytes for f in sim.active_flows}
        by_tag: Dict[str, float] = {}
        for f in flows:
            done = f.size_bytes - remaining.get(f.flow_id, 0.0)
            by_tag[f.tag] = by_tag.get(f.tag, 0.0) + done
        for cls in classes:
            if cls.offered_gbps <= _EPS:
                continue
            achieved = by_tag.get(f"fe/{cls.name}", 0.0) * 8.0 / 1e9 / window_s
            result["classes"].append({
                "name": cls.name,
                "kind": cls.kind,
                "offered_gbps": round(cls.offered_gbps, 6),
                "achieved_gbps": round(achieved, 6),
                "contention": round(
                    achieved / cls.offered_gbps, 6
                ) if cls.offered_gbps > _EPS else 1.0,
            })
        return result
