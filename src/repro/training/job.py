"""Training-job orchestration on one cluster.

:class:`TrainingJob` binds a model, a parallelism plan, a placement and
a communicator, and answers throughput queries before and after network
events -- the object the end-to-end benchmarks (Figures 15, 16, 18)
drive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..collective.comm import Communicator
from ..core.topology import Topology
from ..routing.cache import CachedRouter
from .iteration import IterationBreakdown, simulate_iteration
from .models import GpuSpec, H800, LlmConfig
from .parallelism import ParallelismPlan, Placement


@dataclass
class TrainingJob:
    """One LLM training job placed on a cluster."""

    topo: Topology
    router: CachedRouter
    config: LlmConfig
    placement: Placement
    gpu: GpuSpec = H800
    micro_batch: int = 1
    microbatches: Optional[int] = None
    overlap: float = 0.3
    num_conns: int = 2
    disjoint_paths: bool = True
    _comm: Optional[Communicator] = field(default=None, init=False, repr=False)

    @property
    def comm(self) -> Communicator:
        if self._comm is None:
            self._comm = Communicator(
                self.topo,
                self.router,
                self.placement.hosts,
                num_conns=self.num_conns,
                disjoint_paths=self.disjoint_paths,
            )
        return self._comm

    # ------------------------------------------------------------------
    def iteration(self) -> IterationBreakdown:
        """Simulate one iteration under the current link state."""
        return simulate_iteration(
            self.comm,
            self.placement,
            self.config,
            gpu=self.gpu,
            micro_batch=self.micro_batch,
            microbatches=self.microbatches,
            overlap=self.overlap,
        )

    def samples_per_sec(self) -> float:
        return self.iteration().samples_per_sec

    # ------------------------------------------------------------------
    def segments_spanned(self) -> int:
        """How many (pod, segment) blocks the job occupies."""
        blocks = {
            (self.topo.hosts[h].pod, self.topo.hosts[h].segment)
            for h in self.placement.hosts
        }
        return len(blocks)


def make_job(
    topo: Topology,
    router: CachedRouter,
    config: LlmConfig,
    plan: ParallelismPlan,
    hosts: Sequence[str],
    **kwargs,
) -> TrainingJob:
    """Convenience constructor from a host list."""
    placement = Placement(plan=plan, hosts=list(hosts))
    return TrainingJob(
        topo=topo, router=router, config=config, placement=placement, **kwargs
    )
