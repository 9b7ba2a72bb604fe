"""Cluster facade: one object binding topology, routing and scheduling.

``Cluster`` is the recommended entry point for applications: build one
from a spec, place jobs, get communicators, run collectives and
training iterations -- without wiring the substrates by hand.

Example::

    from repro import Cluster, HpnSpec
    cluster = Cluster.hpn(HpnSpec(segments_per_pod=1, hosts_per_segment=16,
                                  backup_hosts_per_segment=0, aggs_per_plane=8))
    hosts = cluster.place(8)
    comm = cluster.communicator(hosts)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .collective.comm import Communicator
from .core.topology import Topology
from .routing.cache import CachedRouter, shared_router
from .topos.dcnplus import build_dcnplus
from .topos.hpn import build_hpn
from .topos.singletor import build_singletor
from .topos.spec import DcnPlusSpec, HpnSpec, SingleTorSpec
from .training.job import TrainingJob, make_job
from .training.models import LlmConfig
from .training.parallelism import ParallelismPlan
from .training.scheduler import Scheduler


@dataclass
class Cluster:
    """A built network plus its router and scheduler."""

    topo: Topology
    router: CachedRouter = field(init=False)
    scheduler: Scheduler = field(init=False)

    def __post_init__(self) -> None:
        self.router = shared_router(self.topo)
        self.scheduler = Scheduler(self.topo)

    # -- constructors ---------------------------------------------------
    @classmethod
    def hpn(cls, spec: HpnSpec = HpnSpec()) -> "Cluster":
        return cls(build_hpn(spec))

    @classmethod
    def dcnplus(cls, spec: DcnPlusSpec = DcnPlusSpec()) -> "Cluster":
        return cls(build_dcnplus(spec))

    @classmethod
    def singletor(cls, spec: SingleTorSpec = SingleTorSpec()) -> "Cluster":
        return cls(build_singletor(spec))

    # -- operations ------------------------------------------------------
    @property
    def architecture(self) -> str:
        return str(self.topo.meta.get("architecture", "unknown"))

    @property
    def is_hpn(self) -> bool:
        return self.architecture == "hpn"

    def place(self, num_hosts: int, **kwargs) -> List[str]:
        """Allocate hosts via the scheduler (see Scheduler.place)."""
        return self.scheduler.place(num_hosts, **kwargs)

    def communicator(
        self, hosts: Sequence[str], **kwargs
    ) -> Communicator:
        """A communicator over ``hosts`` using this cluster's router.

        Non-HPN fabrics default to blind-ECMP path selection, matching
        what each architecture deployed.
        """
        kwargs.setdefault("disjoint_paths", self.is_hpn)
        return Communicator(self.topo, self.router, hosts, **kwargs)

    def train(
        self,
        config: LlmConfig,
        plan: ParallelismPlan,
        hosts: Optional[Sequence[str]] = None,
        **kwargs,
    ) -> TrainingJob:
        """Place (if needed) and build a training job."""
        if hosts is None:
            hosts = self.place(plan.num_hosts)
        kwargs.setdefault("disjoint_paths", self.is_hpn)
        return make_job(self.topo, self.router, config, plan, hosts, **kwargs)
