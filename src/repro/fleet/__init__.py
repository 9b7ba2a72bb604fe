"""Multi-job fleet simulation: churn, placement, frontend classes.

The fleet layer composes the existing substrates into a cluster-scale
view of the paper's production story: Figure-6 job sizes arriving and
departing over time (:mod:`.arrivals`), placement policies contending
for segments and pods (:mod:`.policies`), the section-8 frontend's
aggregated traffic classes including Figure-4 checkpoint storms
(:mod:`.frontend`), and the event-driven :class:`FleetSimulator`
(:mod:`.sim`) that drives admit -> place -> run -> depart while
measuring queue waits, fragmentation, and tenant interference.

Engine entry points: ``fleet.churn`` and ``fleet.interference`` (see
:mod:`repro.engine.builtin`).
"""

from .arrivals import ArrivalSpec, JobArrival, generate_arrivals
from .frontend import (
    FlowClass,
    FrontendModel,
    FrontendTrafficSpec,
    build_classes,
    checkpoint_classes,
    first_solve_tier_util,
    inference_class,
    storage_class,
)
from .policies import (
    InterleavedWorstCasePolicy,
    PlacementDecision,
    PlacementPolicy,
    RailAwareSpreadPolicy,
    SegmentPackingPolicy,
    get_policy,
    policy_names,
    register_policy,
)
from .sim import (
    FleetJob,
    FleetResult,
    FleetSimulator,
    run_churn,
    run_interference,
)

__all__ = [
    "ArrivalSpec",
    "FleetJob",
    "FleetResult",
    "FleetSimulator",
    "FlowClass",
    "FrontendModel",
    "FrontendTrafficSpec",
    "InterleavedWorstCasePolicy",
    "JobArrival",
    "PlacementDecision",
    "PlacementPolicy",
    "RailAwareSpreadPolicy",
    "SegmentPackingPolicy",
    "build_classes",
    "checkpoint_classes",
    "first_solve_tier_util",
    "generate_arrivals",
    "get_policy",
    "inference_class",
    "policy_names",
    "register_policy",
    "run_churn",
    "run_interference",
    "storage_class",
]
