"""Fluid flow-level fabric simulator, queue model and telemetry."""

from .flow import Flow
from .incidence import IncidenceIndex
from .kernel import ComponentSnapshot, build_snapshot, waterfill
from .queues import QueueTracker
from .replay import IterationReplay, NicSeries
from .oracle import EquivalenceReport, SolverEquivalence, max_min_rates
from .simulator import FluidSimulator, SimResult, run_flows
from .solver import IncrementalMaxMinSolver, SolveOutcome
from .telemetry import (
    agg_ingress_gbps,
    dirlink_loads,
    imbalance_ratio,
    jain_fairness,
    tor_ports_towards_nic,
)

__all__ = [
    "ComponentSnapshot",
    "EquivalenceReport",
    "IncidenceIndex",
    "IncrementalMaxMinSolver",
    "IterationReplay",
    "NicSeries",
    "Flow",
    "FluidSimulator",
    "QueueTracker",
    "SimResult",
    "SolveOutcome",
    "SolverEquivalence",
    "agg_ingress_gbps",
    "build_snapshot",
    "waterfill",
    "dirlink_loads",
    "imbalance_ratio",
    "jain_fairness",
    "max_min_rates",
    "run_flows",
    "tor_ports_towards_nic",
]
