"""Relative path control: source-port search for disjoint paths.

The paper's optimized path selection (section 6.1, Appendix B,
Algorithm 1) builds, for each logical connection request, a *set* of
RDMA connections whose network paths are mutually disjoint. Production
HPN uses RePaC [Zhang et al., ATC'21]: because switch hashing is
deterministic and its linearity is known, the host can predict every
per-hop egress port from the 5-tuple and pick source ports that land on
the paths it wants.

Our hash family is deterministic by construction, so ``find_paths``
reimplements the same contract: enumerate candidate source ports,
predict each path with the router, and greedily keep those that are
link-disjoint in the fabric interior. The search cost is bounded by the
architecture's path-selection complexity -- O(60) per ToR in HPN versus
O(10^3) in 3-tier fabrics (Table 1), which the complexity module
quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from ..core.entities import Nic
from ..core.errors import RoutingError
from ..obs import resolve as _obs_resolve
from .cache import CachedRouter
from .hashing import FiveTuple
from .path import FlowPath

#: ephemeral source-port range probed, mirroring RDMA CM behaviour
DEFAULT_SPORT_BASE = 49152
DEFAULT_SPORT_SPAN = 4096


@dataclass
class PathProbe:
    """One probed connection candidate."""

    sport: int
    five_tuple: FiveTuple
    path: FlowPath


@dataclass
class DisjointPathSet:
    """Result of Algorithm 1 (``EstablishConns``)."""

    probes: List[PathProbe] = field(default_factory=list)
    attempts: int = 0

    @property
    def sports(self) -> List[int]:
        return [p.sport for p in self.probes]

    @property
    def paths(self) -> List[FlowPath]:
        return [p.path for p in self.probes]


def find_paths(
    router: CachedRouter,
    src_nic: Nic,
    dst_nic: Nic,
    dport: int,
    num_paths: int,
    plane: Optional[int] = None,
    sport_base: int = DEFAULT_SPORT_BASE,
    sport_span: int = DEFAULT_SPORT_SPAN,
) -> DisjointPathSet:
    """Find up to ``num_paths`` mutually disjoint paths (Algorithm 1).

    Probes source ports in order; a candidate is kept when its interior
    links do not overlap any already-kept path. Stops early once
    ``num_paths`` are found or the span is exhausted.
    """
    if num_paths < 1:
        raise ValueError("num_paths must be >= 1")
    rec = _obs_resolve()
    result = DisjointPathSet()
    used: Set[int] = set()
    unroutable = overlapped = 0
    for offset in range(sport_span):
        sport = sport_base + offset
        ft = FiveTuple(src_nic.ip, dst_nic.ip, sport, dport)
        result.attempts += 1
        try:
            path = router.path_for(src_nic, dst_nic, ft, plane=plane)
        except RoutingError:
            unroutable += 1
            continue
        interior = set(path.core_dirlinks())
        if interior & used:
            overlapped += 1
            continue
        used |= interior
        result.probes.append(PathProbe(sport, ft, path))
        if len(result.probes) >= num_paths:
            break
    if rec is not None:
        m = rec.metrics
        m.counter("repac.probes", outcome="kept").inc(len(result.probes))
        m.counter("repac.probes", outcome="overlap").inc(overlapped)
        m.counter("repac.probes", outcome="unroutable").inc(unroutable)
        rec.events.instant(
            "repac.path_set", 0.0, track="routing",
            src=src_nic.name, dst=dst_nic.name,
            attempts=result.attempts, kept=len(result.probes),
        )
    if not result.probes:
        raise RoutingError(
            f"no path found from {src_nic.name} to {dst_nic.name}"
        )
    return result


def max_disjoint_paths(
    router: CachedRouter,
    src_nic: Nic,
    dst_nic: Nic,
    dport: int = 4791,
    plane: Optional[int] = None,
    sport_span: int = DEFAULT_SPORT_SPAN,
) -> int:
    """Upper-bound probe: how many disjoint paths exist for this pair."""
    found = find_paths(
        router,
        src_nic,
        dst_nic,
        dport,
        num_paths=1 << 16,
        plane=plane,
        sport_span=sport_span,
    )
    return len(found.probes)
