"""Path-selection search-space accounting (paper Table 1).

Two complementary views:

* :func:`card_complexity` -- the closed-form product of per-tier ECMP
  fan-outs, computed from an :class:`~repro.topos.spec.ArchitectureCard`
  (this is how the paper derives O(60) vs O(4096));
* :func:`measured_complexity` -- the number of distinct up/down paths a
  single flow can take between two concrete hosts of a built topology,
  counted by DFS. On scaled topologies the two agree, which the test
  suite asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.topology import Topology
from ..topos.spec import ArchitectureCard
from .cache import CachedRouter, shared_router


@dataclass
class ComplexityRow:
    """One row of Table 1."""

    name: str
    supported_gpus: int
    tiers: int
    lb_switch_roles: str
    complexity: int


def card_complexity(card: ArchitectureCard) -> int:
    return card.path_selection_complexity


def table1(cards: List[ArchitectureCard]) -> List[ComplexityRow]:
    """Render Table 1 rows from architecture cards."""
    roles_by_tiers = {1: "ToR", 2: "ToR", 3: "ToR+Aggregation+Core"}
    rows = []
    for card in cards:
        if card.tiers == 2:
            roles = "ToR"
        elif len(card.lb_fanouts) == 2:
            roles = "ToR+Aggregation"
        else:
            roles = roles_by_tiers.get(card.tiers, "ToR")
        rows.append(
            ComplexityRow(
                name=card.name,
                supported_gpus=card.supported_gpus,
                tiers=card.tiers,
                lb_switch_roles=roles,
                complexity=card.path_selection_complexity,
            )
        )
    return rows


def measured_complexity(
    topo: Topology,
    src_host: str,
    dst_host: str,
    rail: int = 0,
    plane: int = 0,
    router: Optional[CachedRouter] = None,
) -> int:
    """Count distinct equal-cost paths between two hosts' rail NICs."""
    if router is None:
        router = shared_router(topo)
    src = topo.hosts[src_host]
    dst = topo.hosts[dst_host]
    src_nic = next(n for n in src.backend_nics() if n.rail == rail)
    dst_nic = next(n for n in dst.backend_nics() if n.rail == rail)
    return router.count_equal_paths(src_nic, dst_nic, plane=plane)


def failure_recalc_scope(topo: Topology) -> str:
    """What a host must re-learn to recompute disjoint paths on failure.

    In HPN only the ToR's ECMP group matters; 3-tier fabrics need ECMP
    groups from every tier (paper section 6.1).
    """
    if int(topo.meta.get("planes", 1)) > 1:
        return "ToR ECMP group only"
    return "ECMP groups from all tiers"
