"""Topology invariant checks (thin wrappers over ``repro.staticcheck``).

The collecting analyzers live in :mod:`repro.staticcheck.topo_rules`;
this module keeps the historical raise-on-first API: ``validate(topo)``
runs every structural rule appropriate for the architecture and raises
:class:`~repro.core.errors.TopologyError` on the first error-severity
finding. Use :func:`repro.staticcheck.analyze_topology` (or the CLI's
``repro validate --all``) to see *every* violation in one pass.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional

from ..core.entities import PortKind
from ..core.errors import TopologyError
from ..core.topology import Topology


def _raise_first(topo: Topology,
                 rule_ids: Optional[List[str]] = None) -> None:
    from ..staticcheck import run_topology_rules

    report = run_topology_rules(topo, rule_ids=rule_ids)
    errors = report.errors
    if errors:
        raise TopologyError(errors[0].message)


def validate(topo: Topology) -> None:
    """Run all structural invariants for ``topo``; raise on the first.

    Thin wrapper over the collecting engine: every registered
    non-expensive topology rule runs (architecture-filtered), and the
    first error-severity diagnostic becomes a :class:`TopologyError`.
    """
    _raise_first(topo)


def check_dual_tor(topo: Topology) -> None:
    """Each wired dual-port backend NIC reaches two distinct ToRs.

    Error messages name the ToRs a violating NIC actually reaches, not
    just the count, so an operator can walk to the right rack.
    """
    _raise_first(topo, ["TOPO002"])


def oversubscription_report(topo: Topology) -> Dict[str, float]:
    """Measured down:up capacity ratio per switch role (1.0 == 1:1)."""
    down_cap: Dict[str, float] = defaultdict(float)
    up_cap: Dict[str, float] = defaultdict(float)
    for sw in topo.switches.values():
        role = sw.role.value
        for port in topo.ports[sw.name]:
            if not port.connected:
                continue
            if port.kind is PortKind.DOWN:
                down_cap[role] += port.gbps
            elif port.kind is PortKind.UP:
                up_cap[role] += port.gbps
    report = {}
    for role in down_cap:
        if up_cap.get(role):
            report[role] = down_cap[role] / up_cap[role]
    return report
