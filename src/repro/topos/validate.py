"""Topology invariants, raise-first, plus the oversubscription report.

The collecting analyzers live in :mod:`repro.staticcheck.topo_rules`.
``validate(topo)`` runs every structural rule appropriate for the
architecture and raises :class:`~repro.core.errors.TopologyError` on
the first error-severity finding. To see *every* violation in one
pass, call :func:`repro.staticcheck.run_topology_rules` or run
``repro check --family TOPO,WIRE,FWD``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict

from ..core.entities import PortKind
from ..core.errors import TopologyError
from ..core.topology import Topology


def validate(topo: Topology) -> None:
    """Run all structural invariants for ``topo``; raise on the first.

    Every registered non-expensive topology rule runs
    (architecture-filtered), and the first error-severity diagnostic
    becomes a :class:`TopologyError`.
    """
    from ..staticcheck import run_topology_rules

    errors = run_topology_rules(topo).errors
    if errors:
        raise TopologyError(errors[0].message)


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
