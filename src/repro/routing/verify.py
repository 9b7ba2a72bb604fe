"""Forwarding verification: no loops, no black holes, plane discipline.

A network-verification pass in the spirit of Alibaba's operational
tooling: sample (or exhaust) NIC pairs, walk each flow through the
router, and certify that

* every reachable pair is actually delivered (no black holes);
* no walk revisits a node (no forwarding loops);
* hop counts stay within the architecture's diameter;
* plane-isolated fabrics never leak a flow across planes.

Returns a :class:`ForwardingReport`; `ok` is the single go/no-go bit
the CLI's ``validate`` could gate deployments on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.errors import RoutingError
from ..core.topology import Topology
from .cache import CachedRouter, shared_router
from .hashing import FiveTuple

#: host-tor-agg-core-agg-tor-host
MAX_DIAMETER_HOPS = 6

#: staticcheck rule id for each violation kind (shared diagnostic model)
VIOLATION_RULE_IDS = {
    "loop": "FWD001",
    "blackhole": "FWD002",
    "diameter": "FWD003",
    "plane-leak": "FWD004",
}


@dataclass
class ForwardingViolation:
    kind: str            # "loop" | "blackhole" | "diameter" | "plane-leak"
    src: str
    dst: str
    detail: str

    @property
    def rule_id(self) -> str:
        return VIOLATION_RULE_IDS.get(self.kind, "FWD000")


@dataclass
class ForwardingReport:
    pairs_checked: int = 0
    flows_walked: int = 0
    violations: List[ForwardingViolation] = field(default_factory=list)
    unreachable_pairs: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_diagnostics(self):
        """Project the walk results into ``repro.staticcheck`` diagnostics.

        Returns a :class:`repro.staticcheck.Report` so forwarding
        verification composes with the topology analyzers in one gate.
        """
        from ..staticcheck import Diagnostic, Location, Report, Severity

        report = Report()
        report.stats["pairs_checked"] = self.pairs_checked
        report.stats["flows_walked"] = self.flows_walked
        report.stats["unreachable_pairs"] = self.unreachable_pairs
        for v in self.violations:
            report.add(
                Diagnostic(
                    rule_id=v.rule_id,
                    severity=Severity.ERROR,
                    message=f"{v.src} -> {v.dst}: {v.detail}",
                    location=Location(obj=f"{v.src}->{v.dst}"),
                )
            )
        return report


def verify_forwarding(
    topo: Topology,
    router: Optional[CachedRouter] = None,
    max_pairs: int = 64,
    sports_per_pair: int = 4,
    rail: int = 0,
    expect_reachable: bool = True,
) -> ForwardingReport:
    """Walk sampled flows and certify forwarding correctness.

    ``expect_reachable=False`` suppresses black-hole violations for
    fabrics where some pairs are legitimately unreachable (rail-only
    cross-rail traffic, partitioned failures).
    """
    if router is None:
        router = shared_router(topo)
    report = ForwardingReport()
    hosts = sorted(h.name for h in topo.active_hosts())
    pairs = [
        (a, b) for a, b in itertools.combinations(hosts, 2)
    ][:max_pairs]

    for src_host, dst_host in pairs:
        report.pairs_checked += 1
        src = topo.hosts[src_host].nic_for_rail(rail)
        dst = topo.hosts[dst_host].nic_for_rail(rail)
        planes = router.usable_planes(src, dst)
        if not planes:
            report.unreachable_pairs += 1
            if expect_reachable:
                report.violations.append(
                    ForwardingViolation(
                        "blackhole", src_host, dst_host, "no usable plane"
                    )
                )
            continue
        for plane in planes:
            for i in range(sports_per_pair):
                ft = FiveTuple(src.ip, dst.ip, 49152 + i * 257, 4791)
                report.flows_walked += 1
                try:
                    path = router.path_for(src, dst, ft, plane=plane)
                except RoutingError as exc:
                    report.violations.append(
                        ForwardingViolation(
                            "blackhole", src_host, dst_host, str(exc)
                        )
                    )
                    continue
                _check_path(topo, report, src_host, dst_host, path)
    return report


def _check_path(topo: Topology, report: ForwardingReport,
                src: str, dst: str, path) -> None:
    if len(set(path.nodes)) != len(path.nodes):
        report.violations.append(
            ForwardingViolation("loop", src, dst, " -> ".join(path.nodes))
        )
    if path.hops > MAX_DIAMETER_HOPS:
        report.violations.append(
            ForwardingViolation(
                "diameter", src, dst, f"{path.hops} hops: {' -> '.join(path.nodes)}"
            )
        )
    if path.nodes[-1] != dst:
        report.violations.append(
            ForwardingViolation(
                "blackhole", src, dst, f"delivered to {path.nodes[-1]}"
            )
        )
    if int(topo.meta.get("planes", 1)) > 1 and path.plane is not None:
        for node in path.switch_nodes():
            sw = topo.switches.get(node)
            if sw is not None and sw.plane is not None and sw.plane != path.plane:
                report.violations.append(
                    ForwardingViolation(
                        "plane-leak", src, dst,
                        f"{node} is plane {sw.plane}, flow is plane {path.plane}",
                    )
                )
                break
