"""Differential check of the cached router against the uncached walker.

:class:`RoutingEquivalence` is a seeded randomized failure/repair
campaign (same pattern as the simulator's
:class:`~repro.fabric.oracle.SolverEquivalence`): the uncached
hop-by-hop :class:`~repro.routing.ecmp.Router` is the oracle, and
every query must produce a byte-identical ``FlowPath`` -- or the
identical ``RoutingError`` message -- from the
:class:`~repro.routing.cache.CachedRouter` under arbitrary link
flips, switch failures and recoveries, across the HPN, DCN+ and
rail-only architectures.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from ..core.errors import RoutingError
from ..core.topology import Topology
from .cache import CachedRouter
from .ecmp import Router
from .hashing import FiveTuple

#: outcome of one routed query, comparable byte for byte
Outcome = Tuple[Any, ...]


def _query(router: Router, src, dst, ft: FiveTuple,
           plane: Optional[int]) -> Outcome:
    try:
        p = router.path_for(src, dst, ft, plane)
        return ("ok", tuple(p.nodes), tuple(p.dirlinks), p.plane)
    except RoutingError as err:
        return ("err", str(err))


class RoutingEquivalence:
    """Randomized cached-vs-oracle campaign over three architectures."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def _fabrics(self) -> List[Tuple[str, Topology]]:
        from ..topos import (
            DcnPlusSpec,
            HpnSpec,
            RailOnlySpec,
            build_dcnplus,
            build_hpn,
            build_railonly,
        )

        return [
            ("hpn", build_hpn(HpnSpec(
                segments_per_pod=2, hosts_per_segment=8,
                backup_hosts_per_segment=0, aggs_per_plane=4,
            ))),
            ("dcnplus", build_dcnplus(DcnPlusSpec(
                pods=2, segments_per_pod=2, hosts_per_segment=6,
            ))),
            ("railonly", build_railonly(RailOnlySpec(
                segments_per_pod=2, hosts_per_segment=6,
            ))),
        ]

    def run_random(self, cases: int = 50,
                   queries_per_case: int = 25) -> Dict[str, Any]:
        """Run ``cases`` randomized failure/repair cases; returns a report.

        Each case mutates one fabric (link flips, or a switch
        failure/recovery) and compares every query outcome. The cached
        routers persist across cases, so invalidation -- not a cold
        cache -- is what keeps them honest; ``recover_node`` cases are
        the stale-cache regression the paper's dual-ToR failover makes
        dangerous.
        """
        rng = random.Random(self.seed)
        fabrics = self._fabrics()
        oracles = {name: Router(topo) for name, topo in fabrics}
        cached = {name: CachedRouter(topo) for name, topo in fabrics}
        mismatches: List[str] = []
        checked = 0
        for case in range(cases):
            name, topo = fabrics[rng.randrange(len(fabrics))]
            # mutate: mostly link flips, sometimes a whole-switch event
            roll = rng.random()
            if roll < 0.2 and topo.switches:
                victim = rng.choice(sorted(topo.switches))
                if topo.switches[victim].up:
                    topo.fail_node(victim)
                else:
                    topo.recover_node(victim)
            else:
                for _ in range(rng.randint(1, 3)):
                    lid = rng.choice(list(topo.links))
                    topo.set_link_state(lid, rng.random() < 0.5)
            hosts = [h for h in topo.hosts.values() if not h.backup]
            for q in range(queries_per_case):
                a, b = rng.sample(hosts, 2)
                src = rng.choice(a.backend_nics())
                dst = rng.choice(b.backend_nics())
                plane = rng.choice([None, 0, 1])
                ft = FiveTuple(src.ip, dst.ip, 49152 + rng.randrange(4096), 4791)
                want = _query(oracles[name], src, dst, ft, plane)
                got = _query(cached[name], src, dst, ft, plane)
                checked += 1
                if want != got:
                    mismatches.append(
                        f"{name} case {case} query {q}: {src.name}->"
                        f"{dst.name} plane={plane}: oracle={want!r} "
                        f"cached={got!r}"
                    )
        stats = {name: r.stats.as_dict() for name, r in cached.items()}
        return {
            "ok": not mismatches,
            "cases": cases,
            "checked": checked,
            "mismatches": mismatches[:10],
            "mismatch_count": len(mismatches),
            "cache_stats": stats,
        }
