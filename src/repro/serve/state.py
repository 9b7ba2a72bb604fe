"""Resident serving state: warm router, probe router, batch executor.

``ServeState`` pins everything the daemon needs hot: the topology, its
compiled FIB, and the per-topology :func:`~repro.routing.shared_router`
whose caches stay warm across requests. What-if queries (any query
carrying a failure set) are evaluated under
``Topology.transient_state()`` against a dedicated *probe* router with
its own caches, so the live router's memo and stats are byte-identical
to a process that never probed -- the fork-and-probe contract
(``docs/serving.md``), regression-tested in
``tests/test_serve_forkprobe.py``.

``execute_batch`` is the batched engine behind the micro-batcher:
dedupe by query key, group what-ifs by failure set so each set pays
one snapshot/restore, and fan results out to duplicate slots. Each
answer is cached in one place: live path and planes answers in the
live router's route cache (per-link invalidation), live RePaC/residual
and what-if results in the result memo (net-change invalidation).
Results are byte-identical to calling
:meth:`ServeState.execute` serially, which the serve tests and
hpnbench's ``serve`` workload both assert.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.entities import Nic
from ..core.errors import RoutingError, TopologyError
from ..core.topology import Topology
from ..routing import (
    CachedRouter,
    FiveTuple,
    find_paths,
    reset_shared_router,
    shared_router,
)
from .query import Query, QueryError

Result = Dict[str, Any]


class ServeState:
    """Warm routing/solver state shared by every request.

    ``fresh=True`` installs a cold shared router, so its cache counters
    start at zero and report to ``recorder`` (``repro serve`` uses it
    to put the live router's counters in ``/metrics``).
    """

    def __init__(self, topo: Topology, recorder=None, fresh: bool = False):
        self.topo = topo
        self.recorder = recorder
        if fresh:
            self.router = reset_shared_router(topo, recorder=recorder)
        else:
            self.router = shared_router(topo, recorder=recorder)
        # What-if probes run against this router, never the live one:
        # its caches absorb the probe-window churn (and stay useful
        # across repeated failure sets thanks to net-change
        # invalidation) while the live router's bytes never move.
        self.probe_router = CachedRouter(topo)  # repro: noqa[LINT006]
        # (host, rail) -> Nic is structural: valid until a rewiring
        # bumps structure_epoch, independent of link up/down state
        self._nic_memo: Dict[Tuple[str, int], Nic] = {}
        self._nic_structure_cursor = topo.structure_epoch
        # live repac/residual results (the find_paths probes) and
        # what-if results; any *net* link-state change clears them all
        # (see _sync_serve_memos)
        self._result_memo: Dict[Query, Result] = {}
        self._serve_state_cursor = topo.state_epoch
        self._serve_structure_cursor = topo.structure_epoch

    # ------------------------------------------------------------------
    # single-query (serial reference) execution
    # ------------------------------------------------------------------
    def execute(self, query: Query) -> Result:
        """Evaluate one query; the serial reference semantics."""
        self._sync_serve_memos()
        if query.is_what_if:
            return self._execute_what_if(self.probe_router, query)
        return self._eval_now(self.router, query)

    # ------------------------------------------------------------------
    # batched execution
    # ------------------------------------------------------------------
    def execute_batch(self, queries: Sequence[Query]) -> List[Result]:
        """Evaluate a micro-batch; byte-identical to serial `execute`.

        Distinct queries are evaluated once and fanned out to duplicate
        slots. Live path and planes lookups go to the live route cache;
        live RePaC/residual and what-if results come from the
        net-change-guarded result memo when warm. What-ifs not in the
        memo are grouped by failure set so each set pays one transient
        snapshot/restore.

        Returned result dicts may be shared across requests and
        batches -- treat them as immutable.
        """
        self._sync_serve_memos()
        resolved: Dict[Query, Result] = {}
        what_if_groups: Dict[Tuple[Tuple[int, ...], Tuple[str, ...]], List[Query]] = {}
        for q in dict.fromkeys(queries):
            if not q.is_what_if and q.kind in ("path", "planes"):
                # the live route cache holds these answers
                resolved[q] = self._eval_now(self.router, q)
                continue
            res = self._result_memo.get(q)
            if res is not None:
                resolved[q] = res
            elif q.is_what_if:
                what_if_groups.setdefault(q.failure_set, []).append(q)
            else:
                res = self._eval_now(self.router, q)
                self._result_memo[q] = res
                resolved[q] = res

        for group in what_if_groups.values():
            err = self._check_failure_set(group[0])
            if err is not None:
                for q in group:
                    resolved[q] = _error(q, err)
                continue
            with self.topo.transient_state():
                self._apply_failures(group[0])
                for q in group:
                    res = self._eval_now(self.probe_router, q)
                    self._result_memo[q] = res
                    resolved[q] = res

        return [resolved[q] for q in queries]

    def _sync_serve_memos(self) -> None:
        """Expire the result memo against the topology epochs.

        Same net-change rule as the route cache: a link that toggled an
        even number of times since the cursor is back in the state the
        memoised results were computed under, so what-if probe+restore
        cycles (our own transient blocks included) keep the memo warm.
        Any *net* change or structural change wholesale-clears it --
        coarse, but the precise per-link machinery lives in the route
        cache, which path and planes queries consult on every batch.
        """
        topo = self.topo
        if self._serve_structure_cursor != topo.structure_epoch:
            self._result_memo.clear()
            self._serve_structure_cursor = topo.structure_epoch
            self._serve_state_cursor = topo.state_epoch
            return
        if self._serve_state_cursor != topo.state_epoch:
            if topo.net_link_changes(self._serve_state_cursor):
                self._result_memo.clear()
            self._serve_state_cursor = topo.state_epoch

    # ------------------------------------------------------------------
    # what-if plumbing
    # ------------------------------------------------------------------
    def _check_failure_set(self, query: Query) -> Optional[str]:
        for lid in query.fail_links:
            if lid not in self.topo.links:
                return f"unknown link id {lid}"
        for name in query.fail_switches:
            if name not in self.topo.switches:
                return f"unknown switch {name!r}"
        return None

    def _apply_failures(self, query: Query) -> None:
        for name in query.fail_switches:
            self.topo.fail_node(name)
        for lid in query.fail_links:
            self.topo.set_link_state(lid, False)

    def _execute_what_if(self, router: CachedRouter, query: Query) -> Result:
        err = self._check_failure_set(query)
        if err is not None:
            return _error(query, err)
        with self.topo.transient_state():
            self._apply_failures(query)
            return self._eval_now(router, query)

    # ------------------------------------------------------------------
    # per-kind evaluation (state already forked if what-if)
    # ------------------------------------------------------------------
    def _eval_now(self, router: CachedRouter, query: Query) -> Result:
        try:
            src, dst = self._nics(query)
        except QueryError as err:
            return _error(query, str(err))
        if query.kind == "path":
            ft = FiveTuple(src.ip, dst.ip, query.sport, query.dport)
            try:
                path = router.path_for(src, dst, ft, query.plane)
            except RoutingError as err:
                return _error(query, str(err))
            return _path_result(query, path)
        if query.kind == "planes":
            return {
                "ok": True,
                "kind": "planes",
                "planes": list(router.usable_planes(src, dst)),
            }
        # repac / residual share the disjoint-path search
        try:
            found = find_paths(
                router, src, dst, query.dport, query.num_paths,
                plane=query.plane, sport_span=query.sport_span,
            )
        except RoutingError as err:
            return _error(query, str(err))
        paths = [
            {
                "sport": probe.sport,
                "plane": probe.path.plane,
                "nodes": list(probe.path.nodes),
                "dirlinks": list(probe.path.dirlinks),
            }
            for probe in found.probes
        ]
        if query.kind == "repac":
            return {
                "ok": True,
                "kind": "repac",
                "attempts": found.attempts,
                "found": len(paths),
                "paths": paths,
            }
        bottlenecks = [
            min(self.topo.links[d // 2].gbps for d in probe.path.dirlinks)
            for probe in found.probes
        ]
        return {
            "ok": True,
            "kind": "residual",
            "attempts": found.attempts,
            "found": len(paths),
            "bottlenecks_gbps": bottlenecks,
            "residual_gbps": sum(bottlenecks),
            "planes": list(router.usable_planes(src, dst)),
        }

    def _nics(self, query: Query) -> Tuple[Nic, Nic]:
        src = self._nic(query.src_host, query.src_rail)
        dst = self._nic(query.dst_host, query.dst_rail)
        return src, dst

    def _nic(self, host: str, rail: int) -> Nic:
        if self._nic_structure_cursor != self.topo.structure_epoch:
            self._nic_memo.clear()
            self._nic_structure_cursor = self.topo.structure_epoch
        key = (host, rail)
        nic = self._nic_memo.get(key)
        if nic is not None:
            return nic
        h = self.topo.hosts.get(host)
        if h is None:
            raise QueryError(f"unknown host {host!r}")
        try:
            nic = h.nic_for_rail(rail)
        except (KeyError, IndexError, ValueError, TopologyError):
            raise QueryError(f"host {host!r} has no NIC on rail {rail}")
        self._nic_memo[key] = nic
        return nic

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        live = self.router.stats
        probe = self.probe_router.stats
        return {
            "topology": {
                "hosts": len(self.topo.hosts),
                "switches": len(self.topo.switches),
                "links": len(self.topo.links),
                "state_epoch": self.topo.state_epoch,
                "structure_epoch": self.topo.structure_epoch,
            },
            "cache": dict(live.as_dict(), hit_rate=live.hit_rate),
            "probe_cache": dict(probe.as_dict(), hit_rate=probe.hit_rate),
        }


def _error(query: Query, message: str) -> Result:
    return {"ok": False, "kind": query.kind, "error": message}


def _path_result(query: Query, path) -> Result:
    return {
        "ok": True,
        "kind": "path",
        "plane": path.plane,
        "nodes": list(path.nodes),
        "dirlinks": list(path.dirlinks),
        "hops": len(path.nodes) - 1,
    }
