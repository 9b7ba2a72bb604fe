"""The production router: compiled FIB walk plus a precise route cache.

:class:`CachedRouter` is the router production code uses. It walks
flows over the compiled :class:`~repro.routing.fib.Fib` -- its one
snapshot of the wiring: switch tables, access legs and the structure
epoch both were compiled at -- and memoizes ``path_for`` /
``usable_planes`` results. Its differential oracle is the uncached
hop-by-hop :class:`~repro.routing.ecmp.Router`, which shares no
routing code with it (see
:class:`~repro.routing.ecmp.RoutingEquivalence`): cached and uncached
paths must be byte-identical, including :class:`RoutingError`
outcomes.

Invalidation mirrors BGP /32 withdrawal scope. ``Topology.state_epoch``
counts link up/down transitions; the cache keeps a reverse
dependency -> cached-routes index and, on sync, drops exactly the
entries that depend on a flapped link. A route depends on every
structural link examined while walking it -- the links it crosses, the
other members of every ECMP candidate group it hashed over, and both
endpoints' access legs. Examined (not merely traversed) links matter:
a link coming back up grows a candidate set and shifts the ECMP index
of flows that never touched it, and the preferred-plane fallback in
``path_for`` reads both NICs' leg states. A route is filed under one
token per FIB group it examined plus its access-leg link ids, and a
flapped link invalidates its own id plus the tokens of the groups that
hold it (:meth:`Fib.dependents`), which drops exactly the routes that
examined it. Negative results (``RoutingError``) are cached with the
dependencies examined before the walk failed, so a repair that could
fix the route drops the entry.

A wiring change (``Topology.structure_epoch``) recompiles the FIB and
flushes everything; ``fib.compiles`` counts those recompiles.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.entities import Link, Nic, Switch
from ..core.errors import RoutingError
from ..core.topology import Topology
from ..obs import resolve as _obs_resolve
from .fib import AccessLeg, Fib
from .hashing import FiveTuple, ecmp_index
from .path import FlowPath, encode_dirlink

#: one batch-routing request: (src NIC, dst NIC, five-tuple, preferred plane)
RouteRequest = Tuple[Nic, Nic, FiveTuple, Optional[int]]

#: safety bound on hop count (host-tor-agg-core-agg-tor-host = 6 links)
_MAX_HOPS = 10

_MISS = object()


@dataclass
class RouteStats:
    """Cache and compile counters (mirrored into obs when recording)."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    fib_compiles: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class RouteCache:
    """Generic memo with a reverse dependency -> entries index.

    Values are opaque; each entry carries the int keys it depends on:
    link ids (``Link.up`` flips both directions of a full-duplex cable
    at once, so a link is the unit of invalidation) or FIB group
    tokens. ``invalidate_links`` drops every entry depending on any of
    the given keys and returns how many were dropped.
    """

    def __init__(self) -> None:
        self._entries: Dict[object, Tuple[object, Tuple[int, ...]]] = {}
        self._by_dep: Dict[int, Set[object]] = {}

    def get(self, key: object) -> object:
        entry = self._entries.get(key)
        if entry is None:
            return _MISS
        return entry[0]

    def put(self, key: object, value: object, deps: Iterable[int]) -> None:
        if key in self._entries:
            self._drop(key)
        dep_ids = tuple(deps)
        self._entries[key] = (value, dep_ids)
        for dep in dep_ids:
            self._by_dep.setdefault(dep, set()).add(key)

    def invalidate_links(self, deps: Iterable[int]) -> int:
        dropped = 0
        for dep in deps:
            keys = self._by_dep.get(dep)
            if not keys:
                continue
            for key in list(keys):
                self._drop(key)
                dropped += 1
        return dropped

    def clear(self) -> None:
        self._entries.clear()
        self._by_dep.clear()

    def _drop(self, key: object) -> None:
        _value, dep_ids = self._entries.pop(key)
        for dep in dep_ids:
            keys = self._by_dep.get(dep)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_dep[dep]


class CachedRouter:
    """The production router: compiled FIB tables and a precise route cache.

    ``path_for`` answers with the path a flow takes under the current
    link state: byte-identical ``FlowPath`` and identical
    ``RoutingError`` messages to the oracle
    :class:`~repro.routing.ecmp.Router`. :meth:`route_many` routes a
    batch, and :attr:`stats` holds the cache counters. Obtain the
    per-topology instance via :func:`shared_router` rather than
    constructing one per call site (lint rule ``LINT006``).
    """

    def __init__(self, topo: Topology, recorder=None):
        self.topo = topo
        #: whether the architecture physically isolates planes above tier 1
        self.plane_isolated = int(topo.meta.get("planes", 1)) > 1
        self.stats = RouteStats()
        self._paths = RouteCache()
        self._planes = RouteCache()
        # observability: cache counters, hash-decision counters per tier
        self._rec = _obs_resolve(recorder)
        self._hash_counters: Dict[int, object] = {}
        if self._rec is not None:
            m = self._rec.metrics
            self._c_hits = m.counter("route_cache.hits")
            self._c_misses = m.counter("route_cache.misses")
            self._c_inval = m.counter("route_cache.invalidations")
            self._c_compiles = m.counter("fib.compiles")
        else:
            self._c_hits = self._c_misses = None
            self._c_inval = self._c_compiles = None
        self._fib = self._compile_fib()
        self._state_cursor = topo.state_epoch

    # ------------------------------------------------------------------
    def _compile_fib(self) -> Fib:
        self.stats.fib_compiles += 1
        if self._c_compiles is not None:
            self._c_compiles.inc()
        return Fib(self.topo, self.plane_isolated)

    def _sync(self) -> None:
        """Bring compiled state up to the topology's epochs.

        The FIB's ``structure_epoch`` is the wiring cursor. Invalidation
        is by *net* state change: every cached entry was validated
        exactly at the cursor epoch (inserts happen right after a sync,
        before any further transition), so a link that toggled an even
        number of times inside the window is back in the state the
        entry was computed under and the entry stays valid. This is
        what makes ``Topology.transient_state`` fork-and-probe free for
        a warm router: a what-if failure plus its restore nets out to
        zero transitions and drops nothing.
        """
        topo = self.topo
        if self._fib.structure_epoch != topo.structure_epoch:
            self.invalidate_all()
            return
        if self._state_cursor != topo.state_epoch:
            changed = topo.net_link_changes(self._state_cursor)
            # paths depend on FIB groups too; plane sets on legs only
            dropped = self._paths.invalidate_links(
                self._fib.dependents(changed)
            )
            dropped += self._planes.invalidate_links(changed)
            self.stats.invalidations += dropped
            if self._c_inval is not None and dropped:
                self._c_inval.inc(dropped)
            self._state_cursor = topo.state_epoch

    def invalidate_all(self) -> None:
        """Flush every cached route and recompile against the wiring."""
        self._fib = self._compile_fib()
        self._paths.clear()
        self._planes.clear()
        self._state_cursor = self.topo.state_epoch

    # ------------------------------------------------------------------
    def _hit(self) -> None:
        self.stats.hits += 1
        if self._c_hits is not None:
            self._c_hits.inc()

    def _miss(self) -> None:
        self.stats.misses += 1
        if self._c_misses is not None:
            self._c_misses.inc()

    # ------------------------------------------------------------------
    def access_legs(self, nic: Nic) -> List[AccessLeg]:
        """The wired access legs of a NIC, in NIC port order, from the
        FIB; a rewiring recompiles it, a link flap drops nothing."""
        if self._fib.structure_epoch != self.topo.structure_epoch:
            self.invalidate_all()
        return self._fib.access_legs(nic)

    def usable_planes(self, src_nic: Nic, dst_nic: Nic) -> List[int]:
        """NIC port indices that currently yield a deliverable path."""
        self._sync()
        key = (src_nic.host, src_nic.index, dst_nic.host, dst_nic.index)
        cached = self._planes.get(key)
        if cached is not _MISS:
            self._hit()
            return list(cached)  # type: ignore[arg-type]
        self._miss()
        deps: Set[int] = set()
        out = self._resolve_planes(src_nic, dst_nic, deps)
        self._planes.put(key, tuple(out), deps)
        return out

    def _resolve_planes(self, src_nic: Nic, dst_nic: Nic,
                        deps: Set[int]) -> List[int]:
        """Usable NIC port indices, adding both NICs' legs to ``deps``.

        In plane-isolated architectures both endpoints must use the same
        port index; otherwise the source leg only needs a live uplink
        side while the destination side is resolved mid-network.
        """
        src_legs = self._fib.access_legs(src_nic)
        dst_legs = self._fib.access_legs(dst_nic)
        deps.update(leg.link.link_id for leg in src_legs)
        deps.update(leg.link.link_id for leg in dst_legs)
        if self.plane_isolated:
            live_dst = {leg.port_index for leg in dst_legs if leg.usable}
            return [leg.port_index for leg in src_legs
                    if leg.usable and leg.port_index in live_dst]
        if any(leg.usable for leg in dst_legs):
            return [leg.port_index for leg in src_legs if leg.usable]
        return []

    # ------------------------------------------------------------------
    def path_for(
        self,
        src_nic: Nic,
        dst_nic: Nic,
        ft: FiveTuple,
        plane: Optional[int] = None,
    ) -> FlowPath:
        """Compute the path a flow takes, honoring current link state.

        ``plane`` is the *preferred* source NIC port; if the preferred
        plane cannot deliver (failure), the other one is used -- the
        dual-ToR failover. Raises :class:`RoutingError` when the
        destination is unreachable.
        """
        self._sync()
        outcome, payload = self._resolve_synced(src_nic, dst_nic, ft, plane)
        if outcome == "err":
            raise RoutingError(payload)
        return payload  # type: ignore[return-value]

    def _resolve_synced(
        self,
        src_nic: Nic,
        dst_nic: Nic,
        ft: FiveTuple,
        plane: Optional[int],
    ) -> Tuple[str, object]:
        """Cache lookup + walk for one already-synced request.

        Returns ``("ok", FlowPath)`` or ``("err", message)`` -- the
        memoized entry shape, so :meth:`route_many` can answer an
        unroutable request without raising.
        """
        key = (
            src_nic.host, src_nic.index,
            dst_nic.host, dst_nic.index,
            plane, ft,
        )
        cached = self._paths.get(key)
        if cached is not _MISS:
            self._hit()
            return cached  # type: ignore[return-value]
        self._miss()
        deps: Set[int] = set()
        try:
            path = self._route(src_nic, dst_nic, ft, plane, deps)
        except RoutingError as err:
            entry = ("err", str(err))
            self._paths.put(key, entry, deps)
            return entry
        entry = ("ok", path)
        self._paths.put(key, entry, deps)
        return entry

    def route_many(
        self,
        requests: Sequence[RouteRequest],
        strict: bool = True,
    ) -> List[Optional[FlowPath]]:
        """Route a batch of flows through the cache.

        One epoch sync covers the whole batch, and every request goes
        through the cache. Repeated (pair, plane, five-tuple) requests,
        within the batch or across batches, hit the entry their first
        occurrence stored -- unroutable ones included, since errors are
        cached too -- so a batch costs one miss per distinct key and
        duplicates get the same ``FlowPath`` object. With ``strict``
        (default) the first unroutable request raises; otherwise its
        slot is ``None``.
        """
        self._sync()
        out: List[Optional[FlowPath]] = []
        for src_nic, dst_nic, ft, plane in requests:
            outcome, payload = self._resolve_synced(src_nic, dst_nic, ft, plane)
            if outcome == "err":
                if strict:
                    raise RoutingError(payload)
                out.append(None)
            else:
                out.append(payload)  # type: ignore[arg-type]
        return out

    # ------------------------------------------------------------------
    def _route(
        self,
        src_nic: Nic,
        dst_nic: Nic,
        ft: FiveTuple,
        plane: Optional[int],
        deps: Set[int],
    ) -> FlowPath:
        """Plane resolution + FIB walk, recording dependencies."""
        if src_nic.host == dst_nic.host:
            raise RoutingError("intra-host traffic rides NVLink, not the fabric")
        # the resolved plane reads both endpoints' leg states, so every
        # access leg is a dependency even when the walk never uses it
        usable = self._resolve_planes(src_nic, dst_nic, deps)
        if not usable:
            raise RoutingError(
                f"no usable plane from {src_nic.name} to {dst_nic.name}"
            )
        if plane is None:
            plane = usable[0]
        elif plane not in usable:
            if self._rec is not None:
                self._rec.metrics.counter("ecmp.plane_failover").inc()
            plane = usable[0]  # dual-ToR failover to the surviving port
        return self._walk_fib(src_nic, dst_nic, ft, plane, deps)

    def _walk_fib(
        self,
        src_nic: Nic,
        dst_nic: Nic,
        ft: FiveTuple,
        plane: int,
        deps: Set[int],
    ) -> FlowPath:
        topo = self.topo
        fib = self._fib
        src_host = src_nic.host
        dst_host = dst_nic.host
        dst = topo.hosts[dst_host]
        dst_rail = dst_nic.rail

        dst_by_tor = {
            leg.tor: leg for leg in fib.access_legs(dst_nic) if leg.usable
        }
        if not dst_by_tor:
            raise RoutingError(f"{dst_nic.name} has no live access link")
        if self.plane_isolated:
            dst_by_tor = {
                tor: leg for tor, leg in dst_by_tor.items()
                if leg.port_index == plane
            }
            if not dst_by_tor:
                raise RoutingError(
                    f"{dst_nic.name} unreachable on plane {plane}"
                )

        src_leg = next(
            (l for l in fib.access_legs(src_nic)
             if l.port_index == plane and l.usable),
            None,
        )
        if src_leg is None:
            raise RoutingError(f"{src_nic.name} port {plane} is down")

        path = FlowPath(
            nodes=[src_host], plane=plane if self.plane_isolated else None
        )
        path.dirlinks.append(encode_dirlink(src_leg.link, src_host))
        cur = src_leg.tor
        path.nodes.append(cur)
        ingress_port_index = self._far_port_index(src_leg.link, cur)

        switches = fib.switches
        for _ in range(_MAX_HOPS):
            if cur in dst_by_tor:
                leg = dst_by_tor[cur]
                path.dirlinks.append(encode_dirlink(leg.link, cur))
                path.nodes.append(dst_host)
                return path
            entry = switches[cur]
            candidates = fib.candidates(entry, dst, dst_rail, dst_by_tor, deps)
            if not candidates:
                raise RoutingError(
                    f"{cur} has no live candidate towards {dst_nic.name}"
                )
            link = self._select(
                entry.switch, candidates, ft, dst.pod, ingress_port_index
            )
            path.dirlinks.append(encode_dirlink(link, cur))
            cur = link.other(cur).node
            path.nodes.append(cur)
            ingress_port_index = self._far_port_index(link, cur)
        raise RoutingError("hop limit exceeded (routing loop?)")

    def _select(
        self,
        sw: Switch,
        candidates: Sequence[Link],
        ft: FiveTuple,
        dst_pod: int,
        ingress_port_index: int,
    ) -> Link:
        """The ECMP hash pick at ``sw`` among live ``candidates``."""
        if self._rec is not None:
            counter = self._hash_counters.get(sw.tier)
            if counter is None:
                counter = self._rec.metrics.counter(
                    "ecmp.hash_decisions", tier=str(sw.tier)
                )
                self._hash_counters[sw.tier] = counter
            counter.inc()
        if sw.tier == 3:
            # section 7: egress is a function of (ingress port, dst pod)
            # only -- 5-tuple irrelevant -- which kills core polarization.
            return candidates[(ingress_port_index + dst_pod) % len(candidates)]
        return candidates[ecmp_index(ft, sw.hash_seed, len(candidates))]

    @staticmethod
    def _far_port_index(link: Link, node: str) -> int:
        """Index of the port on ``node``'s side of ``link``."""
        if link.a.node == node:
            return link.a.index
        return link.b.index

    # ------------------------------------------------------------------
    def count_equal_paths(self, src_nic: Nic, dst_nic: Nic, plane: int = 0) -> int:
        """Number of distinct up/down paths available to one flow.

        This is the search space an ideal path-selection scheme must
        explore (paper Table 1): the product of candidate-set sizes at
        every hash stage, enumerated by DFS over the FIB's live
        candidates.
        """
        self._sync()
        fib = self._fib
        dst = self.topo.hosts[dst_nic.host]
        dst_by_tor = {
            leg.tor: leg for leg in fib.access_legs(dst_nic) if leg.usable
        }
        if self.plane_isolated:
            dst_by_tor = {
                t: l for t, l in dst_by_tor.items() if l.port_index == plane
            }
        legs = [
            l for l in fib.access_legs(src_nic)
            if l.port_index == plane and l.usable
        ]
        if not legs or not dst_by_tor:
            return 0
        unused: Set[int] = set()

        def dfs(node: str, depth: int) -> int:
            if node in dst_by_tor:
                return 1
            if depth > _MAX_HOPS:
                return 0
            try:
                links = fib.candidates(
                    fib.switches[node], dst, dst_nic.rail, dst_by_tor, unused
                )
            except RoutingError:
                return 0
            return sum(dfs(link.other(node).node, depth + 1) for link in links)

        return sum(dfs(leg.tor, 0) for leg in legs)


def shared_router(topo: Topology, recorder=None) -> CachedRouter:
    """The per-topology :class:`CachedRouter`, created on first use.

    Call sites share one cached instance (and therefore one warm cache)
    through this accessor. The router lives on the topology object, so
    it dies with it; a new topology object gets a new router. The
    ``recorder`` only takes effect when this call constructs the
    router (an existing warm router keeps its recorder).
    """
    router = getattr(topo, "_shared_router", None)
    if not isinstance(router, CachedRouter) or router.topo is not topo:
        router = reset_shared_router(topo, recorder)
    return router


def reset_shared_router(topo: Topology, recorder=None) -> CachedRouter:
    """Discard the shared router and install a fresh (cold) one."""
    router = CachedRouter(topo, recorder)
    topo._shared_router = router  # type: ignore[attr-defined]
    return router
