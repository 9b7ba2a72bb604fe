"""Epoch-invalidated route cache and the cached router.

:class:`CachedRouter` memoizes ``path_for`` / ``usable_planes`` results
and walks flows over the compiled :class:`~repro.routing.fib.Fib`
tables instead of re-deriving candidates from adjacency dicts. The
uncached :class:`~repro.routing.ecmp.Router` walker is untouched and
serves as the differential oracle (see
:mod:`repro.routing.equivalence`): cached and uncached paths must be
byte-identical, including :class:`RoutingError` outcomes.

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

import weakref
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.entities import Link, Nic
from ..core.errors import RoutingError
from ..core.topology import Topology
from .ecmp import _MAX_HOPS, AccessLeg, Router
from .fib import Fib
from .hashing import FiveTuple
from .path import FlowPath, encode_dirlink

#: one batch-routing request: (src NIC, dst NIC, five-tuple, preferred plane)
RouteRequest = Tuple[Nic, Nic, FiveTuple, Optional[int]]

_MISS = object()


@dataclass
class RouteStats:
    """Cache and compile counters (mirrored into obs when recording)."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    fib_compiles: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "fib_compiles": self.fib_compiles,
        }

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

    def __len__(self) -> int:
        return len(self._entries)

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


class CachedRouter(Router):
    """Router with compiled FIB tables and a precise route cache.

    Drop-in for :class:`Router`: same constructor, same results
    (byte-identical ``FlowPath``, identical ``RoutingError`` messages),
    plus :meth:`route_many` for batch workloads and :attr:`stats` for
    the cache counters. Obtain the per-topology instance via
    :func:`shared_router` rather than constructing one per call site
    (lint rule ``LINT006``).
    """

    def __init__(self, topo: Topology, per_port_core_hash: bool = True,
                 recorder=None):
        super().__init__(topo, per_port_core_hash, recorder)
        self.stats = RouteStats()
        self._paths = RouteCache()
        self._planes = RouteCache()
        self._state_cursor = topo.state_epoch
        self._structure_cursor = topo.structure_epoch
        self._fib = self._compile_fib()
        if self._rec is not None:
            m = self._rec.metrics
            self._c_hits = m.counter("route_cache.hits")
            self._c_misses = m.counter("route_cache.misses")
            self._c_inval = m.counter("route_cache.invalidations")
            self._c_compiles = m.counter("fib.compiles")
            self._c_compiles.inc()
        else:
            self._c_hits = self._c_misses = None
            self._c_inval = self._c_compiles = None

    # ------------------------------------------------------------------
    def _compile_fib(self) -> Fib:
        self.stats.fib_compiles += 1
        return Fib(self.topo, self.plane_isolated)

    def _sync(self) -> None:
        """Bring compiled state up to the topology's epochs.

        Invalidation is by *net* state change: every cached entry was
        validated exactly at the cursor epoch (inserts happen right
        after a sync, before any further transition), so a link that
        toggled an even number of times inside the window is back in
        the state the entry was computed under and the entry stays
        valid. This is what makes ``Topology.transient_state``
        fork-and-probe free for a warm router: a what-if failure plus
        its restore nets out to zero transitions and drops nothing.
        """
        topo = self.topo
        if self._structure_cursor != topo.structure_epoch:
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
        self._forget_wiring()
        self._fib = self._compile_fib()
        if self._c_compiles is not None:
            self._c_compiles.inc()
        self._paths.clear()
        self._planes.clear()
        self._structure_cursor = self.topo.structure_epoch
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

    def _leg_deps(self, nic: Nic) -> List[int]:
        return [leg.link.link_id for leg in self.access_legs(nic)]

    # ------------------------------------------------------------------
    def usable_planes(self, src_nic: Nic, dst_nic: Nic) -> List[int]:
        self._sync()
        key = (src_nic.host, src_nic.index, dst_nic.host, dst_nic.index)
        cached = self._planes.get(key)
        if cached is not _MISS:
            self._hit()
            return list(cached)  # type: ignore[arg-type]
        self._miss()
        out = super().usable_planes(src_nic, dst_nic)
        deps = self._leg_deps(src_nic) + self._leg_deps(dst_nic)
        self._planes.put(key, tuple(out), deps)
        return out

    # ------------------------------------------------------------------
    def path_for(
        self,
        src_nic: Nic,
        dst_nic: Nic,
        ft: FiveTuple,
        plane: Optional[int] = None,
    ) -> FlowPath:
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
        deps.update(self._leg_deps(src_nic))
        deps.update(self._leg_deps(dst_nic))
        usable = super().usable_planes(src_nic, dst_nic)
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
            leg.tor: leg for leg in self.access_legs(dst_nic) if leg.usable
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
            (l for l in self.access_legs(src_nic)
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

    # ------------------------------------------------------------------
    def count_equal_paths(self, src_nic: Nic, dst_nic: Nic, plane: int = 0) -> int:
        self._sync()
        return super().count_equal_paths(src_nic, dst_nic, plane)

    def _live_links(
        self,
        node: str,
        dst,
        dst_rail: int,
        dst_by_tor: Dict[str, AccessLeg],
    ) -> List[Link]:
        """The DFS's hook: live candidates from the FIB, not the index."""
        fib = self._fib
        return fib.candidates(
            fib.switches[node], dst, dst_rail, dst_by_tor, set()
        )


#: weak per-topology registry: ``id(topo) -> weakref to its router``.
#: The registry itself never extends a router's (or topology's)
#: lifetime -- the strong reference lives on the topology object, so a
#: router dies exactly when its topology does (or on explicit
#: eviction). A ``weakref.finalize`` on each router scrubs its key, so
#: long-lived daemons that churn through topologies never accumulate
#: entries for dead ones.
_ROUTER_REGISTRY: Dict[int, "weakref.ref[CachedRouter]"] = {}


def _install_router(topo: Topology, router: CachedRouter) -> CachedRouter:
    key = id(topo)
    topo._shared_router = router  # type: ignore[attr-defined]
    _ROUTER_REGISTRY[key] = weakref.ref(router)

    def _scrub(reg_key: int = key, ref: "weakref.ref[CachedRouter]" = _ROUTER_REGISTRY[key]) -> None:
        # only drop the key if it still points at *this* router: the id
        # may have been recycled by a new topology in the meantime
        if _ROUTER_REGISTRY.get(reg_key) is ref:
            del _ROUTER_REGISTRY[reg_key]

    weakref.finalize(router, _scrub)
    return router


def shared_router(
    topo: Topology,
    per_port_core_hash: bool = True,
    recorder=None,
) -> CachedRouter:
    """The per-topology :class:`CachedRouter`, created on first use.

    All call sites that previously built a throwaway ``Router(topo)``
    share one cached instance (and therefore one warm cache) through
    this accessor; a new topology object gets a new router. The
    ``recorder`` only takes effect when this call constructs the
    router (an existing warm router keeps its recorder).
    """
    router = getattr(topo, "_shared_router", None)
    if (
        not isinstance(router, CachedRouter)
        or router.topo is not topo
        or router.per_port_core_hash != per_port_core_hash
    ):
        router = _install_router(
            topo, CachedRouter(topo, per_port_core_hash, recorder)
        )
    return router


def reset_shared_router(
    topo: Topology,
    per_port_core_hash: bool = True,
    recorder=None,
) -> CachedRouter:
    """Discard the shared router and install a fresh (cold) one."""
    return _install_router(
        topo, CachedRouter(topo, per_port_core_hash, recorder)
    )


def evict_shared_router(topo: Topology) -> bool:
    """Drop ``topo``'s shared router (and its caches) without replacing it.

    Returns whether a router was installed. Long-lived processes that
    unload a topology but keep the object alive (serve daemons swapping
    fabrics in and out) call this so the dead fabric's compiled FIB and
    route cache are freed immediately instead of riding along until the
    topology itself is collected.
    """
    router = getattr(topo, "_shared_router", None)
    had = isinstance(router, CachedRouter) and router.topo is topo
    if hasattr(topo, "_shared_router"):
        del topo._shared_router  # type: ignore[attr-defined]
    _ROUTER_REGISTRY.pop(id(topo), None)
    return had


def active_shared_routers() -> List[CachedRouter]:
    """Every live shared router, for introspection (daemon ``/stats``).

    Dead weakrefs are skipped (their finalizers scrub the keys); the
    returned list holds strong references, so don't keep it around.
    """
    out: List[CachedRouter] = []
    for ref in list(_ROUTER_REGISTRY.values()):
        router = ref()
        if router is not None:
            out.append(router)
    return out
