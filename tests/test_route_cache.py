"""CachedRouter: failover corners, precise invalidation, batch routing.

The cached router must be a drop-in for the uncached walker -- the same
``FlowPath`` bytes and the same ``RoutingError`` messages -- under the
failure modes the paper's dual-ToR design makes interesting: a dead
preferred plane, a fully disconnected NIC, and a switch coming back
(the stale-cache regression). Invalidation must be precise: a link
flap drops only the routes whose dependency set includes the flapped
link, never the whole cache.
"""

from __future__ import annotations

import random

import pytest

from repro.core.errors import RoutingError
from repro.obs import Recorder
from repro.routing import (
    CachedRouter,
    Router,
    reset_shared_router,
    shared_router,
)
from repro.routing.equivalence import RoutingEquivalence
from repro.routing.hashing import FiveTuple
from repro.topos import HpnSpec, build_hpn


def make_ft(src, dst, sport=50000):
    return FiveTuple(src.ip, dst.ip, sport, 4791)


def outcome(router, src, dst, ft, plane=None):
    """A byte-comparable routing result (path tuple or error message)."""
    try:
        p = router.path_for(src, dst, ft, plane)
        return ("ok", tuple(p.nodes), tuple(p.dirlinks), p.plane)
    except RoutingError as err:
        return ("err", str(err))


def rail_nic(topo, host_name, rail=0):
    return topo.hosts[host_name].nic_for_rail(rail)


def leg_for_plane(router, nic, plane):
    return next(
        leg for leg in router.access_legs(nic) if leg.port_index == plane
    )


class TestFailoverCorners:
    """Satellite: the failover corners, cached vs the oracle."""

    def test_preferred_plane_down_fails_over_identically(self, hpn_mutable):
        topo = hpn_mutable
        src = rail_nic(topo, "pod0/seg0/host0")
        dst = rail_nic(topo, "pod0/seg1/host0")
        oracle, cached = Router(topo), CachedRouter(topo)
        # kill the destination's plane-1 access leg: plane 1 can no
        # longer deliver, so a plane=1 request must fail over to plane 0
        topo.set_link_state(leg_for_plane(oracle, dst, 1).link.link_id, False)
        assert cached.usable_planes(src, dst) == [0]
        got = outcome(cached, src, dst, make_ft(src, dst), plane=1)
        assert got == outcome(oracle, src, dst, make_ft(src, dst), plane=1)
        assert got[0] == "ok" and got[3] == 0

    def test_plane_isolated_dst_unreachable_on_preferred_plane(
        self, hpn_mutable
    ):
        topo = hpn_mutable
        src = rail_nic(topo, "pod0/seg0/host1")
        dst = rail_nic(topo, "pod0/seg1/host1")
        oracle, cached = Router(topo), CachedRouter(topo)
        # the walker itself (not plane resolution) must refuse: give the
        # walk a plane the destination cannot be reached on
        dead = leg_for_plane(oracle, dst, 1)
        topo.set_link_state(dead.link.link_id, False)
        with pytest.raises(RoutingError, match="unreachable on plane 1"):
            oracle._walk(src, dst, make_ft(src, dst), 1)
        with pytest.raises(RoutingError, match="unreachable on plane 1"):
            cached._walk_fib(src, dst, make_ft(src, dst), 1, set())

    def test_both_dst_access_legs_down(self, hpn_mutable):
        topo = hpn_mutable
        src = rail_nic(topo, "pod0/seg0/host2")
        dst = rail_nic(topo, "pod0/seg1/host2")
        oracle, cached = Router(topo), CachedRouter(topo)
        legs = [leg.link.link_id for leg in oracle.access_legs(dst)]
        for lid in legs:
            topo.set_link_state(lid, False)
        want = outcome(oracle, src, dst, make_ft(src, dst))
        got = outcome(cached, src, dst, make_ft(src, dst))
        assert want[0] == "err" and got == want
        # the error is cached -- but as deps, not forever: repairing the
        # legs must drop the negative entry and route again
        got_again = outcome(cached, src, dst, make_ft(src, dst))
        assert got_again == want
        for lid in legs:
            topo.set_link_state(lid, True)
        healed = outcome(cached, src, dst, make_ft(src, dst))
        assert healed == outcome(oracle, src, dst, make_ft(src, dst))
        assert healed[0] == "ok"

    def test_agreement_immediately_after_recover_node(self, hpn_mutable):
        """Stale-cache regression: recover_node must refresh the cache."""
        topo = hpn_mutable
        src = rail_nic(topo, "pod0/seg0/host3")
        dst = rail_nic(topo, "pod0/seg1/host3")
        oracle, cached = Router(topo), CachedRouter(topo)
        ft = make_ft(src, dst)
        baseline = outcome(cached, src, dst, ft)
        assert baseline == outcome(oracle, src, dst, ft)
        # fail the ToR serving the destination on plane 0, then recover
        # it; the first query after recovery must match the oracle (a
        # stale cache would still return the degraded answer)
        tor = leg_for_plane(oracle, dst, 0).tor
        topo.fail_node(tor)
        degraded = outcome(cached, src, dst, ft)
        assert degraded == outcome(oracle, src, dst, ft)
        topo.recover_node(tor)
        recovered = outcome(cached, src, dst, ft)
        assert recovered == outcome(oracle, src, dst, ft)
        assert recovered == baseline


class TestPreciseInvalidation:
    def test_flap_invalidates_only_dependent_routes(self, hpn_mutable):
        topo = hpn_mutable
        rec = Recorder()
        cached = CachedRouter(topo, recorder=rec)
        src = rail_nic(topo, "pod0/seg0/host0")
        # warm the cache: one route per destination host in the far segment
        dsts = [
            rail_nic(topo, f"pod0/seg1/host{i}") for i in range(8)
        ]
        for dst in dsts:
            cached.path_for(src, dst, make_ft(src, dst))
        warm_misses = cached.stats.misses
        assert cached.stats.invalidations == 0
        # fail exactly one destination's plane-0 access leg: only routes
        # to that NIC depend on it
        victim = dsts[0]
        lid = leg_for_plane(cached, victim, 0).link.link_id
        topo.set_link_state(lid, False)
        for dst in dsts[1:]:
            cached.path_for(src, dst, make_ft(src, dst))
        # the unaffected routes were all cache hits...
        assert cached.stats.misses == warm_misses
        # ...and the victim's route was dropped and re-derived (failed
        # over to the surviving plane)
        cached.path_for(src, victim, make_ft(src, victim))
        assert cached.stats.misses == warm_misses + 1
        # the repair drops the degraded entry again
        topo.set_link_state(lid, True)
        cached.path_for(src, victim, make_ft(src, victim))
        assert cached.stats.misses == warm_misses + 2
        assert 0 < cached.stats.invalidations < len(dsts)
        # counters mirror the stats into the obs registry
        inval = rec.metrics.counter("route_cache.invalidations").value
        assert inval == cached.stats.invalidations
        assert rec.metrics.counter("route_cache.hits").value == (
            cached.stats.hits
        )
        assert rec.metrics.counter("fib.compiles").value == 1

    def test_link_coming_up_shifts_ecmp_of_untraversed_routes(
        self, hpn_mutable
    ):
        """Dependencies are *examined* links, not just traversed ones.

        A ToR uplink coming back up grows the candidate group every flow
        from that ToR hashes over, shifting ECMP indexes of routes that
        never crossed the repaired link. The cache must re-derive them.
        """
        topo = hpn_mutable
        oracle, cached = Router(topo), CachedRouter(topo)
        src = rail_nic(topo, "pod0/seg0/host4")
        dst = rail_nic(topo, "pod0/seg1/host4")
        ft = make_ft(src, dst)
        # take one ToR uplink down *before* first derivation ...
        tor = leg_for_plane(oracle, src, 0).tor
        up_ids = [link.link_id for _p, link, _peer in oracle._up[tor]]
        topo.set_link_state(up_ids[0], False)
        first = outcome(cached, src, dst, ft, plane=0)
        assert first == outcome(oracle, src, dst, ft, plane=0)
        assert up_ids[0] not in first[2] and up_ids[0] * 2 not in first[2]
        # ... then repair it: the cached route never traversed the
        # repaired link, but its hash group grew, so it must re-derive
        # and agree with the oracle (possibly on a different uplink)
        topo.set_link_state(up_ids[0], True)
        assert outcome(cached, src, dst, ft, plane=0) == outcome(
            oracle, src, dst, ft, plane=0
        )

    def test_structure_change_recompiles_fib(self, hpn_mutable):
        topo = hpn_mutable
        rec = Recorder()
        cached = CachedRouter(topo, recorder=rec)
        src = rail_nic(topo, "pod0/seg0/host5")
        dst = rail_nic(topo, "pod0/seg1/host5")
        cached.path_for(src, dst, make_ft(src, dst))
        legs_before = cached.access_legs(src)
        topo.notify_structure_changed()
        cached.path_for(src, dst, make_ft(src, dst))
        assert rec.metrics.counter("fib.compiles").value == 2
        # the access-leg memo was also rebuilt
        assert cached.access_legs(src) is not legs_before


class TestTransientState:
    """Satellite: what-if failures through ``Topology.transient_state``.

    The pre-fix ``reliability/singlepoint.py`` flipped ``link.up``
    directly -- no ``state_epoch`` bump, so a ``CachedRouter`` kept
    serving the path over the dead link (the cache-poisoning pattern
    SEM001 now flags). The context manager routes the same what-if
    through the mutators, and the cache observes both the failure and
    the restore.
    """

    def test_direct_flip_poisons_cache_transient_state_does_not(
        self, hpn_mutable
    ):
        topo = hpn_mutable
        src = rail_nic(topo, "pod0/seg0/host0")
        dst = rail_nic(topo, "pod0/seg1/host2")
        oracle, cached = Router(topo), CachedRouter(topo)
        ft = make_ft(src, dst)
        baseline = outcome(cached, src, dst, ft)
        assert baseline == outcome(oracle, src, dst, ft)
        lid = leg_for_plane(oracle, dst, 0).link.link_id
        # the PRE-FIX pattern: a direct flip never bumps state_epoch,
        # so the cache serves the stale path while the uncached oracle
        # has already failed over -- this is the bug being regressed
        epoch_before = topo.state_epoch
        topo.links[lid].up = False
        try:
            stale = outcome(cached, src, dst, ft)
            live = outcome(oracle, src, dst, ft)
            assert topo.state_epoch == epoch_before
            assert stale == baseline
            assert live != baseline
            assert stale != live
        finally:
            topo.links[lid].up = True
        # the sanctioned pattern: same what-if through transient_state
        # + set_link_state; cached and oracle agree on the failover
        with topo.transient_state():
            topo.set_link_state(lid, up=False)
            degraded = outcome(cached, src, dst, ft)
            assert degraded == outcome(oracle, src, dst, ft)
            assert degraded != baseline
        assert topo.state_epoch > epoch_before
        # ...and the restore is observed too: back to the baseline path
        assert outcome(cached, src, dst, ft) == baseline

    def test_transient_state_restores_switches_and_links(
        self, hpn_mutable
    ):
        topo = hpn_mutable
        oracle = Router(topo)
        dst = rail_nic(topo, "pod0/seg1/host3")
        tor = leg_for_plane(oracle, dst, 0).tor
        link_state = {lid: l.up for lid, l in topo.links.items()}
        with topo.transient_state():
            topo.fail_node(tor)
            assert not topo.switches[tor].up
        assert topo.switches[tor].up
        assert {lid: l.up for lid, l in topo.links.items()} == link_state

    def test_spof_analysis_leaves_caches_coherent(self, hpn_mutable):
        """End to end: the fixed SPOF sweep next to a live CachedRouter."""
        from repro.reliability.singlepoint import (
            analyze_access_link_spof,
            analyze_tor_spof,
        )

        topo = hpn_mutable
        src = rail_nic(topo, "pod0/seg0/host4")
        dst = rail_nic(topo, "pod0/seg1/host5")
        oracle, cached = Router(topo), CachedRouter(topo)
        ft = make_ft(src, dst)
        baseline = outcome(cached, src, dst, ft)
        report = analyze_tor_spof(topo)
        assert report.is_spof_free
        report = analyze_access_link_spof(topo, sample_every=4)
        assert report.is_spof_free and report.links_checked > 0
        # every what-if was epoch-logged and restored: the cache agrees
        # with the oracle and with its own pre-sweep answer
        after = outcome(cached, src, dst, ft)
        assert after == outcome(oracle, src, dst, ft) == baseline


class TestAccessLegMemo:
    def test_memoized_until_structure_epoch_moves(self, hpn_mutable):
        topo = hpn_mutable
        router = Router(topo)
        nic = rail_nic(topo, "pod0/seg0/host6")
        legs = router.access_legs(nic)
        assert router.access_legs(nic) is legs
        # link flaps don't invalidate the memo: legs are structural and
        # read ``link.up`` live through ``usable``
        lid = legs[0].link.link_id
        topo.set_link_state(lid, False)
        assert router.access_legs(nic) is legs
        assert not legs[0].usable
        topo.set_link_state(lid, True)
        assert legs[0].usable
        topo.notify_structure_changed()
        fresh = router.access_legs(nic)
        assert fresh is not legs
        assert [(l.port_index, l.link.link_id, l.tor) for l in fresh] == [
            (l.port_index, l.link.link_id, l.tor) for l in legs
        ]


    def test_walker_index_follows_a_rewire(self, hpn_mutable):
        # the oracle's adjacency index is wiring, like its legs: unplug
        # a ToR uplink out of band and a router used before the rewire
        # must route like a fresh one, never over the unplugged link
        topo = hpn_mutable
        router = Router(topo)
        src0 = rail_nic(topo, "pod0/seg0/host0")
        flows = []
        for i in range(16):
            src = rail_nic(topo, f"pod0/seg0/host{i % 4}")
            dst = rail_nic(topo, f"pod0/seg1/host{(i + 1) % 4}")
            flows.append((src, dst, make_ft(src, dst, 50000 + i)))
        for src, dst, ft in flows:
            router.path_for(src, dst, ft, 0)
        tor = leg_for_plane(router, src0, 0).tor
        _port, gone, _peer = router._up[tor][0]
        del topo.links[gone.link_id]
        topo.port(gone.a).link_id = None
        topo.port(gone.b).link_id = None
        topo.notify_structure_changed()
        fresh, cached = Router(topo), CachedRouter(topo)
        for src, dst, ft in flows:
            got = outcome(router, src, dst, ft, 0)
            assert got == outcome(fresh, src, dst, ft, 0)
            assert got == outcome(cached, src, dst, ft, 0)
            assert got[0] == "ok"
            assert not {2 * gone.link_id, 2 * gone.link_id + 1} & set(got[2])
        assert all(link is not gone for _p, link, _peer in router._up[tor])


class TestBatchAndSharing:
    def test_route_many_matches_per_call(self, hpn_mutable):
        topo = hpn_mutable
        oracle, cached = Router(topo), CachedRouter(topo)
        hosts = sorted(h.name for h in topo.active_hosts())
        requests = []
        for i, a in enumerate(hosts):
            b = hosts[(i + 3) % len(hosts)]
            src, dst = rail_nic(topo, a), rail_nic(topo, b)
            requests.append((src, dst, make_ft(src, dst), i % 2))
        paths = cached.route_many(requests)
        assert len(paths) == len(requests)
        for (src, dst, ft, plane), path in zip(requests, paths):
            want = oracle.path_for(src, dst, ft, plane)
            assert (path.nodes, path.dirlinks, path.plane) == (
                want.nodes, want.dirlinks, want.plane
            )

    def test_route_many_strict_raises_nonstrict_returns_none(
        self, hpn_mutable
    ):
        topo = hpn_mutable
        cached = CachedRouter(topo)
        src = rail_nic(topo, "pod0/seg0/host7")
        dst = rail_nic(topo, "pod0/seg1/host7")
        ok = rail_nic(topo, "pod0/seg1/host6")
        for leg in cached.access_legs(dst):
            topo.set_link_state(leg.link.link_id, False)
        requests = [
            (src, ok, make_ft(src, ok), None),
            (src, dst, make_ft(src, dst), None),
        ]
        with pytest.raises(RoutingError):
            cached.route_many(requests)
        paths = cached.route_many(requests, strict=False)
        assert paths[0] is not None and paths[1] is None

    def test_shared_router_is_per_topology(self, hpn_mutable):
        topo = hpn_mutable
        router = shared_router(topo)
        assert isinstance(router, CachedRouter)
        assert shared_router(topo) is router
        # a different hash mode gets its own instance
        other = shared_router(topo, per_port_core_hash=False)
        assert other is not router
        fresh = reset_shared_router(topo)
        assert fresh is not other and shared_router(topo) is fresh

    def test_route_many_dedupes_within_batch(self, hpn_mutable):
        """Satellite: duplicate requests in one batch miss exactly once."""
        topo = hpn_mutable
        cached = CachedRouter(topo)
        src = rail_nic(topo, "pod0/seg0/host0")
        dsts = [rail_nic(topo, f"pod0/seg1/host{i}") for i in range(3)]
        distinct = [(src, d, make_ft(src, d), None) for d in dsts]
        requests = distinct * 4  # 3 distinct keys x 4 copies each
        paths = cached.route_many(requests)
        # one derivation per distinct key; the other 9 slots are hits
        assert cached.stats.misses == len(distinct)
        assert cached.stats.hits == len(requests) - len(distinct)
        # fan-out returns the same FlowPath object for duplicate keys
        for i, path in enumerate(paths):
            assert path is paths[i % len(distinct)]
        # a second batch is all hits
        cached.route_many(requests)
        assert cached.stats.misses == len(distinct)
        assert cached.stats.hits == 2 * len(requests) - len(distinct)

    def test_route_many_caches_unroutable_duplicates(self, hpn_mutable):
        """Duplicate unroutable requests in one batch miss exactly once."""
        topo = hpn_mutable
        cached = CachedRouter(topo)
        src = rail_nic(topo, "pod0/seg0/host0")
        same_host = rail_nic(topo, "pod0/seg0/host0", rail=1)
        dst = rail_nic(topo, "pod0/seg1/host0")
        bad = (src, same_host, make_ft(src, same_host), None)
        good = (src, dst, make_ft(src, dst), None)
        paths = cached.route_many([bad, good] * 3, strict=False)
        assert cached.stats.misses == 2
        assert cached.stats.hits == 4
        assert paths[0::2] == [None] * 3
        assert paths[1] is not None
        assert all(path is paths[1] for path in paths[1::2])
        # strict mode raises the cached message without re-deriving it
        with pytest.raises(RoutingError, match="intra-host traffic rides"):
            cached.route_many([bad, good] * 3)
        assert cached.stats.misses == 2


class TestSharedRouterRegistry:
    """Satellite: the weakref registry must track router lifetime."""

    def test_registry_lists_live_router(self, hpn_mutable):
        from repro.routing import active_shared_routers

        topo = hpn_mutable
        router = shared_router(topo)
        assert router in active_shared_routers()
        fresh = reset_shared_router(topo)
        live = active_shared_routers()
        assert fresh in live and router not in live

    def test_dead_topology_drops_out_after_gc(self):
        import gc

        from repro.routing import active_shared_routers
        from repro.topos import HpnSpec, build_hpn

        topo = build_hpn(HpnSpec(
            segments_per_pod=2, hosts_per_segment=4, aggs_per_plane=2,
        ))
        router = shared_router(topo)
        rid = id(router)
        assert any(r is router for r in active_shared_routers())
        del router
        del topo  # the only strong ref to the router lived on the topo
        gc.collect()
        assert all(id(r) != rid for r in active_shared_routers())

    def test_evict_frees_router_and_reports(self, hpn_mutable):
        import gc
        import weakref

        from repro.routing import active_shared_routers, evict_shared_router

        topo = hpn_mutable
        router = shared_router(topo)
        ref = weakref.ref(router)
        assert evict_shared_router(topo) is True
        assert router not in active_shared_routers()
        del router
        gc.collect()
        # eviction released the topology's strong reference: the router
        # (FIB + cache) is actually freed, not just unlisted
        assert ref() is None
        # nothing installed now -> False; next shared_router is cold
        assert evict_shared_router(topo) is False
        cold = shared_router(topo)
        assert cold.stats.hits == 0 and cold.stats.misses == 0


def ring_schedule(topo, seed):
    """``(requests, per-step link events)`` of per-rail ring traffic.

    The requests model persistent RDMA connections of per-rail rings,
    two per edge: the same (NIC pair, sport, plane) set in each of 20
    steps. Every fifth step one switch-to-switch link goes down, and
    it comes back the step after, so every ring stays routable.
    """
    conns, steps, flap_every = 2, 20, 5
    rng = random.Random(seed)
    hosts = sorted(h.name for h in topo.active_hosts())
    rails = [n.rail for n in topo.hosts[hosts[0]].backend_nics()]
    # consecutive ranks land in different segments: in name order
    # nearly every edge would stay under one ToR and skip tier 2
    rng.shuffle(hosts)
    requests = []
    for rail in rails:
        for i, src_host in enumerate(hosts):
            src = topo.hosts[src_host].nic_for_rail(rail)
            dst = topo.hosts[hosts[(i + 1) % len(hosts)]].nic_for_rail(rail)
            for c in range(conns):
                ft = FiveTuple(src.ip, dst.ip, 49152 + c, 4791)
                requests.append((src, dst, ft, c % 2))
    interior = [
        link.link_id for link in topo.links.values()
        if link.a.node in topo.switches and link.b.node in topo.switches
    ]
    schedule = []
    flapped = None
    for step in range(steps):
        events = []
        if flapped is not None:
            events.append((flapped, True))
            flapped = None
        if step and step % flap_every == 0:
            flapped = rng.choice(interior)
            events.append((flapped, False))
        schedule.append(events)
    return requests, schedule


class TestPodRingEquivalence:
    """A 15-segment pod's ring traffic under link flaps, seed 7."""

    def test_route_many_matches_walker_every_step(self):
        topo = build_hpn(HpnSpec(
            segments_per_pod=15, hosts_per_segment=8,
            backup_hosts_per_segment=0, aggs_per_plane=8,
        ))
        requests, schedule = ring_schedule(topo, seed=7)

        def replay(route_step):
            steps = []
            for events in schedule:
                for lid, up in events:
                    topo.set_link_state(lid, up)
                steps.append(route_step())
            for lid in list(topo.links):
                topo.set_link_state(lid, True)
            return steps

        oracle = Router(topo)
        want = replay(lambda: [outcome(oracle, *req) for req in requests])
        cached = CachedRouter(topo)

        def cached_step():
            paths = cached.route_many(requests, strict=False)
            return [
                # unroutable: re-ask for the message under this step's
                # link state
                outcome(cached, *req) if p is None
                else ("ok", tuple(p.nodes), tuple(p.dirlinks), p.plane)
                for req, p in zip(requests, paths)
            ]

        got = replay(cached_step)
        total = len(requests) * len(schedule)
        assert total == 38400
        mismatches = [
            (step, i, a, b)
            for step, (w, g) in enumerate(zip(want, got))
            for i, (a, b) in enumerate(zip(w, g)) if a != b
        ]
        assert not mismatches, (len(mismatches), mismatches[0])
        # a flap drops exactly the routes that examined the flapped link
        # (one of their legs, or a member of a group they hashed over):
        # a small slice of the cache, never the whole of it
        assert cached.stats.as_dict() == {
            "hits": 36432, "misses": 1972, "invalidations": 52,
            "fib_compiles": 1,
        }
        # the cached router walks its FIB: it never built the uncached
        # walker's adjacency index
        assert "_adj" not in vars(cached) and "_up" not in vars(cached)

    def test_failure_campaign_over_three_architectures(self):
        report = RoutingEquivalence(seed=8).run_random(cases=50)
        assert report["ok"], report["mismatches"]
        assert report["cases"] >= 50
        assert report["checked"] >= report["cases"]
        assert report["cache_stats"] == {
            "hpn": {"hits": 0, "misses": 500, "invalidations": 159,
                    "fib_compiles": 1},
            "dcnplus": {"hits": 0, "misses": 325, "invalidations": 129,
                        "fib_compiles": 1},
            "railonly": {"hits": 0, "misses": 425, "invalidations": 10,
                         "fib_compiles": 1},
        }
