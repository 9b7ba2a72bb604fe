"""ServeState: serial/batched/oracle byte-identity and memo hygiene.

The serving contract is differential: ``execute_batch`` (dedupe +
grouped transient blocks + the RePaC/residual/what-if result memo) must
return dicts equal byte for byte to serial :meth:`ServeState.execute`,
which in turn must match a ``ServeState`` whose live and probe routers
are both the uncached oracle walker -- including error results and
what-if queries. The caches are an implementation detail
that must never change an answer: real failures expire them, probe
cycles keep them warm, and each answer lives in one of them only.
"""

from __future__ import annotations

import random

import pytest

from repro.routing import Router
from repro.serve import KINDS, Query, QueryError, ServeState
from repro.serve.query import Query as Q
from repro.topos import HpnSpec, build_hpn


def oracle_state(topo):
    """A ServeState that answers through the uncached walker: no FIB,
    no route cache, every query pays the full derivation."""
    state = ServeState(topo)
    state.router = state.probe_router = Router(topo)
    return state


def agg_link_id(topo):
    """A deterministic tor-agg link id (always rerouteable around)."""
    for lid in sorted(topo.links):
        link = topo.links[lid]
        ends = {link.a.node, link.b.node}
        if any(n.startswith("tor") or "/tor" in n for n in ends) and any(
            "agg" in n for n in ends
        ):
            return lid
    return sorted(topo.links)[-1]


def mixed_workload(topo):
    """One query of every kind, plus dupes, errors, and what-ifs."""
    hosts = sorted(h.name for h in topo.active_hosts())
    a, b, c = hosts[0], hosts[-1], hosts[len(hosts) // 2]
    lid = agg_link_id(topo)
    queries = [
        Query(kind="path", src_host=a, dst_host=b),
        Query(kind="path", src_host=a, dst_host=b, sport=49153),
        Query(kind="path", src_host=a, dst_host=c, plane=1),
        Query(kind="planes", src_host=a, dst_host=b),
        Query(kind="repac", src_host=a, dst_host=b, num_paths=2,
              sport_span=24),
        Query(kind="residual", src_host=c, dst_host=b, num_paths=2,
              sport_span=24),
        # what-ifs: one valid, one unknown link, one unknown switch
        Query(kind="path", src_host=a, dst_host=b, fail_links=(lid,)),
        Query(kind="residual", src_host=a, dst_host=b, num_paths=2,
              sport_span=16, fail_links=(lid,)),
        Query(kind="path", src_host=a, dst_host=b, fail_links=(10**9,)),
        Query(kind="planes", src_host=a, dst_host=b,
              fail_switches=("no-such-switch",)),
        # plain errors: unknown host, missing rail
        Query(kind="path", src_host="no-such-host", dst_host=b),
        Query(kind="path", src_host=a, dst_host=b, dst_rail=999),
    ]
    # duplicate-heavy tail, deliberately interleaved
    return queries + queries[:6] + [queries[0]] * 3


def mixed_load(topo, seed):
    """A seeded path-heavy stream of 24,000 queries from small pools.

    Path queries of 150 host pairs (two sports each), their planes
    queries (5% of the stream), three RePaC pairs (2%) and two residual
    what-ifs (1%), each failing one link.
    """
    requests, pairs, conns = 24000, 150, 2
    planes_frac, repac_frac, whatif_frac = 0.05, 0.02, 0.01
    rng = random.Random(seed)
    hosts = sorted(h.name for h in topo.active_hosts())
    rails = sorted(
        {n.rail for n in next(iter(topo.hosts.values())).backend_nics()}
    )

    def pair():
        src = hosts[rng.randrange(len(hosts))]
        dst = hosts[rng.randrange(len(hosts))]
        while dst == src:
            dst = hosts[rng.randrange(len(hosts))]
        return src, dst

    path_pool, planes_pool = [], []
    for _ in range(pairs):
        src, dst = pair()
        rail = rails[rng.randrange(len(rails))]
        for c in range(conns):
            path_pool.append(Query(
                kind="path", src_host=src, dst_host=dst,
                src_rail=rail, dst_rail=rail, sport=49152 + c,
            ))
        planes_pool.append(Query(
            kind="planes", src_host=src, dst_host=dst,
            src_rail=rail, dst_rail=rail,
        ))
    repac_pool = []
    for _ in range(3):
        src, dst = pair()
        repac_pool.append(Query(kind="repac", src_host=src, dst_host=dst,
                                num_paths=3, sport_span=48))
    link_ids = sorted(topo.links)
    whatif_pool = []
    for _ in range(2):
        src, dst = pair()
        lid = link_ids[rng.randrange(len(link_ids))]
        whatif_pool.append(Query(
            kind="residual", src_host=src, dst_host=dst,
            num_paths=2, sport_span=32, fail_links=(lid,),
        ))
    load = []
    for _ in range(requests):
        roll = rng.random()
        if roll < whatif_frac:
            pool = whatif_pool
        elif roll < whatif_frac + repac_frac:
            pool = repac_pool
        elif roll < whatif_frac + repac_frac + planes_frac:
            pool = planes_pool
        else:
            pool = path_pool
        load.append(pool[rng.randrange(len(pool))])
    return load


def first_mismatch(a, b):
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), -1)


class TestSerialExecution:
    def test_serial_matches_oracle_for_every_kind(self, hpn_mutable):
        state = ServeState(hpn_mutable, fresh=True)
        oracle = oracle_state(hpn_mutable)
        for q in mixed_workload(hpn_mutable):
            assert state.execute(q) == oracle.execute(q), q

    def test_error_results_are_structured(self, hpn_mutable):
        state = ServeState(hpn_mutable, fresh=True)
        res = state.execute(
            Query(kind="path", src_host="nope", dst_host="nope2")
        )
        assert res == {
            "ok": False, "kind": "path", "error": "unknown host 'nope'"
        }
        res = state.execute(
            Query(kind="planes", src_host="nope", dst_host="nope2",
                  fail_links=(10**9,))
        )
        assert res["ok"] is False and "unknown link" in res["error"]


class TestBatchedExecution:
    def test_batch_matches_serial_order_and_bytes(self, hpn_mutable):
        workload = mixed_workload(hpn_mutable)
        serial_state = ServeState(hpn_mutable, fresh=True)
        want = [serial_state.execute(q) for q in workload]
        batch_state = ServeState(hpn_mutable, fresh=True)
        got = batch_state.execute_batch(workload)
        assert got == want

    def test_batch_dedupes_and_fans_out(self, hpn_mutable):
        state = ServeState(hpn_mutable, fresh=True)
        hosts = sorted(h.name for h in hpn_mutable.active_hosts())
        q = Query(kind="path", src_host=hosts[0], dst_host=hosts[1])
        results = state.execute_batch([q, q, q, q])
        assert results[0] is results[1] is results[2] is results[3]
        # serving-layer dedupe: one distinct key -> the router sees one
        # lookup, the other three slots fan out from the resolved dict
        assert state.router.stats.misses == 1
        assert state.router.stats.hits == 0
        # the next batch re-consults the route cache (a hit)
        state.execute_batch([q, q])
        assert state.router.stats.misses == 1
        assert state.router.stats.hits == 1

    def test_repeat_batches_hit_cache_not_rederive(self, hpn_mutable):
        state = ServeState(hpn_mutable, fresh=True)
        workload = mixed_workload(hpn_mutable)
        first = state.execute_batch(workload)
        misses = state.router.stats.misses
        second = state.execute_batch(workload)
        assert second == first
        assert state.router.stats.misses == misses

    def test_result_memo_expires_on_real_failure(self, hpn_mutable):
        topo = hpn_mutable
        state = ServeState(topo, fresh=True)
        hosts = sorted(h.name for h in topo.active_hosts())
        a, b = hosts[0], hosts[-1]
        # the route cache holds the planes answer, the result memo the
        # live and the what-if residual results
        batch = [
            Query(kind="planes", src_host=a, dst_host=b),
            Query(kind="residual", src_host=a, dst_host=b, num_paths=2,
                  sport_span=16),
            Query(kind="residual", src_host=a, dst_host=b, num_paths=2,
                  sport_span=16, fail_links=(agg_link_id(topo),)),
        ]
        before = state.execute_batch(batch)
        assert [res["planes"] for res in before] == [[0, 1]] * 3
        # fail one of the destination's access legs for real: no cache
        # may serve the pre-failure plane list
        dst = topo.hosts[b].nic_for_rail(0)
        leg = next(
            leg for leg in state.router.access_legs(dst)
            if leg.port_index == 1
        )
        topo.set_link_state(leg.link.link_id, False)
        after = state.execute_batch(batch)
        assert [res["planes"] for res in after] == [[0]] * 3
        oracle = oracle_state(topo)
        assert after == [oracle.execute(q) for q in batch]
        # repair nets the link back -> memoised answers valid again
        topo.set_link_state(leg.link.link_id, True)
        assert state.execute_batch(batch) == before

    def test_planes_answers_add_nothing_to_result_memo(self, hpn_mutable):
        """The live router caches planes answers; the memo holds none."""
        topo = hpn_mutable
        state = ServeState(topo, fresh=True)
        hosts = sorted(h.name for h in topo.active_hosts())
        pairs = [(a, b) for a in hosts for b in hosts if a != b][:100]
        planes = [Query(kind="planes", src_host=a, dst_host=b)
                  for a, b in pairs]
        assert len(set(planes)) == 100
        oracle = oracle_state(topo)
        for start in range(0, len(planes), 16):
            chunk = planes[start:start + 16]
            for q, res in zip(chunk, state.execute_batch(chunk)):
                assert res == oracle.execute(q), q
        assert state._result_memo == {}

    def test_batch_counts_route_cache_lookups_like_serial(self, hpn_mutable):
        """One live route-cache lookup per distinct query, as serially.

        An unroutable path query (same host at both ends) once counted
        an extra hit in a batch.
        """
        topo = hpn_mutable
        hosts = sorted(h.name for h in topo.active_hosts())
        same_host = Query(kind="path", src_host=hosts[0], dst_host=hosts[0])
        workload = list(dict.fromkeys(mixed_workload(topo) + [same_host]))
        serial_state = ServeState(topo, fresh=True)
        want = [serial_state.execute(q) for q in workload]
        batch_state = ServeState(topo, fresh=True)
        assert batch_state.execute_batch(workload) == want
        assert want[-1]["ok"] is False
        assert (batch_state.router.stats.as_dict()
                == serial_state.router.stats.as_dict())

    def test_what_if_groups_share_one_transient_block(self, hpn_mutable):
        topo = hpn_mutable
        state = ServeState(topo, fresh=True)
        hosts = sorted(h.name for h in topo.active_hosts())
        lid = agg_link_id(topo)
        fail = (lid,)
        group = [
            Query(kind="path", src_host=hosts[0], dst_host=hosts[-1],
                  fail_links=fail),
            Query(kind="planes", src_host=hosts[0], dst_host=hosts[-1],
                  fail_links=fail),
            Query(kind="residual", src_host=hosts[1], dst_host=hosts[-2],
                  num_paths=2, sport_span=16, fail_links=fail),
        ]
        epoch_before = topo.state_epoch
        got = state.execute_batch(group)
        # one failure set -> one fail + one restore, whatever the group size
        assert topo.state_epoch == epoch_before + 2
        # asked again, the group comes from the result memo: no probe,
        # so no state-log entries either
        assert state.execute_batch(group) == got
        assert topo.state_epoch == epoch_before + 2
        oracle = oracle_state(topo)
        for q, res in zip(group, got):
            assert res == oracle.execute(q)

    def test_batch_leaves_topology_state_restored(self, hpn_mutable):
        topo = hpn_mutable
        state = ServeState(topo, fresh=True)
        link_state = {lid: l.up for lid, l in topo.links.items()}
        state.execute_batch(mixed_workload(topo))
        assert {lid: l.up for lid, l in topo.links.items()} == link_state
        assert all(s.up for s in topo.switches.values())


class TestMixedLoadAtPodScale:
    def test_batched_equals_warm_serial_equals_oracle(self):
        """24,000 queries over a 15-segment pod, seed 7."""
        topo = build_hpn(HpnSpec(
            segments_per_pod=15, hosts_per_segment=8, aggs_per_plane=8,
        ))
        load = mixed_load(topo, seed=7)
        assert {q.kind for q in load} == set(KINDS)
        oracle_serve = oracle_state(topo)
        oracle = [oracle_serve.execute(q) for q in load]
        serial_state = ServeState(topo, fresh=True)
        serial = [serial_state.execute(q) for q in load]
        batch_state = ServeState(topo, fresh=True)
        batched = []
        for start in range(0, len(load), 64):
            batched.extend(batch_state.execute_batch(load[start:start + 64]))
        assert len(batched) == len(serial) == len(oracle) == 24000
        assert first_mismatch(batched, serial) == -1
        assert first_mismatch(batched, oracle) == -1
        hit_rate = batch_state.router.stats.hit_rate
        assert hit_rate >= 0.90, batch_state.router.stats.as_dict()


class TestQueryObject:
    def test_kind_and_field_validation(self):
        with pytest.raises(QueryError):
            Query(kind="teleport", src_host="a", dst_host="b")
        with pytest.raises(QueryError):
            Query(kind="repac", src_host="a", dst_host="b", num_paths=0)
        with pytest.raises(QueryError):
            Query(kind="repac", src_host="a", dst_host="b", sport_span=0)

    def test_jsonable_round_trip(self):
        q = Query(
            kind="residual", src_host="a", dst_host="b", src_rail=1,
            dst_rail=1, sport=50001, num_paths=2, sport_span=16,
            fail_links=(7, 3, 7), fail_switches=("s2", "s1"),
        )
        wire = q.to_jsonable()
        back = Query.from_jsonable(wire)
        assert back == q and hash(back) == hash(q)
        # failure sets are canonicalised (sorted, deduped)
        assert back.fail_links == (3, 7)
        assert back.fail_switches == ("s1", "s2")

    def test_from_jsonable_rejects_junk(self):
        with pytest.raises(QueryError):
            Query.from_jsonable({"kind": "path", "src_host": "a"})
        with pytest.raises(QueryError):
            Query.from_jsonable({
                "kind": "path", "src_host": "a", "dst_host": "b",
                "warp_factor": 9,
            })
        with pytest.raises(QueryError):
            Query.from_jsonable([])

    def test_exports(self):
        assert Q is Query
        assert KINDS == ("path", "planes", "repac", "residual")


class TestStats:
    def test_stats_shape(self, hpn_mutable):
        state = ServeState(hpn_mutable, fresh=True)
        state.execute_batch(mixed_workload(hpn_mutable))
        stats = state.stats()
        assert stats["topology"]["hosts"] == len(hpn_mutable.hosts)
        assert 0.0 <= stats["cache"]["hit_rate"] <= 1.0
        assert stats["cache"]["misses"] > 0
        assert "probe_cache" in stats
