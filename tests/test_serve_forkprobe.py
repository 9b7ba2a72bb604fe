"""Fork-and-probe contract: what-ifs never perturb the live router.

Two identically-built topologies run the same live query stream; one
of them additionally answers what-if probes between live queries
(through ``ServeState``'s probe router under
``Topology.transient_state()``). At every checkpoint the probed side's
live answers AND its route-cache statistics must be byte-identical to
the never-probed control -- hits, misses, invalidations, everything.
If a probe leaked one invalidation or one extra miss into the live
router, these tests fail.

Also covers the O(transitions) ``transient_state`` restore: nested
blocks, even-count flip elision, and switch+link mixes.
"""

from __future__ import annotations

from repro.routing import FiveTuple, Router
from repro.serve import Query, ServeState
from repro.topos import HpnSpec, build_hpn

SPEC = HpnSpec(
    segments_per_pod=2,
    hosts_per_segment=8,
    backup_hosts_per_segment=1,
    aggs_per_plane=4,
    agg_core_uplinks=0,
)


def live_queries(topo):
    hosts = sorted(h.name for h in topo.active_hosts())
    out = []
    for i in range(0, len(hosts) - 1, 2):
        out.append(Query(kind="path", src_host=hosts[i],
                         dst_host=hosts[i + 1]))
        out.append(Query(kind="planes", src_host=hosts[i],
                         dst_host=hosts[i + 1]))
    return out


def what_if_queries(topo):
    hosts = sorted(h.name for h in topo.active_hosts())
    lids = sorted(topo.links)
    return [
        Query(kind="path", src_host=hosts[0], dst_host=hosts[-1],
              fail_links=(lids[len(lids) // 2],)),
        Query(kind="residual", src_host=hosts[1], dst_host=hosts[-2],
              num_paths=2, sport_span=16, fail_links=(lids[3], lids[7])),
        Query(kind="planes", src_host=hosts[2], dst_host=hosts[-3],
              fail_switches=(sorted(topo.switches)[0],)),
    ]


class TestProbeIsolation:
    def test_probed_router_is_byte_identical_to_never_probed(self):
        control_topo, probed_topo = build_hpn(SPEC), build_hpn(SPEC)
        control = ServeState(control_topo)
        probed = ServeState(probed_topo)
        live = live_queries(control_topo)
        probes = what_if_queries(probed_topo)

        for step, q in enumerate(live):
            want = control.execute(q)
            # the probed side answers a what-if before every live query
            probe_res = probed.execute(probes[step % len(probes)])
            assert isinstance(probe_res, dict)
            got = probed.execute(q)
            assert got == want, (step, q)
            # the live cache never saw the probes: identical counters
            assert probed.router.stats.as_dict() == (
                control.router.stats.as_dict()
            ), step

    def test_batched_what_ifs_leave_live_cache_untouched(self):
        control_topo, probed_topo = build_hpn(SPEC), build_hpn(SPEC)
        control = ServeState(control_topo)
        probed = ServeState(probed_topo)
        live = live_queries(control_topo)
        probes = what_if_queries(probed_topo)

        want = control.execute_batch(live)
        got = probed.execute_batch(live + probes + live)
        assert got[:len(live)] == want
        assert got[len(live) + len(probes):] == want
        assert probed.router.stats.as_dict() == (
            control.router.stats.as_dict()
        )
        # every probe ran in its own fork: the topology is restored
        assert {lid: l.up for lid, l in probed_topo.links.items()} == {
            lid: l.up for lid, l in control_topo.links.items()
        }

    def test_probes_interleaved_with_real_failures(self):
        """Real failures apply on both sides; probes still leak nothing."""
        control_topo, probed_topo = build_hpn(SPEC), build_hpn(SPEC)
        control = ServeState(control_topo)
        probed = ServeState(probed_topo)
        live = live_queries(control_topo)
        probes = what_if_queries(probed_topo)
        fail_lid = sorted(control_topo.links)[5]

        script = [
            ("live", None), ("probe", 0), ("live", None),
            ("fail", False), ("live", None), ("probe", 1),
            ("live", None), ("fail", True), ("probe", 2), ("live", None),
        ]
        li = 0
        for op, arg in script:
            if op == "fail":
                control_topo.set_link_state(fail_lid, arg)
                probed_topo.set_link_state(fail_lid, arg)
            elif op == "probe":
                probed.execute(probes[arg])
            else:
                q = live[li % len(live)]
                li += 1
                assert probed.execute(q) == control.execute(q)
                assert probed.router.stats.as_dict() == (
                    control.router.stats.as_dict()
                )
        # same epoch history on the live path: probes added matched
        # fail/restore pairs, real failures added the same transitions
        assert {lid: l.up for lid, l in probed_topo.links.items()} == {
            lid: l.up for lid, l in control_topo.links.items()
        }

    def test_oracle_agrees_after_the_whole_interleaving(self):
        topo = build_hpn(SPEC)
        state = ServeState(topo)
        live = live_queries(topo)
        for probe in what_if_queries(topo):
            state.execute(probe)
        state.execute_batch(live + what_if_queries(topo))
        oracle = Router(topo)  # repro: noqa[LINT006]
        for q in live:
            got = state.execute(q)
            src = topo.hosts[q.src_host].nic_for_rail(q.src_rail)
            dst = topo.hosts[q.dst_host].nic_for_rail(q.dst_rail)
            if q.kind == "planes":
                assert got["planes"] == list(oracle.usable_planes(src, dst))
            else:
                ft = FiveTuple(src.ip, dst.ip, q.sport, q.dport)
                want = oracle.path_for(src, dst, ft, q.plane)
                assert got["nodes"] == list(want.nodes)
                assert got["dirlinks"] == list(want.dirlinks)


class TestTransientRestore:
    """O(transitions) restore: flip back only net-changed links."""

    def test_even_flip_count_restores_for_free(self):
        topo = build_hpn(SPEC)
        lid = sorted(topo.links)[0]
        epoch0 = topo.state_epoch
        with topo.transient_state():
            topo.set_link_state(lid, False)
            topo.set_link_state(lid, True)
            assert topo.state_epoch == epoch0 + 2
        # the link netted back to up: restore logged zero transitions
        assert topo.state_epoch == epoch0 + 2
        assert topo.links[lid].up

    def test_odd_flip_count_restores_with_one_transition(self):
        topo = build_hpn(SPEC)
        lid = sorted(topo.links)[0]
        epoch0 = topo.state_epoch
        with topo.transient_state():
            topo.set_link_state(lid, False)
        assert topo.links[lid].up
        # one failure inside + one restore transition
        assert topo.state_epoch == epoch0 + 2

    def test_nested_blocks_restore_to_their_own_entry_state(self):
        topo = build_hpn(SPEC)
        l1, l2 = sorted(topo.links)[:2]
        with topo.transient_state():
            topo.set_link_state(l1, False)
            with topo.transient_state():
                topo.set_link_state(l2, False)
                assert not topo.links[l1].up and not topo.links[l2].up
            # inner exit: l2 restored, l1 still down
            assert not topo.links[l1].up and topo.links[l2].up
        assert topo.links[l1].up and topo.links[l2].up

    def test_switches_and_links_restore_together(self):
        topo = build_hpn(SPEC)
        sw = sorted(topo.switches)[0]
        lid = sorted(topo.links)[9]
        links_before = {lid_: l.up for lid_, l in topo.links.items()}
        with topo.transient_state():
            topo.fail_node(sw)
            topo.set_link_state(lid, False)
            assert not topo.switches[sw].up
        assert topo.switches[sw].up
        assert {lid_: l.up for lid_, l in topo.links.items()} == links_before

    def test_restore_is_epoch_logged_not_silent(self):
        """The restore must go through the mutators (cache-visible)."""
        topo = build_hpn(SPEC)
        lid = sorted(topo.links)[0]
        with topo.transient_state():
            topo.set_link_state(lid, False)
        # the restore transition is in the log (parity per window: the
        # route cache sees fail+restore and nets them to zero)
        changes = topo.link_state_changes(0)
        assert list(changes).count(lid) == 2
