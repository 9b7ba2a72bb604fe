"""Incremental solver core: incidence index, dirty-set engine, heap loop.

Covers the pieces the rewrite added -- the persistent
:class:`~repro.fabric.IncidenceIndex`, the
:class:`~repro.fabric.IncrementalMaxMinSolver` dirty-set state machine
(noop / incremental / full modes, one fill per dirty component), the
waterfill kernel, the simulator's completion-heap event loop and
batched arrivals -- plus regression tests for the satellite fixes
(``until`` with stalled flows, the ``flow.start`` emit-once guard, the
oracle's dead-link pass).
"""

import random
from types import SimpleNamespace

import pytest

from repro.core.units import GB, MB
from repro.fabric import (
    Flow,
    FluidSimulator,
    IncidenceIndex,
    IncrementalMaxMinSolver,
    build_snapshot,
    max_min_rates,
    run_flows,
    waterfill,
)
from repro.obs import Recorder
from repro.routing import FiveTuple, Router


def _edge_flow(topo, router, src, dst, rail, size, sport=50000, plane=0,
               start_time=0.0):
    a = topo.hosts[src].nic_for_rail(rail)
    b = topo.hosts[dst].nic_for_rail(rail)
    ft = FiveTuple(a.ip, b.ip, sport, 4791)
    path = router.path_for(a, b, ft, plane=plane)
    return Flow(ft, size, path, start_time=start_time)


def _cap_of(topo):
    def link_gbps(dl):
        link = topo.links[dl // 2]
        return link.gbps if link.up else 0.0
    return link_gbps


# ======================================================================
class TestIncidenceIndex:
    def test_add_remove_maintains_weights(self, hpn_small, hpn_router):
        idx = IncidenceIndex()
        cap = _cap_of(hpn_small)
        f1 = _edge_flow(hpn_small, hpn_router,
                        "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        f2 = _edge_flow(hpn_small, hpn_router,
                        "pod0/seg0/host0", "pod0/seg0/host2", 0, GB,
                        sport=50001)
        idx.add(f1, cap)
        idx.add(f2, cap)
        assert len(idx) == 2
        shared = set(f1.path.dirlinks) & set(f2.path.dirlinks)
        assert shared  # same source NIC -> shared access dirlink
        dense = idx.dense_of[next(iter(shared))]
        assert idx.weight[dense] == 2
        idx.remove(f1)
        assert idx.weight[dense] == 1
        idx.remove(f2)
        assert idx.weight[dense] == 0
        assert len(idx) == 0
        # dense ids survive (the index never forgets a link)
        assert idx.num_links > 0

    def test_double_add_rejected(self, hpn_small, hpn_router):
        idx = IncidenceIndex()
        f = _edge_flow(hpn_small, hpn_router,
                       "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        idx.add(f, _cap_of(hpn_small))
        with pytest.raises(ValueError):
            idx.add(f, _cap_of(hpn_small))

    def test_capacities_registered_and_refreshed(self, hpn_mutable):
        router = Router(hpn_mutable)
        idx = IncidenceIndex()
        cap = _cap_of(hpn_mutable)
        f = _edge_flow(hpn_mutable, router,
                       "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        idx.add(f, cap)
        assert idx.refresh_capacities(cap) == []  # nothing changed
        victim = f.path.dirlinks[0]
        hpn_mutable.set_link_state(victim // 2, False)
        changed = idx.refresh_capacities(cap)
        assert idx.dense_of[victim] in changed
        assert idx.cap[idx.dense_of[victim]] == 0.0
        hpn_mutable.set_link_state(victim // 2, True)
        assert idx.dense_of[victim] in idx.refresh_capacities(cap)

    def test_component_closure(self, hpn_small, hpn_router):
        idx = IncidenceIndex()
        cap = _cap_of(hpn_small)
        # two flows share host0's NIC; a third is disjoint (host4->5)
        f1 = _edge_flow(hpn_small, hpn_router,
                        "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        f2 = _edge_flow(hpn_small, hpn_router,
                        "pod0/seg0/host0", "pod0/seg0/host2", 0, GB,
                        sport=50001)
        f3 = _edge_flow(hpn_small, hpn_router,
                        "pod0/seg0/host4", "pod0/seg0/host5", 1, GB,
                        sport=50002)
        for f in (f1, f2, f3):
            idx.add(f, cap)
        comp_flows, comp_links = idx.component([f1.flow_id], [])
        assert comp_flows == {f1.flow_id, f2.flow_id}  # f3 unreachable
        assert all(idx.weight[d] > 0 for d in comp_links)
        # components() keeps the disjoint walks apart, by smallest id
        comps = idx.components([f3.flow_id, f1.flow_id], [])
        assert [c[0] for c in comps] == [{f1.flow_id, f2.flow_id},
                                         {f3.flow_id}]
        assert comps[0] == (comp_flows, comp_links)

    def test_multiplicity_counted(self, hpn_small, hpn_router):
        f = _edge_flow(hpn_small, hpn_router,
                       "pod0/seg0/host0", "pod0/seg1/host0", 0, GB)
        mult = dict(f.path.dirlink_multiplicity())
        assert sum(mult.values()) == len(f.path.dirlinks)
        for dl in f.path.dirlinks:
            assert mult[dl] >= 1


# ======================================================================
class TestWaterfillKernel:
    def test_matches_oracle_on_random_incidence(self):
        """Synthetic incidence graphs: links crossed several times by
        one flow (no routed path does this), dead and near-dead links,
        empty paths -- per component, kernel == oracle to 1e-9."""
        rng = random.Random(5)
        for _case in range(200):
            caps = [rng.choice([0.0, 1e-13, 1 / 3, 100.0, 400.0,
                                rng.uniform(1.0, 400.0)])
                    for _ in range(rng.randint(1, 24))]
            flows = []
            for fid in range(rng.randint(1, 30)):
                dirlinks = [rng.randrange(len(caps))
                            for _ in range(rng.randint(0, 5))]
                mult = {dl: dirlinks.count(dl) for dl in dirlinks}
                path = SimpleNamespace(
                    dirlinks=dirlinks,
                    dirlink_multiplicity=lambda m=mult: tuple(m.items()))
                flows.append(SimpleNamespace(flow_id=fid, path=path))
            idx = IncidenceIndex()
            for f in flows:
                idx.add(f, caps.__getitem__)
            oracle = max_min_rates(flows, caps.__getitem__)
            for comp_flows, _links in idx.components(idx.flows, ()):
                snap = build_snapshot(idx, comp_flows)
                rates, _iters = waterfill(snap)
                for fid, rate in zip(snap.flow_ids, rates):
                    assert rate == pytest.approx(oracle[fid], abs=1e-9)


# ======================================================================
class TestIncrementalSolver:
    def test_matches_oracle_on_shared_access(self, hpn_small, hpn_router):
        a = hpn_small.hosts["pod0/seg0/host0"].nic_for_rail(0)
        flows = []
        for i, dst in enumerate(["pod0/seg0/host1", "pod0/seg0/host2"]):
            b = hpn_small.hosts[dst].nic_for_rail(0)
            ft = FiveTuple(a.ip, b.ip, 50000 + i, 4791)
            flows.append(Flow(ft, GB, hpn_router.path_for(a, b, ft, plane=0)))
        solver = IncrementalMaxMinSolver(_cap_of(hpn_small))
        for f in flows:
            solver.activate(f)
        solver.solve()
        oracle = max_min_rates(flows, _cap_of(hpn_small))
        for f in flows:
            assert solver.rates[f.flow_id] == pytest.approx(
                oracle[f.flow_id], abs=1e-9
            )

    def test_noop_when_nothing_dirty(self, hpn_small, hpn_router):
        f = _edge_flow(hpn_small, hpn_router,
                       "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        solver = IncrementalMaxMinSolver(_cap_of(hpn_small))
        solver.activate(f)
        first = solver.solve()
        assert first.mode in ("incremental", "full")
        again = solver.solve()
        assert again.mode == "noop"
        assert again.touched == frozenset()
        assert solver.stats.noop_solves == 1

    def test_disjoint_component_not_resolved(self, hpn_small, hpn_router):
        """An arrival re-solves its component, not the whole graph."""
        f1 = _edge_flow(hpn_small, hpn_router,
                        "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        f3 = _edge_flow(hpn_small, hpn_router,
                        "pod0/seg0/host4", "pod0/seg0/host5", 1, GB,
                        sport=50002)
        solver = IncrementalMaxMinSolver(_cap_of(hpn_small))
        solver.activate(f1)
        solver.solve()
        solver.activate(f3)
        outcome = solver.solve()
        assert outcome.mode == "incremental"
        assert outcome.touched == frozenset({f3.flow_id})
        assert f1.flow_id in solver.rates  # frozen rate spliced, not lost

    def test_full_mode_when_dirty_covers_all_active(
            self, hpn_small, hpn_router):
        """"full" is reported exactly when the dirty components cover
        every active flow -- here two disjoint ones, both dirty."""
        f1 = _edge_flow(hpn_small, hpn_router,
                        "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        f3 = _edge_flow(hpn_small, hpn_router,
                        "pod0/seg0/host4", "pod0/seg0/host5", 1, GB,
                        sport=50002)
        solver = IncrementalMaxMinSolver(_cap_of(hpn_small))
        solver.activate(f1)
        solver.activate(f3)
        outcome = solver.solve()
        assert outcome.mode == "full"
        assert outcome.touched == frozenset({f1.flow_id, f3.flow_id})
        assert outcome.dirty_frac == 1.0
        assert solver.stats.full_solves == 1
        # dirtying a link on f1's path re-solves only f1's component
        solver.mark_link_dirty(f1.path.dirlinks[0])
        outcome = solver.solve()
        assert outcome.mode == "incremental"
        assert outcome.touched == frozenset({f1.flow_id})
        assert outcome.dirty_frac == 0.5

    def test_finish_dirties_vacated_links(self, hpn_small, hpn_router):
        a = hpn_small.hosts["pod0/seg0/host0"].nic_for_rail(0)
        flows = []
        for i, dst in enumerate(["pod0/seg0/host1", "pod0/seg0/host2"]):
            b = hpn_small.hosts[dst].nic_for_rail(0)
            ft = FiveTuple(a.ip, b.ip, 50000 + i, 4791)
            flows.append(Flow(ft, GB, hpn_router.path_for(a, b, ft, plane=0)))
        solver = IncrementalMaxMinSolver(_cap_of(hpn_small))
        for f in flows:
            solver.activate(f)
        solver.solve()
        assert solver.rates[flows[1].flow_id] == pytest.approx(100.0)
        solver.finish(flows[0])
        outcome = solver.solve()
        assert flows[1].flow_id in outcome.touched
        assert solver.rates[flows[1].flow_id] == pytest.approx(200.0)
        assert flows[0].flow_id not in solver.rates

    def test_capacity_sweep_catches_out_of_band_failure(self, hpn_mutable):
        """No mark_link_dirty call needed: the refresh sweep sees it."""
        router = Router(hpn_mutable)
        f = _edge_flow(hpn_mutable, router,
                       "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        solver = IncrementalMaxMinSolver(_cap_of(hpn_mutable))
        solver.activate(f)
        solver.solve()
        assert solver.rates[f.flow_id] == pytest.approx(200.0)
        hpn_mutable.set_link_state(f.path.dirlinks[0] // 2, False)
        outcome = solver.solve()
        assert outcome.mode != "noop"
        assert solver.rates[f.flow_id] == 0.0
        hpn_mutable.set_link_state(f.path.dirlinks[0] // 2, True)
        solver.solve()
        assert solver.rates[f.flow_id] == pytest.approx(200.0)


# ======================================================================
class TestIncrementalEngineLoop:
    """The simulator's incremental event loop mirrors the legacy one."""

    def test_completion_time_of_one_flow(self, hpn_small, hpn_router):
        f = _edge_flow(hpn_small, hpn_router,
                       "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        result = run_flows(hpn_small, [f], solver="incremental")
        assert result.finish_time == pytest.approx(0.04)
        assert f.finish_time == pytest.approx(0.04)

    def test_rate_rises_after_short_flow_finishes(self, hpn_small, hpn_router):
        a = hpn_small.hosts["pod0/seg0/host0"].nic_for_rail(0)
        b = hpn_small.hosts["pod0/seg0/host1"].nic_for_rail(0)
        short = Flow(FiveTuple(a.ip, b.ip, 50000, 4791), 100 * MB,
                     hpn_router.path_for(
                         a, b, FiveTuple(a.ip, b.ip, 50000, 4791), plane=0))
        long = Flow(FiveTuple(a.ip, b.ip, 50001, 4791), GB,
                    hpn_router.path_for(
                        a, b, FiveTuple(a.ip, b.ip, 50001, 4791), plane=0))
        result = run_flows(hpn_small, [short, long], solver="incremental")
        oracle = run_flows(hpn_small, [short.reset() or short,
                                       long.reset() or long], solver="full")
        assert result.flow_finish[short.flow_id] == pytest.approx(
            oracle.flow_finish[short.flow_id])
        assert result.flow_finish[long.flow_id] == pytest.approx(
            oracle.flow_finish[long.flow_id])

    def test_batched_arrivals_one_solve(self, hpn_small, hpn_router):
        """Simultaneous arrivals cost one rate solve, not one each."""
        flows = [
            _edge_flow(hpn_small, hpn_router,
                       f"pod0/seg0/host{i}", f"pod0/seg1/host{i}", 0, GB,
                       sport=50000 + i)
            for i in range(4)
        ]
        sim = FluidSimulator(hpn_small, solver="incremental")
        sim.add_flows(flows)
        sim.run()
        stats = sim._solver.stats
        # boundary 1: all four arrive (one solve); then one boundary
        # per completion wave -- never one solve per arriving flow
        assert stats.solves <= 1 + len(flows)

    def test_mid_run_failure_event(self, hpn_mutable):
        router = Router(hpn_mutable)
        f = _edge_flow(hpn_mutable, router,
                       "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        link_id = f.path.dirlinks[0] // 2
        sim = FluidSimulator(hpn_mutable, solver="incremental")
        sim.add_flows([f])
        # down for 10 ms mid-transfer: finish slides out by exactly that
        sim.schedule(0.01, lambda s: s.topo.set_link_state(link_id, False))
        sim.schedule(0.02, lambda s: s.topo.set_link_state(link_id, True))
        result = sim.run()
        assert result.finish_time == pytest.approx(0.05)

    def test_deadlock_detection(self, hpn_mutable):
        from repro.core.errors import SimulationError

        router = Router(hpn_mutable)
        f = _edge_flow(hpn_mutable, router,
                       "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        hpn_mutable.set_link_state(f.path.dirlinks[0] // 2, False)
        sim = FluidSimulator(hpn_mutable, solver="incremental")
        sim.add_flows([f])
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run()
        hpn_mutable.set_link_state(f.path.dirlinks[0] // 2, True)

    def test_active_flows_materialized_mid_run(self, hpn_small, hpn_router):
        """Lazy progress accounting is invisible to observers."""
        f = _edge_flow(hpn_small, hpn_router,
                       "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        sim = FluidSimulator(hpn_small, solver="incremental")
        sim.add_flows([f])
        sim.run(until=0.02)  # halfway through the 40 ms transfer
        [live] = sim.active_flows
        assert live.remaining_bytes == pytest.approx(GB / 2, rel=1e-6)

    def test_solver_mode_validated(self, hpn_small):
        with pytest.raises(ValueError):
            FluidSimulator(hpn_small, solver="quantum")

    def test_obs_counters_report_engine_mix(self, hpn_small, hpn_router):
        flows = [
            _edge_flow(hpn_small, hpn_router,
                       "pod0/seg0/host0", "pod0/seg0/host1", 0, GB),
            _edge_flow(hpn_small, hpn_router,
                       "pod0/seg0/host4", "pod0/seg0/host5", 1, GB,
                       sport=50001),
        ]
        rec = Recorder()
        run_flows(hpn_small, flows, solver="incremental", recorder=rec)
        m = rec.metrics
        total = m.counter("sim.solves").value
        assert total > 0
        assert (m.counter("sim.full_solves").value
                + m.counter("sim.incremental_solves").value
                + m.counter("sim.noop_solves").value) == total
        assert m.histogram("sim.dirty_frac").count > 0

    def test_kernel_iters_recorded(self, hpn_small, hpn_router):
        flows = [
            _edge_flow(hpn_small, hpn_router,
                       f"pod0/seg0/host{i}", f"pod0/seg1/host{i}", 0, GB,
                       sport=50000 + i)
            for i in range(4)
        ]
        rec = Recorder()
        sim = FluidSimulator(hpn_small, recorder=rec)
        sim.add_flows(flows)
        sim.run()
        iters = rec.metrics.counter("sim.kernel_iters").value
        assert iters == sim._solver.stats.kernel_iters > 0


# ======================================================================
class TestSatelliteRegressions:
    def test_until_with_stalled_flow_does_not_spin(self, hpn_mutable):
        """A zero-rate (stalled) flow + ``until`` before the repair
        event must stop at ``until`` -- not deadlock, not loop."""
        router = Router(hpn_mutable)
        f = _edge_flow(hpn_mutable, router,
                       "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        link_id = f.path.dirlinks[0] // 2
        for mode in ("full", "incremental"):
            f.reset()
            hpn_mutable.set_link_state(link_id, False)
            sim = FluidSimulator(hpn_mutable, solver=mode)
            sim.add_flows([f])
            # the flow is stalled until the repair at t=1.0; until=0.5
            # lands strictly before it
            sim.schedule(1.0, lambda s: s.topo.set_link_state(link_id, True))
            result = sim.run(until=0.5)
            assert result.finish_time == pytest.approx(0.5)
            assert f.flow_id not in result.flow_finish
            hpn_mutable.set_link_state(link_id, True)

    def test_until_before_first_arrival(self, hpn_small, hpn_router):
        f = _edge_flow(hpn_small, hpn_router,
                       "pod0/seg0/host0", "pod0/seg0/host1", 0, GB,
                       start_time=1.0)
        for mode in ("full", "incremental"):
            f.reset()
            sim = FluidSimulator(hpn_small, solver=mode)
            sim.add_flows([f])
            result = sim.run(until=0.25)
            assert result.finish_time == pytest.approx(0.25)
            assert result.flow_finish == {}

    def test_flow_start_emitted_once_across_reactivation(
            self, hpn_small, hpn_router):
        """Replay re-activates the same Flow objects; the ``flow.start``
        instant fires once per reset-delimited lifetime."""
        f = _edge_flow(hpn_small, hpn_router,
                       "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
        rec = Recorder()
        sim = FluidSimulator(hpn_small, recorder=rec, solver="full")
        sim._activate(f)
        sim._activate(f)  # same object, re-activated (replay pattern)
        starts = [e for e in rec.events if e.name == "flow.start"]
        assert len(starts) == 1
        assert rec.metrics.counter("sim.flows_started").value == 1
        # a reset opens a new lifetime: the next activation emits again
        f.reset()
        rec2 = Recorder()
        run_flows(hpn_small, [f], recorder=rec2)
        assert len([e for e in rec2.events if e.name == "flow.start"]) == 1

    def test_oracle_two_dead_links_no_double_debit(self, hpn_mutable):
        """A flow crossing *two* dead links must be debited exactly once
        from each link it shares with live flows."""
        router = Router(hpn_mutable)
        # victim crosses the inter-segment fabric (many links)
        victim = _edge_flow(hpn_mutable, router,
                            "pod0/seg0/host0", "pod0/seg1/host0", 0, GB)
        # bystander shares the victim's first access link's ToR side
        bystander = _edge_flow(hpn_mutable, router,
                               "pod0/seg0/host0", "pod0/seg0/host1", 0, GB,
                               sport=50001)
        assert set(victim.path.dirlinks) & set(bystander.path.dirlinks)
        # kill two distinct links on the victim's path that the
        # bystander does NOT use
        victim_only = [dl for dl in victim.path.dirlinks
                       if dl not in set(bystander.path.dirlinks)]
        assert len(victim_only) >= 2
        dead = {victim_only[0] // 2, victim_only[-1] // 2}
        assert len(dead) == 2
        for lid in dead:
            hpn_mutable.set_link_state(lid, False)
        rates = max_min_rates([victim, bystander], _cap_of(hpn_mutable))
        assert rates[victim.flow_id] == 0.0
        # with a correct single debit the bystander owns the shared
        # access link alone: full 200G, not an inflated/corrupt share
        assert rates[bystander.flow_id] == pytest.approx(200.0)
        for lid in dead:
            hpn_mutable.set_link_state(lid, True)

    def test_incremental_two_dead_links_matches_oracle(self, hpn_mutable):
        router = Router(hpn_mutable)
        victim = _edge_flow(hpn_mutable, router,
                            "pod0/seg0/host0", "pod0/seg1/host0", 0, GB)
        bystander = _edge_flow(hpn_mutable, router,
                               "pod0/seg0/host0", "pod0/seg0/host1", 0, GB,
                               sport=50001)
        victim_only = [dl for dl in victim.path.dirlinks
                       if dl not in set(bystander.path.dirlinks)]
        dead = {victim_only[0] // 2, victim_only[-1] // 2}
        for lid in dead:
            hpn_mutable.set_link_state(lid, False)
        solver = IncrementalMaxMinSolver(_cap_of(hpn_mutable))
        solver.activate(victim)
        solver.activate(bystander)
        solver.solve()
        oracle = max_min_rates([victim, bystander], _cap_of(hpn_mutable))
        assert solver.rates[victim.flow_id] == oracle[victim.flow_id] == 0.0
        assert solver.rates[bystander.flow_id] == pytest.approx(
            oracle[bystander.flow_id])
        for lid in dead:
            hpn_mutable.set_link_state(lid, True)
