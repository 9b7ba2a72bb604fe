"""Differential testing: the simulator vs the from-scratch oracle.

:mod:`repro.fabric.oracle` keeps :func:`~repro.fabric.max_min_rates`
and a standalone reference event loop precisely so the simulator can
be checked against them -- :class:`~repro.fabric.SolverEquivalence`
drives both through scripted event sequences and a seeded randomized
campaign (HPN, rail-only, and single-ToR topologies, flow sets, failure
scripts), asserting agreement to 1e-9. :class:`TestGoldenBytes` pins
the simulator's finish times bit for bit against recorded values.
"""

import ast
import json
import random
from pathlib import Path

import pytest

import repro
from repro.core.units import GB, MB
from repro.engine import Runner, get_experiment
from repro.fabric import Flow, FluidSimulator, SolverEquivalence
from repro.routing import FiveTuple
from repro.staticcheck.semantics import ProjectIndex
from repro.workloads.reference import (
    MULTIPOD_DEFAULTS,
    POD_DEFAULTS,
    build_multipod_workload,
    build_pod_workload,
    build_reference_workload,
)

GOLDEN = Path(__file__).with_name("solver_golden.json")


def _edge_flow(topo, router, src, dst, rail, size, sport=50000,
               start_time=0.0):
    a = topo.hosts[src].nic_for_rail(rail)
    b = topo.hosts[dst].nic_for_rail(rail)
    ft = FiveTuple(a.ip, b.ip, sport, 4791)
    return Flow(ft, size, router.path_for(a, b, ft, plane=0),
                start_time=start_time)


class TestScripted:
    def test_rates_track_oracle_through_events(self, hpn_small, hpn_router):
        """activate / finish / capacity-change steps all stay equal."""
        flows = [
            _edge_flow(hpn_small, hpn_router,
                       f"pod0/seg0/host{i}", f"pod0/seg1/host{i}",
                       0, GB, sport=50000 + i)
            for i in range(6)
        ]
        extra = _edge_flow(hpn_small, hpn_router,
                           "pod0/seg0/host0", "pod0/seg0/host1", 1, GB,
                           sport=50100)
        hot = flows[0].path.dirlinks[0]
        script = [
            ("finish", flows[1]),
            ("activate", extra),
            ("cap", (hot, 0.0)),     # fail the access link
            ("finish", flows[2]),
            ("cap", (hot, 200.0)),   # repair it
        ]
        report = SolverEquivalence().check_rates(
            flows, lambda dl: hpn_small.links[dl // 2].gbps, script
        )
        assert report.ok, report.failures[:3]
        assert report.solves_checked == 1 + len(script)
        assert report.max_rate_err <= 1e-9

    def test_run_finish_times_agree(self, hpn_mutable):
        from repro.routing import Router

        router = Router(hpn_mutable)
        flows = [
            _edge_flow(hpn_mutable, router,
                       f"pod0/seg0/host{i}", f"pod0/seg0/host{(i + 1) % 4}",
                       0, (i + 1) * 100 * MB, sport=50000 + i,
                       start_time=0.002 * i)
            for i in range(4)
        ]
        victim = flows[0].path.dirlinks[0] // 2
        events = [(0.004, victim, False), (0.01, victim, True)]
        report = SolverEquivalence().check_run(hpn_mutable, flows, events)
        assert report.ok, report.failures[:3]
        assert report.flows_checked == len(flows)
        # inputs restored for reuse
        assert all(f.remaining_bytes == f.size_bytes for f in flows)
        assert hpn_mutable.links[victim].up


class TestRandomizedCampaign:
    def test_fifty_random_cases(self):
        """The acceptance-gate campaign: >=50 randomized configs."""
        report = SolverEquivalence().run_random(cases=50, seed=1234)
        assert report.cases >= 50
        assert report.flows_checked > 500
        assert report.ok, report.failures[:5]
        assert report.max_rate_err <= 1e-9
        assert report.max_finish_err <= 1e-9

    def test_campaign_is_deterministic(self):
        a = SolverEquivalence().run_random(cases=5, seed=7)
        b = SolverEquivalence().run_random(cases=5, seed=7)
        assert a.to_jsonable() == b.to_jsonable()

    def test_report_jsonable_shape(self):
        report = SolverEquivalence().run_random(cases=3, seed=99)
        doc = report.to_jsonable()
        assert set(doc) == {"cases", "solves_checked", "flows_checked",
                            "max_rate_err", "max_finish_err", "failures",
                            "ok"}
        assert doc["ok"] is True


class TestOracleIndependence:
    def test_check_run_catches_a_dropped_arrival(self, monkeypatch):
        """A simulator that loses the last flow of each same-instant
        batch is caught: the reference loop shares no code with it."""
        add_flows = FluidSimulator.add_flows

        def drop_last_of_each_batch(sim, flows):
            batches = {}
            for f in flows:
                batches.setdefault(f.start_time, []).append(f)
            add_flows(sim, [f for batch in batches.values()
                            for f in batch[:-1]])

        monkeypatch.setattr(FluidSimulator, "add_flows",
                            drop_last_of_each_batch)
        topo, flows, events = SolverEquivalence.random_case(
            random.Random(0))
        report = SolverEquivalence().check_run(topo, flows, events)
        one_sided = [msg for msg in report.failures
                     if "finished on one side only" in msg]
        assert one_sided, report.failures[:3]

    def test_only_the_reexport_and_two_lazy_callers_import_it(self):
        """No production path imports the oracle: only the package
        re-export, the simulator's opt-in drift check and the
        ``solver.equivalence`` experiment, the last two inside the
        function that uses it."""
        index = ProjectIndex(str(Path(repro.__file__).parent))
        importers = sorted(
            name for name, targets in index.import_graph.items()
            if "repro.fabric.oracle" in targets)
        assert importers == ["repro.engine.builtin", "repro.fabric",
                             "repro.fabric.simulator"]
        for name in ("repro.engine.builtin", "repro.fabric.simulator"):
            assert not [
                node for node in index.modules[name].tree.body
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").endswith("oracle")
            ], f"{name} imports the oracle at module level"


class TestGoldenBytes:
    """Finish times, bit for bit, against recorded bytes.

    ``solver_golden.json`` holds ``float.hex`` of every
    ``SimResult.flow_finish`` value of two seeded runs with a link
    flap, keyed by the flow's position in its built flow list (flow
    ids depend on how many flows earlier tests created). The values
    were recorded from the engine before fills were split per dirty
    component (merged component fills with a full-solve fallback), so
    a mismatch is a numerical change in the engine, never noise.
    """

    def _check(self, name: str) -> None:
        case = json.loads(GOLDEN.read_text())[name]
        if name == "multipod":
            topo, flows, events, _meta = build_multipod_workload(
                dict(MULTIPOD_DEFAULTS, **case["params"]), case["seed"])
        else:
            topo, flows, events = build_reference_workload(
                case["params"], case["seed"])
        sim = FluidSimulator(topo)
        sim.add_flows(flows)
        for t, lid, up in events:
            sim.schedule(
                t, lambda s, l=lid, u=up: s.topo.set_link_state(l, u))
        finish = sim.run().flow_finish
        got = [finish[f.flow_id].hex() if f.flow_id in finish else None
               for f in flows]
        want = case["finish_hex"]
        assert len(got) == len(want)
        diff = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
        assert not diff, (
            f"{len(diff)} of {len(want)} finishes differ; first at "
            f"position {diff[0]}: {got[diff[0]]} != {want[diff[0]]}"
        )
        return sim

    def test_reference_workload(self):
        """The reference shape at 8 hosts and seed 7: 1,024 flows."""
        sim = self._check("reference")
        # the dirty-set machinery engages rather than re-solving every
        # component at every boundary
        stats = sim._solver.stats
        assert stats.incremental_solves > stats.full_solves

    def test_multipod_workload(self):
        """A 3-Pod PP job at seed 42: 320 flows, large components."""
        self._check("multipod")


def _run_until(topo, flows, events, until):
    """An incremental simulator paused at ``until``, events applied."""
    sim = FluidSimulator(topo)
    sim.add_flows(flows)
    for t, lid, up in events:
        sim.schedule(t, lambda s, l=lid, u=up: s.topo.set_link_state(l, u))
    sim.run(until=until)
    return sim


class TestComponentDrift:
    """Committed rates vs the oracle, per component, at scale shapes."""

    def test_downscaled_pod_window(self):
        """4 segments x 24 hosts: 768 flows, read after the flap."""
        params = dict(POD_DEFAULTS, segments=4, hosts_per_segment=24,
                      aggs_per_plane=8, edge_mb=8.0, window_s=0.0015)
        topo, flows, events, _meta = build_pod_workload(params, 7)
        assert len(flows) >= 500
        sim = _run_until(topo, flows, events, params["window_s"])
        report = SolverEquivalence().component_drift(sim)
        assert report.ok, report.failures[:3]
        assert report.flows_checked > 0
        assert report.max_rate_err <= 1e-9

    def test_multipod_mid_flap_probe(self):
        """The 3-Pod PP job at seed 42: 1,280 flows, read mid-failure."""
        params = dict(MULTIPOD_DEFAULTS)
        topo, flows, events, _meta = build_multipod_workload(params, 42)
        assert len(flows) >= 1000
        probe_s = (params["fail_at_s"] + params["repair_at_s"]) / 2.0
        sim = _run_until(topo, flows, events, probe_s)
        assert not topo.links[events[0][1]].up  # the probe sees the failure
        report = SolverEquivalence().component_drift(sim)
        assert report.ok, report.failures[:3]
        assert report.flows_checked > 0
        assert report.max_rate_err <= 1e-9

    def test_drift_beyond_tol_is_reported(self):
        params = {"hosts": 8, "conns": 1, "steps": 1, "step_gap_s": 0.004,
                  "edge_mb": 24, "jitter": 0.05, "fail_at_s": -1,
                  "repair_at_s": 0}
        topo, flows, events = build_reference_workload(params, 7)
        sim = _run_until(topo, flows, events, 1e-4)
        victim = next(f for f in flows if f.rate_gbps > 0)
        victim.rate_gbps += 1e-6
        report = SolverEquivalence().component_drift(sim, label="probe")
        assert not report.ok
        assert report.failures[0].startswith(
            f"probe: flow {victim.flow_id} ")
        assert report.max_rate_err == pytest.approx(1e-6)
        assert SolverEquivalence(tol=1e-5).component_drift(sim).ok


def test_solver_equivalence_experiment():
    """The catalogue entry CI runs at 20,480 flows, at 128 flows."""
    spec = get_experiment("solver.equivalence").spec(
        seed=7, hosts=8, steps=2, conns=1)
    payload = Runner(cache=None).run([spec]).payloads[0]
    assert payload["ok"] is True, payload["failures"][:3]
    assert payload["flows"] == payload["flows_checked"] == 128
    assert payload["cases"] == 1


def test_unknown_script_op_rejected(hpn_small, hpn_router):
    f = _edge_flow(hpn_small, hpn_router,
                   "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
    with pytest.raises(ValueError, match="unknown script op"):
        SolverEquivalence().check_rates(
            [f], lambda dl: hpn_small.links[dl // 2].gbps,
            [("teleport", f)],
        )
