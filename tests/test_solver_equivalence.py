"""Differential testing: the incremental engine vs the full-solve oracle.

The legacy :func:`~repro.fabric.max_min_rates` is kept precisely so
the incremental engine can be checked against it --
:class:`~repro.fabric.SolverEquivalence` drives both through scripted
event sequences and a seeded randomized campaign (HPN, rail-only, and
single-ToR topologies, flow sets, failure scripts), asserting agreement
to 1e-9. :class:`TestGoldenBytes` pins the engine's finish times bit
for bit against recorded values.
"""

import json
from pathlib import Path

import pytest

from repro.core.units import GB, MB
from repro.fabric import Flow, FluidSimulator, SolverEquivalence
from repro.fabric.simbench import (
    MULTIPOD_DEFAULTS,
    build_multipod_workload,
    build_reference_workload,
)
from repro.routing import FiveTuple

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

    def test_reference_workload(self):
        """The perf suite's smoke shape at seed 7: 1,024 flows."""
        self._check("reference")

    def test_multipod_workload(self):
        """A 3-Pod PP job at seed 42: 320 flows, large components."""
        self._check("multipod")


def test_unknown_script_op_rejected(hpn_small, hpn_router):
    f = _edge_flow(hpn_small, hpn_router,
                   "pod0/seg0/host0", "pod0/seg0/host1", 0, GB)
    with pytest.raises(ValueError, match="unknown script op"):
        SolverEquivalence().check_rates(
            [f], lambda dl: hpn_small.links[dl // 2].gbps,
            [("teleport", f)],
        )
